"""The benchmark's recorder still finds every function of the pass it wraps.

perfbench/recorder.py times a layer by wrapping a name in the module where
ldme looks it up. If a rename or an inlined call removes such a lookup, the
layer's per-layer metric silently reads zero. Two toy solves of the
benchmark's own workloads, one 1-D and one in d = 20, run under the
recorder here, with a d = 6 solve that reweights: a pass that certifies
from its eigenvalue takes no variance of its projections, so on the two
toys that target reads zero, and only a d > 1 pass that reaches the
certificate's full check (a reweight) calls it. Every driver and pass
target must record a call but one: ``wdata.mean`` records none, since a
certified branch's hypothesis is its eigenpair's mean and the driver keeps
the name only for the recorder.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

import ldme.driver  # noqa: E402
from ldme import RunConfig  # noqa: E402
from perfbench.recorder import TARGETS, Recorder  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402
from test_driver import junk_instance  # noqa: E402

PASS_MODULES = ("ldme.driver", "ldme.multifilter")


def test_every_pass_target_records_a_call(tmp_path):
    rec = Recorder()
    for op, name in enumerate(("scalar_junk", "line_deep")):
        wl = make_workload(name, shrink=8)
        wl.prepare(6271, tmp_path)
        inp = wl.make_input(0)
        with rec.tracing(op):
            wl.run(inp)
    toys = {}
    for op in range(2):
        for span, layer in rec.layer_times(op).items():
            toys[span] = toys.get(span, 0) + layer.calls
    with rec.tracing(2):
        ldme.driver.list_decode_mean(junk_instance(4000, 6, seed=51), RunConfig(alpha=0.2))
    calls = dict(toys)
    for span, layer in rec.layer_times(2).items():
        calls[span] = calls.get(span, 0) + layer.calls
    targets = [(module, span) for module, _, span in TARGETS if module in PASS_MODULES]
    assert targets
    assert ("ldme.driver", "wdata.mean") in targets and calls.get("wdata.mean", 0) == 0
    for module, span in targets:
        if span != "wdata.mean":
            assert calls.get(span, 0) >= 1, f"{module}: no call recorded for {span}"
    # Every target but the projections' variance and the mean is reached by the toys.
    missed = [span for _, span in targets if not toys.get(span, 0)]
    assert missed == ["wdata.mean", "wdata.variance"]
    # The outcome counts come from the observer the recorder installs.
    assert rec.counts[0]["reweighted"] >= 1 and rec.counts[1]["split"] >= 1
    assert rec.counts[2]["reweighted"] >= 1

"""The benchmark's recorder still finds every function of the pass it wraps.

perfbench/recorder.py times a layer by wrapping a name in the module where
ldme looks it up. If a rename or an inlined call removes such a lookup, the
layer's per-layer metric silently reads zero. Two toy solves of the
benchmark's own workloads, one 1-D and one in d = 20, run under the
recorder here, and every driver and pass target must record a call.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.recorder import TARGETS, Recorder  # noqa: E402
from perfbench.workloads import make_workload  # noqa: E402

PASS_MODULES = ("ldme.driver", "ldme.multifilter")


def test_every_pass_target_records_a_call(tmp_path):
    rec = Recorder()
    for op, name in enumerate(("scalar_junk", "line_deep")):
        wl = make_workload(name, shrink=8)
        wl.prepare(6271, tmp_path)
        inp = wl.make_input(0)
        with rec.tracing(op):
            wl.run(inp)
    calls = {}
    for op in range(2):
        for span, layer in rec.layer_times(op).items():
            calls[span] = calls.get(span, 0) + layer.calls
    targets = [(module, span) for module, _, span in TARGETS if module in PASS_MODULES]
    assert targets
    for module, span in targets:
        assert calls.get(span, 0) >= 1, f"{module}: no call recorded for {span}"
    # The outcome counts come from the observer the recorder installs.
    assert rec.counts[0]["reweighted"] >= 1 and rec.counts[1]["split"] >= 1

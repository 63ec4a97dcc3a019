"""Closed-loop measurement of one workload and the metrics it reports.

One client issues the next operation only after the previous one has
finished and been checked. Inputs are generated before each timed region,
outputs are checked after it. ``--trace 0`` installs no wrapper and reports
the end-to-end metrics; ``--trace 1`` runs every input untraced and traced,
requires the two answers to agree bit for bit, and reports per-layer
metrics taken from the traced runs.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.recorder import Recorder
from perfbench.workloads import check_answer, fingerprint, make_workload

# setup_s is the median over this many processes, this one included.
SETUP_PROCESSES = 5

# Operation index under which the traced thread-count check is filed.
THREAD_CHECK = -1

BENCH_DIR = Path(__file__).resolve().parent
# Metric names and units, as the repository's BENCHMARK.json declares them.
DECLARED = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


@dataclass
class Op:
    """One attempted operation: its time, the gate's verdicts, any failure."""

    seconds: float
    checks: list = field(default_factory=list)
    failure: str | None = None
    digest: bytes = b""


def _attempt(wl, inp, label: str, region=nullcontext) -> Op:
    """Run inside ``region()``, then read back and check the answers."""
    start = time.perf_counter()
    try:
        with region():
            result = wl.run(inp, label)
    except Exception as err:  # any exception is a failed operation
        seconds = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        return Op(seconds, failure=f"{type(err).__name__}: {err}")
    seconds = time.perf_counter() - start
    try:
        answers = wl.collect(inp, label, result)
    except (OSError, ValueError, KeyError) as err:
        return Op(seconds, failure=f"unreadable output: {err}")
    checks = [
        check_answer(a, mu, wl.alpha) for a, mu in zip(answers, wl.true_means(inp))
    ]
    failure = next((c.failure for c in checks if c.failure), None)
    return Op(seconds, checks, failure, fingerprint(answers))


def set_up(wl, seed: int, workdir: Path, started: float) -> float:
    """Prepare, make the first input and warm up; return the seconds from
    ``started`` (the process start) until the first operation could begin."""
    wl.prepare(seed, workdir)
    first = wl.make_input(0)
    wl.warm_up()
    seconds = time.perf_counter() - started
    wl.discard(first)
    return seconds


def setup_seconds(name: str, seed: int, own: float, workdir: Path, shrink: int) -> float:
    """Median of ``own`` and the set-up seconds of fresh processes.

    Each process pays its own import and first-call costs, so one-time
    costs are in every sample; only the median is reported.
    """
    samples = [own]
    for i in range(1, SETUP_PROCESSES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(seed), "--seconds", "0", "--shrink", str(shrink),
             "--setup-only", str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.splitlines()[-1]))
    return statistics.median(samples)


def run_untraced(wl, seconds: float) -> list[Op]:
    # One input is alive at a time, so peak_rss_mb does not depend on when
    # the previous input's memory is released.
    ops: list[Op] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        inp = wl.make_input(len(ops))
        ops.append(_attempt(wl, inp, "plain"))
        wl.discard(inp)
        del inp
    return ops


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(rec: Recorder, index: int, traced: Op) -> dict:
    """Per-layer values of one traced operation (absent layers read 0)."""
    lt = rec.layer_times(index)
    counts = rec.counts[index]

    def total(name):
        return lt[name].total

    op_s = total("op")
    raw = sum(c.raw_size for c in traced.checks)
    reduced = sum(c.reduced_size for c in traced.checks)
    split_calls = lt["multifilter.find_split"].calls
    return {
        "wdata.eig_s": total("wdata.eig"),
        "wdata.eig_calls": lt["wdata.eig"].calls,
        "wdata.eig_share": _ratio(total("wdata.eig"), op_s),
        "multifilter.filter_s": total("multifilter.filter"),
        "multifilter.filter_self_s": lt["multifilter.filter"].self_,
        "multifilter.quantile_s": total("multifilter.quantile"),
        "multifilter.truncvar_s": total("multifilter.truncvar"),
        "multifilter.downweight_s": total("multifilter.downweight"),
        "multifilter.find_split_s": total("multifilter.find_split"),
        "multifilter.find_split_calls": split_calls,
        "multifilter.split_yield": _ratio(counts["split"], split_calls),
        "multifilter.certified": counts["certified"],
        "multifilter.reweighted": counts["reweighted"],
        "multifilter.split": counts["split"],
        "driver.pruned": counts["pruned"],
        "driver.passes": counts["passes"],
        "driver.max_depth": counts["max_depth"],
        "driver.self_s": lt["driver"].self_,
        "listreduce.reduce_s": total("listreduce.reduce"),
        "listreduce.kept_ratio": _ratio(reduced, raw),
        "dataio.load_s": total("dataio.load"),
        "dataio.load_mb_per_s": _ratio(lt["dataio.load"].nbytes / 1e6, total("dataio.load")),
        "dataio.save_s": total("dataio.save"),
        "instances.gen_s": total("instances.gen"),
        "experiment.run_s": total("experiment.run"),
        "report.evaluate_s": total("report.evaluate"),
        "report.trace_csv_s": total("report.trace_csv"),
        "cli.self_s": lt["cli"].self_,
    }


def parallel_efficiency(rec: Recorder, threads: int | None) -> float:
    """Summed run_experiment seconds / (sweep wall x threads), taken from
    the traced thread-count check; 0 for workloads without one."""
    if not threads:
        return 0.0
    lt = rec.layer_times(THREAD_CHECK)
    return _ratio(lt["experiment.run"].total, lt["experiment.sweep"].total * threads)


def run_traced(wl, seconds: float, rec: Recorder):
    """Untraced and traced run of every input, alternating which goes first.

    Returns the untraced ops (with any disagreement recorded as their
    failure), the per-op layer values and the traced/untraced time ratios.
    """
    ops: list[Op] = []
    layers: list[dict] = []
    ratios: list[float] = []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        index = len(ops)
        with rec.tracing(index):
            inp = wl.make_input(index)
        got = {}
        for label in ("plain", "traced") if index % 2 == 0 else ("traced", "plain"):
            if label == "traced":
                with rec.tracing(index):
                    got[label] = _attempt(wl, inp, label, lambda: rec.span("op"))
            else:
                got[label] = _attempt(wl, inp, label)
        plain, traced = got["plain"], got["traced"]
        failure = plain.failure or traced.failure
        if not failure and plain.digest != traced.digest:
            failure = "traced run changed the hypotheses"
        if not failure and index == 0 and wl.check_threads:
            with rec.tracing(THREAD_CHECK):
                other = _attempt(wl, inp, "threads", lambda: rec.span("op"))
            failure = other.failure
            if not failure and other.digest != plain.digest:
                failure = f"LDME_THREADS={wl.check_threads} changed the hypotheses"
        plain.failure = failure
        ops.append(plain)
        layers.append(layer_metrics(rec, index, traced))
        ratios.append(traced.seconds / plain.seconds)
        wl.discard(inp)
    return ops, layers, ratios


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(ops: list[Op], setup_s: float) -> dict:
    checks = [c for op in ops for c in op.checks]
    passed = sum(1 for c in checks if c.failure is None)
    failed = sum(1 for op in ops if op.failure)
    return {
        "solve_s_p50": _median(op.seconds for op in ops),
        "instances_per_s": passed / sum(op.seconds for op in ops),
        "pass_frac": 1.0 - failed / len(ops),
        "err_ratio_p50": _median(c.err_ratio for c in checks if math.isfinite(c.err_ratio)),
        "list_size_p50": _median(c.raw_size for c in checks),
        "reduced_list_size_p50": _median(c.reduced_size for c in checks),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    started: float,
    out_dir: Path,
    shrink: int = 1,
) -> dict:
    """Set up, measure for ``seconds`` and return the result object.

    ``started`` is the ``time.perf_counter()`` reading at process start.
    """
    wl = make_workload(name, shrink=shrink)
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = out_dir / f"{name}-seed{seed}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        own_setup_s = set_up(wl, seed, workdir, started)
        if trace:
            rec = Recorder()
            ops, layers, ratios = run_traced(wl, seconds, rec)
            values = {key: _median(layer[key] for layer in layers) for key in layers[0]}
            values["experiment.parallel_eff"] = parallel_efficiency(rec, wl.check_threads)
            values["trace.overhead_frac"] = _median(ratios) - 1.0
            rec.dump(out_dir / f"spans-{name}-seed{seed}.jsonl")
            section = "per_layer"
        else:
            setup_s = setup_seconds(name, seed, own_setup_s, workdir, shrink)
            ops = run_untraced(wl, seconds)
            values = end_to_end_metrics(ops, setup_s)
            section = "end_to_end"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for op in ops:
        if op.failure:
            print(f"perfbench: {name}: {op.failure}", file=sys.stderr)
    failed = sum(1 for op in ops if op.failure)
    units = {m["name"]: m["unit"] for m in DECLARED[section]}
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }

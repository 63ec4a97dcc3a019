"""Config-driven end-to-end experiments.

A config is one JSON object with sections:
    instance: InstanceSpec fields (n, d, alpha, adversary, seed, ...)
    run:      RunConfig overrides (alpha/sigma/seed default from instance)
    reduce:   sep_const / sigma_scale overrides for list reduction
    output:   report / trace / hypotheses file paths (all optional)
    seeds:    optional list of seeds to fan out over (LDME_THREADS workers)
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, from_section
from .dataio import save_hypotheses_json, write_json
from .driver import list_decode_mean
from .instances import InstanceSpec, gen_instance, load_outliers
from .listreduce import ReduceConfig, reduce_list
from .report import Report, TreeCounts, evaluate, write_trace_csv


def load_config(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    return cfg


def parse_config(cfg: dict) -> tuple[InstanceSpec, RunConfig, ReduceConfig, dict]:
    if "instance" not in cfg:
        raise ConfigError("instance: section is required")
    spec = InstanceSpec.from_dict(cfg["instance"])

    run_raw = dict(cfg.get("run", {}))
    run_raw.setdefault("alpha", spec.alpha)
    run_raw.setdefault("sigma", spec.sigma)
    run_raw.setdefault("seed", spec.seed)
    run_cfg = from_section(RunConfig, run_raw, "run")

    red_raw = dict(cfg.get("reduce", {}))
    red_raw.setdefault("alpha", run_cfg.alpha)
    red_raw.setdefault("sigma_scale", run_cfg.rescale_factor)
    red_cfg = from_section(ReduceConfig, red_raw, "reduce")

    output = dict(cfg.get("output", {}))
    return spec, run_cfg, red_cfg, output


def _config_echo(spec: InstanceSpec, run_cfg: RunConfig, red_cfg: ReduceConfig) -> dict:
    inst = {
        k: (v.tolist() if isinstance(v, np.ndarray) else v)
        for k, v in spec.__dict__.items()
    }
    return {
        "instance": inst,
        "run": dict(run_cfg.__dict__),
        "reduce": dict(red_cfg.__dict__),
    }


def run_experiment(
    config: dict | str | Path, outliers: np.ndarray | None = None
) -> Report:
    """Generate, estimate, reduce, evaluate; write any requested files.

    outliers, when given, are the file adversary's rows already read (see
    load_outliers); gen_instance reads the file otherwise.
    """
    cfg = load_config(config) if isinstance(config, (str, Path)) else config
    spec, run_cfg, red_cfg, output = parse_config(cfg)

    start = time.perf_counter()
    points, mask, true_mean = gen_instance(spec, outliers)
    counts = TreeCounts()
    hyps, trace = list_decode_mean(points, run_cfg, inlier_mask=mask, observer=counts)
    reduced = reduce_list(hyps, red_cfg)

    full_eval = evaluate(hyps, true_mean) if len(hyps) else {}
    red_eval = evaluate(reduced, true_mean) if len(reduced) else {}
    wall = time.perf_counter() - start

    report = Report(
        config=_config_echo(spec, run_cfg, red_cfg),
        list_size=len(hyps),
        reduced_list_size=len(reduced),
        iterations=counts.passes,
        branches=counts.branches,
        min_error=full_eval.get("min_error"),
        best_index=full_eval.get("best_index"),
        reduced_min_error=red_eval.get("min_error"),
        reduction_radius=red_cfg.radius,
        wall_time_s=wall,
        trace_summary=counts.summary(),
    )

    if output.get("report"):
        write_json(report.to_dict(), output["report"])
    if output.get("trace"):
        write_trace_csv(output["trace"], trace)
    if output.get("hypotheses"):
        save_hypotheses_json(
            output["hypotheses"],
            hyps.vectors,
            extra={"reduced": reduced.vectors.tolist()},
        )
    return report


def _worker_count() -> int:
    raw = os.environ.get("LDME_THREADS", "1")
    try:
        count = int(raw)
    except ValueError as err:
        raise ConfigError(f"LDME_THREADS: not an integer: {raw!r}") from err
    return max(1, count)


def run_sweep(config: dict | str | Path, seeds=None) -> list[Report]:
    """Run one experiment per seed; worker count capped by LDME_THREADS.

    The file adversary's outlier file is read once, before the fan-out, and
    every seed gets the same read-only rows.
    """
    cfg = load_config(config) if isinstance(config, (str, Path)) else dict(config)
    seeds = list(seeds if seeds is not None else cfg.get("seeds", []))
    if not seeds:
        return [run_experiment(cfg)]
    workers = _worker_count()
    # Seeds differ only in their seed fields and output paths, so every
    # seed's instance needs the same outlier rows (none when n_out is 0).
    spec = parse_config(cfg)[0]
    outliers = None
    if spec.adversary == "file" and spec.n_inliers < spec.n:
        outliers = load_outliers(spec)

    def one(seed: int) -> Report:
        sub = json.loads(json.dumps({k: v for k, v in cfg.items() if k != "seeds"}))
        sub.setdefault("instance", {})["seed"] = int(seed)
        sub.setdefault("run", {})["seed"] = int(seed)
        out = sub.get("output", {})
        for key, path in list(out.items()):
            if path:
                p = Path(path)
                out[key] = str(p.with_name(f"{p.stem}_seed{seed}{p.suffix}"))
        return run_experiment(sub, outliers)

    if workers == 1:
        return [one(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, seeds))

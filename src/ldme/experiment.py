"""Config-driven end-to-end experiments.

A config is one JSON object with sections:
    instance: InstanceSpec fields (n, d, alpha, adversary, seed, ...)
    run:      alpha, sigma, big_c (alpha, sigma default from instance)
    reduce:   sep_const (alpha and sigma_scale come from run)
    output:   report / trace / hypotheses file paths (all optional)
    seeds:    optional distinct seeds to fan out over (LDME_THREADS workers)
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import ConfigError, RunConfig, check_int, from_section
from .dataio import save_hypotheses_json, write_json
from .driver import list_decode_mean
from .instances import InstanceSpec, gen_instance, load_outliers
from .listreduce import ReduceConfig, reduce_list
from .report import Report, TraceRecorder, alpha_good, evaluate, write_trace_csv


_SECTIONS = {"instance": dict, "run": dict, "reduce": dict, "output": dict, "seeds": list}


def check_sections(cfg) -> dict:
    """cfg, refused with a ConfigError unless it is a JSON object whose
    sections are objects, whose output values are paths (an empty one
    writes no file) and whose seeds, if any, are distinct integers >= 0."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    for key, kind in _SECTIONS.items():
        if not isinstance(cfg.get(key, kind()), kind):
            shape = "an object" if kind is dict else "a list"
            raise ConfigError(f"{key}: must be {shape}, got {cfg[key]!r}")
    for key, path in cfg.get("output", {}).items():
        if key not in ("report", "trace", "hypotheses"):
            raise ConfigError(f"{key}: unknown output field")
        if not isinstance(path, str):
            raise ConfigError(f"output.{key}: must be a path, got {path!r}")
    seeds = cfg.get("seeds", [])
    for seed in seeds:
        check_int("seeds", seed)
    if len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds: must be distinct, got {seeds}")
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        return check_sections(json.load(fh))


def parse_config(cfg: dict) -> tuple[InstanceSpec, RunConfig, ReduceConfig, dict]:
    check_sections(cfg)
    if "instance" not in cfg:
        raise ConfigError("instance: section is required")
    spec = InstanceSpec.from_dict(cfg["instance"])
    output = dict(cfg.get("output", {}))
    # The run echoes the instance's seed and whether a trace file is asked for.
    run_cfg = from_section(
        RunConfig, cfg.get("run", {}), "run", ("seed", "trace"),
        alpha=spec.alpha, sigma=spec.sigma, seed=spec.seed, trace=bool(output.get("trace")),
    )
    red_cfg = from_section(
        ReduceConfig, cfg.get("reduce", {}), "reduce", ("alpha", "sigma_scale"),
        alpha=run_cfg.alpha, sigma_scale=run_cfg.rescale_factor,
    )
    return spec, run_cfg, red_cfg, output


def _config_echo(spec: InstanceSpec, run_cfg: RunConfig, red_cfg: ReduceConfig) -> dict:
    """The three sections as JSON values: a numpy array or scalar, which
    the config checks accept, becomes the Python list or number."""
    return {
        name: {
            k: (v.tolist() if isinstance(v, (np.ndarray, np.generic)) else v)
            for k, v in section.__dict__.items()
        }
        for name, section in (("instance", spec), ("run", run_cfg), ("reduce", red_cfg))
    }


def run_experiment(config: dict, outliers: np.ndarray | None = None) -> Report:
    """Generate, estimate, reduce, evaluate a config dict; write its files.

    outliers, when given, are the file adversary's rows already read (see
    load_outliers); gen_instance reads the file otherwise.
    """
    spec, run_cfg, red_cfg, output = parse_config(config)

    start = time.perf_counter()
    points, mask, true_mean = gen_instance(spec, outliers)
    trace = TraceRecorder(points, mask) if run_cfg.trace else None
    hyps, stats = list_decode_mean(points, run_cfg, observer=trace)
    if len(hyps) == 0 and alpha_good(points, mask, run_cfg):
        raise RuntimeError("no hypothesis produced on a verified good input")
    reduced = reduce_list(hyps, red_cfg)

    full_eval = evaluate(hyps, true_mean) if len(hyps) else {}
    red_eval = evaluate(reduced, true_mean) if len(reduced) else {}
    wall = time.perf_counter() - start

    report = Report(
        config=_config_echo(spec, run_cfg, red_cfg),
        list_size=len(hyps),
        reduced_list_size=len(reduced),
        iterations=stats.passes,
        branches=stats.branches,
        min_error=full_eval.get("min_error"),
        best_index=full_eval.get("best_index"),
        reduced_min_error=red_eval.get("min_error"),
        reduction_radius=red_cfg.radius,
        wall_time_s=wall,
        trace_summary=stats.summary(),
    )

    if output.get("report"):
        write_json(report.to_dict(), output["report"])
    if trace is not None:
        write_trace_csv(output["trace"], trace.events)
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


def run_sweep(config: dict) -> list[Report]:
    """Run one experiment per seed of config["seeds"] (one run of config as
    it is when there are none); worker count capped by LDME_THREADS.

    The whole config is checked, and the file adversary's outlier file
    read, once before the fan-out; every seed gets the same read-only rows.
    """
    spec = parse_config(config)[0]
    seeds = config.get("seeds", [])
    if not seeds:
        return [run_experiment(config)]
    workers = _worker_count()
    # Seeds differ only in their seed fields and output paths, so every
    # seed's instance needs the same outlier rows (none when n_out is 0).
    outliers = None
    if spec.adversary == "file" and spec.n_inliers < spec.n:
        outliers = load_outliers(spec)

    def one(seed: int) -> Report:
        sub = {k: v for k, v in config.items() if k != "seeds"}
        sub["instance"] = dict(config["instance"], seed=seed)
        sub["output"] = out = dict(config.get("output", {}))
        for key, path in list(out.items()):
            if path:
                p = Path(path)
                out[key] = str(p.with_name(f"{p.stem}_seed{seed}{p.suffix}"))
        return run_experiment(sub, outliers)

    if workers == 1:
        return [one(s) for s in seeds]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, seeds))

"""Command-line interface.

Subcommands: estimate (real data), synth (instance generation),
experiment (config-driven end-to-end run), reduce (standalone list
reduction). Exit codes: 0 ok, 2 config error, 3 algorithmic infeasibility,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, RunConfig
from .dataio import (
    DataFormatError,
    load_hypotheses_json,
    load_points,
    save_points_binary,
    save_points_csv,
    write_json,
)
from .driver import HypothesisList, list_decode_mean
from .experiment import check_sections, load_config, run_experiment, run_sweep
from .instances import InstanceSpec, gen_instance
from .listreduce import ReduceConfig, reduce_list
from .multifilter import InfeasibleSplit

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_IO = 4


# Config fields taken as flags, field: (type, help). estimate takes the
# RunConfig ones (experiment adds the seed), synth the InstanceSpec ones,
# reduce the ReduceConfig ones. A flag not given leaves the field's default.
RUN_FLAGS = {
    "alpha": (float, "assumed inlier fraction"),
    "sigma": (float, "inlier covariance scale"),
    "big_c": (float, None),
}
EXPERIMENT_FLAGS = {**RUN_FLAGS, "seed": (int, None)}
SYNTH_FLAGS = {
    "n": (int, None), "d": (int, None), "alpha": (float, None), "sigma": (float, None),
    "inlier_model": (str, None), "adversary": (str, None), "decoys": (int, None),
    "separation": (float, None), "noise_radius": (float, None), "outlier_file": (str, None),
    "mean_radius": (float, None), "seed": (int, None),
}
REDUCE_FLAGS = {"sep_const": (float, None), "sigma_scale": (float, None)}
# estimate's sigma_scale is its run's rescale factor.
ESTIMATE_REDUCE_FLAGS = {"sep_const": REDUCE_FLAGS["sep_const"]}


def _add_flags(parser: argparse.ArgumentParser, table: dict) -> None:
    for key, (kind, text) in table.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind, dest=key, help=text)


def _given(args, table: dict) -> dict:
    """The flags of table set on the command line, by field name."""
    return {key: getattr(args, key) for key in table if getattr(args, key) is not None}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldme",
        description="List-decodable mean estimation with a majority of outliers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="estimate candidate means from a points file")
    est.add_argument("--input", required=True, help="points file (CSV or LDME binary)")
    _add_flags(est, RUN_FLAGS)
    est.add_argument("--out", help="write hypotheses JSON here (default stdout)")
    _add_flags(est, ESTIMATE_REDUCE_FLAGS)
    est.add_argument("--no-reduce", action="store_true", help="skip list reduction")

    syn = sub.add_parser("synth", help="generate a synthetic instance")
    syn.add_argument("--config", help="instance spec JSON (flags override)")
    syn.add_argument("--out", required=True, help="points file to write")
    syn.add_argument("--meta", help="metadata JSON (true mean, inlier mask)")
    syn.add_argument("--format", choices=("csv", "bin"), default="csv")
    _add_flags(syn, SYNTH_FLAGS)

    exp = sub.add_parser("experiment", help="run a config-driven experiment")
    exp.add_argument("--config", required=True)
    _add_flags(exp, EXPERIMENT_FLAGS)
    exp.add_argument("--out", help="override the report path")
    exp.add_argument("--trace", help="override the trace CSV path")

    red = sub.add_parser("reduce", help="reduce a hypothesis list")
    red.add_argument("--input", required=True, help="hypotheses JSON")
    red.add_argument("--alpha", type=float, required=True)
    _add_flags(red, REDUCE_FLAGS)
    red.add_argument("--out", help="write reduced JSON here (default stdout)")
    return parser


def _cmd_estimate(args) -> int:
    points = load_points(args.input)
    if args.alpha is None:
        raise ConfigError("alpha: required (flag or config)")
    cfg = RunConfig(**_given(args, RUN_FLAGS))
    hyps, _ = list_decode_mean(points, cfg)
    payload: dict = {"alpha": cfg.alpha, "vectors": hyps.vectors.tolist()}
    if not args.no_reduce:
        rc = ReduceConfig(
            cfg.alpha, sigma_scale=cfg.rescale_factor, **_given(args, ESTIMATE_REDUCE_FLAGS)
        )
        payload["reduced"] = reduce_list(hyps, rc).vectors.tolist()
        payload["reduction_radius"] = rc.radius
    write_json(payload, args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    raw = load_config(args.config) if args.config else {}
    # A whole config gives its instance section; a bare instance object is one.
    if not isinstance(raw, dict) or "instance" in raw:
        raw = check_sections(raw)["instance"]
    spec = InstanceSpec.from_dict({**raw, **_given(args, SYNTH_FLAGS)})
    points, mask, mean = gen_instance(spec)
    if args.format == "bin":
        save_points_binary(args.out, points)
    else:
        save_points_csv(args.out, points)
    if args.meta:
        meta = {"true_mean": mean.tolist(), "inlier_mask": mask.astype(int).tolist(),
                "n": spec.n, "d": spec.d, "alpha": spec.alpha, "seed": spec.seed}
        write_json(meta, args.meta)
    return EXIT_OK


def _cmd_experiment(args) -> int:
    cfg = check_sections(load_config(args.config))
    # The instance's seed is the run's; big_c is the run's alone.
    for key, val in _given(args, EXPERIMENT_FLAGS).items():
        if key != "seed":
            cfg.setdefault("run", {})[key] = val
        if key != "big_c":
            cfg.setdefault("instance", {})[key] = val
    if args.out:
        cfg.setdefault("output", {})["report"] = args.out
    if args.trace:
        cfg.setdefault("output", {})["trace"] = args.trace
    if cfg.get("seeds"):
        write_json([r.to_dict() for r in run_sweep(cfg)])
    else:
        write_json(run_experiment(cfg).to_dict())
    return EXIT_OK


def _cmd_reduce(args) -> int:
    vectors = load_hypotheses_json(args.input)
    rc = ReduceConfig(args.alpha, **_given(args, REDUCE_FLAGS))
    reduced = reduce_list(HypothesisList(vectors), rc)
    write_json({"vectors": reduced.vectors.tolist(), "radius": rc.radius}, args.out)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "estimate": _cmd_estimate,
        "synth": _cmd_synth,
        "experiment": _cmd_experiment,
        "reduce": _cmd_reduce,
    }
    try:
        return handlers[args.command](args)
    except InfeasibleSplit as err:
        print(f"ldme: infeasible split: {err} {err.details}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except DataFormatError as err:
        print(f"ldme: data error: {err}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as err:
        print(f"ldme: config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"ldme: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())

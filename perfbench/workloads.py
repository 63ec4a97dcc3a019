"""The four workloads: seeded inputs, one timed operation each, and the gate.

An operation is one ``list_decode_mean`` + ``reduce_list`` on pre-generated
points (library workloads), or one ``ldme experiment`` CLI command over a
four-seed sweep (``cli_sweep``). Every input is derived from the benchmark
seed and the operation index, so the same seed gives the same inputs and no
two operations of a run share an input. README.md says why each workload
exists.

A workload offers ``prepare(seed, workdir)``, ``make_input``, ``warm_up``,
``run(input, label)`` (the timed part), ``collect`` (read the answers
back), ``true_means`` and ``discard``, plus ``alpha`` and
``check_threads``: the ``LDME_THREADS`` value whose answer must equal the
timed one, or None. ``label`` names a variant of one input: "plain",
"traced" or "threads" (run with ``check_threads``).
"""

from __future__ import annotations

import io
import json
import math
import os
import shutil
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ldme import cli, dataio, driver, instances, listreduce
from ldme.config import RunConfig
from ldme.instances import InstanceSpec
from ldme.listreduce import ReduceConfig

NAMES = ("line_deep", "scalar_junk", "decoys_wide", "cli_sweep")

# Set-up warms the code paths on an instance this many times smaller.
WARM_UP_SHRINK = 8


# Independent seed streams of one run: timed inputs and warm-up inputs.
INPUTS, WARM_UP = 0, 1


def draw_seeds(seed: int, stream: int, index: int, count: int = 1) -> list[int]:
    """Seeds for the index-th input from ``stream`` of a run started with ``seed``."""
    state = np.random.SeedSequence((seed, stream, index)).generate_state(count)
    return [int(x) for x in state]


def error_budget(alpha: float, sigma: float = 1.0) -> float:
    """The criterion-2 budget 10*sigma*lg(2/alpha)/sqrt(alpha)."""
    return 10.0 * sigma * math.log2(2.0 / alpha) / math.sqrt(alpha)


def list_cap(alpha: float) -> int:
    """The raw list bound floor(4/alpha^2)."""
    return int(4.0 / alpha**2 + 1e-9)


@dataclass(frozen=True)
class Answer:
    """What one instance produced: the raw and the reduced list."""

    raw: np.ndarray
    reduced: np.ndarray


@dataclass(frozen=True)
class Check:
    """Gate verdict on one instance; ``failure`` is None when it passed."""

    raw_size: int
    reduced_size: int
    err_ratio: float
    failure: str | None


def check_answer(answer: Answer, true_mean: np.ndarray, alpha: float) -> Check:
    """Fail an empty or oversized raw list, or a best error above budget."""
    raw_size, reduced_size = len(answer.raw), len(answer.reduced)
    if raw_size == 0:
        return Check(0, reduced_size, math.inf, "empty hypothesis list")
    err = float(np.min(np.linalg.norm(answer.raw - true_mean, axis=1)))
    ratio = err / error_budget(alpha)
    failure = None
    if raw_size > list_cap(alpha):
        failure = f"raw list of {raw_size} exceeds floor(4/alpha^2) = {list_cap(alpha)}"
    elif not ratio <= 1.0:
        failure = f"min_error {err:.6g} exceeds the budget {error_budget(alpha):.6g}"
    return Check(raw_size, reduced_size, ratio, failure)


def fingerprint(answers: list[Answer]) -> bytes:
    """Bytes that differ whenever any hypothesis differs in any bit."""
    parts = []
    for a in answers:
        for arr in (a.raw, a.reduced):
            arr = np.ascontiguousarray(arr, dtype=np.float64)
            parts.append(repr(arr.shape).encode())
            parts.append(arr.tobytes())
    return b"".join(parts)


@dataclass(frozen=True)
class LibraryInput:
    points: np.ndarray
    true_mean: np.ndarray
    seed: int


class LibraryWorkload:
    """list_decode_mean + reduce_list on points generated before timing."""

    check_threads = None

    def __init__(self, name: str, spec: dict, junk_frac: float = 0.0, shrink: int = 1):
        self.name = name
        self.alpha = spec["alpha"]
        self._spec = dict(spec, n=spec["n"] // shrink)
        self._junk_frac = junk_frac
        self._seed = 0

    def prepare(self, seed: int, workdir: Path) -> None:
        self._seed = seed

    def _generate(self, seed: int, shrink: int = 1) -> LibraryInput:
        spec = InstanceSpec(**dict(self._spec, n=self._spec["n"] // shrink, seed=seed))
        points, mask, true_mean = instances.gen_instance(spec)
        if self._junk_frac:
            # ldme has no junk adversary: overwrite a share of the outlier
            # rows with far uniform values from a generator of our own.
            rng = np.random.default_rng((seed, 1))
            outliers = np.flatnonzero(~mask)
            rows = rng.choice(outliers, int(self._junk_frac * len(outliers)), replace=False)
            points = points.copy()
            points[rows] = rng.uniform(-5000.0, 5000.0, (len(rows), points.shape[1]))
        return LibraryInput(points, true_mean, seed)

    def make_input(self, index: int) -> LibraryInput:
        return self._generate(draw_seeds(self._seed, INPUTS, index)[0])

    def warm_up(self) -> None:
        self.run(self._generate(draw_seeds(self._seed, WARM_UP, 0)[0], WARM_UP_SHRINK))

    def run(self, inp: LibraryInput, label: str = "plain") -> list[Answer]:
        cfg = RunConfig(alpha=self.alpha, seed=inp.seed, trace=False)
        hyps, _ = driver.list_decode_mean(inp.points, cfg)
        reduced = listreduce.reduce_list(
            hyps, ReduceConfig(alpha=self.alpha, sigma_scale=cfg.rescale_factor)
        )
        return [Answer(hyps.vectors, reduced.vectors)]

    def collect(self, inp: LibraryInput, label: str, result: list[Answer]) -> list[Answer]:
        return result

    def true_means(self, inp: LibraryInput) -> list[np.ndarray]:
        return [inp.true_mean]

    def discard(self, inp: LibraryInput) -> None:
        pass


@contextmanager
def _env(name: str, value: str):
    old = os.environ.get(name)
    os.environ[name] = value
    try:
        yield
    finally:
        if old is None:
            del os.environ[name]
        else:
            os.environ[name] = old


@dataclass(frozen=True)
class CliInput:
    seeds: tuple[int, ...]
    true_mean: np.ndarray
    directory: Path


class CliSweep:
    """``ldme experiment`` on a four-seed config with the file adversary.

    Each command gets its own directory with a CSV of line-cluster outliers,
    its seeds, a config per label and the outputs; all seeds of the command
    re-read that CSV. A fresh outlier file per command matters: the outlier
    geometry sets the cost of every seed, and with one file per run whole
    runs came out up to 25 % faster or slower than others.
    """

    name = "cli_sweep"
    alpha = 0.1
    d = 20
    seeds_per_op = 4
    labels = ("plain", "traced", "threads")
    # Timed commands run the sweep on one thread: with two, the GIL gives
    # no speed-up and every run needs both cores free, so host contention
    # moved whole-run medians by up to 50 %. The traced run checks that two
    # threads give the same answer and measures their parallel efficiency.
    threads = 1
    check_threads = 2

    def __init__(self, shrink: int = 1):
        self.n = 8000 // shrink
        self._seed = 0
        self._workdir = Path(".")

    def prepare(self, seed: int, workdir: Path) -> None:
        self._seed = seed
        self._workdir = workdir

    def _write_input(self, stream: int, index: int, n: int) -> CliInput:
        outlier_seed, *seeds = draw_seeds(self._seed, stream, index, 1 + self.seeds_per_op)
        directory = self._workdir / f"op{index}-{stream}"
        directory.mkdir(parents=True, exist_ok=True)
        spec = InstanceSpec(
            n=n, d=self.d, alpha=self.alpha, adversary="line_clusters",
            decoys=10, separation=600.0, mean_radius=10.0, seed=outlier_seed,
        )
        points, mask, true_mean = instances.gen_instance(spec)
        outlier_file = directory / "outliers.csv"
        dataio.save_points_csv(outlier_file, points[~mask])
        for label in self.labels:
            out_dir = directory / label
            out_dir.mkdir(exist_ok=True)
            config = {
                "instance": {
                    "n": n, "d": self.d, "alpha": self.alpha, "adversary": "file",
                    "outlier_file": str(outlier_file),
                    "true_mean": true_mean.tolist(), "seed": seeds[0],
                },
                "output": {
                    "report": str(out_dir / "report.json"),
                    "trace": str(out_dir / "trace.csv"),
                    "hypotheses": str(out_dir / "hypotheses.json"),
                },
                "seeds": seeds,
            }
            with open(out_dir / "config.json", "w") as fh:
                json.dump(config, fh)
        return CliInput(tuple(seeds), true_mean, directory)

    def make_input(self, index: int) -> CliInput:
        return self._write_input(INPUTS, index, self.n)

    def warm_up(self) -> None:
        inp = self._write_input(WARM_UP, 0, self.n // WARM_UP_SHRINK)
        self.run(inp)
        self.discard(inp)

    def run(self, inp: CliInput, label: str = "plain") -> int:
        threads = self.check_threads if label == "threads" else self.threads
        config = inp.directory / label / "config.json"
        with _env("LDME_THREADS", str(threads)), redirect_stdout(io.StringIO()):
            code = cli.main(["experiment", "--config", str(config)])
        if code != 0:
            raise RuntimeError(f"ldme experiment exited with code {code}")
        return code

    def collect(self, inp: CliInput, label: str, result: int) -> list[Answer]:
        answers = []
        for seed in inp.seeds:
            with open(inp.directory / label / f"hypotheses_seed{seed}.json") as fh:
                payload = json.load(fh)
            raw = np.asarray(payload["vectors"], dtype=np.float64).reshape(-1, self.d)
            reduced = np.asarray(payload["reduced"], dtype=np.float64).reshape(-1, self.d)
            answers.append(Answer(raw, reduced))
        return answers

    def true_means(self, inp: CliInput) -> list[np.ndarray]:
        return [inp.true_mean] * len(inp.seeds)

    def discard(self, inp: CliInput) -> None:
        shutil.rmtree(inp.directory, ignore_errors=True)


def make_workload(name: str, shrink: int = 1):
    """Build a workload by name; ``shrink`` divides n for quick self-tests."""
    if name == "line_deep":
        spec = dict(n=16000, d=20, alpha=0.05, adversary="line_clusters",
                    decoys=20, separation=1000.0, mean_radius=10.0)
        return LibraryWorkload(name, spec, shrink=shrink)
    if name == "scalar_junk":
        spec = dict(n=100000, d=1, alpha=0.2, adversary="line_clusters",
                    decoys=4, separation=400.0, mean_radius=25.0)
        return LibraryWorkload(name, spec, junk_frac=0.01, shrink=shrink)
    if name == "decoys_wide":
        spec = dict(n=16000, d=200, alpha=0.1, adversary="decoy_clusters",
                    decoys=9, separation=40.0 / math.sqrt(0.1), mean_radius=10.0)
        return LibraryWorkload(name, spec, shrink=shrink)
    if name == "cli_sweep":
        return CliSweep(shrink=shrink)
    raise ValueError(f"unknown workload {name!r}, expected one of {NAMES}")

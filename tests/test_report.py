import numpy as np
import pytest

from ldme import (
    HypothesisList,
    InstanceSpec,
    PointSet,
    RunConfig,
    TraceEvent,
    TraceRecorder,
    evaluate,
    gen_instance,
    list_decode_mean,
    preprocess_rescale,
    write_trace_csv,
)
from ldme.report import _trace_events, in_row_order
from oracles import min_error_naive


class TestEvaluate:
    def test_exact_hit(self):
        out = evaluate(HypothesisList([[0.0, 0.0], [5.0, 5.0]]), [0.0, 0.0])
        assert out["min_error"] == 0.0
        assert out["best_index"] == 0

    def test_three_four_five(self):
        out = evaluate(HypothesisList([[3.0, 4.0]]), [0.0, 0.0])
        assert out["min_error"] == pytest.approx(5.0)

    def test_random_matches_naive(self):
        rng = np.random.default_rng(70)
        for _ in range(30):
            rows = rng.normal(size=(rng.integers(1, 20), 6))
            target = rng.normal(size=6)
            got = evaluate(HypothesisList(rows), target)
            assert got["min_error"] == pytest.approx(
                min_error_naive(rows, target), rel=1e-12
            )

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            evaluate(HypothesisList(np.zeros((0, 2))), [0.0, 0.0])


def test_trace_csv_columns(tmp_path):
    events = [
        TraceEvent(0, -1, 0, "certified", 1.5, 10.0, 10.0, 4.0, 4.0),
        TraceEvent(1, 0, 0, "split", 99.0, 10.0, 6.0, None, None),
    ]
    path = tmp_path / "trace.csv"
    write_trace_csv(path, events)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == (
        "branch_id,parent_id,depth,tag,lambda_star,wT_before,wT_after,wS_before,wS_after"
    )
    assert lines[1].startswith("0,-1,0,certified,1.5,10.0,10.0,4.0,4.0")
    assert lines[2].endswith(",,")  # inlier columns empty without a mask



def tied_1d_instance(seed: int, offset: float = 1e12):
    """A 1-D line-cluster instance with 20 outliers moved far out, full of
    ties: values rounded to 0.1, put at a large offset, and rows resampled
    with repeats. Returns the points and the inlier mask of those rows."""
    spec = InstanceSpec(
        n=1500, d=1, alpha=0.2, adversary="line_clusters", decoys=4,
        separation=300.0, mean_radius=5.0, seed=seed,
    )
    pts, mask, _ = gen_instance(spec)
    rng = np.random.default_rng(seed)
    pts[rng.choice(np.flatnonzero(~mask), 20, replace=False)] = rng.uniform(-5e3, 5e3, (20, 1))
    pts = np.round(pts, 1) + offset
    rows = rng.integers(0, len(pts), len(pts))
    return pts[rows], mask[rows]


@pytest.mark.parametrize("d", [1, 3])
def test_row_order_is_the_order_of_preprocess_rescale(d):
    # preprocess_rescale's rows are the centered input's rows in row order.
    cfg = RunConfig(alpha=0.2)
    pts, _ = tied_1d_instance(30)
    if d > 1:
        pts = np.hstack([pts, np.random.default_rng(31).normal(size=(len(pts), d - 1))])
    centered = PointSet._centered(pts, cfg.rescale_factor).points
    np.testing.assert_array_equal(
        preprocess_rescale(pts, cfg).points, in_row_order(pts, centered)
    )
    rows = np.arange(len(pts))
    assert np.array_equal(in_row_order(pts, rows), rows) == (d > 1)


@pytest.mark.parametrize("seed", range(6))
def test_1d_trace_inlier_masses_on_tied_inputs(seed):
    # The trace reads the mask in a stable argsort of the input column.
    # Its events, wS_* columns included, are the bits of those read with
    # the mask permuted by an argsort of the centered column, as the sort
    # moved the rows: rows of equal value carry equal weights in every
    # branch, so which of them comes first changes no sum.
    pts, mask = tied_1d_instance(seed)
    cfg = RunConfig(alpha=0.2)
    assert len(np.unique(pts)) < 0.5 * len(pts)
    trace, steps = TraceRecorder(pts, mask), []

    def observer(step):
        steps.append(step)
        trace(step)

    list_decode_mean(pts, cfg, observer=observer)
    centered = PointSet._centered(pts, cfg.rescale_factor).points[:, 0]
    by_sort = np.argsort(centered)
    assert not np.array_equal(by_sort, in_row_order(pts, np.arange(len(pts))))
    want = [ev for step in steps for ev in _trace_events(step, mask[by_sort])]
    assert {"split", "certified"} <= {ev.tag for ev in want} and len(want) >= 10
    assert trace.events == want

import numpy as np
import pytest

from ldme import HypothesisList, TraceEvent, evaluate, write_trace_csv
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


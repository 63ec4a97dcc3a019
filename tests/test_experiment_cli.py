import json
import math
from pathlib import Path

import numpy as np
import pytest

import ldme.experiment
import ldme.instances
from ldme import (
    InfeasibleSplit,
    InstanceSpec,
    gen_instance,
    load_points,
    run_experiment,
    run_sweep,
    save_points_csv,
)
from ldme.cli import main

REPO = Path(__file__).resolve().parent.parent
SMOKE = REPO / "configs" / "smoke.json"


def smoke_config(tmp_path, **output):
    cfg = json.loads(SMOKE.read_text())
    cfg["output"] = {k: str(tmp_path / v) for k, v in output.items()}
    return cfg


def file_sweep_config(tmp_path, outlier_rows=None):
    """A 3-seed sweep over line-cluster outliers read from a CSV."""
    spec = InstanceSpec(
        n=240, d=4, alpha=0.25, adversary="line_clusters", decoys=3,
        separation=300.0, mean_radius=5.0, seed=40,
    )
    points, mask, true_mean = gen_instance(spec)
    outliers = points[~mask] if outlier_rows is None else points[~mask][:outlier_rows]
    save_points_csv(tmp_path / "outliers.csv", outliers)
    return {
        "instance": {
            "n": 240, "d": 4, "alpha": 0.25, "adversary": "file",
            "outlier_file": str(tmp_path / "outliers.csv"),
            "true_mean": true_mean.tolist(), "seed": 0,
        },
        "output": {
            "report": str(tmp_path / "report.json"),
            "hypotheses": str(tmp_path / "hyps.json"),
        },
        "seeds": [3, 4, 5],
    }


class TestRunExperiment:
    def test_smoke_run_meets_budgets(self, tmp_path):
        cfg = smoke_config(tmp_path, report="report.json", trace="trace.csv")
        report = run_experiment(cfg)
        alpha = 0.25
        assert report.list_size <= 4 / alpha**2  # 64
        assert report.reduced_list_size <= 2 / alpha  # 8
        budget = 10 * math.log2(2 / alpha) / math.sqrt(alpha)
        assert report.min_error is not None and report.min_error <= budget
        assert (
            report.reduced_min_error
            <= report.min_error + report.reduction_radius + 1e-9
        )
        assert (tmp_path / "report.json").exists()
        trace_lines = (tmp_path / "trace.csv").read_text().strip().splitlines()
        assert trace_lines[0].split(",")[0] == "branch_id"
        assert len(trace_lines) == report.trace_summary["events"] + 1

    def test_repeat_run_byte_identical_modulo_wall_time(self, tmp_path):
        cfg = smoke_config(tmp_path)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.to_json(include_wall_time=False) == r2.to_json(
            include_wall_time=False
        )

    def test_out_of_range_alpha_rejected(self, tmp_path):
        cfg = smoke_config(tmp_path)
        cfg["instance"]["alpha"] = 0.6
        cfg["run"]["alpha"] = 0.6
        from ldme import ConfigError

        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_sweep_runs_each_seed(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LDME_THREADS", "2")
        cfg = smoke_config(tmp_path)
        cfg["instance"]["n"] = 120
        reports = run_sweep(cfg, seeds=[1, 2, 3])
        assert len(reports) == 3
        seeds = [r.config["instance"]["seed"] for r in reports]
        assert seeds == [1, 2, 3]

    def test_sweep_without_seeds_runs_once(self, tmp_path):
        cfg = smoke_config(tmp_path)
        cfg["instance"]["n"] = 120
        assert len(run_sweep(cfg)) == 1

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        from ldme import ConfigError

        monkeypatch.setenv("LDME_THREADS", "many")
        cfg = smoke_config(tmp_path)
        with pytest.raises(ConfigError, match="LDME_THREADS"):
            run_sweep(cfg, seeds=[1, 2])


class TestFileSweep:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_outlier_file_read_once_and_shared_read_only(
        self, tmp_path, monkeypatch, threads
    ):
        monkeypatch.setenv("LDME_THREADS", threads)
        reads, shared = [], []
        load = ldme.instances.load_points
        gen = ldme.experiment.gen_instance

        def counting_load(path):
            reads.append(path)
            return load(path)

        def capturing_gen(spec, outliers=None):
            shared.append(outliers)
            return gen(spec, outliers)

        monkeypatch.setattr(ldme.instances, "load_points", counting_load)
        monkeypatch.setattr(ldme.experiment, "gen_instance", capturing_gen)
        reports = run_sweep(file_sweep_config(tmp_path))
        assert len(reports) == 3
        assert len(reads) == 1
        assert len(shared) == 3
        assert all(arr is shared[0] for arr in shared)
        assert not shared[0].flags.writeable

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_seed_matches_a_standalone_run(self, tmp_path, monkeypatch, threads):
        monkeypatch.setenv("LDME_THREADS", threads)
        cfg = file_sweep_config(tmp_path)
        run_sweep(cfg)
        for seed in cfg["seeds"]:
            solo = {
                "instance": dict(cfg["instance"], seed=seed),
                "run": {"seed": seed},
                "output": {"hypotheses": str(tmp_path / f"solo{seed}.json")},
            }
            run_experiment(solo)
            swept = json.loads((tmp_path / f"hyps_seed{seed}.json").read_text())
            alone = json.loads((tmp_path / f"solo{seed}.json").read_text())
            for key in ("vectors", "reduced"):
                assert (
                    np.array(swept[key]).tobytes() == np.array(alone[key]).tobytes()
                )

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bad_outlier_file_fails_before_any_output(
        self, tmp_path, monkeypatch, capsys, threads
    ):
        monkeypatch.setenv("LDME_THREADS", threads)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(file_sweep_config(tmp_path, outlier_rows=100)))
        assert main(["experiment", "--config", str(path)]) == 2
        assert "outlier_file" in capsys.readouterr().err
        assert not list(tmp_path.glob("*_seed*.json"))

        (tmp_path / "outliers.csv").unlink()
        assert main(["experiment", "--config", str(path)]) == 4
        assert not list(tmp_path.glob("*_seed*.json"))


class TestCli:
    def test_experiment_subcommand(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(
            ["experiment", "--config", str(SMOKE), "--out", str(out), "--seed", "9"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["run"]["seed"] == 9
        assert payload["list_size"] >= 1

    def test_alpha_out_of_range_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        cfg = json.loads(SMOKE.read_text())
        cfg["instance"]["alpha"] = 0.6
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2

    def test_removed_power_delta_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        cfg = json.loads(SMOKE.read_text())
        cfg["run"]["power_delta"] = 0.01
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert "power_delta: unknown run field" in capsys.readouterr().err

    def test_config_json_garbage_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["experiment", "--config", str(bad)]) == 2

    def test_missing_input_exits_4(self, tmp_path):
        assert (
            main(["estimate", "--input", str(tmp_path / "nope.csv"), "--alpha", "0.2"])
            == 4
        )

    def test_infeasible_split_exits_3(self, tmp_path, monkeypatch):
        def boom(config):
            raise InfeasibleSplit("forced", details={"alpha": 0.2})

        monkeypatch.setattr("ldme.cli.run_experiment", boom)
        assert main(["experiment", "--config", str(SMOKE)]) == 3

    def test_real_infeasible_instance_exits_3(self, tmp_path):
        cfg = {
            "instance": {
                "n": 400, "d": 8, "alpha": 0.25,
                "adversary": "uniform_noise", "noise_radius": 300.0,
                "true_mean": "random_sphere(5.0)", "seed": 2,
            }
        }
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 3

    def test_synth_estimate_reduce_pipeline(self, tmp_path):
        pts_path = tmp_path / "pts.csv"
        meta_path = tmp_path / "meta.json"
        code = main(
            [
                "synth", "--out", str(pts_path), "--meta", str(meta_path),
                "--n", "400", "--d", "6", "--alpha", "0.3",
                "--adversary", "line_clusters", "--decoys", "2",
                "--separation", "300", "--seed", "21",
            ]
        )
        assert code == 0
        pts = load_points(pts_path)
        assert pts.shape == (400, 6)
        meta = json.loads(meta_path.read_text())
        assert sum(meta["inlier_mask"]) == 120

        hyp_path = tmp_path / "hyps.json"
        code = main(
            [
                "estimate", "--input", str(pts_path), "--alpha", "0.3",
                "--seed", "21", "--out", str(hyp_path),
            ]
        )
        assert code == 0
        payload = json.loads(hyp_path.read_text())
        assert 1 <= len(payload["vectors"]) <= 4 / 0.3**2
        assert len(payload["reduced"]) <= len(payload["vectors"])
        best = min(
            np.linalg.norm(np.array(v) - np.array(meta["true_mean"]))
            for v in payload["reduced"]
        )
        assert best <= 10 * math.log2(2 / 0.3) / math.sqrt(0.3)

        red_path = tmp_path / "red.json"
        code = main(
            [
                "reduce", "--input", str(hyp_path), "--alpha", "0.3",
                "--sigma-scale", "2.0", "--out", str(red_path),
            ]
        )
        assert code == 0
        red = json.loads(red_path.read_text())
        assert 1 <= len(red["vectors"]) <= len(payload["vectors"])

    def test_estimate_no_reduce(self, tmp_path):
        pts_path = tmp_path / "pts.csv"
        assert (
            main(
                ["synth", "--out", str(pts_path), "--n", "60", "--d", "3",
                 "--alpha", "0.3", "--seed", "2"]
            )
            == 0
        )
        out = tmp_path / "h.json"
        code = main(
            ["estimate", "--input", str(pts_path), "--alpha", "0.3",
             "--no-reduce", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert "vectors" in payload and "reduced" not in payload

    def test_synth_binary_format(self, tmp_path):
        out = tmp_path / "pts.ldme"
        code = main(
            [
                "synth", "--out", str(out), "--format", "bin",
                "--n", "50", "--d", "3", "--alpha", "0.2", "--seed", "1",
            ]
        )
        assert code == 0
        assert out.read_bytes()[:4] == b"LDME"
        assert load_points(out).shape == (50, 3)

    def test_synth_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--n", "30", "--d", "2", "--alpha", "0.2", "--seed", "5"]
        assert main(["synth", "--out", str(a)] + args) == 0
        assert main(["synth", "--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("section, field", [("run", "big_c"), ("reduce", "sep_const")])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, section, field):
        bad = tmp_path / "bad.json"
        cfg = json.loads(SMOKE.read_text())
        cfg[section][field] = "20"
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert f"ldme: config error: {section}: " in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name, data", [("pts.csv", b""), ("pts.ldme", b"LDME\0\0\0\0\3\0\0\0")]
    )
    def test_estimate_on_file_without_points_exits_4(self, tmp_path, capsys, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["estimate", "--input", str(path), "--alpha", "0.2"]) == 4
        assert "ldme: data error:" in capsys.readouterr().err

    def test_reduce_keeps_an_empty_list_empty(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text('{"vectors": []}')
        assert main(["reduce", "--input", str(path), "--alpha", "0.2"]) == 0
        assert json.loads(capsys.readouterr().out)["vectors"] == []

    def test_reduce_on_ragged_list_exits_4(self, tmp_path):
        path = tmp_path / "h.json"
        path.write_text('{"vectors": [[1.0, 2.0], [3.0]]}')
        assert main(["reduce", "--input", str(path), "--alpha", "0.2"]) == 4

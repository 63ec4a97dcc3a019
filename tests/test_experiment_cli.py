import json
import math
from pathlib import Path

import numpy as np
import pytest

import ldme.experiment
import ldme.instances
from ldme import (
    HypothesisList,
    InfeasibleSplit,
    InstanceSpec,
    ReduceConfig,
    RunConfig,
    RunStats,
    gen_instance,
    load_points,
    run_experiment,
    run_sweep,
    save_points_csv,
)
from ldme.cli import main
from auditing import report_bytes

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
        assert report_bytes(r1) == report_bytes(r2)

    def test_numpy_integers_in_the_config_are_echoed_as_ints(self, tmp_path):
        # check_int accepts numpy integers, so the report must write them.
        cfg = {
            "instance": {"n": np.int64(60), "d": 2, "alpha": 0.3, "seed": np.int64(3)},
            "output": {"report": str(tmp_path / "report.json")},
        }
        run_experiment(cfg)
        echo = json.loads((tmp_path / "report.json").read_text())["config"]["instance"]
        assert echo["n"] == 60 and type(echo["n"]) is int
        assert echo["seed"] == 3 and type(echo["seed"]) is int

    def test_empty_list_on_a_verified_good_input_raises(self, tmp_path, monkeypatch):
        # The planted inliers pass the goodness check, so an empty list is
        # a defect: the run raises before it writes anything. Inliers wider
        # than the run's sigma fail the check, and their empty list is a
        # report.
        def empty(points, cfg, observer=None):
            return HypothesisList(np.zeros((0, points.shape[1]))), RunStats()

        monkeypatch.setattr(ldme.experiment, "list_decode_mean", empty)
        cfg = smoke_config(tmp_path, report="report.json")
        with pytest.raises(RuntimeError, match="no hypothesis produced on a verified good input"):
            run_experiment(cfg)
        assert not (tmp_path / "report.json").exists()
        cfg["instance"]["sigma"] = 10.0
        report = run_experiment(cfg)
        assert cfg["run"]["sigma"] == 1.0
        assert report.list_size == 0 and report.min_error is None

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
        reports = run_sweep(dict(cfg, seeds=[1, 2, 3]))
        assert len(reports) == 3
        seeds = [r.config["instance"]["seed"] for r in reports]
        assert seeds == [1, 2, 3]

    def test_sweep_without_seeds_runs_once(self, tmp_path):
        cfg = smoke_config(tmp_path)
        cfg["instance"]["n"] = 120
        assert len(run_sweep(cfg)) == 1

    def test_sweep_takes_numpy_integers(self, tmp_path):
        # Each seed's copy of the config keeps its numpy values, and its
        # report is a lone run's of that seed.
        cfg = {
            "instance": {"n": np.int64(60), "d": 2, "alpha": 0.3, "seed": 3},
            "output": {"report": str(tmp_path / "report.json")},
            "seeds": [np.int64(1), 2],
        }
        reports = run_sweep(cfg)
        assert cfg["instance"]["seed"] == 3 and cfg["output"]["report"].endswith("report.json")
        for seed, report in zip([1, 2], reports):
            lone = run_experiment({"instance": dict(cfg["instance"], seed=seed)})
            assert report_bytes(report) == report_bytes(lone)
            written = json.loads((tmp_path / f"report_seed{seed}.json").read_text())
            assert written["config"]["instance"]["seed"] == seed

    def test_bad_thread_env_rejected(self, tmp_path, monkeypatch):
        from ldme import ConfigError

        monkeypatch.setenv("LDME_THREADS", "many")
        cfg = smoke_config(tmp_path)
        with pytest.raises(ConfigError, match="LDME_THREADS"):
            run_sweep(dict(cfg, seeds=[1, 2]))


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
        # Each seed's hypotheses, trace and report (but its wall time) are
        # the bytes of a standalone run of that seed, whatever the threads.
        cfg = file_sweep_config(tmp_path)
        cfg["output"]["trace"] = str(tmp_path / "trace.csv")
        for seed, report in zip(cfg["seeds"], run_sweep(cfg)):
            solo = {
                "instance": dict(cfg["instance"], seed=seed),
                "output": {
                    "hypotheses": str(tmp_path / f"solo{seed}.json"),
                    "trace": str(tmp_path / f"solo{seed}.csv"),
                },
            }
            assert report_bytes(run_experiment(solo)) == report_bytes(report)
            for swept, alone in [
                (f"hyps_seed{seed}.json", f"solo{seed}.json"),
                (f"trace_seed{seed}.csv", f"solo{seed}.csv"),
            ]:
                assert (tmp_path / swept).read_bytes() == (tmp_path / alone).read_bytes()

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
        assert payload["config"]["instance"]["seed"] == 9
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
                "mean_radius": 5.0, "seed": 2,
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
                "--out", str(hyp_path),
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

    @pytest.mark.parametrize("sep_flags, share", [([], 1.0), (["--sep-const", "4"], 0.5)])
    def test_reduction_radius_defaults_to_reduce_config(self, tmp_path, sep_flags, share):
        pts, hyps, red = tmp_path / "pts.csv", tmp_path / "h.json", tmp_path / "r.json"
        synth = ["--n", "60", "--d", "3", "--alpha", "0.3", "--seed", "2"]
        assert main(["synth", "--out", str(pts)] + synth) == 0
        estimate = ["--input", str(pts), "--alpha", "0.3", "--out", str(hyps)]
        assert main(["estimate"] + estimate + sep_flags) == 0
        reduce = ["--input", str(hyps), "--alpha", "0.3", "--out", str(red)]
        assert main(["reduce"] + reduce + sep_flags) == 0
        scale = RunConfig(alpha=0.3).rescale_factor
        radius = ReduceConfig(0.3, sigma_scale=scale).radius
        assert json.loads(hyps.read_text())["reduction_radius"] == share * radius
        assert json.loads(red.read_text())["radius"] == share * ReduceConfig(0.3).radius

    @pytest.mark.parametrize(
        "seeds, flags", [(None, []), (None, ["--trace"]), ([1, 2], [])],
        ids=["config", "flag", "sweep"],
    )
    def test_trace_file_without_run_trace_exits_2(self, tmp_path, capsys, seeds, flags):
        # A trace is recorded exactly when a trace file is asked for, so
        # run.trace is no setting: beside a trace file it exits 2 before
        # anything is written.
        cfg = smoke_config(tmp_path, report="report.json", hypotheses="hyps.json")
        cfg["run"]["trace"] = False
        if seeds:
            cfg["seeds"] = seeds
        if flags:
            flags = flags + [str(tmp_path / "trace.csv")]
        else:
            cfg["output"]["trace"] = str(tmp_path / "trace.csv")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)] + flags) == 2
        assert "config error: trace: set by another section" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("value", [True, False])
    def test_run_trace_exits_2(self, tmp_path, capsys, value):
        cfg = smoke_config(tmp_path, report="report.json")
        cfg["run"]["trace"] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 2
        assert "config error: trace: set by another section, not by run" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("section, field", [("run", "big_c"), ("reduce", "sep_const")])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, section, field):
        bad = tmp_path / "bad.json"
        cfg = json.loads(SMOKE.read_text())
        cfg[section][field] = "20"
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert f"ldme: config error: {section}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("seed", "seven"), ("seed", True), ("seed", 7.0), ("trace", "false"), ("trace", 1)],
    )
    def test_wrongly_typed_seed_or_trace_exits_2(self, tmp_path, capsys, field, value):
        # The seed is an instance field. trace is no run field: whether a
        # trace file is asked for sets it, so any run.trace exits 2.
        section, message = {
            "seed": ("instance", "seed: must be an integer"),
            "trace": ("run", "trace: set by another section, not by run"),
        }[field]
        cfg = smoke_config(tmp_path, trace="trace.csv", report="report.json")
        cfg[section][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert f"ldme: config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "trace.csv").exists()
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize(
        "command, key, value, flags",
        [
            ("synth", None, [1, 2], []),
            ("synth", "instance", 5, []),
            ("experiment", None, [1, 2], []),
            ("experiment", "instance", 5, []),
            ("experiment", "run", 7, []),
            ("experiment", "run", 7, ["--alpha", "0.25"]),
            ("experiment", "reduce", [8.0], []),
            ("experiment", "output", 7, []),
            ("experiment", "output", 7, ["--out", "report.json"]),
            ("experiment", "seeds", 3, []),
        ],
    )
    def test_config_section_of_the_wrong_shape_exits_2(
        self, tmp_path, capsys, command, key, value, flags
    ):
        cfg = smoke_config(tmp_path, report="report.json", trace="trace.csv",
                           hypotheses="hyps.json")
        if key is None:
            cfg = value
        else:
            cfg[key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        argv = [command, "--config", str(bad)]
        if command == "synth":
            argv += ["--out", str(tmp_path / "points.csv")]
        argv += [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "ldme: config error: " in captured.err and not captured.out
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("run", "seed", 7, "seed: set by another section, not by run"),
            ("run", "scale_c", 2.0, "scale_c: unknown run field"),
            ("reduce", "alpha", 0.25, "alpha: set by another section, not by reduce"),
            ("reduce", "sigma_scale", 2.0, "sigma_scale: set by another section, not by reduce"),
        ],
    )
    def test_removed_or_restated_setting_exits_2(
        self, tmp_path, capsys, section, key, value, message
    ):
        # The run's seed is the instance's; reduce's alpha and sigma_scale
        # are the run's alpha and rescale factor.
        cfg = smoke_config(tmp_path, report="report.json", trace="trace.csv",
                           hypotheses="hyps.json")
        cfg[section][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert f"ldme: config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "seeds, message",
        [
            ([1, 1.9], "seeds: must be an integer >= 0, got 1.9"),
            ([1, True], "seeds: must be an integer >= 0, got True"),
            ([2, -1], "seeds: must be an integer >= 0, got -1"),
            ([3, 3], "seeds: must be distinct, got [3, 3]"),
        ],
    )
    def test_sweep_seeds_must_be_distinct_integers(self, tmp_path, capsys, seeds, message):
        cfg = smoke_config(tmp_path, report="report.json", hypotheses="hyps.json")
        cfg["seeds"] = seeds
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert f"ldme: config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize("key, value", [("seed", 1.5), ("n", True), ("decoys", 2.0)])
    def test_synth_with_a_non_integer_exits_2(self, tmp_path, capsys, key, value):
        cfg = json.loads(SMOKE.read_text())
        cfg["instance"][key] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["synth", "--config", str(bad), "--out", str(tmp_path / "pts.csv")]) == 2
        assert f"ldme: config error: {key}: must be an integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("reprot", "report.json", "reprot: unknown output field"),
            ("report", 1, "output.report: must be a path, got 1"),
            ("trace", None, "output.trace: must be a path, got None"),
        ],
    )
    @pytest.mark.parametrize("seeds", [None, [1, 2]], ids=["config", "sweep"])
    def test_output_section_takes_known_paths_only(
        self, tmp_path, capsys, key, value, message, seeds
    ):
        cfg = smoke_config(tmp_path, hypotheses="hyps.json")
        cfg["output"][key] = str(tmp_path / value) if isinstance(value, str) else value
        if seeds:
            cfg["seeds"] = seeds
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(bad)]) == 2
        assert f"ldme: config error: {message}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [bad]

    def test_empty_output_path_writes_no_file(self, tmp_path, capsys):
        cfg = smoke_config(tmp_path, hypotheses="hyps.json")
        cfg["output"]["report"] = ""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["experiment", "--config", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "hyps.json"]

    def test_reduce_alpha_of_one_half_or_more_exits_2(self, tmp_path, capsys):
        path, out = tmp_path / "h.json", tmp_path / "r.json"
        path.write_text('{"vectors": [[1.0, 2.0]]}')
        assert main(["reduce", "--input", str(path), "--alpha", "0.6", "--out", str(out)]) == 2
        assert "ldme: config error: alpha: must be in (0, 1/2)" in capsys.readouterr().err
        assert not out.exists()

    def test_numpy_integer_seed_is_an_integer(self):
        assert RunConfig(alpha=0.2, seed=np.int64(7)).seed == 7

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

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from ldme import ConfigError, InstanceSpec, gen_instance, save_points_csv
from ldme.cli import main
from ldme.instances import load_outliers


class TestSpecValidation:
    def test_errors_name_the_field(self):
        with pytest.raises(ConfigError, match="alpha"):
            InstanceSpec(n=10, d=2, alpha=0.7)
        with pytest.raises(ConfigError, match="^n"):
            InstanceSpec(n=0, d=2, alpha=0.3)
        with pytest.raises(ConfigError, match="inlier_model"):
            InstanceSpec(n=10, d=2, alpha=0.3, inlier_model="cauchy")
        with pytest.raises(ConfigError, match="student_t_dof"):
            InstanceSpec(
                n=10, d=2, alpha=0.3,
                inlier_model="heavy_tail_student_t", student_t_dof=2.0,
            )
        with pytest.raises(ConfigError, match="decoys"):
            InstanceSpec(n=10, d=2, alpha=0.3, decoys=5)  # simplex needs d >= k
        with pytest.raises(ConfigError, match="outlier_file"):
            InstanceSpec(n=10, d=2, alpha=0.3, adversary="file")

    @pytest.mark.parametrize("mean", ["random_sphere(7.5)", "huh"])
    def test_from_dict_refuses_a_string_mean(self, tmp_path, capsys, mean):
        # A mean on a sphere is asked for by mean_radius, not by a string.
        raw = {"n": 10, "d": 3, "alpha": 0.3, "true_mean": mean}
        with pytest.raises(ConfigError, match="true_mean"):
            InstanceSpec.from_dict(raw)
        path, out = tmp_path / "spec.json", tmp_path / "pts.csv"
        path.write_text(json.dumps({"instance": raw}))
        assert main(["synth", "--config", str(path), "--out", str(out)]) == 2
        assert "config error: true_mean" in capsys.readouterr().err
        assert not out.exists()

    def test_from_dict_unknown_field(self):
        with pytest.raises(ConfigError, match="bogus"):
            InstanceSpec.from_dict({"n": 10, "d": 3, "alpha": 0.3, "bogus": 1})


class TestGenInstance:
    def test_decoy_counts_and_centroids(self):
        spec = InstanceSpec(
            n=100, d=2, alpha=0.4, adversary="decoy_clusters",
            decoys=1, separation=50.0, seed=0,
        )
        pts, mask, mu = gen_instance(spec)
        assert pts.shape == (100, 2)
        assert mask.sum() == 40  # ceil(0.4 * 100)
        np.testing.assert_allclose(mu, [0.0, 0.0])
        inlier_centroid = pts[mask].mean(axis=0)
        outlier_centroid = pts[~mask].mean(axis=0)
        assert np.linalg.norm(inlier_centroid - mu) < 1.0
        assert abs(np.linalg.norm(outlier_centroid - mu) - 50.0) < 1.0

    def test_simplex_decoys_pairwise_distance(self):
        spec = InstanceSpec(
            n=400, d=12, alpha=0.1, adversary="decoy_clusters",
            decoys=9, separation=80.0, mean_radius=5.0, seed=1,
        )
        pts, mask, mu = gen_instance(spec)
        # the placement is deterministic given the mean; check it directly
        from ldme.instances import _equidistant_centers

        centers = _equidistant_centers(mu, 9, 80.0, 12)
        for i in range(9):
            for j in range(i + 1, 9):
                assert np.linalg.norm(centers[i] - centers[j]) == pytest.approx(80.0)
            assert np.linalg.norm(centers[i] - mu) == pytest.approx(80.0)

    def test_line_decoys_positions(self):
        spec = InstanceSpec(
            n=300, d=4, alpha=0.3, adversary="line_clusters",
            decoys=3, separation=60.0, seed=2,
        )
        pts, mask, mu = gen_instance(spec)
        dists = np.linalg.norm(pts[~mask] - mu, axis=1)
        # outliers concentrate near 60, 120, 180
        for target in (60.0, 120.0, 180.0):
            assert (np.abs(dists - target) < 10.0).sum() > 50

    def test_deterministic(self):
        spec = InstanceSpec(n=50, d=3, alpha=0.2, mean_radius=4.0, seed=33)
        a = gen_instance(spec)
        b = gen_instance(spec)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_file_adversary_passthrough(self, tmp_path):
        crafted = np.arange(12.0).reshape(6, 2) * 3.0
        path = tmp_path / "outliers.csv"
        save_points_csv(path, crafted)
        spec = InstanceSpec(
            n=10, d=2, alpha=0.4, adversary="file",
            outlier_file=str(path), true_mean=np.zeros(2), seed=4,
        )
        pts, mask, _ = gen_instance(spec)
        outs = pts[~mask]
        # same rows, order shuffled
        got = sorted(map(tuple, outs))
        want = sorted(map(tuple, crafted))
        assert got == want

    def test_file_adversary_row_count_checked(self, tmp_path):
        path = tmp_path / "outliers.csv"
        save_points_csv(path, np.zeros((3, 2)))
        spec = InstanceSpec(
            n=10, d=2, alpha=0.4, adversary="file",
            outlier_file=str(path), seed=4,
        )
        with pytest.raises(ConfigError, match="outlier_file"):
            gen_instance(spec)

    def test_mirror_reflects_through_origin(self):
        spec = InstanceSpec(
            n=2000, d=3, alpha=0.3, adversary="mirror",
            true_mean=np.array([10.0, 0.0, 0.0]), seed=5,
        )
        pts, mask, mu = gen_instance(spec)
        np.testing.assert_allclose(
            pts[~mask].mean(axis=0), -mu, atol=0.3
        )

    def test_uniform_noise_radius(self):
        spec = InstanceSpec(
            n=2000, d=3, alpha=0.3, adversary="uniform_noise",
            noise_radius=5.0, true_mean=np.array([1.0, 2.0, 3.0]), seed=6,
        )
        pts, mask, mu = gen_instance(spec)
        dists = np.linalg.norm(pts[~mask] - mu, axis=1)
        assert dists.max() <= 5.0 + 1e-9
        assert dists.max() > 4.0  # actually fills the ball

    def test_shared_outliers_match_the_file_read(self, tmp_path):
        path = tmp_path / "outliers.csv"
        save_points_csv(path, np.arange(12.0).reshape(6, 2) * 0.7)
        spec = InstanceSpec(
            n=10, d=2, alpha=0.4, adversary="file", outlier_file=str(path), seed=4
        )
        shared = load_outliers(spec)
        assert not shared.flags.writeable
        for x, y in zip(gen_instance(spec, shared), gen_instance(spec)):
            assert x.tobytes() == y.tobytes()

    def test_peak_memory_is_about_two_samples(self):
        # The sample is built in one buffer and permuted once: the draws,
        # the unpermuted buffer and the returned copy are not all alive
        # together. Shape of the decoys_wide benchmark workload.
        spec = InstanceSpec(
            n=16000, d=200, alpha=0.1, adversary="decoy_clusters", decoys=9,
            separation=40.0 / math.sqrt(0.1), mean_radius=10.0, seed=3,
        )
        tracemalloc.start()
        try:
            pts, _, _ = gen_instance(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * pts.nbytes


# SHA-256 over the bytes of (points, mask, mean). The digests pin the draws,
# their order and the arithmetic bit for bit, so a change to how the sample
# is assembled must reproduce them. One spec per adversary, all three inlier
# models among them.
PINNED = {
    "decoy_clusters": (
        dict(n=61, d=4, alpha=0.3, adversary="decoy_clusters", decoys=3,
             separation=25.0, mean_radius=4.0, seed=11),
        "2345ae5528c05fe8d67cc83968678d7818933d9fee4244afe5408ef5b79d7d26",
    ),
    "line_clusters": (
        dict(n=59, d=3, alpha=0.25, inlier_model="heavy_tail_student_t",
             adversary="line_clusters", decoys=4, separation=40.0, seed=12),
        "9d8b657f20240f70161b6eb92a3ab6794693f25e4a084835247b59880d07a5a0",
    ),
    "uniform_noise": (
        dict(n=50, d=3, alpha=0.2, inlier_model="bounded_uniform",
             adversary="uniform_noise", noise_radius=8.0,
             true_mean=np.array([1.0, -2.0, 0.5]), seed=13),
        "795712143f949447c11b6623dbb798055601f02f88af079bce24c47123069662",
    ),
    "mirror": (
        dict(n=40, d=2, alpha=0.35, inlier_model="heavy_tail_student_t",
             student_t_dof=5.0, adversary="mirror", mean_radius=3.0, seed=14),
        "7fbd3c1baf9edf80d6a204ef3dead1b373b3c3efec8f4aeeb33d9255fbf9a697",
    ),
    "file": (
        dict(n=10, d=2, alpha=0.3, inlier_model="bounded_uniform",
             adversary="file", mean_radius=2.0, seed=15),
        "0766748c636dd43eab934fd8b9b0a0eb468f336f6d99106978730e3106777689",
    ),
    "no_outliers": (
        dict(n=1, d=3, alpha=0.4, seed=16),
        "19e880d67eedc0f7c8d75c25ea4e33420e302b4feb851dc0f69f466344be3840",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_gen_instance_output_is_pinned(name, tmp_path):
    fields, want = PINNED[name]
    if fields.get("adversary") == "file":
        path = tmp_path / "outliers.csv"
        save_points_csv(path, (np.arange(14.0).reshape(7, 2) - 3.0) * 0.37)
        fields = dict(fields, outlier_file=str(path))
    digest = hashlib.sha256()
    for arr in gen_instance(InstanceSpec(**fields)):
        digest.update(arr.tobytes())
    assert digest.hexdigest() == want


class TestRepresentativeRate:
    @pytest.mark.parametrize(
        "model", ["gaussian_identity", "heavy_tail_student_t", "bounded_uniform"]
    )
    def test_rescaled_inliers_pass_representative_check(self, model):
        # After dividing by scale_c * sigma = 2, the planted inliers should
        # have empirical covariance norm <= 1.2 and mean error <= 1 in at
        # least 95% of seeds at n*alpha = 4d.
        d, alpha = 10, 0.25
        n = int(4 * d / alpha)
        ok = 0
        seeds = 40
        for seed in range(seeds):
            spec = InstanceSpec(
                n=n, d=d, alpha=alpha, inlier_model=model,
                adversary="uniform_noise", noise_radius=30.0,
                mean_radius=3.0, seed=seed,
            )
            pts, mask, mu = gen_instance(spec)
            sub = pts[mask] / 2.0
            centered = sub - sub.mean(axis=0)
            cov_norm = np.linalg.svd(centered, compute_uv=False)[0] ** 2 / len(sub)
            mean_err = np.linalg.norm(sub.mean(axis=0) - mu / 2.0)
            if cov_norm <= 1.2 and mean_err <= 1.0:
                ok += 1
        assert ok >= 0.95 * seeds

"""Data generators, IDX loading, presets, and the four run metrics."""

import math
import struct

import numpy as np
import pytest

from spgae.data import (IdxFormatError, MnistSpec, SynthSpec, generate,
                        load_idx_images, load_idx_labels, load_mnist, metrics,
                        preset)
from spgae.model import (ModelParams, ProblemData, Variables, autoencoder_error,
                         objective, relu)
from spgae.rng import stream

from conftest import random_feasible, write_idx_images, write_idx_labels

FROZEN_PRESETS = {
    1: (50, 50, 25), 2: (50, 100, 25), 3: (50, 100, 40), 4: (50, 10, 5),
    5: (75, 10, 5), 6: (100, 10, 5), 7: (100, 100, 25), 8: (150, 10, 5),
    9: (150, 20, 10),
}


class TestPresets:
    @pytest.mark.parametrize("pid,expect", sorted(FROZEN_PRESETS.items()))
    def test_frozen_table(self, pid, expect):
        assert preset(pid) == expect

    def test_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset(12)


class TestSpecValidation:
    def test_bad_kind(self):
        with pytest.raises(ValueError):
            SynthSpec(kind=3, n_train=10, n_test=0, n_visible=2, eps0=0.1)

    def test_bad_sizes(self):
        with pytest.raises(ValueError):
            SynthSpec(kind=1, n_train=0, n_test=0, n_visible=2, eps0=0.1)
        with pytest.raises(ValueError):
            SynthSpec(kind=1, n_train=5, n_test=-1, n_visible=2, eps0=0.1)

    def test_bad_noise(self):
        for eps0 in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps0 must be finite and nonnegative"):
                SynthSpec(kind=2, n_train=5, n_test=0, n_visible=2, eps0=eps0)


class TestTypeOne:
    def spec(self, **kw):
        base = dict(kind=1, n_train=40, n_test=15, n_visible=4, eps0=0.05,
                    seed=3)
        base.update(kw)
        return SynthSpec(**base)

    def test_shapes_and_nonneg(self):
        X, Xt = generate(self.spec())
        assert X.shape == (4, 40)
        assert Xt.shape == (4, 15)
        assert np.all(X >= 0) and np.all(Xt >= 0)

    def test_deterministic_and_seed_sensitive(self):
        a1, b1 = generate(self.spec())
        a2, b2 = generate(self.spec())
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)
        a3, _ = generate(self.spec(seed=4))
        assert not np.array_equal(a1, a3)

    def test_stream_replication_oracle(self):
        """The documented draw order on the 'data' stream: mean vector,
        rank-one factor, shared scalar factors, then the noise block."""
        spec = self.spec()
        rng = stream(spec.seed, "data")
        m = spec.n_train + spec.n_test
        theta = 0.5 + rng.standard_normal(spec.n_visible)
        sigma0 = rng.standard_normal(spec.n_visible)
        g = rng.standard_normal(m)
        h = rng.standard_normal((spec.n_visible, m))
        full = relu(theta[:, None] + sigma0[:, None] * g[None, :]
                    + spec.eps0 * h)
        X, Xt = generate(spec)
        assert np.array_equal(X, full[:, :spec.n_train])
        assert np.array_equal(Xt, full[:, spec.n_train:])

    def test_clipped_gaussian_moment(self):
        """Row means approach E[relu(N(m, s^2))] = m*Phi(m/s) + s*phi(m/s)."""
        spec = self.spec(n_train=200000, n_test=0, seed=9)
        rng = stream(spec.seed, "data")
        theta = 0.5 + rng.standard_normal(spec.n_visible)
        sigma0 = rng.standard_normal(spec.n_visible)
        X, _ = generate(spec)
        for i in range(spec.n_visible):
            s = math.hypot(sigma0[i], spec.eps0)
            mth = theta[i]
            phi = math.exp(-0.5 * (mth / s) ** 2) / math.sqrt(2 * math.pi)
            Phi = 0.5 * (1.0 + math.erf(mth / (s * math.sqrt(2))))
            expect = mth * Phi + s * phi
            sd_clip = math.sqrt(max(mth * mth + s * s - expect * expect, 0.0))
            assert abs(float(np.mean(X[i])) - expect) < \
                5.0 * sd_clip / math.sqrt(spec.n_train)


class TestTypeTwo:
    def spec(self, **kw):
        base = dict(kind=2, n_train=30, n_test=10, n_visible=3, eps0=0.1,
                    seed=5)
        base.update(kw)
        return SynthSpec(**base)

    def test_stream_replication_oracle(self):
        spec = self.spec()
        rng = stream(spec.seed, "data")
        m = spec.n_train + spec.n_test
        rows = rng.random((m, spec.n_visible)) \
            + spec.eps0 * rng.standard_normal((m, spec.n_visible))
        full = relu(rows).T
        X, Xt = generate(spec)
        assert np.array_equal(X, full[:, :spec.n_train])
        assert np.array_equal(Xt, full[:, spec.n_train:])

    def test_noise_free_bounds(self):
        X, Xt = generate(self.spec(eps0=0.0))
        assert np.all(X >= 0) and np.all(X < 1)
        assert np.all(Xt >= 0) and np.all(Xt < 1)

    def test_empty_test_split(self):
        X, Xt = generate(self.spec(n_test=0))
        assert X.shape == (3, 30)
        assert Xt.shape == (3, 0)


class TestIdx:
    def test_image_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        imgs = rng.integers(0, 256, size=(7, 4, 3), dtype=np.uint8)
        path = tmp_path / "imgs.idx3"
        write_idx_images(path, imgs)
        got = load_idx_images(path)
        assert got.shape == (7, 12)
        assert np.array_equal(got, imgs.reshape(7, 12))

    def test_label_round_trip(self, tmp_path):
        labels = np.array([0, 1, 2, 1, 0, 9], dtype=np.uint8)
        path = tmp_path / "labels.idx1"
        write_idx_labels(path, labels)
        assert np.array_equal(load_idx_labels(path), labels)

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.idx3"
        path.write_bytes(struct.pack(">iiii", 0x00000801, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(IdxFormatError, match="offset 0"):
            load_idx_images(path)

    def test_truncated_pixels_reports_offset(self, tmp_path):
        path = tmp_path / "short.idx3"
        path.write_bytes(struct.pack(">iiii", 0x00000803, 2, 2, 2) + b"\x00" * 5)
        with pytest.raises(IdxFormatError, match="truncated pixel data"):
            load_idx_images(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.idx1"
        path.write_bytes(struct.pack(">ii", 0x00000801, 2) + b"\x00" * 3)
        with pytest.raises(IdxFormatError, match="trailing bytes"):
            load_idx_labels(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.idx3"
        path.write_bytes(b"\x00\x00")
        with pytest.raises(IdxFormatError, match="truncated magic"):
            load_idx_images(path)


class TestMnistPipeline:
    def fixture_files(self, tmp_path, per_class_counts):
        rng = np.random.default_rng(7)
        labels = np.concatenate([np.full(c, cls, dtype=np.uint8)
                                 for cls, c in enumerate(per_class_counts)])
        rng.shuffle(labels)
        imgs = rng.integers(0, 256, size=(labels.size, 5, 5), dtype=np.uint8)
        ip, lp = tmp_path / "i.idx3", tmp_path / "l.idx1"
        write_idx_images(ip, imgs)
        write_idx_labels(lp, labels)
        return str(ip), str(lp), imgs, labels

    def test_keep_all_scaling(self, tmp_path):
        ip, _, imgs, _ = self.fixture_files(tmp_path, [4, 4])
        X, idx = load_mnist(MnistSpec(images_path=ip))
        assert X.shape == (25, 8)
        assert np.all((X >= 0) & (X <= 1))
        assert np.array_equal(idx, np.arange(8))
        assert np.allclose(X[:, 2], imgs[2].reshape(-1) / 255.0)

    def test_per_class_sampling_deterministic(self, tmp_path):
        ip, lp, _, labels = self.fixture_files(tmp_path, [6, 5, 7])
        spec = MnistSpec(images_path=ip, labels_path=lp, per_class=3, seed=2)
        X1, idx1 = load_mnist(spec)
        X2, idx2 = load_mnist(spec)
        assert np.array_equal(idx1, idx2)
        assert np.array_equal(X1, X2)
        assert X1.shape == (25, 9)
        chosen_labels = labels[idx1]
        for cls in (0, 1, 2):
            assert int(np.sum(chosen_labels == cls)) == 3

    def test_per_class_requires_labels(self, tmp_path):
        ip, _, _, _ = self.fixture_files(tmp_path, [3, 3])
        with pytest.raises(ValueError, match="labels_path"):
            load_mnist(MnistSpec(images_path=ip, per_class=2))

    def test_insufficient_class_raises(self, tmp_path):
        ip, lp, _, _ = self.fixture_files(tmp_path, [5, 2])
        with pytest.raises(ValueError, match="class 1"):
            load_mnist(MnistSpec(images_path=ip, labels_path=lp, per_class=4))

    def test_count_mismatch(self, tmp_path):
        ip, _, _, _ = self.fixture_files(tmp_path, [3, 3])
        lp = tmp_path / "short.idx1"
        write_idx_labels(lp, np.zeros(4, dtype=np.uint8))
        with pytest.raises(ValueError, match="label count"):
            load_mnist(MnistSpec(images_path=ip, labels_path=str(lp),
                                 per_class=1))


class TestMetrics:
    def test_zero_point_values(self, tiny_problem):
        data, params = tiny_problem
        m = metrics(Variables.zeros(data), data, params)
        expect = data.fro_sq / data.n_samples
        assert m["fval"] == pytest.approx(expect, rel=1e-14)
        assert m["trainerr"] == pytest.approx(expect, rel=1e-14)
        assert m["feasvi"] == 0.0
        assert m["testerr"] is None

    def test_fval_is_objective_exactly(self, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        assert metrics(z, data, params)["fval"] == objective(z, data, params)

    def test_feasvi_zero_iff_encoder_tight(self, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        tight = Variables(W=z.W, b1=z.b1, b2=z.b2,
                          V=relu(z.W @ data.X + z.b1[:, None]))
        assert metrics(tight, data, params)["feasvi"] == 0.0
        lifted = Variables(W=z.W, b1=z.b1, b2=z.b2, V=tight.V + 0.25)
        got = metrics(lifted, data, params)["feasvi"]
        assert got == pytest.approx(0.25, rel=1e-12)

    def test_feasvi_loop_oracle(self, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        total = 0.0
        for n in range(data.n_samples):
            for j in range(data.n_hidden):
                pre = float(z.W[j] @ data.X[:, n]) + z.b1[j]
                total += abs(z.V[j, n] - max(pre, 0.0))
        expect = total / (data.n_samples * data.n_hidden)
        assert metrics(z, data, params)["feasvi"] == pytest.approx(expect,
                                                                   rel=1e-12)

    def test_testerr_is_the_error_on_the_problems_test_matrix(self, tiny_problem,
                                                               test_rng):
        data, params = tiny_problem
        test_X = np.abs(test_rng.standard_normal((data.n_visible, 5)))
        data = ProblemData.from_matrix(data.X, data.n_hidden, test_X=test_X)
        z = random_feasible(data, params, test_rng)
        assert metrics(z, data, params)["testerr"] == autoencoder_error(z, data.test_X)

    def test_testerr_loop_oracle(self, tiny_problem, test_rng):
        data, params = tiny_problem
        z = random_feasible(data, params, test_rng)
        test_X = np.abs(test_rng.standard_normal((data.n_visible, 4)))
        data = ProblemData.from_matrix(data.X, data.n_hidden, test_X=test_X)
        got = metrics(z, data, params)["testerr"]
        total = 0.0
        for t in range(4):
            x = test_X[:, t]
            v = np.maximum(z.W @ x + z.b1, 0.0)
            recon = np.maximum(z.W.T @ v + z.b2, 0.0)
            total += float(np.sum((recon - x) ** 2))
        assert got == pytest.approx(total / 4, rel=1e-12)

"""Synthetic data generators, experiment presets, MNIST loading, and metrics."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .model import (Forward, ModelParams, ProblemData, Variables, autoencoder_error,
                    fidelity, penalty, preactivations, regularizer, relu)
from .rng import stream
from .serialize import FormatError as IdxFormatError, read_framed

# preset id -> (N, N1, N0)
PRESETS = {
    1: (50, 50, 25),
    2: (50, 100, 25),
    3: (50, 100, 40),
    4: (50, 10, 5),
    5: (75, 10, 5),
    6: (100, 10, 5),
    7: (100, 100, 25),
    8: (150, 10, 5),
    9: (150, 20, 10),
}


def preset(preset_id: int) -> tuple[int, int, int]:
    """Return (N, N1, N0) for one of the nine standard instance sizes."""
    try:
        return PRESETS[int(preset_id)]
    except KeyError:
        raise ValueError(f"unknown preset {preset_id}; valid: {sorted(PRESETS)}") from None


@dataclass(frozen=True)
class SynthSpec:
    kind: int           # 1: rank-one Gaussian mixture; 2: clipped uniform
    n_train: int
    n_test: int
    n_visible: int
    eps0: float
    seed: int = 0

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        if self.n_train < 1 or self.n_test < 0 or self.n_visible < 1:
            raise ValueError("sizes must be positive (n_test may be 0)")
        if not (0 <= self.eps0 < math.inf):
            raise ValueError("eps0 must be finite and nonnegative")


def _type1_from_factors(theta_vec, sigma0, eps0, m, rng):
    """x_i = (theta + sigma0 * g_i + eps0 * h_i)_+ with scalar g_i, vector h_i."""
    g = rng.standard_normal(m)
    h = rng.standard_normal((theta_vec.size, m))
    return relu(theta_vec[:, None] + sigma0[:, None] * g[None, :] + eps0 * h)


def gen_type1(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Mean 0.5 + randn, rank-one covariance sigma0 sigma0^T plus isotropic noise;
    negatives zeroed.  First n_train columns train, last n_test columns test."""
    rng = stream(spec.seed, "data")
    theta_vec = 0.5 + rng.standard_normal(spec.n_visible)
    sigma0 = rng.standard_normal(spec.n_visible)
    X = _type1_from_factors(theta_vec, sigma0, spec.eps0, spec.n_train + spec.n_test, rng)
    return X[:, :spec.n_train].copy(), X[:, spec.n_train:].copy()


def gen_type2(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """Uniform [0,1) plus eps0 * randn, negatives zeroed; generated row-major
    (samples as rows) then transposed into the column-sample convention."""
    rng = stream(spec.seed, "data")
    m = spec.n_train + spec.n_test
    rows = rng.random((m, spec.n_visible)) + spec.eps0 * rng.standard_normal((m, spec.n_visible))
    X = relu(rows).T
    return X[:, :spec.n_train].copy(), X[:, spec.n_train:].copy()


def generate(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    return gen_type1(spec) if spec.kind == 1 else gen_type2(spec)


# ---------------------------------------------------------------------------
# MNIST-style IDX files

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


def load_idx_images(path) -> np.ndarray:
    """Read an IDX3 image file into (count, rows*cols) uint8."""
    (count, rows, cols), raw = read_framed(path, struct.pack(">i", IDX_IMAGE_MAGIC),
                                           ">iii", 0, math.prod, "pixel data")
    return np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)


def load_idx_labels(path) -> np.ndarray:
    """Read an IDX1 label file into (count,) uint8."""
    _, raw = read_framed(path, struct.pack(">i", IDX_LABEL_MAGIC), ">i", 0, math.prod,
                         "label data")
    return np.frombuffer(raw, dtype=np.uint8).copy()


@dataclass(frozen=True)
class MnistSpec:
    images_path: str
    labels_path: str | None = None   # required for per-class sampling
    per_class: int | None = None     # None: keep every image
    seed: int = 0


def load_mnist(spec: MnistSpec) -> tuple[np.ndarray, np.ndarray]:
    """Columns scaled into [0, 1]; returns (X, chosen_indices).

    With per_class set, draws that many indices per label class uniformly
    without replacement under the named data stream, so the index set is a
    deterministic function of the seed.
    """
    images = load_idx_images(spec.images_path)
    if spec.per_class is None:
        idx = np.arange(images.shape[0])
    else:
        if spec.labels_path is None:
            raise ValueError("per-class sampling needs labels_path")
        labels = load_idx_labels(spec.labels_path)
        if labels.shape[0] != images.shape[0]:
            raise ValueError(f"label count {labels.shape[0]} != image count "
                             f"{images.shape[0]}")
        rng = stream(spec.seed, "data")
        chosen = []
        for cls in np.unique(labels):
            pool = np.flatnonzero(labels == cls)
            if pool.size < spec.per_class:
                raise ValueError(f"class {cls} has {pool.size} images, "
                                 f"need {spec.per_class}")
            chosen.append(rng.choice(pool, size=spec.per_class, replace=False))
        idx = np.concatenate(chosen)
    X = images[idx].astype(np.float64).T / 255.0
    return X, idx


# ---------------------------------------------------------------------------
# Metrics

def metrics(z: Variables, data: ProblemData, params: ModelParams, *,
            fw: Forward | None = None, reg: float | None = None) -> dict:
    """FVal = O(z); FeasVi = mean l1 gap between V and the encoder output;
    TrainErr = F(z); TestErr reconstructs ``data.test_X`` through
    v = (W x + b1)_+ (None without test columns).  ``fw`` and ``reg`` are z's
    pre-activations and R(z) when the caller already has them."""
    fw = fw or preactivations(z, data)
    if reg is None:
        reg = regularizer(z, params)
    feasvi = float(np.sum(np.abs(z.V - relu(fw.S)))) / (data.n_samples * data.n_hidden)
    trainerr = fidelity(z, data, fw=fw)
    return {
        # O = F + R + P, summed in the order ``objective`` uses
        "fval": trainerr + reg + penalty(z, data, params, fw=fw),
        "feasvi": feasvi,
        "trainerr": trainerr,
        "testerr": None if data.test_X is None else autoencoder_error(z, data.test_X),
    }

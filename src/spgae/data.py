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


def generate(spec: SynthSpec) -> tuple[np.ndarray, np.ndarray]:
    """(train X, test X): the first n_train and last n_test columns of one
    draw from the ``data`` stream, negatives zeroed.

    Kind 1 draws theta = 0.5 + randn and sigma0 = randn, then columns
    theta + sigma0 * g_i + eps0 * h_i, scalar g_i and vector h_i randn (mean
    theta, rank-one covariance sigma0 sigma0^T plus isotropic noise).  Kind 2
    draws uniform [0,1) plus eps0 * randn row-major (samples as rows), then
    transposes.
    """
    rng = stream(spec.seed, "data")
    m, n0 = spec.n_train + spec.n_test, spec.n_visible
    if spec.kind == 1:
        theta_vec, sigma0 = 0.5 + rng.standard_normal(n0), rng.standard_normal(n0)
        g, h = rng.standard_normal(m), rng.standard_normal((n0, m))
        X = relu(theta_vec[:, None] + sigma0[:, None] * g[None, :] + spec.eps0 * h)
    else:
        X = relu(rng.random((m, n0)) + spec.eps0 * rng.standard_normal((m, n0))).T
    return X[:, :spec.n_train].copy(), X[:, spec.n_train:].copy()


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

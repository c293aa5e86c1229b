"""Two-layer ReLU autoencoder training via smoothing proximal gradient.

The library trains the constrained, l1-penalized reformulation of the
autoencoder objective: an outer loop drives a smoothing parameter to zero
while each step solves a strongly convex quadratic subproblem with a
structured splitting method.  SGD baselines, synthetic data generators,
and an MNIST loader round out the experiment tooling.
"""

from .model import (FeasibilityReport, ModelParams, ProblemData, Variables,
                    compute_alpha, feasibility, fidelity, objective, penalty,
                    preactivations, regularizer, relu)
from .smoothing import (smooth_relu, smooth_relu_deriv, smoothed_loss,
                        smoothed_loss_grad, smoothed_objective)
from .subproblem import (AdmmState, NumericError, SubproblemResult,
                         SubproblemSpec, solve_subproblem, WbFactor,
                         subproblem_objective)
from .spg import (DivergenceError, SpgConfig, SpgResult, default_l0,
                  estimate_validated_l0, init_point, run, spg_step,
                  stationarity_diagnostic)
from .sgd import (NetParams, SgdConfig, SgdMember, net_to_feasible, sgd_lockstep,
                  sgd_run, spg_ada)
from .data import (MnistSpec, SynthSpec, generate, load_idx_images,
                   load_idx_labels, load_mnist, metrics, preset)
from .trace import RunTrace, TraceRow, TraceWriter, TRACE_HEADER
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "AdmmState", "DivergenceError", "FeasibilityReport",
    "MnistSpec", "ModelParams", "NetParams", "NumericError",
    "ProblemData", "RunTrace", "SgdConfig", "SgdMember", "SpgConfig", "SpgResult",
    "SubproblemResult", "SubproblemSpec", "SynthSpec", "TRACE_HEADER",
    "TraceRow", "TraceWriter", "Variables", "WbFactor", "compute_alpha",
    "default_l0", "estimate_validated_l0", "feasibility", "fidelity", "generate",
    "init_point", "load_idx_images", "load_idx_labels", "load_mnist",
    "metrics", "net_to_feasible", "objective", "penalty", "preactivations",
    "preset", "regularizer", "relu", "run", "sgd_lockstep", "sgd_run",
    "smooth_relu", "smooth_relu_deriv", "smoothed_loss", "smoothed_loss_grad",
    "smoothed_objective", "solve_subproblem", "spg_ada", "spg_step",
    "stationarity_diagnostic", "stream", "subproblem_objective",
]

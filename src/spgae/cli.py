"""Experiment command line: generate-data, train, qp-bench, report.

Option precedence is CLI flag > config file > built-in default.  Config files
are flat ``key = value`` text whose keys are the long option names with
underscores.  Every command is deterministic given (config, seeds); rerunning
writes byte-identical traces apart from the wall_ms column.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import inspect
import os
import statistics
import sys
import time
from dataclasses import fields

import numpy as np

from . import data as datamod
from . import serialize
from .model import ModelParams, ProblemData, Variables, packed_size, relu
from .rng import stream
from .sgd import (METHODS as SGD_METHODS, SgdConfig, net_to_feasible,
                  sgd_run, spg_ada)
from .smoothing import GradientBlocks
from .spg import SpgConfig, estimate_validated_l0, run as spg_run
from .subproblem import SubproblemSpec, solve_subproblem
from .trace import RunTrace, TraceWriter

ALL_METHODS = ("spg", "spg-ada") + SGD_METHODS

BENCH_SIZES = ((100, 5, 5), (100, 10, 10), (100, 20, 20), (100, 40, 40),
               (100, 100, 10), (1000, 100, 10), (10000, 784, 1000))

_SPG_DEFAULTS = {f.name: f.default for f in fields(SpgConfig)}
_SGD_DEFAULTS = {f.name: f.default for f in fields(SgdConfig)}
_PARAM_DEFAULTS = inspect.signature(ModelParams.from_data).parameters

# train-command options as (key, type, default), in --help order; each is the
# flag --key (underscores as dashes) and the config-file key.  Config files
# and flags may override any default.  generate-data's shape flags are rows
# of this table too.
TRAIN_OPTIONS = (
    ("method", str, "spg"),
    ("preset", int, None),
    ("datatype", int, 1),
    ("eps0", float, 0.05),
    ("n", int, None),
    ("n1", int, None),
    ("n0", int, None),
    ("ntest", int, 0),
    ("train_file", str, None),
    ("test_file", str, None),
    ("mnist_images", str, None),
    ("mnist_labels", str, None),
    ("per_class", int, None),
    ("seeds", str, "0"),
    ("workers", int, 1),
    ("lambda1", float, _PARAM_DEFAULTS["lambda1"].default),
    ("lambda2", float, _PARAM_DEFAULTS["lambda2"].default),
    ("beta", float, None),
    ("theta", float, None),
    ("alpha", float, None),
    ("mu0", float, _SPG_DEFAULTS["mu0"]),
    ("tau1", float, _SPG_DEFAULTS["tau1"]),
    ("tau2", float, _SPG_DEFAULTS["tau2"]),
    ("tau3", float, _SPG_DEFAULTS["tau3"]),
    ("L0", float, _SPG_DEFAULTS["L0"]),
    ("epsilon", float, _SPG_DEFAULTS["epsilon"]),
    ("max_iters", int, _SPG_DEFAULTS["max_outer_iters"]),
    ("sub_tol", float, _SPG_DEFAULTS["sub_tol"]),
    ("sub_max_iter", int, _SPG_DEFAULTS["sub_max_iter"]),
    ("theoretical_L", bool, False),
    ("epochs", int, _SGD_DEFAULTS["epochs"]),
    ("ada_epochs", int, inspect.signature(spg_ada).parameters["ada_epochs"].default),
    ("batch_size", int, _SGD_DEFAULTS["batch_size"]),
    ("lr", float, _SGD_DEFAULTS["lr"]),
)
TRAIN_DEFAULTS = {key: default for key, _, default in TRAIN_OPTIONS}
_TRAIN_TYPES = {key: typ for key, typ, _ in TRAIN_OPTIONS}
_TRAIN_FLAG_EXTRAS = {
    "method": {"choices": ALL_METHODS},
    "datatype": {"choices": (1, 2)},
    "seeds": {"help": "comma or space separated seed list"},
    "theoretical_L": {"action": "store_const", "const": True,
                      "help": "derive L0 from the sampled descent bound"},
}

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, raw: str):
    """Parse a config-file string to the type of the option."""
    typ = _TRAIN_TYPES[key]
    if raw == "none":
        return None
    if typ is bool:
        low = raw.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"config key {key}: expected boolean, got {raw!r}")
    return typ(raw)


def resolve_train_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- explicit flags."""
    cfg = dict(TRAIN_DEFAULTS)
    if getattr(args, "config", None):
        for key, raw in serialize.load_kv(args.config).items():
            key = key.replace("-", "_")
            if key not in TRAIN_DEFAULTS:
                raise ValueError(f"unknown config key {key!r} in {args.config}")
            cfg[key] = _coerce(key, raw)
    for key in TRAIN_DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _synthetic(cfg: dict, seed: int):
    """(SynthSpec, N1, train X, test X) for train and generate-data: sizes from
    --preset, whose N1 beats --n1, or from --n/--n1/--n0."""
    if cfg["preset"] is not None:
        n, n1, n0 = datamod.preset(cfg["preset"])
    elif cfg["n"] is None or cfg["n0"] is None:
        raise ValueError("need --preset or both --n and --n0 "
                         "(train also takes --train-file or --mnist-images)")
    else:
        n, n1, n0 = cfg["n"], cfg["n1"], cfg["n0"]
    spec = datamod.SynthSpec(kind=cfg["datatype"], n_train=n, n_test=cfg["ntest"],
                             n_visible=n0, eps0=cfg["eps0"], seed=seed)
    return spec, n1, *datamod.generate(spec)


def _build_problem(cfg: dict, seed: int):
    """Return (ProblemData, test matrix or None) from whichever source is configured."""
    test_X, n1 = None, cfg["n1"]
    if cfg["train_file"]:
        X = serialize.load_matrix(cfg["train_file"])
        test_X = serialize.load_matrix(cfg["test_file"]) if cfg["test_file"] else None
    elif cfg["mnist_images"]:
        X, _ = datamod.load_mnist(datamod.MnistSpec(
            images_path=cfg["mnist_images"], labels_path=cfg["mnist_labels"],
            per_class=cfg["per_class"], seed=seed))
    else:
        _, n1, X, Xte = _synthetic(cfg, seed)
        test_X = Xte if Xte.shape[1] else None
    if n1 is None:
        raise ValueError("--n1 is required unless --preset gives it")
    return ProblemData.from_matrix(X, n1), test_X


def _model_params(cfg: dict, data: ProblemData) -> ModelParams:
    return ModelParams.from_data(data, lambda1=cfg["lambda1"], lambda2=cfg["lambda2"],
                                 beta=cfg["beta"], theta=cfg["theta"],
                                 alpha=cfg["alpha"])


def _spg_config(cfg: dict, data: ProblemData, params: ModelParams,
                seed: int) -> SpgConfig:
    l0, radius = cfg["L0"], None
    if cfg["theoretical_L"]:
        l0, radius = estimate_validated_l0(data, params, cfg["mu0"], seed=seed)
    return SpgConfig(mu0=cfg["mu0"], tau1=cfg["tau1"], tau2=cfg["tau2"],
                     tau3=cfg["tau3"], L0=l0, epsilon=cfg["epsilon"],
                     max_outer_iters=cfg["max_iters"], sub_tol=cfg["sub_tol"],
                     sub_max_iter=cfg["sub_max_iter"], infnorm_bound=radius)


def _write_config_snapshot(path, cfg: dict, seed: int, params: ModelParams,
                           extra: dict | None = None):
    snap = {k: ("none" if v is None else v) for k, v in sorted(cfg.items())}
    snap["seed"] = seed
    snap["resolved_lambda1"] = params.lambda1
    snap["resolved_lambda2"] = params.lambda2
    snap["resolved_beta"] = params.beta
    snap["resolved_theta"] = params.theta
    snap["resolved_alpha"] = params.alpha
    if extra:
        snap.update(extra)
    serialize.save_kv(path, snap)


def train_one_seed(cfg: dict, seed: int, outdir: str) -> dict:
    """Run one (config, seed) experiment into ``outdir``; returns summary fields."""
    os.makedirs(outdir, exist_ok=True)
    t_start = time.perf_counter()
    data, test_X = _build_problem(cfg, seed)
    params = _model_params(cfg, data)
    method = cfg["method"]
    trace_path = os.path.join(outdir, "trace.csv")
    summary: dict = {"method": method, "seed": seed}
    extra_snap = {}

    with TraceWriter(trace_path) as sink:
        if method == "spg":
            config = _spg_config(cfg, data, params, seed)
            extra_snap["resolved_L0"] = config.L0 if config.L0 is not None else "auto"
            result = spg_run(data, params, config, seed=seed, test_X=test_X, sink=sink)
            z = result.z
            trace = result.trace
            summary["iterations"] = result.iterations
            summary["final_mu"] = result.mu
            summary["final_L"] = result.L
            summary["b1_clamp_hits"] = result.b1_clamp_hits
            if trace.stationarity:
                summary["final_stationarity"] = trace.stationarity[-1]
        elif method == "spg-ada":
            config = _spg_config(cfg, data, params, seed)
            result, trace = spg_ada(data, params, spg_config=config,
                                    ada_epochs=cfg["ada_epochs"], seed=seed,
                                    test_X=test_X, sink=sink)
            z = result.z
            summary["iterations"] = result.iterations
            summary["final_mu"] = result.mu
            summary["handoff_index"] = trace.handoff_index
        else:
            sgd_cfg = SgdConfig(method=method, epochs=cfg["epochs"],
                                batch_size=cfg["batch_size"], lr=cfg["lr"], seed=seed)
            p, trace = sgd_run(data, params, sgd_cfg, test_X=test_X, sink=sink)
            z = net_to_feasible(p, data, params)
            summary["epochs"] = cfg["epochs"]

    if method in ("spg", "spg-ada"):
        # the solver's last trace row already holds the metrics of z
        last = trace.rows[-1]
        m = {k: getattr(last, k) for k in ("fval", "feasvi", "trainerr", "testerr")}
    else:
        m = datamod.metrics(z, data, params, test_X=test_X)
    summary.update({k: ("" if v is None else v) for k, v in m.items()})
    summary["termination"] = trace.termination_reason
    summary["elapsed_s"] = time.perf_counter() - t_start
    serialize.save_variables(os.path.join(outdir, "model.bin"), z, data)
    _write_config_snapshot(os.path.join(outdir, "config.txt"), cfg, seed, params,
                           extra_snap)
    serialize.save_kv(os.path.join(outdir, "summary.txt"), summary)
    return summary


def cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    if cfg["method"] not in ALL_METHODS:
        raise ValueError(f"unknown method {cfg['method']!r}; valid: {ALL_METHODS}")
    seeds = [int(s) for s in str(cfg["seeds"]).replace(",", " ").split()]
    if not seeds:
        raise ValueError("no seeds given")
    outs = ([args.out] if len(seeds) == 1
            else [os.path.join(args.out, f"seed_{s}") for s in seeds])
    if cfg["workers"] > 1 and len(seeds) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg["workers"]) as ex:
            futures = [ex.submit(train_one_seed, cfg, s, o)
                       for s, o in zip(seeds, outs)]
            summaries = [f.result() for f in futures]
    else:
        summaries = [train_one_seed(cfg, s, o) for s, o in zip(seeds, outs)]
    for s in summaries:
        line = (f"seed {s['seed']}: {s['method']} {s['termination']} "
                f"fval={s['fval']:.6e} feasvi={s['feasvi']:.3e} "
                f"trainerr={s['trainerr']:.6e}")
        if s.get("testerr") != "":
            line += f" testerr={s['testerr']:.6e}"
        print(line)
    return 0


def cmd_generate_data(args) -> int:
    spec, _, Xtr, Xte = _synthetic(resolve_train_config(args), args.seed)
    os.makedirs(args.out, exist_ok=True)
    serialize.save_matrix(os.path.join(args.out, "train.bin"), Xtr)
    serialize.save_matrix(os.path.join(args.out, "test.bin"), Xte)
    if args.csv:
        serialize.save_matrix_csv(os.path.join(args.out, "train.csv"), Xtr)
        serialize.save_matrix_csv(os.path.join(args.out, "test.csv"), Xte)
    serialize.save_kv(os.path.join(args.out, "meta.txt"), {
        "datatype": spec.kind, "n_train": spec.n_train, "n_test": spec.n_test,
        "n_visible": spec.n_visible, "eps0": spec.eps0, "seed": spec.seed,
    })
    print(f"wrote {spec.n_train}+{spec.n_test} samples of dim {spec.n_visible} "
          f"to {args.out}")
    return 0


def bench_instance(n: int, n1: int, n0: int, seed: int = 0):
    """Random subproblem in the standard benchmark construction."""
    rng = stream(seed, "bench")
    X = rng.random((n0, n))
    g_W = rng.random((n1, n0))
    g_b = rng.random(n1 + n0)
    g_V = rng.random((n1, n))
    W_bar = rng.standard_normal((n1, n0)) / n
    data = ProblemData.from_matrix(X, n1)
    params = ModelParams.from_data(data)
    anchor = Variables(W=W_bar, b1=np.zeros(n1), b2=np.zeros(n0),
                       V=relu(W_bar @ X))
    grads = GradientBlocks(g_W=g_W, g_b1=g_b[:n1], g_b2=g_b[n1:], g_V=g_V)
    return SubproblemSpec(anchor=anchor, grads=grads, L=1.0, params=params, data=data)


def cmd_qp_bench(args) -> int:
    from .qp_reference import MAX_REFERENCE_DIM, kkt_residual, reference_solve
    from .subproblem import subproblem_objective

    sizes = []
    if args.sizes:
        for part in args.sizes.split(","):
            n, n1, n0 = (int(x) for x in part.split(":"))
            sizes.append((n, n1, n0))
    else:
        sizes = list(BENCH_SIZES)
    rows = []
    print(f"{'N':>6} {'N1':>5} {'N0':>5} {'N2':>9} {'iters':>6} {'seconds':>9} "
          f"{'resid':>9} {'ref_gap':>9} {'kkt':>9}")
    for n, n1, n0 in sizes:
        n2 = packed_size((n, n0, n1))
        if n2 > args.max_n2:
            print(f"{n:>6} {n1:>5} {n0:>5} {n2:>9} {'skip':>6} (raise --max-n2)")
            continue
        spec = bench_instance(n, n1, n0, seed=args.seed)
        t0 = time.perf_counter()
        res = solve_subproblem(spec, tol=args.tol)
        dt = time.perf_counter() - t0
        resid = max(res.deltas)
        # the dense certificate machinery only scales to small instances
        ref_gap = kkt = None
        if n2 <= MAX_REFERENCE_DIM:
            ref = reference_solve(spec)
            ref_gap = abs(subproblem_objective(spec, res.z)
                          - subproblem_objective(spec, ref))
            kkt = kkt_residual(spec, res.z)["max"]
        rows.append((n, n1, n0, n2, res.iters, dt, resid, ref_gap, kkt))
        fmt = lambda v: "" if v is None else f"{v:.3e}"
        print(f"{n:>6} {n1:>5} {n0:>5} {n2:>9} {res.iters:>6} {dt:>9.3f} "
              f"{resid:>9.1e} {fmt(ref_gap):>9} {fmt(kkt):>9}")
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("N,N1,N0,N2,iters,seconds,resid,ref_gap,kkt\n")
            for r in rows:
                fh.write(",".join(str(x) for x in r[:5])
                         + f",{r[5]:.6f},{r[6]:.6e}"
                         + "".join("," if v is None else f",{v:.6e}"
                                   for v in r[7:]) + "\n")
    return 0


AGG_COLUMNS = ("mu", "L", "fval", "smoothed", "feasvi", "trainerr", "testerr",
               "sub_iters")


def aggregate_traces(paths) -> tuple[list[str], list[list]]:
    """Per-row median and quartiles across runs for every populated column."""
    traces = [RunTrace.read_csv(p) for p in paths]
    if not traces:
        raise ValueError("no traces to aggregate")
    depth = min(len(t.rows) for t in traces)
    cols = [c for c in AGG_COLUMNS
            if any(getattr(t.rows[i], c) is not None
                   for t in traces for i in range(depth))]
    header = ["k"]
    for c in cols:
        header += [f"{c}_median", f"{c}_q25", f"{c}_q75"]
    out = []
    for i in range(depth):
        row: list = [traces[0].rows[i].k]
        for c in cols:
            vals = [getattr(t.rows[i], c) for t in traces]
            vals = [v for v in vals if v is not None]
            if not vals:
                row += [None, None, None]
            else:
                qs = statistics.quantiles(vals, n=4, method="inclusive") \
                    if len(vals) > 1 else [vals[0]] * 3
                row += [statistics.median(vals), qs[0], qs[2]]
        out.append(row)
    return header, out


def cmd_report(args) -> int:
    header, rows = aggregate_traces(args.traces)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join("" if v is None else
                              (str(v) if isinstance(v, int) else format(v, ".17g"))
                              for v in row) + "\n")
    print(f"aggregated {len(args.traces)} traces over {len(rows)} rows -> {args.out}")
    return 0


def _add_train_flags(parser: argparse.ArgumentParser, keys) -> None:
    """One flag per TRAIN_OPTIONS key; unset flags stay None for resolve_train_config."""
    for key in keys:
        extras = _TRAIN_FLAG_EXTRAS.get(key, {})
        if _TRAIN_TYPES[key] not in (str, bool):
            extras = {"type": _TRAIN_TYPES[key], **extras}
        parser.add_argument("--" + key.replace("_", "-"), dest=key, **extras)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="spgae",
                                 description="ReLU autoencoder training experiments")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write synthetic train/test matrices")
    _add_train_flags(g, ("datatype", "preset", "n", "n0", "ntest", "eps0"))
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--csv", action="store_true", help="also write CSV copies")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate_data)

    t = sub.add_parser("train", help="run one training method")
    t.add_argument("--config", help="key = value file; flags override it")
    t.add_argument("--out", required=True)
    t.add_argument("--seed", type=int, help="shorthand for --seeds with one entry")
    _add_train_flags(t, TRAIN_DEFAULTS)
    t.set_defaults(func=cmd_train)

    q = sub.add_parser("qp-bench", help="time the inner solver on standard sizes")
    q.add_argument("--sizes", help="comma list of N:N1:N0 triples")
    q.add_argument("--max-n2", dest="max_n2", type=int, default=200000)
    q.add_argument("--tol", type=float, default=_SPG_DEFAULTS["sub_tol"])
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out")
    q.set_defaults(func=cmd_qp_bench)

    r = sub.add_parser("report", help="aggregate trace CSVs across seeds")
    r.add_argument("--traces", nargs="+", required=True)
    r.add_argument("--out", required=True)
    r.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "seed", None) is not None and args.command == "train":
        if args.seeds is not None:
            raise SystemExit("use either --seed or --seeds, not both")
        args.seeds = str(args.seed)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Experiment command line: generate-data, train, qp-bench, report.

Option precedence is CLI flag > config file > built-in default.  Config files
are flat ``key = value`` text whose keys are the long option names with
underscores.  Every command is deterministic given (config, seeds); rerunning
writes byte-identical traces apart from the wall_ms column.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import data as datamod
from . import serialize
from .model import ModelParams, ProblemData, Variables, packed_size, relu
from .rng import stream
from .sgd import (METHODS as SGD_METHODS, SgdConfig, SgdMember, net_to_feasible,
                  sgd_lockstep)
from .spg import SpgConfig, run as spg_run
from .subproblem import SubproblemSpec, solve_subproblem, subproblem_objective
from .trace import RunTrace, TraceWriter

ALL_METHODS = ("spg", "spg-ada") + SGD_METHODS

BENCH_SIZES = ((100, 5, 5), (100, 10, 10), (100, 20, 20), (100, 40, 40),
               (100, 100, 10), (1000, 100, 10))

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
    ("ada_epochs", int, _SGD_DEFAULTS["epochs"]),
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

_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _coerce(key: str, raw: str):
    """Parse a config-file string to the type of the option."""
    typ = _TRAIN_TYPES[key]
    if raw == "none":
        return None
    try:
        return _BOOLS[raw.lower()] if typ is bool else typ(raw)
    except (KeyError, ValueError):
        name = "boolean" if typ is bool else typ.__name__
        raise ValueError(f"config key {key}: expected {name}, got {raw!r}") from None


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
    --preset (never with --n or --n0; its N1 beats --n1) or --n/--n1/--n0."""
    if cfg["preset"] is not None:
        for key in ("n", "n0"):
            if cfg[key] is not None:
                raise ValueError(f"--preset sets synthetic sizes and cannot be "
                                 f"combined with --{key}")
        n, n1, n0 = datamod.preset(cfg["preset"])
    elif cfg["n"] is None or cfg["n0"] is None:
        raise ValueError("need --preset or both --n and --n0 "
                         "(train also takes --train-file or --mnist-images)")
    else:
        n, n1, n0 = cfg["n"], cfg["n1"], cfg["n0"]
    spec = datamod.SynthSpec(kind=cfg["datatype"], n_train=n, n_test=cfg["ntest"],
                             n_visible=n0, eps0=cfg["eps0"], seed=seed)
    return spec, n1, *datamod.generate(spec)


def _build_problem(cfg: dict, seed: int) -> ProblemData:
    """The problem, test matrix included, from whichever source is configured."""
    test_X, n1 = None, cfg["n1"]
    if cfg["test_file"] and not cfg["train_file"]:
        raise ValueError("--test-file needs --train-file")
    for key in ("mnist_labels", "per_class"):
        if cfg[key] is not None and not cfg["mnist_images"]:
            raise ValueError(f"--{key.replace('_', '-')} needs --mnist-images")
    source = next((k for k in ("train_file", "mnist_images") if cfg[k]), None)
    if source and cfg["preset"] is not None:
        raise ValueError(f"--preset sets synthetic sizes and cannot be combined "
                         f"with --{source.replace('_', '-')}")
    for key in ("n", "n0", "datatype", "eps0", "ntest", "mnist_images"):
        # a file fixes the data: no synthetic flag, nor the other file, applies
        if source and key != source and cfg[key] != TRAIN_DEFAULTS[key]:
            raise ValueError(f"--{key.replace('_', '-')} does not apply to "
                             f"--{source.replace('_', '-')}")
    if cfg["train_file"]:
        X = serialize.load_matrix(cfg["train_file"])
        test_X = serialize.load_matrix(cfg["test_file"]) if cfg["test_file"] else None
    elif cfg["mnist_images"]:
        X, _ = datamod.load_mnist(datamod.MnistSpec(
            images_path=cfg["mnist_images"], labels_path=cfg["mnist_labels"],
            per_class=cfg["per_class"], seed=seed))
    else:
        _, n1, X, test_X = _synthetic(cfg, seed)
    if n1 is None:
        raise ValueError("--n1 is required unless --preset gives it")
    return ProblemData.from_matrix(X, n1, test_X=test_X)


def _model_params(cfg: dict, data: ProblemData) -> ModelParams:
    return ModelParams.from_data(data, lambda1=cfg["lambda1"], lambda2=cfg["lambda2"],
                                 beta=cfg["beta"], theta=cfg["theta"],
                                 alpha=cfg["alpha"])


def _spg_config(cfg: dict) -> SpgConfig:
    """The solver config of a ``train`` command, built (and warned about) once
    for all its seeds."""
    if cfg["theoretical_L"] and not (cfg["lambda1"] > 0 and cfg["lambda2"] > 0):
        # spg.run would find this only once trace.csv is open
        raise ValueError("--theoretical-L requires positive lambda1, lambda2")
    return SpgConfig(mu0=cfg["mu0"], tau1=cfg["tau1"], tau2=cfg["tau2"],
                     tau3=cfg["tau3"], L0=cfg["L0"], epsilon=cfg["epsilon"],
                     max_outer_iters=cfg["max_iters"], sub_tol=cfg["sub_tol"],
                     sub_max_iter=cfg["sub_max_iter"],
                     theoretical_L=cfg["theoretical_L"])


class _SeedRun:
    """One seed of a ``train`` command: its problem and trace (whose sink is
    the open ``trace.csv``), then its files in ``outdir``."""

    def __init__(self, cfg: dict, seed: int, outdir: str):
        t_start = time.perf_counter()
        self.cfg, self.seed, self.outdir = cfg, seed, outdir
        self.data = _build_problem(cfg, seed)
        self.params = _model_params(cfg, self.data)
        os.makedirs(outdir, exist_ok=True)   # only once the set-up has validated
        self.trace = RunTrace(sink=TraceWriter(os.path.join(outdir, "trace.csv")))
        self.elapsed_s = time.perf_counter() - t_start

    def finish(self, z: Variables, fields: dict) -> dict:
        """Write model.bin, config.txt and summary.txt; returns the summary.

        ``fields`` are the method's summary fields.  The summary's
        ``elapsed_s`` is ``self.elapsed_s`` (the set-up, plus the training
        time the caller adds) and the metrics of ``z``.
        """
        t_start = time.perf_counter()
        summary = {"method": self.cfg["method"], "seed": self.seed, **fields}
        snap = {k: ("none" if v is None else v) for k, v in sorted(self.cfg.items())}
        snap["seed"] = self.seed
        for k in ("lambda1", "lambda2", "beta", "theta", "alpha"):
            snap[f"resolved_{k}"] = getattr(self.params, k)
        snap.update(zip(("resolved_n", "resolved_n0", "resolved_n1"), self.data.dims))
        last = self.trace.rows[-1]
        if last.fval is not None:
            # a solver row (SGD rows have no fval) already holds the metrics
            # of z; the solver's first (row handoff_index) holds its L0
            m = {k: getattr(last, k) for k in ("fval", "feasvi", "trainerr", "testerr")}
            snap["resolved_L0"] = self.trace.rows[self.trace.handoff_index or 0].L
        else:
            m = datamod.metrics(z, self.data, self.params)
        summary.update(m)
        summary["termination"] = self.trace.termination_reason
        summary["elapsed_s"] = self.elapsed_s + time.perf_counter() - t_start
        serialize.save_variables(os.path.join(self.outdir, "model.bin"), z)
        serialize.save_kv(os.path.join(self.outdir, "config.txt"), snap)
        serialize.save_kv(os.path.join(self.outdir, "summary.txt"), summary)
        return summary


def train_seeds(cfg: dict, seeds, outs, spg_config: SpgConfig | None) -> list[dict]:
    """Run the seeds of a ``train`` command into their out dirs; returns their
    summaries.

    ``spg_config`` is ``_spg_config(cfg)`` for the ``spg`` and ``spg-ada``
    methods, else None; it and the SGD phase's one ``SgdConfig`` serve every
    seed, so the seeds differ only by their seed.  Every seed is set up; the
    methods with an SGD phase (every one but ``spg``; ``spg-ada``'s is its
    Adadelta warm start) train all seeds in it as one lockstep group
    (``sgd_lockstep``), and each net is made feasible (``net_to_feasible``).
    For ``spg`` and ``spg-ada`` each seed then makes one ``spg.run``, from
    that point if there is one.  Each seed's files are written last.
    """
    method = cfg["method"]
    ada = method == "spg-ada"       # the SGD phase is spg-ada's Adadelta warm start
    sgd_config = None if method == "spg" else SgdConfig(
        method="adadelta" if ada else method,
        epochs=cfg["ada_epochs" if ada else "epochs"],
        batch_size=cfg["batch_size"], lr=cfg["lr"])
    with contextlib.ExitStack() as stack:
        runs = []
        for seed, outdir in zip(seeds, outs):
            runs.append(_SeedRun(cfg, seed, outdir))
            stack.enter_context(runs[-1].trace.sink)
        t_start = time.perf_counter()
        nets = [None] * len(runs)
        if sgd_config is not None:
            group = [SgdMember(r.data, r.params, r.seed, trace=r.trace) for r in runs]
            nets = [p for p, _ in sgd_lockstep(group, sgd_config)]
        shared_s = time.perf_counter() - t_start
        summaries = []
        for run, p in zip(runs, nets):
            t_start = time.perf_counter()
            z = None if p is None else net_to_feasible(p, run.data, run.params)
            if spg_config is None:
                fields = {"epochs": cfg["epochs"]}
            else:
                result = spg_run(run.data, run.params, spg_config, z0=z, seed=run.seed,
                                 trace=run.trace)
                z = result.z
                fields = {"iterations": result.iterations, "final_mu": result.mu,
                          "final_L": result.L, "b1_clamp_hits": result.b1_clamp_hits,
                          "capped_solves": result.capped_solves,
                          "mu_shrinks": result.mu_shrinks,
                          "final_stationarity": result.final_stationarity}
                if ada:
                    fields["handoff_index"] = run.trace.handoff_index
            run.elapsed_s += shared_s + time.perf_counter() - t_start
            summaries.append(run.finish(z, fields))
        return summaries


def cmd_train(args) -> int:
    cfg = resolve_train_config(args)
    if cfg["method"] not in ALL_METHODS:
        raise ValueError(f"unknown method {cfg['method']!r}; valid: {ALL_METHODS}")
    seeds = []
    for entry in str(cfg["seeds"]).replace(",", " ").split():
        try:
            seeds.append(int(entry))
        except ValueError:
            raise ValueError(f"--seeds entry {entry!r} is not an integer") from None
    if not seeds:
        raise ValueError("no seeds given")
    if not (min(seeds) >= 0):
        raise ValueError(f"--seeds must be >= 0, got {min(seeds)}")
    if len(set(seeds)) < len(seeds):
        raise ValueError(f"duplicate seeds in {cfg['seeds']!r}")
    if cfg["workers"] < 1:
        raise ValueError("--workers must be >= 1")
    outs = ([args.out] if len(seeds) == 1
            else [os.path.join(args.out, f"seed_{s}") for s in seeds])
    out_of = dict(zip(seeds, outs))
    spg_config = _spg_config(cfg) if cfg["method"] in ("spg", "spg-ada") else None
    # spg seeds run one per task; the other methods' seeds form one lockstep
    # group per worker
    workers = min(cfg["workers"], len(seeds))
    groups = ([[s] for s in seeds] if cfg["method"] == "spg"
              else [g.tolist() for g in np.array_split(seeds, workers)])
    tasks = [(cfg, g, [out_of[s] for s in g], spg_config) for g in groups]
    if workers > 1:
        import concurrent.futures    # here: a one-process command never loads it

        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            futures = [ex.submit(train_seeds, *task) for task in tasks]
            summaries = [s for f in futures for s in f.result()]
    else:
        summaries = [s for task in tasks for s in train_seeds(*task)]
    for s in summaries:
        line = (f"seed {s['seed']}: {s['method']} {s['termination']} "
                f"fval={s['fval']:.6e} feasvi={s['feasvi']:.3e} "
                f"trainerr={s['trainerr']:.6e}")
        if s["testerr"] is not None:
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
    grads = Variables(W=g_W, b1=g_b[:n1], b2=g_b[n1:], V=g_V)
    return SubproblemSpec(anchor=anchor, grads=grads, L=1.0, params=params, data=data)


def cmd_qp_bench(args) -> int:
    from .qp_reference import MAX_REFERENCE_DIM, kkt_residual, reference_solve

    if not (args.tol >= 0.0):   # NaN fails it too; checked before the header prints
        raise ValueError(f"--tol must be >= 0, got {args.tol}")
    sizes = list(BENCH_SIZES)
    if args.sizes is not None:   # every entry is checked before the first solve
        sizes = []
        for part in args.sizes.split(","):
            try:
                size = tuple(int(x) for x in part.split(":"))
            except ValueError:
                size = ()
            if len(size) != 3 or min(size) < 1:
                raise ValueError(f"--sizes entry {part!r} is not N:N1:N0 "
                                 "with three positive integers")
            sizes.append(size)
    rows = []
    print(f"{'N':>6} {'N1':>5} {'N0':>5} {'N2':>9} {'iters':>6} {'seconds':>9} "
          f"{'resid':>9} {'ref_gap':>9} {'kkt':>9}")
    for n, n1, n0 in sizes:
        n2 = packed_size((n, n0, n1))
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
            for row in rows:
                fh.write(",".join(map(serialize.format_value, row)) + "\n")
    return 0


AGG_COLUMNS = ("mu", "L", "fval", "smoothed", "feasvi", "trainerr", "testerr",
               "sub_iters")


def aggregate_traces(paths) -> tuple[list[str], list[list]]:
    """Per-row median and quartiles across runs for every populated column."""
    import statistics    # here: only the report command loads it

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
            fh.write(",".join(map(serialize.format_value, row)) + "\n")
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
        if getattr(args, "seed", None) is not None and not (args.seed >= 0):
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

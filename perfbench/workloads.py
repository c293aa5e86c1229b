"""The four benchmark workloads: CLI commands, inputs, output parsing, checks.

A workload turns the benchmark seed into a *unit*: a list of spgae CLI
commands, each run in a fresh process.  Every unit does a fixed amount of
work (step budgets, a fixed QP ladder) so that a unit's cost depends little on
which seed drew its inputs.  ``parse`` reads what the commands wrote and
returns the unit's counts, quality figures and correctness verdicts.
"""

from __future__ import annotations

import csv
import os
import statistics
import struct

import numpy as np

# Inputs are drawn so that the work depends little on the seed.  On
# datatype-1 data (a random mean per coordinate) the inner solves of a
# preset-6 instance are heavy-tailed: the sweep count of a 60-seed block still
# spreads by 12-27% between blocks.  The spg workloads therefore use datatype 2
# (clipped uniform) at the same shapes.
#
# spg-preset6: preset-6 shape (N2 = 1,165), ten seeds, a budget of outer
# steps per seed.  Runs to mu <= epsilon take 88 to over 4,000 steps here,
# so a budget keeps the work fixed; the rare seed that converges sooner stops.
# It runs with --workload spg-preset6 but is not in BENCHMARK.json: its wall
# time, many tiny array operations, drifts by up to 30% between runs on a
# shared 2-core machine (CPU time drifts as much), beyond any allowed bound.
PRESET6_SEEDS = 10
PRESET6_STEPS = 100
# qp-ladder: three rows small enough for the dense reference QP (N2 <= 500),
# then the default qp-bench ladder up to N2 = 11,110.  The 1000:100:10 row
# (N2 = 101,110) is left out: it runs into the 10,000-sweep cap after 45-130 s.
QP_SIZES = "20:5:5,40:6:4,60:6:6,100:5:5,100:10:10,100:20:20,100:40:40,100:100:10"
QP_SWEEP_CAP = 10000
QP_TOL = 1e-6
# mnist-width: four seeds, one outer step each, a 443k-variable QP of about
# 30 sweeps; later steps vary more in sweep count between seeds.
MNIST_SEEDS = 4
MNIST_STEPS = 1
MNIST_PER_CLASS = 10
MNIST_IMAGES_PER_CLASS = 20
# hybrid: the acceptance-8 shape, three seeds, Adadelta epochs for both the
# baseline and the warm start, and a capped SPG tail.
HYBRID_SHAPE = ("--n", "1000", "--n1", "20", "--n0", "5", "--ntest", "300",
                "--datatype", "2")
HYBRID_SEEDS = 3
HYBRID_EPOCHS = 50
HYBRID_TAIL_STEPS = 40

# sanity bounds for the inner solver against the dense reference on the small
# rows; the values measured at tol 1e-6 are about 7e-5 and 1.3e-2
QP_GAP_LIMIT = 1e-3
QP_KKT_LIMIT = 1e-1

NAMES = ("spg-preset6", "qp-ladder", "mnist-width", "hybrid")


def _seeds(seed: int, count: int) -> str:
    """``count`` consecutive seeds, disjoint between benchmark seeds."""
    return ",".join(str(count * seed + i) for i in range(count))


def write_idx(dirpath: str, seed: int) -> tuple[str, str]:
    """Synthetic 28x28 IDX image and label files with MNIST-like sparsity.

    Each image holds three bright strokes whose length depends on the label,
    so about 88% of pixels are zero.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 28 * 28]))
    labels = np.repeat(np.arange(10, dtype=np.uint8), MNIST_IMAGES_PER_CLASS)
    yy, xx = np.mgrid[0:28, 0:28]
    images = np.zeros((labels.size, 28, 28))
    for i, label in enumerate(labels):
        for _ in range(3):
            cy, cx = rng.uniform(8.0, 20.0, 2)
            ang = rng.uniform(0.0, np.pi)
            along = (xx - cx) * np.cos(ang) + (yy - cy) * np.sin(ang)
            across = -(xx - cx) * np.sin(ang) + (yy - cy) * np.cos(ang)
            stroke = (np.abs(across) < 1.5) & (np.abs(along) < 4 + label % 5)
            images[i] = np.maximum(images[i], stroke * rng.uniform(150.0, 255.0))
    img_path = os.path.join(dirpath, "images.idx3")
    lab_path = os.path.join(dirpath, "labels.idx1")
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">iiii", 0x803, labels.size, 28, 28))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">ii", 0x801, labels.size))
        fh.write(labels.tobytes())
    return img_path, lab_path


def prepare(name: str, workdir: str, seed: int) -> dict:
    """Write the workload's input files; returns what ``commands`` needs."""
    if name == "mnist-width":
        images, labels = write_idx(workdir, seed)
        return {"images": images, "labels": labels}
    return {}


def commands(name: str, inputs: dict, seed: int, outdir: str) -> list[tuple[str, list]]:
    """(label, CLI argv) pairs that make up one unit of the workload."""
    if name == "spg-preset6":
        return [("spg", ["train", "--method", "spg", "--preset", "6", "--datatype", "2",
                         "--eps0", "0.05", "--seeds", _seeds(seed, PRESET6_SEEDS),
                         "--workers", "1",
                         "--max-iters", str(PRESET6_STEPS),
                         "--out", os.path.join(outdir, "spg")])]
    if name == "qp-ladder":
        return [("qp", ["qp-bench", "--sizes", QP_SIZES, "--tol", str(QP_TOL),
                        "--seed", str(seed), "--out", os.path.join(outdir, "qp.csv")])]
    if name == "mnist-width":
        return [("spg", ["train", "--method", "spg", "--mnist-images", inputs["images"],
                         "--mnist-labels", inputs["labels"],
                         "--per-class", str(MNIST_PER_CLASS), "--n1", "500",
                         "--max-iters", str(MNIST_STEPS),
                         "--seeds", _seeds(seed, MNIST_SEEDS), "--workers", "1",
                         "--out", os.path.join(outdir, "spg")])]
    if name == "hybrid":
        return [("adadelta", ["train", "--method", "adadelta", *HYBRID_SHAPE,
                              "--epochs", str(HYBRID_EPOCHS),
                              "--seeds", _seeds(seed, HYBRID_SEEDS), "--workers", "1",
                              "--out", os.path.join(outdir, "adadelta")]),
                ("spg-ada", ["train", "--method", "spg-ada", *HYBRID_SHAPE,
                             "--ada-epochs", str(HYBRID_EPOCHS),
                             "--max-iters", str(HYBRID_TAIL_STEPS),
                             "--seeds", _seeds(seed, HYBRID_SEEDS), "--workers", "1",
                             "--out", os.path.join(outdir, "spg-ada")])]
    raise KeyError(name)


# ---------------------------------------------------------------------------
# output parsing and correctness checks


def _read_kv(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            key, sep, value = line.partition("=")
            if sep:
                out[key.strip()] = value.strip()
    return out


def _run_dirs(outdir: str) -> list[str]:
    """One directory per seed: the out dir itself, or its seed_<s> children."""
    if os.path.exists(os.path.join(outdir, "summary.txt")):
        return [outdir]
    return sorted((os.path.join(outdir, d) for d in os.listdir(outdir)
                   if d.startswith("seed_")),
                  key=lambda p: int(p.rsplit("_", 1)[1]))


def _problem_for(name: str, inputs: dict, cfg: dict):
    """Rebuild the training data a run used, from its config snapshot."""
    from spgae import data as datamod
    from spgae.model import ModelParams, ProblemData

    seed = int(cfg["seed"])
    if name == "mnist-width":
        X, _ = datamod.load_mnist(datamod.MnistSpec(
            images_path=inputs["images"], labels_path=inputs["labels"],
            per_class=int(cfg["per_class"]), seed=seed))
        n1 = int(cfg["n1"])
    else:
        if cfg["preset"] != "none":
            n, n1, n0 = datamod.preset(int(cfg["preset"]))
        else:
            n, n1, n0 = int(cfg["n"]), int(cfg["n1"]), int(cfg["n0"])
        X, _ = datamod.generate(datamod.SynthSpec(
            kind=int(cfg["datatype"]), n_train=n, n_test=int(cfg["ntest"]),
            n_visible=n0, eps0=float(cfg["eps0"]), seed=seed))
    data = ProblemData.from_matrix(X, n1)
    params = ModelParams(**{k: float(cfg[f"resolved_{k}"])
                            for k in ("lambda1", "lambda2", "beta", "theta", "alpha")})
    return data, params


def check_model(name: str, inputs: dict, rundir: str, fval: float) -> list:
    """Reload model.bin: finite, in Z, dims and objective match the run."""
    from spgae import serialize
    from spgae.model import feasibility, objective

    cfg = _read_kv(os.path.join(rundir, "config.txt"))
    data, params = _problem_for(name, inputs, cfg)
    z, dims = serialize.load_variables(os.path.join(rundir, "model.bin"))
    tag = os.path.basename(rundir)
    finite = all(np.all(np.isfinite(b)) for b in (z.W, z.b1, z.b2, z.V))
    rep = feasibility(z, data, params)
    obj = objective(z, data, params)
    return [(f"{tag}: model finite", bool(finite), ""),
            (f"{tag}: model dims", tuple(dims) == tuple(data.dims), f"{dims}"),
            (f"{tag}: model in Z", rep.in_Z,
             f"omega2 {rep.omega2_violation:.1e}, omega3 {rep.omega3_violation:.1e}"),
            (f"{tag}: fval matches model", abs(obj - fval) <= 1e-9 * max(1.0, abs(fval)),
             f"{obj!r} vs {fval!r}")]


def _parse_train(name: str, inputs: dict, outdir: str, label: str, res: dict):
    for rundir in _run_dirs(outdir):
        summary = _read_kv(os.path.join(rundir, "summary.txt"))
        with open(os.path.join(rundir, "trace.csv"), encoding="ascii") as fh:
            rows = list(csv.DictReader(fh))
        steps = [r for r in rows if r["sub_iters"] not in ("", "0")]
        sweeps = sum(int(r["sub_iters"]) for r in steps)
        res["outer_iters"] += len(steps)
        res["inner_sweeps"] += sweeps
        res["step_ms"] += [float(r["wall_ms"]) for r in steps]
        res["attempts"] += 1
        # reaching the step budget is the workload's design, not a miss
        if summary["termination"] not in ("mu<=eps", "max_iters", "epochs"):
            res["unconverged"] += 1
        fval = float(summary["fval"])
        res["checks"] += check_model(name, inputs, rundir, fval)
        res["fingerprint"].append((label, os.path.basename(rundir), summary["iterations"]
                                   if "iterations" in summary else summary.get("epochs"),
                                   summary["fval"], summary["feasvi"], sweeps))
        if label != "adadelta":
            res["fval"].append(fval)
            res["feasvi"].append(float(summary["feasvi"]))
            if summary.get("testerr", "") != "":
                res["testerr"].append(float(summary["testerr"]))


def _parse_qp(path: str, res: dict):
    with open(path, encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    res["checks"].append(("qp rows", len(rows) == len(QP_SIZES.split(",")),
                          f"{len(rows)} rows"))
    for r in rows:
        iters, resid = int(r["iters"]), float(r["resid"])
        res["inner_sweeps"] += iters
        res["attempts"] += 1
        if iters >= QP_SWEEP_CAP or not resid <= QP_TOL:
            res["unconverged"] += 1
        res["fingerprint"].append((r["N2"], r["iters"], r["resid"], r["ref_gap"], r["kkt"]))
        if r["ref_gap"]:
            gap, kkt = float(r["ref_gap"]), float(r["kkt"])
            res["ref_gap"].append(gap)
            res["kkt"].append(kkt)
            res["checks"].append((f"qp N2={r['N2']}: reference gap", gap <= QP_GAP_LIMIT,
                                  f"{gap:.2e} <= {QP_GAP_LIMIT:g}"))
            res["checks"].append((f"qp N2={r['N2']}: KKT residual", kkt <= QP_KKT_LIMIT,
                                  f"{kkt:.2e} <= {QP_KKT_LIMIT:g}"))
    res["checks"].append(("qp reference rows", len(res["ref_gap"]) == 3,
                          f"{len(res['ref_gap'])} rows with a reference gap"))


def parse(name: str, inputs: dict, outdir: str, labels: list[str]) -> dict:
    """Counts, quality figures, a determinism fingerprint and check verdicts."""
    res = {"outer_iters": 0, "inner_sweeps": 0, "unconverged": 0, "attempts": 0,
           "fval": [], "feasvi": [], "testerr": [], "ref_gap": [], "kkt": [],
           "step_ms": [], "checks": [], "fingerprint": []}
    for label in labels:
        if name == "qp-ladder":
            _parse_qp(os.path.join(outdir, "qp.csv"), res)
        else:
            _parse_train(name, inputs, os.path.join(outdir, label), label, res)
    return res


def quality(res: dict) -> dict:
    """The unit's end-to-end quality figures; None where they do not apply."""
    med = lambda v: statistics.median(v) if v else None
    return {"final_fval": med(res["fval"]), "final_feasvi": med(res["feasvi"]),
            "testerr": med(res["testerr"]),
            "qp_ref_gap": max(res["ref_gap"]) if res["ref_gap"] else None,
            "qp_kkt": max(res["kkt"]) if res["kkt"] else None}

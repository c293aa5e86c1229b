"""spgae benchmark: one workload, run through the spgae CLI in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (``src/spgae`` must exist).  The
workload's unit of commands (see ``workloads.py``) is repeated for about S
seconds (the last repetition starts only if at least half of it fits), at
least MIN_REPS times.  Each command is a fresh ``python`` process running
``spgae.cli.main`` through ``child.py`` with BLAS held to one thread.  On a
2-core VM, OpenBLAS's default of one thread per core turns any other load
into barrier stalls: the qp-ladder unit took 20-75 s while a second process
ran, against under 6 s at one thread.

--trace 0 reports the end-to-end metrics (medians over repetitions; the two
times are scaled to a reference machine speed, see CAL_REF_S).
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus the tracing overhead.

Every repetition's outputs are checked: each model.bin is reloaded and must be
finite and in Z with the objective the run printed; the small QP rows must
agree with the dense reference; counts and final values must repeat exactly
between repetitions (same BLAS thread count).  Human-readable lines come
first, then a ``detail`` JSON line, and the last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set before workloads imports numpy, so that this process and every child
# it starts run BLAS on one thread
os.environ.update({k: "1" for k in THREAD_VARS})

from workloads import NAMES, commands, parse, prepare, quality  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

MIN_REPS = 3             # untraced repetitions per run, whatever --seconds says
MIN_TRACED = 2           # traced repetitions per --trace 1 run
STOP_AFTER_S = 120.0     # start no repetition after this ...
DEADLINE_S = 170.0       # ... and kill any command still running now: runs end within 180 s

# Machine speed.  On a shared host the CPU's speed drifts: on a 2-core Xeon
# VM the hybrid unit's wall time rose by half over three minutes (IQR/median
# 0.34 over five runs), and a median over one run cannot take that out.  So
# CAL_PIECES runs of a fixed interpreter loop are timed just before and just
# after every untraced repetition, and the gated times are scaled to the speed
# at which the run's median piece takes CAL_REF_S (its median on that VM).
# The CLI's wall time and the loop drift alike: over ten runs per workload the
# scaled wall time spread 0.04-0.09 of its median, the raw one 0.07-0.11.
CAL_PIECES = 10
CAL_REF_S = 0.0105


def calibration_piece() -> float:
    """Seconds for a fixed pure-Python loop, independent of spgae."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(120_000):
        acc += i * i
    return time.perf_counter() - t0


def calibrate() -> list:
    return [calibration_piece() for _ in range(CAL_PIECES)]


def percentile_summary(samples):
    """Median plus the highest of p90/p99/p99.9 with at least ten samples beyond it."""
    s = sorted(samples)
    n = len(s)
    out = {"median": statistics.median(s) if s else None, "n": n, "p": None, "p_value": None}
    if n <= 20:
        out["samples"] = samples
    for p in (99.9, 99.0, 90.0):
        if n * (100.0 - p) / 100.0 >= 10:
            out["p"] = p
            out["p_value"] = s[math.ceil(p / 100.0 * n) - 1]
            break
    return out


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv, sidecar, log, trace: bool, deadline: float) -> dict:
    """Run one CLI command in a fresh process; wall, set-up, peak RSS, sidecar."""
    t0 = time.monotonic()
    with open(log, "w", encoding="utf-8") as out:
        proc = subprocess.Popen([sys.executable, CHILD, sidecar, "1" if trace else "0", *argv],
                                stdout=out, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(deadline - t0, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    try:
        with open(sidecar, encoding="ascii") as fh:
            side = json.load(fh)
    except (OSError, ValueError):  # killed before or while writing it
        side = {}
    first, end = side.get("first_work"), side.get("end")
    return {"rc": proc.returncode, "wall": wall,
            "setup": (first - t0) if first is not None else wall,
            "until_main_returned": (end - t0) if end is not None else wall,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "spans": side.get("spans", []), "absent": side.get("absent", []),
            "blas": side.get("blas", []), "log": log}


def run_unit(name, inputs, seed, workdir, rep, trace: bool, deadline: float) -> dict:
    """One repetition of the workload's commands, parsed and checked."""
    outdir = os.path.join(workdir, f"rep{rep}")
    os.makedirs(outdir)
    cmds = commands(name, inputs, seed, outdir)
    runs = []
    for i, (label, argv) in enumerate(cmds):
        runs.append(run_command(argv, os.path.join(outdir, f"{i}.sidecar.json"),
                                os.path.join(outdir, f"{i}.log"), trace, deadline))
    unit = {"runs": runs, "failed": 0, "parsed": None,
            "wall": sum(r["wall"] for r in runs), "setup": sum(r["setup"] for r in runs),
            "rss_mb": max(r["rss_mb"] for r in runs)}
    bad = [r for r in runs if r["rc"] != 0]
    if bad:
        unit["failed"] = len(bad)
        for r in bad:
            with open(r["log"], encoding="utf-8", errors="replace") as fh:
                unit.setdefault("errors", []).append(f"exit {r['rc']}: {fh.read()[-400:]}")
    else:
        try:
            unit["parsed"] = parse(name, inputs, outdir, [label for label, _ in cmds])
        # ImportError/AttributeError: the checks call spgae's public API
        except (OSError, ValueError, KeyError, ImportError, AttributeError) as exc:
            unit["failed"] = len(runs)
            unit["errors"] = [f"unreadable output: {exc!r}"]
    shutil.rmtree(outdir, ignore_errors=True)
    return unit


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced repetition


def unit_of(metric: str) -> str:
    """Per-layer units follow the name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_s", "s"), ("_pct", "%"), ("_gflops", "GFLOP/s"),
                         ("_ratio", "ratio"), ("_per_solve", "ratio")):
        if metric.endswith(suffix):
            return unit
    return "count"


def _wb_flops(dims) -> float:
    """Computed flops of one (W,b) sweep: (rho+U) Xhat^T, two triangular solves, W X."""
    n, n0, n1 = dims
    return 2.0 * n1 * n * (n0 + 1) + 2.0 * (n0 + 1) ** 2 * n1 + 2.0 * n1 * n0 * n


def layer_metrics(unit: dict) -> dict:
    """Self time per span name, counts and ratios; ``cli.self`` is the residual."""
    self_s = defaultdict(float)
    calls = Counter()
    wall = cli_self = wb_flops = 0.0
    solves = capped = accepted = 0
    for run in unit["runs"]:
        spans = run["spans"]
        dur = [s[2] - s[1] for s in spans]
        inner = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                inner[s[3]] += dur[i]
        # the sidecar write and interpreter exit come after main returns and
        # belong to the tracer, not to the CLI
        wall += run["until_main_returned"]
        cli_self += run["until_main_returned"] - sum(d for d, s in zip(dur, spans) if s[3] < 0)
        for i, s in enumerate(spans):
            self_s[s[0]] += dur[i] - inner[i]
            calls[s[0]] += 1
            attrs = s[4] or {}
            if s[0] == "subproblem.solve":
                solves += 1
                capped += attrs.get("converged") is False
                if len(attrs.get("dims") or ()) == 3 and attrs.get("iters"):
                    wb_flops += attrs["iters"] * _wb_flops(attrs["dims"])
            elif s[0] == "spg.step":
                accepted += attrs.get("accepted") is True
    ms = lambda *names: 1e3 * sum(self_s[n] for n in names)
    per = lambda total, count: total / count if count else 0.0
    sweeps = calls["subproblem.wb"]
    steps = calls["spg.step"]
    times = {  # self time in ms, named as in the layer -> metric map
        "subproblem.solve_ms": ms("subproblem.solve", "subproblem.wb", "subproblem.vu",
                                  "subproblem.mult"),
        "smoothing.grad_ms": ms("smoothing.grad"),
        "smoothing.objective_ms": ms("smoothing.objective"),
        "data.metrics_ms": ms("data.metrics"),
        "data.generate_ms": ms("data.generate"),
        "data.load_mnist_ms": ms("data.load_mnist"),
        "spg.self_ms": ms("spg.run", "spg.step"),
        "sgd.grad_ms": ms("sgd.grad"),
        "sgd.eval_ms": ms("sgd.eval"),
        "sgd.self_ms": ms("sgd.run", "sgd.hybrid"),
        "sgd.local_l0_ms": ms("sgd.local_l0"),
        "trace.write_ms": ms("trace.write"),
        "serialize.save_ms": ms("serialize.save"),
        "qp_reference.solve_ms": ms("qp_reference.solve"),
        "qp_reference.kkt_ms": ms("qp_reference.kkt"),
        "cli.self_ms": 1e3 * cli_self,
    }
    shares = {k[:-3] + "_pct": 100.0 * v / (1e3 * wall) for k, v in times.items()}
    out = {
        "subproblem.wb_ms": per(ms("subproblem.wb"), sweeps),
        "subproblem.vu_ms": per(ms("subproblem.vu"), sweeps),
        "subproblem.mult_ms": per(ms("subproblem.mult"), sweeps),
        "subproblem.setup_ms": per(ms("subproblem.solve"), solves),
        "subproblem.solve_calls": solves,
        "subproblem.sweeps_per_solve": per(sweeps, solves),
        "subproblem.capped": capped,
        "subproblem.wb_gflops": per(wb_flops / 1e9, self_s["subproblem.wb"]),
        "smoothing.grad_calls": calls["smoothing.grad"],
        "smoothing.objective_calls": calls["smoothing.objective"],
        "data.metrics_calls": calls["data.metrics"],
        "spg.steps": steps,
        "spg.accept_ratio": per(accepted, steps),
        "spg.mu_shrinks": steps - accepted,
        "sgd.grad_calls": calls["sgd.grad"],
        "trace.rows": calls["trace.write"],
        "cli.self_ms": times["cli.self_ms"],
    }
    out.update(shares)
    accounted = sum(self_s.values()) + cli_self
    return {"metrics": out, "times_ms": times, "wall_s": wall,
            "self_sum_s": accounted, "absent": sorted({a for r in unit["runs"]
                                                       for a in r["absent"]})}


# ---------------------------------------------------------------------------


def environment(blas) -> dict:
    import numpy
    import scipy

    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "blas_threads": blas, "python": platform.python_version(),
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        env["openblas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get(
            "version")
    except (TypeError, KeyError):
        env["openblas"] = None
    with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
        env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                           if line.startswith("model name")), platform.processor())
    return env


def loadavg():
    with open("/proc/loadavg", encoding="ascii") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and waited for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(SRC, "spgae", "cli.py")):
        print(f"error: no spgae sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in NAMES:
        print(f"error: unknown workload {args.workload!r}; valid: {', '.join(NAMES)}",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    load_start = loadavg()
    workdir = os.path.join(WORK, f"{args.workload}-s{args.seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        inputs = prepare(args.workload, workdir, args.seed)
        plain, traced = [], []
        start = rep_start = time.monotonic()
        deadline = start + DEADLINE_S
        while True:
            before = calibrate()
            plain.append(run_unit(args.workload, inputs, args.seed, workdir,
                                  len(plain) + len(traced), False, deadline))
            plain[-1]["cal"] = before + calibrate()
            if args.trace:
                traced.append(run_unit(args.workload, inputs, args.seed, workdir,
                                       len(plain) + len(traced), True, deadline))
            now = time.monotonic()
            elapsed, last = now - start, now - rep_start
            rep_start = now
            enough = len(traced) >= MIN_TRACED if args.trace else len(plain) >= MIN_REPS
            if (elapsed + last / 2 >= args.seconds and enough) or elapsed >= STOP_AFTER_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return report(args, plain, traced, load_start)


def report(args, plain, traced, load_start) -> int:
    units = plain + traced
    attempted = sum(len(u["runs"]) for u in units)
    failed = sum(u["failed"] for u in units)
    parsed = [u["parsed"] for u in units if u["parsed"] is not None]
    checks = [c for p in parsed for c in p["checks"]]
    bad_checks = sorted({f"{name} ({why})" for name, ok, why in checks if not ok})
    deterministic = len({json.dumps(p["fingerprint"]) for p in parsed}) <= 1
    correct = failed == 0 and bool(parsed) and not bad_checks and deterministic

    measured = [u for u in plain if u["parsed"] is not None] or plain
    first = parsed[0] if parsed else None
    wall = percentile_summary([u["wall"] for u in measured])
    setup = percentile_summary([u["setup"] for u in measured])
    cal = percentile_summary([c for u in measured for c in u["cal"]])
    speed = CAL_REF_S / cal["median"]
    end_to_end = {
        "wall_s": {"value": wall["median"] * speed, "unit": "s"},
        "setup_s": {"value": setup["median"] * speed, "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(u["rss_mb"] for u in measured),
                        "unit": "MB"},
        "inner_sweeps": {"value": first["inner_sweeps"] if first else 0, "unit": "count"},
    }
    e2e = dict(end_to_end,
               wall_raw_s={"value": wall["median"], "unit": "s", "spread": wall},
               setup_raw_s={"value": setup["median"], "unit": "s", "spread": setup},
               calibration_s={"value": cal["median"], "unit": "s", "spread": cal})
    if first:
        e2e["outer_iters"] = {"value": first["outer_iters"], "unit": "count"}
        e2e["unconverged"] = {"value": first["unconverged"] / first["attempts"],
                              "unit": "share",
                              "of": f"{first['unconverged']}/{first['attempts']}"}
        e2e.update({k: {"value": v, "unit": "1"} for k, v in quality(first).items()})
        steps = percentile_summary(first["step_ms"])
        e2e["step_ms"] = {"value": steps["median"], "unit": "ms", "spread": steps}

    blas = next((r["blas"] for u in units for r in u["runs"] if r["blas"]), [])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "repetitions": len(plain), "traced_repetitions": len(traced),
              "attempted": attempted, "failed": failed, "correct": correct,
              "deterministic": deterministic,
              "checks_passed": sum(ok for _, ok, _ in checks), "checks_failed": bad_checks,
              "errors": [e for u in units for e in u.get("errors", [])][:5],
              "end_to_end": e2e,
              "environment": dict(environment(blas), loadavg_start=load_start,
                                  loadavg_end=loadavg())}

    result = end_to_end
    if args.trace:
        layers = [layer_metrics(u) for u in traced if u["parsed"] is not None]
        med = lambda key, name: statistics.median(m[key][name] for m in layers)
        per_layer = {k: med("metrics", k) for k in (layers[0]["metrics"] if layers else ())}
        traced_wall = statistics.median(m["wall_s"] for m in layers) if layers else 0.0
        absent = layers[0]["absent"] if layers else []
        per_layer["bench.trace_overhead_s"] = traced_wall - wall["median"]
        per_layer["bench.absent_targets"] = len(absent)
        detail["per_layer"] = {
            "self_ms": {k: med("times_ms", k) for k in (layers[0]["times_ms"] if layers else ())},
            "traced_wall_s": traced_wall, "untraced_wall_s": wall["median"],
            "self_plus_residual_s": [m["self_sum_s"] for m in layers],
            "traced_walls_s": [m["wall_s"] for m in layers], "absent": absent}
        result = {k: {"value": v, "unit": unit_of(k)} for k, v in per_layer.items()}

    for key, val in list(e2e.items()) + (list(result.items()) if args.trace else []):
        spread = val.get("spread") or {}
        tail = f"  p{spread['p']:g} {spread['p_value']}" if spread.get("p") else ""
        count = f"  n={spread['n']}" if spread else ""
        print(f"{args.workload} {key}: {val['value']} {val['unit']}{tail}{count}")
    print(f"{args.workload} checks: {detail['checks_passed']} passed, "
          f"{len(bad_checks)} distinct failures; deterministic={deterministic}; "
          f"failed {failed}/{attempted} commands")
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run one spgae CLI command in this process, with hooks on the layers.

Usage: python child.py SIDECAR TRACE CLI_ARG...

The command runs through ``spgae.cli.main``, the function behind the
``spgae`` console script, after ``spgae.cli`` has been imported normally, so
import-time behaviour (including any BLAS thread policy) is the user's.
Before ``main`` runs, the layers' functions are wrapped in place:

* always, a one-shot marker records when the first outer step, SGD step or QP
  solve starts; everything before it is set-up;
* with TRACE=1, every function in TARGETS also records a span
  ``[name, start, end, parent, attrs]`` in memory.

At exit the SIDECAR JSON file receives the marker, the spans, the target names
that could not be resolved (a later version may remove or fuse them; they are
reported, never fatal) and the effective BLAS thread count.  Only the
standard library is imported before spgae.
"""

import ctypes
import functools
import importlib
import json
import sys
import time

# span name -> function the CLI reaches, as "module:attribute[.attribute]"
TARGETS = (
    ("subproblem.solve", "spgae.subproblem:solve_subproblem"),
    ("subproblem.wb", "spgae.subproblem:update_wb"),
    ("subproblem.vu", "spgae.subproblem:update_vu"),
    ("subproblem.mult", "spgae.subproblem:update_multipliers"),
    ("smoothing.grad", "spgae.smoothing:smoothed_loss_grad"),
    ("smoothing.objective", "spgae.smoothing:smoothed_objective"),
    ("data.metrics", "spgae.data:metrics"),
    ("data.generate", "spgae.data:generate"),
    ("data.load_mnist", "spgae.data:load_mnist"),
    ("spg.run", "spgae.spg:run"),
    ("spg.step", "spgae.spg:spg_step"),
    ("sgd.run", "spgae.sgd:sgd_run"),
    ("sgd.hybrid", "spgae.sgd:spg_ada"),
    ("sgd.grad", "spgae.sgd:minibatch_grad"),
    ("sgd.eval", "spgae.sgd:autoencoder_error"),
    ("sgd.local_l0", "spgae.spg:estimate_local_l0"),
    ("trace.write", "spgae.trace:TraceWriter.write_row"),
    ("serialize.save", "spgae.serialize:save_variables"),
    ("serialize.save", "spgae.serialize:save_kv"),
    ("qp_reference.solve", "spgae.qp_reference:reference_solve"),
    ("qp_reference.kkt", "spgae.qp_reference:kkt_residual"),
)

# the first call to any of these ends set-up
FIRST_WORK = ("spgae.spg:spg_step", "spgae.subproblem:solve_subproblem",
              "spgae.sgd:minibatch_grad")


def _solve_attrs(args, out):
    data = getattr(args[0], "data", None) if args else None
    return {"dims": list(getattr(data, "dims", ()) or ()),
            "iters": getattr(out, "iters", None),
            "converged": getattr(out, "converged", None)}


def _step_attrs(args, out):
    return {"accepted": getattr(out, "accepted", None)}


ATTRS = {"subproblem.solve": _solve_attrs, "spg.step": _step_attrs}


def patch(target, make_wrapper):
    """Replace the function named by ``target`` everywhere spgae bound it.

    Returns False when the name does not resolve.
    """
    modname, _, path = target.partition(":")
    try:
        owner = importlib.import_module(modname)
        *parents, attr = path.split(".")
        for p in parents:
            owner = getattr(owner, p)
        original = getattr(owner, attr)
    except (ImportError, AttributeError):
        return False
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    if not parents:
        # modules that did `from .x import f` hold their own reference
        for name, mod in list(sys.modules.items()):
            if name.startswith("spgae") and mod is not None:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapper)
    return True


class Tracer:
    """In-memory span recorder; one stack, since the CLI runs on one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrapper(self, name):
        spans, stack, attrs_of = self.spans, self._stack, ATTRS.get(name)

        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, time.monotonic(), 0.0, stack[-1] if stack else -1, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    span[2] = time.monotonic()
                if attrs_of is not None:
                    span[4] = attrs_of(args, out)
                return out
            return traced
        return make


def blas_threads():
    """Effective OpenBLAS thread count, read from the loaded library."""
    with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    found = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                found.append({"threads": fn(), "how": f"{sym}() in {path.rsplit('/', 1)[-1]}"})
                break
    return found


def main(argv):
    sidecar, trace, cli_argv = argv[0], argv[1] == "1", argv[2:]
    import spgae.cli

    first = []

    def mark(fn):
        @functools.wraps(fn)
        def marked(*args, **kwargs):
            if not first:
                first.append(time.monotonic())
            return fn(*args, **kwargs)
        return marked

    tracer = Tracer() if trace else None
    absent = []
    if tracer is not None:
        for name, target in TARGETS:
            if not patch(target, tracer.wrapper(name)):
                absent.append(f"{name}={target}")
    for target in FIRST_WORK:
        patch(target, mark)

    code = 1
    try:
        code = spgae.cli.main(cli_argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        end = time.monotonic()
        out = {"first_work": first[0] if first else None, "end": end, "exit": code,
               "absent": absent, "blas": blas_threads(),
               "spans": tracer.spans if tracer is not None else []}
        with open(sidecar, "w", encoding="ascii") as fh:
            json.dump(out, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

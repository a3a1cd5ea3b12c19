"""Span recorder that times calls into twinchain's modules from outside them.

`install()` replaces every binding of each traced name (the defining module,
every other twinchain module that imported it, and the class for methods)
with a wrapper that records one span per call: name, thread, start, end,
self time and the caller's span name.  Self time is the span's duration
minus the durations of the spans it directly caused on the same thread, so
work that pool threads do in parallel is never subtracted from the thread
that waits for it.  Spans stay in memory until `summary()` reduces them.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

# Functions timed as "<module>.<function>": the entry points the workloads
# call across module boundaries.  Helpers that a traced function calls inside
# its own module (chain_local_grid inside chain_energy, hessian_dense inside
# hessian_banded) are left out, so the caller's self time keeps the work the
# metric names.
TRACED = {
    "wells": ("build_wells", "boundary_gradient"),
    "lattice": ("reconstruct", "check_admissible", "save_chain"),
    "energy": ("chain_energy", "save_breakdown"),
    "minimize": ("twin_chain", "preoptimize_middle", "newton_minimize"),
    "analysis": ("classify", "save_classification", "deviation_profile",
                 "fit_exponential", "save_profile", "interface_positions"),
    "gamma": ("estimate_layer", "estimate_EK", "save_layer_estimates"),
    "cli": ("main", "cmd_minimize", "cmd_layers", "_relax", "_map_runs",
            "_write"),
}
PROBLEM_METHODS = ("energy", "gradient", "hessian_banded", "admissible")


@dataclass(frozen=True)
class Span:
    name: str
    thread: int
    start: float
    end: float
    self_s: float
    parent: str | None
    outermost: bool      # no enclosing span of the same name on this thread
    error: str | None


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._threads = {}

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            with self._lock:
                self._threads.setdefault(threading.get_ident(), len(self._threads))
        return stack

    def count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def wrap(self, name, fn, on_return=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1][0] if stack else None
            outermost = all(frame[0] != name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(Span(
                    name, tracer._threads[threading.get_ident()], start, end,
                    end - start - frame[1], parent, outermost, error))
            if on_return is not None:
                on_return(result, stack)
            return result

        return traced

    def patch(self, owner, attr, name, on_return=None):
        """Replace owner.attr and every twinchain binding of the same object."""
        original = getattr(owner, attr)
        wrapped = self.wrap(name, original, on_return)
        setattr(owner, attr, wrapped)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "twinchain" and not mod_name.startswith("twinchain."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)

    def install(self):
        import scipy.linalg
        import twinchain.cli  # noqa: F401  (loads every traced module)
        from twinchain import minimize

        def newton_done(report, stack):
            self.count("minimize.iterations", report.iterations)
            self.count("minimize.unconverged", int(not report.converged))
            if any(frame[0] == "gamma.estimate_layer" for frame in stack):
                self.count("gamma.layer_solves")

        def admissible_done(ok, stack):
            self.count("minimize.adm_rejects", int(not ok))

        hooks = {"minimize.newton_minimize": newton_done,
                 "minimize.admissible": admissible_done}
        for module, names in TRACED.items():
            mod = sys.modules[f"twinchain.{module}"]
            for attr in names:
                name = f"{module}.{attr}"
                self.patch(mod, attr, name, hooks.get(name))
        for attr in PROBLEM_METHODS:
            name = f"minimize.{attr}"
            self.patch(minimize.ChainProblem, attr, name, hooks.get(name))
        # minimize looks the solver up on scipy.linalg at every call
        self.patch(scipy.linalg, "solveh_banded", "minimize.solveh_banded")
        return self

    def summary(self):
        """Per-name calls, self time and outermost inclusive time, plus counts."""
        calls = Counter()
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        errors = Counter()
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.self_s
            if span.outermost:
                incl_s[span.name] += span.end - span.start
            if span.error is not None:
                errors[f"{span.name}.{span.error}"] += 1
        return {"calls": dict(calls), "self_s": dict(self_s),
                "incl_s": dict(incl_s), "errors": dict(errors),
                "counts": dict(self.counts), "threads": len(self._threads)}

    def dump(self, path):
        """Write every span as one JSON line, in the order they ended."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")

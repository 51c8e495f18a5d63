"""Span tracing of mfglab's public functions, from outside the package.

``Tracer.install`` replaces each target function by a wrapper in every
``mfglab`` module namespace that binds it (and methods on their class),
so calls are caught whichever module makes them.  Each call records a
span ``(name, start, end, parent, value)``; ``value`` is a small datum
taken from the call (an iteration count, a returned cost, bytes of a
returned matrix) where a metric needs it.  Spans stay in memory until
``write``.  A target that no longer exists is listed in ``absent`` and
every metric that needs it is left out, so renaming internals does not
break the benchmark.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import sys
from collections import defaultdict
from time import perf_counter


def _label(args, kwargs, result):
    return args[0].coupling.label


def _iterations(args, kwargs, result):
    return result.iterations


def _returned(args, kwargs, result):
    return result


def _nbytes(args, kwargs, result):
    return result.nbytes


# span name -> (module, attribute path, value hook or None)
TARGETS = {
    "run": ("harness", "run", None),
    "build_problem": ("harness", "build_problem", None),
    "full_report": ("efficiency", "full_report", _label),
    "certificate": ("efficiency", "certificate", None),
    "phi_eval": ("efficiency", "phi_eval", _returned),
    "social_cost": ("efficiency", "social_cost", _returned),
    "lb_integrands": ("efficiency", "lb_integrands", None),
    "ub_norm": ("efficiency", "ub_norm", None),
    "holder": ("efficiency", "holder_diagnostic", None),
    "mfg_solve": ("mfg", "solve_mfg", lambda a, k, r: (r.iterations, r.converged)),
    "system": ("planner", "solve_planner_system", _iterations),
    "descent": ("planner", "solve_planner_descent", _iterations),
    "gradient": ("planner", "ControlObjective.gradient", None),
    "cost": ("planner", "planner_cost", None),
    "fp_sweep": ("stepping", "fp_forward_sweep", None),
    "hjb_sweep": ("stepping", "hjb_backward_sweep", None),
    "fp_step": ("stepping", "fp_step", None),
    "tridiag": ("stepping", "solve_periodic_tridiag", None),
    "hjb_residual": ("stepping", "hjb_residual", None),
    "fp_residual": ("stepping", "fp_residual", None),
    "coupling_eval": ("model", "Coupling.eval", None),
    "delta": ("model", "Coupling.delta", _nbytes),
    "residual_field": ("model", "residual_field", None),
    "reconstruct_flux": ("grids", "reconstruct_flux_1d", None),
}


class Absent(LookupError):
    """A metric needs a span whose target could not be wrapped."""


class Tracer:
    def __init__(self, targets: dict = TARGETS):
        self.targets = targets
        self.spans: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "mfglab" or name.startswith("mfglab.")]
        for span, (module, path, hook) in self.targets.items():
            *outer, attr = path.split(".")
            try:
                owner = importlib.import_module(f"mfglab.{module}")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original, hook)
            if outer:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, span, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (span, start, perf_counter(), parent, None)
                raise
            finally:
                stack.pop()
            end = perf_counter()
            value = hook(args, kwargs, result) if hook else None
            spans[index] = (span, start, end, parent, value)
            return result

        return traced

    def write(self, path) -> None:
        """Write the spans as gzipped CSV, one row per call."""
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "name", "start", "end", "parent", "value"))
            for i, (name, start, end, parent, value) in enumerate(self.spans):
                out.writerow((i, name, repr(start), repr(end), parent,
                              "" if value is None else value))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

class SpanIndex:
    """Aggregates over recorded spans, by span name."""

    def __init__(self, spans: list, absent: list[str]):
        self.spans = spans
        self.absent = set(absent)
        self.by_name = defaultdict(list)
        self.child_time = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            self.by_name[name].append(i)
            if parent >= 0:
                self.child_time[parent] += end - start

    def ids(self, name: str) -> list[int]:
        if name in self.absent:
            raise Absent(name)
        return self.by_name[name]

    def calls(self, name: str) -> int:
        return len(self.ids(name))

    def dur(self, i: int) -> float:
        return self.spans[i][2] - self.spans[i][1]

    def total(self, name: str) -> float:
        return sum(self.dur(i) for i in self.ids(name))

    def self_total(self, name: str) -> float:
        return sum(self.dur(i) - self.child_time[i] for i in self.ids(name))

    def per_call_us(self, name: str, own: bool = False) -> float:
        calls = self.calls(name)
        t = self.self_total(name) if own else self.total(name)
        return 1e6 * t / calls if calls else 0.0

    def value(self, i: int):
        return self.spans[i][4]

    def parent_name(self, i: int) -> str | None:
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else None

    def under(self, name: str, parent: str) -> list[int]:
        """Spans of ``name`` called directly from a ``parent`` span."""
        self.ids(parent)
        return [i for i in self.ids(name) if self.parent_name(i) == parent]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _certificate_useful_ratio(ix: SpanIndex) -> float:
    """phi evaluations that undercut cost_mfg / phi evaluations."""
    phi_ids = ix.ids("phi_eval")
    cost_eq = {ix.spans[i][3]: ix.value(i) for i in ix.under("social_cost", "certificate")}
    useful = sum(1 for i in phi_ids
                 if ix.value(i) is not None and ix.value(i) < cost_eq.get(ix.spans[i][3], float("-inf")))
    return _ratio(useful, len(phi_ids))


def _bounds_s(ix: SpanIndex) -> float:
    names = ("lb_integrands", "ub_norm", "holder")
    return sum(ix.dur(i) for name in names for i in ix.ids(name)
               if ix.parent_name(i) not in names)


def _mfg(ix: SpanIndex, field: int) -> list:
    return [ix.value(i)[field] for i in ix.ids("mfg_solve") if ix.value(i) is not None]


# metric name -> (unit, function of the span index)
LAYER_METRICS = {
    "stepping.tridiag.calls": ("count", lambda ix: ix.calls("tridiag")),
    "stepping.tridiag_us": ("us", lambda ix: ix.per_call_us("tridiag")),
    "stepping.fp_step.calls": ("count", lambda ix: ix.calls("fp_step")),
    "stepping.fp_step_us": ("us", lambda ix: ix.per_call_us("fp_step", own=True)),
    "stepping.fp_sweep.calls": ("count", lambda ix: ix.calls("fp_sweep")),
    "stepping.fp_sweep_s": ("s", lambda ix: ix.total("fp_sweep")),
    "stepping.hjb_sweep.calls": ("count", lambda ix: ix.calls("hjb_sweep")),
    "stepping.hjb_sweep_s": ("s", lambda ix: ix.total("hjb_sweep")),
    "stepping.residual_s": ("s", lambda ix: ix.total("hjb_residual") + ix.total("fp_residual")),
    "model.coupling_eval.calls": ("count", lambda ix: ix.calls("coupling_eval")),
    "model.coupling_eval_us": ("us", lambda ix: ix.per_call_us("coupling_eval")),
    "model.delta.calls": ("count", lambda ix: ix.calls("delta")),
    "model.delta_us": ("us", lambda ix: ix.per_call_us("delta")),
    "model.delta.bytes_computed": ("B", lambda ix: sum(ix.value(i) or 0 for i in ix.ids("delta"))),
    "model.residual_field_s": ("s", lambda ix: ix.total("residual_field")),
    "planner.descent_s": ("s", lambda ix: ix.total("descent")),
    "planner.descent.iterations": ("count", lambda ix: sum(ix.value(i) or 0 for i in ix.ids("descent"))),
    "planner.descent.fg_evals": ("count", lambda ix: len(ix.under("gradient", "descent"))),
    "planner.descent.forward_sweeps": ("count", lambda ix: len(ix.under("fp_sweep", "descent"))),
    "planner.descent.useful_sweep_ratio": ("ratio", lambda ix: _ratio(
        len(ix.under("gradient", "descent")), len(ix.under("fp_sweep", "descent")))),
    "planner.adjoint_gradient_us": ("us", lambda ix: ix.per_call_us("gradient")),
    "planner.system_s": ("s", lambda ix: ix.total("system")),
    "planner.system.iterations": ("count", lambda ix: sum(ix.value(i) or 0 for i in ix.ids("system"))),
    "planner.cost.calls": ("count", lambda ix: ix.calls("cost")),
    "planner.cost_s": ("s", lambda ix: ix.total("cost")),
    "mfg.solve_s": ("s", lambda ix: ix.total("mfg_solve")),
    "mfg.iterations": ("count", lambda ix: sum(_mfg(ix, 0))),
    "mfg.converged_ratio": ("ratio", lambda ix: _ratio(sum(_mfg(ix, 1)), len(_mfg(ix, 1)))),
    "efficiency.certificate_s": ("s", lambda ix: ix.total("certificate")),
    "efficiency.phi_eval.calls": ("count", lambda ix: ix.calls("phi_eval")),
    "efficiency.phi_eval_us": ("us", lambda ix: ix.per_call_us("phi_eval")),
    "efficiency.certificate.useful_ratio": ("ratio", _certificate_useful_ratio),
    "efficiency.bounds_s": ("s", _bounds_s),
    "efficiency.social_cost_s": ("s", lambda ix: ix.total("social_cost")),
    "grids.reconstruct_flux_s": ("s", lambda ix: ix.total("reconstruct_flux")),
    "harness.build_problem_s": ("s", lambda ix: ix.total("build_problem")),
    "harness.overhead_s": ("s", lambda ix: ix.total("run") - ix.total("full_report")),
}


def layer_metrics(spans: list, absent: list[str]) -> dict:
    """Every per-layer metric whose spans were recorded, as {name: (value, unit)}."""
    ix = SpanIndex(spans, absent)
    out = {}
    for name, (unit, fn) in LAYER_METRICS.items():
        try:
            out[name] = (fn(ix), unit)
        except Absent:
            continue
    if "full_report" not in ix.absent:
        # the per-label split of report time, one metric per coupling label run
        for i in ix.ids("full_report"):
            if ix.value(i) is None:
                continue
            name = f"efficiency.full_report_s.{ix.value(i)}"
            out[name] = (out.get(name, (0.0,))[0] + ix.dur(i), "s")
    return out


def per_point_counts(spans: list) -> list[dict]:
    """Call counts under each top-level ``run`` span, in call order."""
    counts, current = [], None
    for i, (name, _, _, parent, _) in enumerate(spans):
        if parent < 0:
            current = {} if name == "run" else None
            if current is not None:
                counts.append(current)
        elif current is not None:
            current[name] = current.get(name, 0) + 1
    return counts

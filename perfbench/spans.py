"""In-memory spans around pinchslp's layer boundaries, installed from outside.

Each hook replaces a module attribute that another pinchslp module looks up
at call time, so wrapping `bench.solve_min_power` and `ao.solve_min_power`
separately splits the precoder into baseline and AO calls. A hook whose
attribute has gone is reported as absent, and the traced run still completes.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import pinchslp

INFEASIBLE = getattr(pinchslp, "InfeasibleProblemError", ())


class Tracer:
    """Spans as [name, start, end, parent index, point id], plus counts keyed
    by (point id, name). Single-threaded: the open spans form one stack."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sweeps: list[int] = []
        self.absent: set[str] = set()
        self.point = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.point]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[(self.point, name)] += 1
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[(self.point, name)] += n

    def field(self, obj, attr: str, owner: str):
        """obj.attr, or None after noting `owner.attr` as absent."""
        value = getattr(obj, attr, None)
        if value is None:
            self.absent.add(f"{owner}.{attr}")
        return value

    def counts_by_point(self) -> dict:
        out = defaultdict(dict)
        for (point, name), n in self.counts.items():
            out[point][name] = n
        return dict(out)


def _observe_qp(tracer: Tracer, sol, exc) -> None:
    if exc is not None:
        if isinstance(exc, INFEASIBLE):
            tracer.count("precoder.infeasible")
        return
    tracer.count("precoder.returned")
    sweeps = tracer.field(sol, "sweeps", "QPSolution")
    if sweeps is not None:
        tracer.sweeps.append(sweeps)
        tracer.count("precoder.sweeps.total", sweeps)
    fallback = tracer.field(sol, "used_fallback", "QPSolution")
    if fallback is not None:
        tracer.count("precoder.fallbacks", int(fallback))


def _observe_ao(tracer: Tracer, result, exc) -> None:
    if exc is not None:
        return
    trace = result[-1]
    accepted = tracer.field(trace, "accepted", "AOTrace")
    if accepted is not None:
        tracer.count("ao.rounds", len(accepted) - 1)
        tracer.count("ao.rounds_accepted", sum(accepted[1:]))
    converged = tracer.field(trace, "converged", "AOTrace")
    if converged is not None:
        tracer.count("ao.converged", int(converged))


# (module of the call site, attribute looked up there, span name, observer)
SPAN_HOOKS = (
    ("bench", "generate_scenario", "bench.generate_scenario", None),
    ("bench", "ao_solve", "ao.ao_solve", _observe_ao),
    ("bench", "effective_channels", "channel.effective_channels", None),
    ("bench", "build_ci_qp", "precoder.build_ci_qp", None),
    ("bench", "solve_min_power", "precoder.solve_min_power.baseline", _observe_qp),
    ("ao", "effective_channels", "channel.effective_channels", None),
    ("ao", "build_ci_qp", "precoder.build_ci_qp", None),
    ("ao", "solve_min_power", "precoder.solve_min_power.ao", _observe_qp),
    ("ao", "optimize_all_positions", "placement.optimize_all_positions", None),
    ("ao", "placement_objective_exact", "placement.placement_objective_exact", None),
    ("placement", "pgd_solve", "placement.pgd_solve", None),
    ("placement", "validate_placement", "geometry.validate_placement", None),
    # imported inside precoder.solve_min_power when Hildreth does not certify
    ("oracles", "active_set_qp_oracle", "oracles.active_set_qp_oracle", None),
)

# Hot inner calls are counted, not spanned, to keep the overhead low.
COUNT_HOOKS = (
    ("placement", "subproblem_gradient", "placement.pgd_iters"),
    ("placement", "subproblem_objective", "placement.objective_evals"),
    ("placement", "pick_eps", "placement.pick_eps.calls"),
)


def _span_wrapper(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            with tracer.span(name):
                result = fn(*args, **kwargs)
        except Exception as exc:
            if observe is not None:
                observe(tracer, None, exc)
            raise
        if observe is not None:
            observe(tracer, result, None)
        return result

    return wrapper


def _count_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[(tracer.point, name)] += 1
        return fn(*args, **kwargs)

    return wrapper


def _module(name: str):
    try:
        return importlib.import_module(f"pinchslp.{name}")
    except ImportError:
        return None


@contextmanager
def hooked(tracer: Tracer, span_hooks=SPAN_HOOKS, count_hooks=COUNT_HOOKS):
    """Install every hook for the duration of the block, then restore the
    original attributes."""
    saved = []
    hooks = [(m, a, functools.partial(_span_wrapper, tracer, n, observe=o))
             for m, a, n, o in span_hooks]
    hooks += [(m, a, functools.partial(_count_wrapper, tracer, n)) for m, a, n in count_hooks]
    try:
        for module_name, attr, wrap in hooks:
            module = _module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.absent.add(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, wrap(fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def self_times(tracer: Tracer) -> list[float]:
    """Per span: duration minus the time its direct children cover. Children
    run sequentially inside their parent, so their durations add up."""
    covered = [0.0] * len(tracer.spans)
    for _, start, end, parent, _ in tracer.spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(tracer.spans)]


# Per-layer metrics in report order, with units.
PER_LAYER = (
    ("precoder.solve_min_power.baseline.calls", "count"),
    ("precoder.solve_min_power.baseline.self_s", "s"),
    ("precoder.solve_min_power.ao.calls", "count"),
    ("precoder.solve_min_power.ao.self_s", "s"),
    ("precoder.solve_min_power.max_s", "s"),
    ("precoder.build_ci_qp.calls", "count"),
    ("precoder.build_ci_qp.self_s", "s"),
    ("precoder.fallbacks", "count"),
    ("precoder.sweeps.p50", "count"),
    ("precoder.sweeps.max", "count"),
    ("precoder.certified_ratio", "ratio"),
    ("precoder.infeasible", "count"),
    ("oracles.active_set_qp_oracle.calls", "count"),
    ("oracles.active_set_qp_oracle.self_s", "s"),
    ("placement.optimize_all_positions.calls", "count"),
    ("placement.optimize_all_positions.self_s", "s"),
    ("placement.pgd_solve.calls", "count"),
    ("placement.pgd_solve.self_s", "s"),
    ("placement.pgd_iters", "count"),
    ("placement.objective_evals", "count"),
    ("placement.pick_eps.calls", "count"),
    ("placement.placement_objective_exact.calls", "count"),
    ("placement.placement_objective_exact.self_s", "s"),
    ("channel.effective_channels.calls", "count"),
    ("channel.effective_channels.self_s", "s"),
    ("geometry.validate_placement.calls", "count"),
    ("geometry.validate_placement.self_s", "s"),
    ("ao.ao_solve.calls", "count"),
    ("ao.ao_solve.self_s", "s"),
    ("ao.rounds", "count"),
    ("ao.rounds_accepted", "count"),
    ("ao.accept_ratio", "ratio"),
    ("ao.converged_ratio", "ratio"),
    ("bench.generate_scenario.calls", "count"),
    ("bench.generate_scenario.self_s", "s"),
    ("bench.run.calls", "count"),
    ("bench.run.self_s", "s"),
    ("bench.trace_overhead_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead_frac: float) -> dict[str, float]:
    """Every PER_LAYER metric; counts of an absent hook read 0."""
    calls, self_s = Counter(), defaultdict(float)
    max_qp = 0.0
    for (name, start, end, _, _), own in zip(tracer.spans, self_times(tracer)):
        calls[name] += 1
        self_s[name] += own
        if name.startswith("precoder.solve_min_power."):
            max_qp = max(max_qp, end - start)
    totals = Counter()
    for (_, name), n in tracer.counts.items():
        totals[name] += n
    qp_calls = calls["precoder.solve_min_power.baseline"] + calls["precoder.solve_min_power.ao"]
    values = {
        "precoder.solve_min_power.max_s": max_qp,
        "precoder.fallbacks": totals["precoder.fallbacks"],
        "precoder.sweeps.p50": statistics.median(tracer.sweeps) if tracer.sweeps else 0,
        "precoder.sweeps.max": max(tracer.sweeps, default=0),
        "precoder.certified_ratio": _ratio(
            totals["precoder.returned"] - totals["precoder.fallbacks"], qp_calls),
        "precoder.infeasible": totals["precoder.infeasible"],
        "placement.pgd_iters": totals["placement.pgd_iters"],
        "placement.objective_evals": totals["placement.objective_evals"],
        "placement.pick_eps.calls": totals["placement.pick_eps.calls"],
        "ao.rounds": totals["ao.rounds"],
        "ao.rounds_accepted": totals["ao.rounds_accepted"],
        "ao.accept_ratio": _ratio(totals["ao.rounds_accepted"], totals["ao.rounds"]),
        "ao.converged_ratio": _ratio(totals["ao.converged"], calls["ao.ao_solve"]),
        "bench.trace_overhead_frac": overhead_frac,
    }
    for name, _ in PER_LAYER:
        if name.endswith(".calls") and name not in values:
            values[name] = calls[name.removesuffix(".calls")]
        elif name.endswith(".self_s"):
            values[name] = self_s[name.removesuffix(".self_s")]
    return values

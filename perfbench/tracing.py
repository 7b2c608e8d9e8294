"""Outside-in span recorder for the renyi_vi layers.

The library is not instrumented. Instead, each traced public function is
replaced, at every ``renyi_vi`` module attribute that binds it, by a wrapper
that records one span per call: name, start, end, parent span, cell id, the
time covered by child spans, and a few counters read from the arguments and
the result. Modules import these functions by name (``from .divergence
import renyi_quadrature``), so patching only the defining module would miss
most call sites; ``install`` patches every binding and ``uninstall`` puts the
originals back.

The program is single-threaded (``jobs=1``), so spans nest strictly and a
plain stack gives each span its parent.

The tracer also runs ``host_probe`` before the outermost call of each
function in ``probed``: a fixed piece of work whose time tracks the shared
host's current speed, so the benchmark can scale the time that follows it.
"""

from __future__ import annotations

import dataclasses
import sys
from time import perf_counter

import numpy as np

# (module, function) -> span name. Only these are wrapped: wrapping a helper
# such as bulk_points would move time out of its caller's self time, and
# divergence.renyi_quadrature.self_ms is meant to be the probe-grid work
# outside the child integrate span.
TRACED = {
    ("numerics", "integrate"): "numerics.integrate",
    ("numerics", "integrate_2d"): "numerics.integrate_2d",
    ("divergence", "renyi_quadrature"): "divergence.renyi_quadrature",
    ("divergence", "renyi_gauss_closed"): "divergence.renyi_gauss_closed",
    ("divergence", "kl_forward"): "divergence.kl_forward",
    ("varfit", "fit"): "varfit.fit",
    ("distributions", "interval_mass"): "distributions.interval_mass",
    ("experiments", "consistency_cell"): "experiments.consistency_cell",
    ("experiments", "write_report"): "experiments.write_report",
    ("experiments", "run_consistency"): "experiments.runner",
    ("experiments", "run_ep_consistency"): "experiments.runner",
    ("experiments", "run_figure1"): "experiments.runner",
    ("cli", "main"): "cli.main",
}

# BayesModel.exact_posterior is a closure field, not a module function: the
# model factories are wrapped so that every model they build carries a
# traced exact_posterior.
MODEL_FACTORIES = ("gaussian_mean_model", "exponential_model", "mvn_mean_model")
POSTERIOR_SPAN = "models.exact_posterior"

INTEGRATORS = ("numerics.integrate", "numerics.integrate_2d")

_PROBE_X = np.linspace(-3.0, 3.0, 256)


def host_probe() -> None:
    """About 2 ms of fixed work in the program's own mix: numpy calls on a
    few hundred points and plain interpreter steps."""
    s = 0.0
    for _ in range(300):
        s += float(np.exp(-0.5 * _PROBE_X * _PROBE_X).sum())
        for i in range(60):
            s += i * 0.5


class Span:
    __slots__ = ("name", "start", "end", "parent", "cell", "child_s",
                 "integrand_s", "nodes", "info")

    def __init__(self, name, parent, cell):
        self.name = name
        self.parent = parent
        self.cell = cell
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.integrand_s = 0.0
        self.nodes = 0
        self.info = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _observe(name, result):
    """Counters read from a traced call's result (None when there are none)."""
    if name in INTEGRATORS:
        return (result.panels, result.converged)
    if name == "divergence.renyi_quadrature":
        return bool(np.isinf(result.value))
    if name == "varfit.fit":
        return (result.n_evals, result.converged)
    if name == "experiments.write_report":
        return sum(p.stat().st_size for p in result.values())
    return None


class Tracer:
    """Records spans for the functions in ``names`` while installed.

    A span whose name is ``cell_name`` and that is not inside another cell
    opens a new cell; every span below it carries that cell id. A call of a
    function in ``probed`` that is not inside another such call runs
    ``host_probe`` first.
    """

    def __init__(self, cell_name: str, probed, names=None):
        self.cell_name = cell_name
        self.probed = set(probed)
        self.names = (set(TRACED.values()) | {POSTERIOR_SPAN}) if names is None else set(names)
        self.spans: list[Span] = []
        self.probes: list[tuple[float, float]] = []  # (start, seconds)
        self._stack: list[Span] = []
        self._cells = 0
        self._probed_depth = 0
        self._patched: list[tuple[object, str, object]] = []

    def probe(self) -> None:
        """Run host_probe and record its start and seconds. Inside a span,
        the probe counts as child time, so it stays out of self times."""
        start = perf_counter()
        host_probe()
        dt = perf_counter() - start
        self.probes.append((start, dt))
        if self._stack:
            self._stack[-1].child_s += dt

    # -- recording -----------------------------------------------------
    def _enter(self, name) -> Span:
        parent = self._stack[-1] if self._stack else None
        cell = parent.cell if parent is not None else -1
        if name == self.cell_name and cell < 0:
            cell = self._cells
            self._cells += 1
        span = Span(name, parent, cell)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _exit(self, span: Span, start: float) -> None:
        end = perf_counter()
        self._stack.pop()
        span.start, span.end = start, end
        if span.parent is not None:
            span.parent.child_s += end - start

    def wrap(self, name, fn):
        tracer = self
        timed_integrand = name in INTEGRATORS

        probed = name in self.probed

        def traced(*args, **kwargs):
            if probed and not tracer._probed_depth:
                tracer.probe()
            tracer._probed_depth += probed
            span = tracer._enter(name)
            if timed_integrand:
                args, kwargs = _with_timed_integrand(span, args, kwargs)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span, start)
                tracer._probed_depth -= probed
            span.info = _observe(name, result)
            return result

        return traced

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Patch every renyi_vi module attribute bound to a traced function."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "renyi_vi" or k.startswith("renyi_vi."))]
        swap = {}
        for (mod, fn_name), span_name in TRACED.items():
            if span_name in self.names:
                orig = getattr(sys.modules[f"renyi_vi.{mod}"], fn_name)
                swap[id(orig)] = self.wrap(span_name, orig)
        if POSTERIOR_SPAN in self.names:
            for fn_name in MODEL_FACTORIES:
                orig = getattr(sys.modules["renyi_vi.models"], fn_name)
                swap[id(orig)] = self._traced_factory(orig)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if callable(val) and id(val) in swap:
                    setattr(mod, attr, swap[id(val)])
                    self._patched.append((mod, attr, val))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _traced_factory(self, factory):
        def build(*args, **kwargs):
            model = factory(*args, **kwargs)
            return dataclasses.replace(
                model, exact_posterior=self.wrap(POSTERIOR_SPAN, model.exact_posterior))

        return build

    # -- output --------------------------------------------------------
    def write_csv(self, path) -> None:
        """One row per span: index, name, start, end, parent index, cell id,
        self seconds, integrand seconds, nodes, counters."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,cell,self_s,integrand_s,nodes,info\n")
            for i, s in enumerate(self.spans):
                parent = -1 if s.parent is None else index[id(s.parent)]
                info = "" if s.info is None else str(s.info).replace(",", ";")
                fh.write(f"{i},{s.name},{s.start!r},{s.end!r},{parent},{s.cell},"
                         f"{s.self_s!r},{s.integrand_s!r},{s.nodes},{info}\n")


def _with_timed_integrand(span: Span, args, kwargs):
    """Replace integrate's ``f`` so its time and node count land on ``span``."""
    if args:
        f, rest = args[0], args[1:]
    else:
        f, rest = kwargs.pop("f"), ()

    def timed_f(x):
        t0 = perf_counter()
        out = f(x)
        dt = perf_counter() - t0
        span.integrand_s += dt
        span.child_s += dt
        span.nodes += len(x)
        return out

    return (timed_f, *rest), kwargs


def layer_metrics(spans: list[Span], rounds: int, cell_name: str) -> dict:
    """Per-layer metrics from the spans of ``rounds`` traced rounds.

    Counts and times are per round (one pass over the workload's configs);
    ``us_per_call``/``ms_per_fit``/``*_per_call``/``*_per_fit`` are per call
    and shares are ratios of summed times.
    """
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def group(name):
        return by.get(name, [])

    def calls(name):
        return len(group(name)) / rounds

    def total(name):
        return sum(s.dur for s in group(name))

    def self_total(name):
        return sum(s.self_s for s in group(name))

    def per_call_us(name):
        g = group(name)
        return total(name) / len(g) * 1e6 if g else 0.0

    def share(part, whole):
        return part / whole if whole > 0 else 0.0

    in_fit = {}
    for s in spans:  # parents precede children in the list
        p = s.parent
        in_fit[id(s)] = p is not None and (p.name == "varfit.fit" or in_fit[id(p)])

    m = {}
    for name in INTEGRATORS:
        g = group(name)
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = per_call_us(name)
        m[f"{name}.self_ms"] = self_total(name) / rounds * 1e3
        m[f"{name}.integrand_ms"] = sum(s.integrand_s for s in g) / rounds * 1e3
        m[f"{name}.panels_per_call"] = (sum(s.info[0] for s in g) / len(g)) if g else 0.0
        m[f"{name}.nonconverged"] = sum(1 for s in g if not s.info[1]) / rounds
    m["numerics.integrate.nodes"] = sum(s.nodes for s in group("numerics.integrate")) / rounds

    name = "divergence.renyi_quadrature"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.us_per_call"] = per_call_us(name)
    m[f"{name}.self_ms"] = self_total(name) / rounds * 1e3
    m[f"{name}.self_share"] = share(self_total(name), total(name))
    m[f"{name}.inf"] = sum(1 for s in group(name) if s.info) / rounds

    name = "divergence.renyi_gauss_closed"
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.us_per_call"] = per_call_us(name)

    name = "divergence.kl_forward"
    quad_under_kl = sum(s.dur for s in spans if s.name in INTEGRATORS
                        and s.parent is not None and s.parent.name == name)
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.us_per_call"] = per_call_us(name)
    m[f"{name}.self_ms"] = self_total(name) / rounds * 1e3
    m[f"{name}.quadrature_share"] = share(quad_under_kl, total(name))

    name = "varfit.fit"
    g = group(name)
    m[f"{name}.calls"] = calls(name)
    m[f"{name}.ms_per_fit"] = total(name) / len(g) * 1e3 if g else 0.0
    m[f"{name}.self_ms"] = self_total(name) / rounds * 1e3
    m[f"{name}.evals_per_fit"] = sum(s.info[0] for s in g) / len(g) if g else 0.0
    m[f"{name}.nonconverged"] = sum(1 for s in g if not s.info[1]) / rounds
    m[f"{name}.quadrature_calls"] = sum(
        1 for s in spans if s.name in INTEGRATORS and in_fit[id(s)]) / rounds

    for name in (POSTERIOR_SPAN, "distributions.interval_mass"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.us_per_call"] = per_call_us(name)

    m["experiments.consistency_cell.self_ms"] = (
        self_total("experiments.consistency_cell") / rounds * 1e3)
    m["experiments.write_report.ms"] = total("experiments.write_report") / rounds * 1e3
    m["experiments.write_report.bytes"] = sum(
        s.info for s in group("experiments.write_report")) / rounds
    m["experiments.runner.self_ms"] = self_total("experiments.runner") / rounds * 1e3
    m["cli.main.self_ms"] = self_total("cli.main") / rounds * 1e3

    cells = _top_cells(spans, cell_name)
    m["bench.cell.attributed_share"] = share(
        sum(s.child_s for s in cells), sum(s.dur for s in cells))
    return m


def _top_cells(spans: list[Span], cell_name: str) -> list[Span]:
    """Cell spans that are not nested inside another cell."""
    return [s for s in spans if s.name == cell_name
            and (s.parent is None or s.parent.cell < 0)]


def cell_times(spans: list[Span], cell_name: str) -> list[tuple[float, float]]:
    """(start, seconds) of each top-level cell span."""
    return [(s.start, s.dur) for s in _top_cells(spans, cell_name)]

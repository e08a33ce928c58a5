"""In-memory span tracing from outside the package.

``Tracer.install`` wraps every public function of the traced ``decodyn``
modules in every ``decodyn`` namespace that holds it (``decodyn.cli.
compute_series``, ``decodyn.rates.build_density_matrix``, ``decodyn.oracle.
thermal_sample_block``, ...), so calls between modules are caught too;
``uninstall`` puts the original objects back.  Each call records one span
``[name, start, end, parent, unit]`` in a list that is read when the run
ends.  A few functions also get a count computed from their arguments
(cells, draws, matrix dimensions); the counts are work sizes derived from
the inputs, not measurements.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time

import numpy as np
from decodyn.model import LinearCoupling, PolynomialCoupling, QuadraticCoupling
from decodyn.oracle import FockConfig
from decodyn.states import GridSpec

TRACED_MODULES = ("cli", "states", "rates", "strongdec", "bath", "oracle")
# every namespace a traced function may have been imported into
NAMESPACES = ("decodyn", "decodyn.model") + tuple(f"decodyn.{m}" for m in TRACED_MODULES)

# the rule of bath.thermal_sample_block: sample i comes from Philox substream
# i // 4096, and each substream draws 4096 x 2N normals in full
STREAM_SAMPLES = 4096
SUPPORT_FLOOR = 1e-30


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _entropy_name(args, kwargs) -> str:
    return f"strongdec.entropy_series.{_arg(args, kwargs, 4, 'side')}"


def _entropy_counts(args, kwargs) -> dict:
    rho0 = _arg(args, kwargs, 0, "rho0")
    times = np.atleast_1d(np.asarray(_arg(args, kwargs, 1, "times")))
    f = _arg(args, kwargs, 2, "f")
    h = rho0.grid.spacing
    cells = rho0.grid.n_points**2
    support = int(np.count_nonzero(h * h * np.abs(rho0.values) ** 2 > SUPPORT_FLOOR))
    # for a polynomial of degree <= 2 the slope equals the difference
    # quotient, so one of the two sides repeats the other
    redundant = int(_arg(args, kwargs, 4, "side") == "quantum" and poly_degree(f) <= 2)
    return {
        "cells": cells,
        "cell_times": cells * times.size,
        "support_cells": support,
        "redundant_side_calls": redundant,
    }


def poly_degree(f) -> float:
    """Polynomial degree of a coupling; infinite for the bounded forms."""
    if isinstance(f, LinearCoupling):
        return 1
    if isinstance(f, QuadraticCoupling):
        return 2
    if isinstance(f, PolynomialCoupling):
        return f.degree
    return math.inf


def _build_counts(args, kwargs) -> dict:
    state = _arg(args, kwargs, 0, "state")
    grid = args[1] if len(args) > 1 else kwargs.get("grid")
    if grid is None:
        grid = GridSpec.cover(state)
    return {"cells": grid.n_points**2}


def _sample_counts(args, kwargs) -> dict:
    bath = _arg(args, kwargs, 0, "bath")
    seed = _arg(args, kwargs, 1, "seed")
    start = _arg(args, kwargs, 2, "start")
    count = _arg(args, kwargs, 3, "count")
    if count == 0:
        return {}
    streams = range(start // STREAM_SAMPLES, (start + count - 1) // STREAM_SAMPLES + 1)
    width = 2 * bath.n_modes
    return {
        "draws": len(streams) * STREAM_SAMPLES * width,
        "draw_keys": {(seed, s, width) for s in streams},
    }


def _fock_counts(args, kwargs) -> dict:
    fock = args[5] if len(args) > 5 else kwargs.get("fock", FockConfig())
    # two branch Hamiltonians at n_levels and two at 2 * n_levels
    return {"eigh_dim": 6 * fock.n_levels}


NAMERS = {"strongdec.entropy_series": _entropy_name}
COUNTERS = {
    "strongdec.entropy_series": _entropy_counts,
    "states.build_density_matrix": _build_counts,
    "bath.thermal_sample_block": _sample_counts,
    "oracle.fock_quantum_factor": _fock_counts,
}


def public_functions() -> dict[str, object]:
    """``module.function`` -> function object for every public function of
    the traced modules."""
    out = {}
    for short in TRACED_MODULES:
        module = importlib.import_module(f"decodyn.{short}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                out[f"{short}.{name}"] = obj
    return out


class Tracer:
    """Spans and counts for one process; install, run, uninstall, read."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[str, dict]] = []
        self.unit = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, label: str, func):
        namer = NAMERS.get(label)
        counter = COUNTERS.get(label)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            name = namer(args, kwargs) if namer else label
            if counter:
                self.counts.append((name, counter(args, kwargs)))
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.unit])
            stack.append(idx)
            try:
                return func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [importlib.import_module(ns) for ns in NAMESPACES]
        for label, func in public_functions().items():
            wrapper = self._wrap(label, func)
            for module in namespaces:
                for attr, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, func))

    def uninstall(self):
        for module, attr, func in reversed(self._patched):
            setattr(module, attr, func)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self):
        self.spans.clear()
        self.counts.clear()


def self_times(spans) -> dict[str, float]:
    """Span duration minus the time its child spans cover, summed by name.
    Calls are sequential on one thread, so children never overlap."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def inclusive_time(spans, prefixes: tuple[str, ...]) -> float:
    """Time covered by spans whose name starts with one of ``prefixes``,
    counting nested matches once."""
    match = [s[0].startswith(prefixes) for s in spans]
    total = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if not match[i]:
            continue
        p = parent
        while p >= 0 and not match[p]:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total


def call_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0) + 1
    return out


def sum_counts(counts, name_prefix: str, key: str) -> int:
    return sum(c.get(key, 0) for name, c in counts if name.startswith(name_prefix))


# the per-layer metrics of a traced run, with their units
PER_LAYER = {
    "strongdec.entropy_series.classical.self_s": "s",
    "strongdec.entropy_series.quantum.self_s": "s",
    "strongdec.entropy_series.calls": "count",
    "strongdec.entropy_series.cells": "count",
    "strongdec.entropy_series.cell_times": "count",
    "strongdec.entropy_series.share": "ratio",
    "strongdec.support_share": "ratio",
    "strongdec.redundant_side_calls": "count",
    "strongdec.compute_series.self_s": "s",
    "bath.kernels.self_s": "s",
    "cli.run_scenario.self_s": "s",
    "cli.parse_config.s": "s",
    "bath.discretize_ohmic.s": "s",
    "bath.thermal_sample_block.self_s": "s",
    "bath.thermal_sample_block.share": "ratio",
    "bath.thermal_sample_block.draws": "count",
    "bath.thermal_sample_block.distinct_draws": "count",
    "bath.draw_reuse": "ratio",
    "oracle.mc_classical_factor.self_s": "s",
    "oracle.fock_quantum_factor.self_s": "s",
    "oracle.fock.eigh_dim": "count",
    "states.build_density_matrix.self_s": "s",
    "states.build_density_matrix.cells": "count",
    "states.wigner_transform.self_s": "s",
    "states.inverse_wigner.self_s": "s",
    "rates.rate_pair.self_s": "s",
    "rates.rate_pair.calls": "count",
    "states_rates.share": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_share": "ratio",
}
# each computed ratio and the metric that is its base
BASES = {
    "strongdec.entropy_series.share": "trace.traced_wall_s",
    "strongdec.support_share": "strongdec.entropy_series.cells",
    "strongdec.redundant_side_calls": "strongdec.entropy_series.calls",
    "bath.thermal_sample_block.share": "trace.traced_wall_s",
    "bath.draw_reuse": "bath.thermal_sample_block.distinct_draws",
    "states_rates.share": "trace.traced_wall_s",
    "trace.uncovered_share": "trace.traced_wall_s",
}
COMPUTED = (
    "strongdec.entropy_series.cells",
    "strongdec.entropy_series.cell_times",
    "strongdec.support_share",
    "strongdec.redundant_side_calls",
    "bath.thermal_sample_block.draws",
    "bath.thermal_sample_block.distinct_draws",
    "bath.draw_reuse",
    "oracle.fock.eigh_dim",
    "states.build_density_matrix.cells",
)


def layer_metrics(tracer, traced_s: float, untraced_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    s = tracer.spans
    self_s = self_times(s)
    calls = call_counts(s)
    counts = tracer.counts

    def total(*names):
        return sum(self_s.get(n, 0.0) for n in names)

    cells = sum_counts(counts, "strongdec.entropy_series", "cells")
    draws = sum_counts(counts, "bath.thermal_sample_block", "draws")
    keys = set().union(*(c.get("draw_keys", set()) for name, c in counts if name == "bath.thermal_sample_block"))
    distinct = sum(STREAM_SAMPLES * width for _, _, width in keys)
    return {
        "strongdec.entropy_series.classical.self_s": total("strongdec.entropy_series.classical"),
        "strongdec.entropy_series.quantum.self_s": total("strongdec.entropy_series.quantum"),
        "strongdec.entropy_series.calls": calls.get("strongdec.entropy_series.classical", 0)
        + calls.get("strongdec.entropy_series.quantum", 0),
        "strongdec.entropy_series.cells": cells,
        "strongdec.entropy_series.cell_times": sum_counts(counts, "strongdec.entropy_series", "cell_times"),
        "strongdec.entropy_series.share": inclusive_time(s, ("strongdec.entropy_series",)) / traced_s,
        "strongdec.support_share": sum_counts(counts, "strongdec.entropy_series", "support_cells") / cells
        if cells
        else 0.0,
        "strongdec.redundant_side_calls": sum_counts(counts, "strongdec.entropy_series", "redundant_side_calls"),
        "strongdec.compute_series.self_s": total("strongdec.compute_series"),
        "bath.kernels.self_s": total("bath.b1", "bath.b2", "bath.b2_dot"),
        "cli.run_scenario.self_s": total("cli.run_scenario"),
        "bath.thermal_sample_block.self_s": total("bath.thermal_sample_block"),
        "bath.thermal_sample_block.share": inclusive_time(s, ("bath.thermal_sample_block",)) / traced_s,
        "bath.thermal_sample_block.draws": draws,
        "bath.thermal_sample_block.distinct_draws": distinct,
        "bath.draw_reuse": draws / distinct if distinct else 0.0,
        "oracle.mc_classical_factor.self_s": total("oracle.mc_classical_factor"),
        "oracle.fock_quantum_factor.self_s": total("oracle.fock_quantum_factor"),
        "oracle.fock.eigh_dim": sum_counts(counts, "oracle.fock_quantum_factor", "eigh_dim"),
        "states.build_density_matrix.self_s": total("states.build_density_matrix"),
        "states.build_density_matrix.cells": sum_counts(counts, "states.build_density_matrix", "cells"),
        "states.wigner_transform.self_s": total("states.wigner_transform"),
        "states.inverse_wigner.self_s": total("states.inverse_wigner"),
        "rates.rate_pair.self_s": total("rates.rate_pair"),
        "rates.rate_pair.calls": calls.get("rates.rate_pair", 0),
        "states_rates.share": inclusive_time(s, ("states.", "rates.")) / traced_s,
        "trace.untraced_wall_s": untraced_s,
        "trace.traced_wall_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.uncovered_share": 1.0 - inclusive_time(s, ("",)) / traced_s,
    }

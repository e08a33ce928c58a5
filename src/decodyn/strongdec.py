"""Exact decoherence dynamics in the strong-decoherence limit.

With the system Hamiltonian negligible on the decoherence time scale, every
off-diagonal element evolves independently:

    rho(Q1, Q2, t) / rho(Q1, Q2, 0) = exp[i*phase(t) + log_modulus(t)]

    log_modulus = -(Q1-Q2)^2 g(Qbar)^2 b2(t)
    phase       =  (Q1-Q2) f(Qbar) g(Qbar) b1(t) / hbar

with g = df/dQ (classical propagation of the same initial state) or
g = [f(Q1)-f(Q2)]/(Q1-Q2) (quantum propagation).  The linear entropy is the
matching quadrature

    S(t) = 1 - integral |rho(Q1,Q2,0)|^2 exp[-2 (Q1-Q2)^2 g^2 b2(t)]

and the instantaneous log-decay rate of an element is

    gamma(t) = -(Q1-Q2)^2 g(Qbar)^2 b2_dot(t),

computed from the analytic derivative so it stays finite where the modulus
underflows.  The diagonal is untouched (g weight carries (Q1-Q2)^2), so the
trace is conserved exactly and a single-mode bath recoheres fully at
t = 2*pi/omega.

The entropy quadrature runs on the mirror-paired support of rho0,
``DensityMatrixGrid.support()``, paired once per state: the exponent
x = 2 (Q1-Q2)^2 g^2 is exactly symmetric under Q1 <-> Q2 and zero on the
diagonal, so each cell above the diagonal carries the summed weight of
itself and its mirror.  The support drops at most 1e-17 of weight, and
since |expm1(-x b2)| <= 1 that bounds the change in S(t).  For a polynomial
of degree <= 2 the difference quotient is f'(Qbar) exactly, so ``_decay``
gives the quantum side the slope and the entropy is evaluated once.

``entropy_series`` sorts the exponents once per side (a stable argsort) and
merges pairs of equal x by summing their weights; a linear coupling has
about a thousand distinct x among 1e5 pairs.  At each time only the live
prefix x b2 < 40 takes an expm1: past it expm1(-x b2) is -1 to within
e^-40 = 4.2e-18, so the dead suffix adds minus its summed weight, which
moves S(t) by at most 4.3e-18.  Every sum is numpy's pairwise sum, whose
order is fixed by the array alone, and a long series splits its times over
the package's one thread pool, so S(t) has the same bytes at any core count
and whether t is evaluated alone or in a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pool
from .bath import BathSpec, b1, b2, b2_dot
from .model import CouplingFunction, PolynomialCoupling
from .states import DensityMatrixGrid

__all__ = [
    "DecoherenceFactor",
    "DecoherenceSeries",
    "classical_factor",
    "quantum_factor",
    "gamma",
    "entropy_series",
    "compute_series",
]

# At x b2 >= _DEAD, expm1(-x b2) is -1 to within e^-40 = 4.2e-18, so such a
# pair adds -w without an expm1.  The weights sum to at most 1, so this moves
# S(t) by at most 4.3e-18, below the 1e-17 of weight the support drops.
_DEAD = 40.0
# A series of at least this many distinct exponents times times is split
# over the shared pool.  On 2 cores, 2e6 broke even and the threads took
# 0.65-0.72 of the serial time on the 1.1e7 to 2e7 of the n = 512 and 1024
# cats; smaller series spend more on the hand-off than they save.
_WIDE_SERIES = 1 << 21


@dataclass(frozen=True)
class DecoherenceFactor:
    """Polar form of the evolution factor of one off-diagonal element."""

    log_modulus: float
    phase: float

    @property
    def value(self) -> complex:
        return np.exp(self.log_modulus + 1j * self.phase)


def quotient_is_slope(f: CouplingFunction) -> bool:
    """True when the difference quotient of f equals f'(Qbar) exactly, which
    holds for polynomials of degree <= 2."""
    return isinstance(f, PolynomialCoupling) and f.degree <= 2


def _decay(f: CouplingFunction, qbar, dq, side: str):
    """(g, (Q1-Q2)^2 g^2): the weight and the decay coefficient of
    log_modulus = -(Q1-Q2)^2 g^2 b2."""
    if side not in ("classical", "quantum"):
        raise ValueError(f"side must be 'classical' or 'quantum', got {side!r}")
    if side == "classical" or quotient_is_slope(f):
        g = f.slope(qbar)
    else:
        g = f.finite_difference(qbar, dq)
    return g, dq**2 * g**2


def _coefficients(q1, q2, f: CouplingFunction, side: str):
    """(decay, drive) = ((Q1-Q2)^2 g^2, (Q1-Q2) f(Qbar) g), the kernel
    coefficients of log_modulus = -decay*b2 and phase = drive*b1/hbar."""
    dq = q1 - q2
    qbar = 0.5 * (q1 + q2)
    g, decay = _decay(f, qbar, dq, side)
    return decay, dq * f.eval(qbar) * g


def _factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec, side: str) -> DecoherenceFactor:
    decay, drive = _coefficients(q1, q2, f, side)
    return DecoherenceFactor(log_modulus=float(-decay * b2(bath, t)), phase=float(drive * b1(bath, t) / bath.hbar))


def classical_factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec) -> DecoherenceFactor:
    """Evolution factor of the classical analog element at (Q1, Q2)."""
    return _factor(q1, q2, t, f, bath, "classical")


def quantum_factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec) -> DecoherenceFactor:
    """Evolution factor of the quantum element at (Q1, Q2)."""
    return _factor(q1, q2, t, f, bath, "quantum")


def gamma(q1: float, q2: float, t, f: CouplingFunction, bath: BathSpec, side: str):
    """d ln|rho(Q1,Q2,t)|/dt from the analytic b2 derivative."""
    decay, _ = _coefficients(q1, q2, f, side)
    return -decay * b2_dot(bath, t)


def support_field(rho0: DensityMatrixGrid, f: CouplingFunction, side: str):
    """Entropy quadrature terms on the support of rho0.

    Returns ``(w, x, defect)``: the pair weights and purity defect of
    ``rho0.support()`` and the exponent x = 2 (Q1-Q2)^2 g^2 of every pair,
    evaluated on each call; ``rates`` keeps sum(w x) in ``rho0.integrals``.
    """
    dq, qbar, w, defect = rho0.support()
    _, decay = _decay(f, qbar, dq, side)
    return w, 2.0 * decay, defect


def _merged(w, x):
    """The distinct exponents of x in ascending order (NaN last), each with
    the summed weight of its pairs."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.ones(xs.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(first)
    return xs[starts], np.add.reduceat(w[order], starts)


def entropy_series(rho0: DensityMatrixGrid, times, f: CouplingFunction, bath: BathSpec, side: str) -> np.ndarray:
    """Linear entropy S(t) = 1 - sum w exp(-x b2(t)) over the state's
    support field.

    Evaluated through expm1 so the quadratic small-time growth keeps full
    relative accuracy, with the quadrature purity defect subtracted to pin
    S(0) = 0 exactly for pure states.  Pairs of equal x are merged, and at
    each time only the live exponents x b2 < _DEAD take an expm1.
    """
    w, x, defect = support_field(rho0, f, side)
    xu, wu = _merged(w, x)
    # a NaN exponent sorts last, where the cut would count it as dead
    nan = xu.size > 0 and np.isnan(xu[-1])
    b2s = np.atleast_1d(np.asarray(b2(bath, np.asarray(times, dtype=float))))
    out = np.empty(b2s.shape)

    def fill(rows: range) -> None:
        buf = np.empty(xu.size)
        for i in rows:
            # a Python float: a subnormal b2 cuts at inf, with no overflow error
            b = float(b2s[i])
            k = xu.size if nan or not b > 0 else int(np.searchsorted(xu, _DEAD / b))
            live = buf[:k]
            np.multiply(xu[:k], -b, out=live)
            np.expm1(live, out=live)
            live *= wu[:k]
            # each dead pair adds -w in place of its expm1 w
            out[i] = -(live.sum() - wu[k:].sum()) - defect

    # interleaved rows balance early, all-live times against late ones
    step = _pool.WORKERS if xu.size * b2s.size >= _WIDE_SERIES else 1
    _pool.run(fill, [range(r, b2s.size, step) for r in range(min(step, b2s.size))])
    return out


# (CSV column, DecoherenceSeries field), in column order
_COLUMN_FIELDS = (
    ("t", "times"),
    ("B1", "b1"),
    ("B2", "b2"),
    ("gamma_c", "gamma_c"),
    ("gamma_q", "gamma_q"),
    ("S_c", "s_c"),
    ("S_q", "s_q"),
    ("phase_c", "phase_c"),
    ("phase_q", "phase_q"),
    ("logmod_c", "logmod_c"),
    ("logmod_q", "logmod_q"),
)


@dataclass(frozen=True)
class DecoherenceSeries:
    """Per-time diagnostics at a probe element (q1, q2) plus entropies."""

    times: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    gamma_c: np.ndarray
    gamma_q: np.ndarray
    s_c: np.ndarray
    s_q: np.ndarray
    phase_c: np.ndarray
    phase_q: np.ndarray
    logmod_c: np.ndarray
    logmod_q: np.ndarray
    probe: tuple[float, float]

    COLUMNS = tuple(column for column, _ in _COLUMN_FIELDS)

    def rows(self):
        return zip(*(getattr(self, field) for _, field in _COLUMN_FIELDS))


def compute_series(
    rho0: DensityMatrixGrid,
    f: CouplingFunction,
    bath: BathSpec,
    times,
    probe: tuple[float, float],
) -> DecoherenceSeries:
    """Evaluate kernels, probe factors, decay exponents and entropies on a
    time grid."""
    ts = np.asarray(times, dtype=float)
    q1, q2 = probe
    b1s = np.asarray(b1(bath, ts))
    b2s = np.asarray(b2(bath, ts))
    b2ds = np.asarray(b2_dot(bath, ts))
    columns = {}
    for side, c in (("classical", "c"), ("quantum", "q")):
        decay, drive = _coefficients(q1, q2, f, side)
        columns[f"logmod_{c}"] = -decay * b2s
        columns[f"phase_{c}"] = drive * b1s / bath.hbar
        columns[f"gamma_{c}"] = -decay * b2ds
        # a degree <= 2 coupling has the same entropy on both sides
        redundant = side == "quantum" and quotient_is_slope(f)
        columns[f"s_{c}"] = columns["s_c"] if redundant else entropy_series(rho0, ts, f, bath, side)
    return DecoherenceSeries(times=ts, b1=b1s, b2=b2s, probe=(float(q1), float(q2)), **columns)

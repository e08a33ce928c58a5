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
``DensityMatrixGrid.support()``: the exponent x = 2 (Q1-Q2)^2 g^2 is exactly
symmetric under Q1 <-> Q2 and zero on the diagonal, so each cell above the
diagonal carries the summed weight of itself and its mirror.  The support
drops at most 1e-17 of weight, and since |expm1(-x b2)| <= 1 that bounds
the change in S(t).  For a polynomial coupling of degree <= 2 the
difference quotient is f'(Qbar) exactly, so the quantum side uses the slope
and the entropy is evaluated once for both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _factor_parts(q1, q2, t, f: CouplingFunction, bath: BathSpec, side: str):
    decay, drive = _coefficients(q1, q2, f, side)
    return -decay * b2(bath, t), drive * b1(bath, t) / bath.hbar


def classical_factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec) -> DecoherenceFactor:
    """Evolution factor of the classical analog element at (Q1, Q2)."""
    log_mod, phase = _factor_parts(q1, q2, t, f, bath, "classical")
    return DecoherenceFactor(log_modulus=float(log_mod), phase=float(phase))


def quantum_factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec) -> DecoherenceFactor:
    """Evolution factor of the quantum element at (Q1, Q2)."""
    log_mod, phase = _factor_parts(q1, q2, t, f, bath, "quantum")
    return DecoherenceFactor(log_modulus=float(log_mod), phase=float(phase))


def gamma(q1: float, q2: float, t, f: CouplingFunction, bath: BathSpec, side: str):
    """d ln|rho(Q1,Q2,t)|/dt from the analytic b2 derivative."""
    decay, _ = _coefficients(q1, q2, f, side)
    return -decay * b2_dot(bath, t)


def support_field(rho0: DensityMatrixGrid, f: CouplingFunction, side: str):
    """Entropy quadrature terms on the support of rho0.

    Returns ``(w, x, defect)``: the pair weights and purity defect of
    ``rho0.support()`` and the exponent x = 2 (Q1-Q2)^2 g^2 of every pair.
    """
    dq, qbar, w, defect = rho0.support()
    _, decay = _decay(f, qbar, dq, side)
    return w, 2.0 * decay, defect


def entropy_series(rho0: DensityMatrixGrid, times, f: CouplingFunction, bath: BathSpec, side: str) -> np.ndarray:
    """Linear entropy S(t) = 1 - sum w exp(-x b2(t)) over the state's
    support field.

    Evaluated through expm1 so the quadratic small-time growth keeps full
    relative accuracy, with the quadrature purity defect subtracted to pin
    S(0) = 0 exactly for pure states.
    """
    w, x, defect = support_field(rho0, f, side)
    b2s = np.atleast_1d(np.asarray(b2(bath, np.asarray(times, dtype=float))))
    out = np.empty(b2s.shape)
    buf = np.empty_like(x)
    for i, b in enumerate(b2s):
        np.multiply(x, -b, out=buf)
        np.expm1(buf, out=buf)
        out[i] = -float(np.dot(w, buf)) - defect
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
    lm_c, ph_c = _factor_parts(q1, q2, ts, f, bath, "classical")
    lm_q, ph_q = _factor_parts(q1, q2, ts, f, bath, "quantum")
    s_c = entropy_series(rho0, ts, f, bath, "classical")
    return DecoherenceSeries(
        times=ts,
        b1=b1s,
        b2=b2s,
        gamma_c=np.asarray(gamma(q1, q2, ts, f, bath, "classical")),
        gamma_q=np.asarray(gamma(q1, q2, ts, f, bath, "quantum")),
        s_c=s_c,
        s_q=s_c if quotient_is_slope(f) else entropy_series(rho0, ts, f, bath, "quantum"),
        phase_c=np.asarray(ph_c),
        phase_q=np.asarray(ph_q),
        logmod_c=np.asarray(lm_c),
        logmod_q=np.asarray(lm_q),
        probe=(float(q1), float(q2)),
    )

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

The entropy quadrature runs on the support of rho0 only.  The exponent
x = 2 (Q1-Q2)^2 g^2 is exactly symmetric under Q1 <-> Q2 and zero on the
diagonal, so each cell above the diagonal is paired with its mirror image
and carries their summed weight.  Pairs whose summed weight is below
1e-17/n^2 are dropped; since |expm1(-x b2)| <= 1, the dropped mass, below
1e-17 in total, bounds the change in S(t).  A pure state pairs the 1-D
support of a = h |psi|^2, since h^2 |rho0|^2 = a(Q1) a(Q2): the same pairs,
without an n x n array.  For a polynomial coupling of degree <= 2 the
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
    "entropy_classical",
    "entropy_quantum",
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


# total weight the entropy and rate quadratures may drop from the grid
_DROPPED_MASS = 1e-17


def quotient_is_slope(f: CouplingFunction) -> bool:
    """True when the difference quotient of f equals f'(Qbar) exactly, which
    holds for polynomials of degree <= 2."""
    return isinstance(f, PolynomialCoupling) and f.degree <= 2


def _weight(f: CouplingFunction, qbar, dq, side: str):
    if side not in ("classical", "quantum"):
        raise ValueError(f"side must be 'classical' or 'quantum', got {side!r}")
    if side == "classical" or quotient_is_slope(f):
        return f.slope(qbar)
    return f.finite_difference(qbar, dq)


def _coefficients(q1, q2, f: CouplingFunction, side: str):
    """(decay, drive) = ((Q1-Q2)^2 g^2, (Q1-Q2) f(Qbar) g), the kernel
    coefficients of log_modulus = -decay*b2 and phase = drive*b1/hbar."""
    dq = q1 - q2
    qbar = 0.5 * (q1 + q2)
    g = _weight(f, qbar, dq, side)
    return dq**2 * g**2, dq * f.eval(qbar) * g


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

    Returns ``(w, x, defect)``: the summed weight h^2 (|rho0|^2 + mirror) and
    the exponent 2 (Q1-Q2)^2 g^2 of every kept cell above the diagonal, in
    row-major order, and the purity defect sum(h^2 |rho0|^2) - 1 of the full
    grid.  A pure state is paired from its 1-D support, without an n x n
    array.
    """
    n = rho0.grid.n_points
    cut = _DROPPED_MASS / n**2
    if rho0.psi is None:
        h = rho0.grid.spacing
        w = np.abs(rho0.values)
        w *= w
        w *= h * h
        defect = float(np.sum(w)) - 1.0
        w = w + w.T
        i, j = np.nonzero(np.triu(w >= cut, 1))
        w = w[i, j]
    else:
        i, j, w, defect = _pure_pairs(rho0, cut)
    q = rho0.grid.q
    dq = q[i] - q[j]
    g = _weight(f, 0.5 * (q[i] + q[j]), dq, side)
    return w, 2.0 * dq**2 * g**2, defect


# cells of one row chunk of the pure-state pairing
_CHUNK_CELLS = 1 << 20


def _pure_pairs(rho0: DensityMatrixGrid, cut: float):
    """Pairs i < j of a pure state, whose weight 2 a_i a_j (a = h |psi|^2) is
    at least cut, in row-major order, with their weights and the defect
    (sum a)^2 - 1.  Only cells with 2 a_i max(a) >= cut can be in a pair, so
    the rows are taken in chunks over those cells alone."""
    a = np.abs(rho0.psi)
    a *= a
    a *= rho0.grid.spacing
    total = float(np.sum(a))
    cells = np.flatnonzero(2.0 * a * a.max() >= cut)
    b = a[cells]
    step = max(1, _CHUNK_CELLS // b.size)
    i, j, w = [], [], []
    for r in range(0, b.size, step):
        prod = 2.0 * b[r : r + step, None] * b[None, r:]
        keep = np.triu(prod >= cut, 1)
        rows, cols = np.nonzero(keep)
        i.append(cells[rows + r])
        j.append(cells[cols + r])
        w.append(prod[keep])
    return np.concatenate(i), np.concatenate(j), np.concatenate(w), total * total - 1.0


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


def entropy_classical(rho0: DensityMatrixGrid, t, f: CouplingFunction, bath: BathSpec):
    s = entropy_series(rho0, np.asarray(t, dtype=float), f, bath, "classical")
    return float(s[0]) if np.ndim(t) == 0 else s


def entropy_quantum(rho0: DensityMatrixGrid, t, f: CouplingFunction, bath: BathSpec):
    s = entropy_series(rho0, np.asarray(t, dtype=float), f, bath, "quantum")
    return float(s[0]) if np.ndim(t) == 0 else s


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

    COLUMNS = (
        "t",
        "B1",
        "B2",
        "gamma_c",
        "gamma_q",
        "S_c",
        "S_q",
        "phase_c",
        "phase_q",
        "logmod_c",
        "logmod_q",
    )

    def rows(self):
        return zip(
            self.times,
            self.b1,
            self.b2,
            self.gamma_c,
            self.gamma_q,
            self.s_c,
            self.s_q,
            self.phase_c,
            self.phase_q,
            self.logmod_c,
            self.logmod_q,
        )


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

"""Brute-force validators independent of the closed-form evolution.

``mc_classical_factor`` averages exp(-i/hbar * dQ * df/dQ * sum_k C_k
int_0^t q_k) over thermally sampled initial bath conditions, with each mode
trajectory

    q_j(t) = C_j f(Qbar)/(m_j w_j^2) [cos(w_j t) - 1]
             + q_j(0) cos(w_j t) + p_j(0) sin(w_j t)/(m_j w_j)

time-integrated in closed form per mode, so the only error is statistical.
Initial conditions follow the thermal phase-space widths of the bath
(quantum statistics), matching the initial state used by the analytic
factors.

``fock_quantum_factor`` propagates the ground state of a single bath mode
under the two position-conditioned Hamiltonians H_b + C f(Q_i) q and returns
the branch overlap <chi_Q2(t)|chi_Q1(t)>, computed by exact diagonalization
in a truncated number basis with a truncation-doubling convergence check.
At finite bath temperature the thermally weighted trace of U2(t)^dag U1(t)
is returned instead.

``short_time_fit`` extracts the linear and quadratic coefficients of an
entropy series near t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, _one_minus_cos, _x_minus_sin, thermal_sample_block
from .model import CouplingFunction

__all__ = [
    "McEstimate",
    "FockConfig",
    "mc_classical_factor",
    "fock_quantum_factor",
    "short_time_fit",
]

_JACKKNIFE_BLOCKS = 100
_SLICE_BLOCKS = 10
# bytes of the phases of one group of MC times, 8 B a sample and time
_GROUP_BYTES = 64 << 20


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with jackknife standard error."""

    mean: complex
    std_error: float
    n_samples: int

    def __post_init__(self):
        if self.std_error < 0:
            raise ValueError("std_error must be nonnegative")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    def sigma_distance(self, reference: complex) -> float:
        """|mean - reference| in units of the standard error."""
        gap = abs(self.mean - reference)
        if self.std_error == 0.0:
            return 0.0 if gap == 0.0 else float("inf")
        return gap / self.std_error


def mc_classical_factor(
    q1: float,
    q2: float,
    t,
    f: CouplingFunction,
    bath: BathSpec,
    n_samples: int = 100_000,
    seed: int = 0,
) -> McEstimate | list[McEstimate]:
    """Trajectory-ensemble estimate of the classical evolution factor at
    (Q1, Q2, t): one McEstimate for a scalar t, else a list of one per time.

    Every time reads the same draws [0, n_samples); the times are projected
    in groups of at most _GROUP_BYTES of phases, one draw each.
    """
    if n_samples < 1000:
        raise ValueError(
            f"n_samples={n_samples} too small: at least 1000 required for a meaningful error bar"
        )
    if n_samples % _JACKKNIFE_BLOCKS:
        raise ValueError(f"n_samples must be a multiple of {_JACKKNIFE_BLOCKS} (jackknife blocking)")

    dq = q1 - q2
    qbar = 0.5 * (q1 + q2)
    slope = f.slope(qbar)
    fbar = f.eval(qbar)
    hbar = bath.hbar
    lam = dq * slope / hbar

    w = bath.omegas
    m = bath.masses
    c = bath.couplings
    x = np.multiply.outer(np.atleast_1d(np.asarray(t, dtype=float)), w)
    coef_q = lam * c * np.sin(x) / w
    coef_p = lam * c * _one_minus_cos(x) / (m * w * w)

    group = max(1, _GROUP_BYTES // (8 * n_samples))
    estimates = []
    for g in range(0, x.shape[0], group):
        theta = thermal_sample_block(bath, seed, 0, n_samples, (coef_q[g : g + group], coef_p[g : g + group]))
        for k, row in enumerate(theta, start=g):
            # drift displacement integrates to the coherent-phase kernel mode sum
            row += -lam * fbar * float(np.sum(c * c * _x_minus_sin(x[k]) / (m * w**3)))
            estimates.append(_jackknife(row))
    return estimates[0] if np.ndim(t) == 0 else estimates


def _jackknife(phase: np.ndarray) -> McEstimate:
    """Mean and jackknife error of exp(-i phase); the factors are formed
    _SLICE_BLOCKS jackknife blocks at a time."""
    n_samples = phase.size
    block = n_samples // _JACKKNIFE_BLOCKS
    blocks = phase.reshape(_JACKKNIFE_BLOCKS, block)
    block_sums = np.empty(_JACKKNIFE_BLOCKS, dtype=complex)
    for b in range(0, _JACKKNIFE_BLOCKS, _SLICE_BLOCKS):
        z = -1j * blocks[b : b + _SLICE_BLOCKS]
        block_sums[b : b + _SLICE_BLOCKS] = np.exp(z, out=z).sum(axis=1)
    total = block_sums.sum()
    mean = total / n_samples
    loo = (total - block_sums) / (n_samples - block)
    nb = _JACKKNIFE_BLOCKS
    var_re = (nb - 1) / nb * np.sum((loo.real - loo.real.mean()) ** 2)
    var_im = (nb - 1) / nb * np.sum((loo.imag - loo.imag.mean()) ** 2)
    return McEstimate(mean=complex(mean), std_error=float(np.sqrt(var_re + var_im)), n_samples=n_samples)


@dataclass(frozen=True)
class FockConfig:
    """Truncated number-basis setting: the oracle compares n_levels against
    2*n_levels levels."""

    n_levels: int = 64

    def __post_init__(self):
        if self.n_levels < 8:
            raise ValueError(f"n_levels must be >= 8, got {self.n_levels}")


def _branch_overlap(q1, q2, times, f, bath, n_levels):
    mode = bath.modes[0]
    m, w, c = mode.mass, mode.omega, mode.coupling
    hbar = bath.hbar
    n = np.arange(n_levels)
    off = np.sqrt(n[1:])
    q_mat = np.sqrt(hbar / (2.0 * m * w)) * (np.diag(off, 1) + np.diag(off, -1))
    h_free = np.diag(hbar * w * (n + 0.5))

    eig = []
    for qq in (q1, q2):
        ham = h_free + c * f.eval(qq) * q_mat
        vals, vecs = np.linalg.eigh(ham)
        eig.append((vals, vecs))
    (e1, v1), (e2, v2) = eig

    # out(t) = sum_n occ_n <n|U2(t)^dag U1(t)|n> = p2(t) @ K @ p1(t), with the
    # ground state e_0 as occ at zero temperature; the weights are taken
    # relative to the ground level, so a cold bath cannot underflow them all
    occ = (n == 0) * 1.0 if np.isinf(bath.beta) else np.exp(-bath.beta * hbar * w * n)
    occ = occ / occ.sum()
    kernel = ((v2.T @ v1) * (v2.T @ (occ[:, None] * v1))).astype(complex)
    out = np.empty(times.shape, dtype=complex)
    for i, tt in enumerate(times):
        out[i] = np.exp(1j * e2 * tt / hbar) @ kernel @ np.exp(-1j * e1 * tt / hbar)
    return out


def fock_quantum_factor(
    q1: float,
    q2: float,
    t,
    f: CouplingFunction,
    bath: BathSpec,
    fock: FockConfig = FockConfig(),
):
    """Branch overlap of the bath evolved under the two Q-conditioned
    Hamiltonians; validates the quantum evolution factor for a single mode.

    Raises if doubling the truncation shifts any overlap by more than 1e-8.
    """
    if bath.n_modes != 1:
        raise ValueError("Fock oracle supports a single bath mode only")
    times = np.atleast_1d(np.asarray(t, dtype=float))
    coarse = _branch_overlap(q1, q2, times, f, bath, fock.n_levels)
    fine = _branch_overlap(q1, q2, times, f, bath, 2 * fock.n_levels)
    drift = float(np.max(np.abs(fine - coarse)))
    if drift > 1e-8:
        raise RuntimeError(
            f"Fock overlap not converged: doubling n_levels={fock.n_levels} moved it by {drift:.3e}"
        )
    return complex(fine[0]) if np.ndim(t) == 0 else fine


def short_time_fit(times, values, window: float) -> tuple[float, float]:
    """Least-squares fit of values(t) - values(0) = c1 t + c2 t^2 on
    0 < t <= window; returns (c1, c2).

    The series must start at t = 0 and provide at least 8 points inside the
    window, which must sit well below any bath recurrence or plateau time.
    """
    ts = np.asarray(times, dtype=float)
    vs = np.asarray(values, dtype=float)
    if ts.size != vs.size:
        raise ValueError("times and values must have equal length")
    if ts[0] != 0.0:
        raise ValueError("series must start at t = 0")
    sel = (ts > 0) & (ts <= window)
    if int(sel.sum()) < 8:
        raise ValueError(f"need at least 8 points in (0, {window}], got {int(sel.sum())}")
    tt = ts[sel] / window
    y = vs[sel] - vs[0]
    design = np.stack([tt, tt * tt], axis=1)
    sol, _, rank, sing = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2 or sing[0] > 1e12 * sing[-1]:
        raise ValueError("ill-conditioned quadratic fit; widen the window or add points")
    return float(sol[0] / window), float(sol[1] / window**2)

"""Discrete harmonic bath: modes, thermal weights, memory kernels, sampling.

Each mode j contributes H_j = p_j^2/(2 m_j) + m_j w_j^2 q_j^2/2 and couples
to the system through C_j f(Q) q_j.  Thermal weights carry the factor
coth(beta*hbar*w_j/2), evaluated as exactly 1 at zero temperature (beta=inf)
to avoid overflow.

Kernels (sums over modes, t >= 0):

    b1(t)     = sum_j C_j^2 [t - sin(w_j t)/w_j] / (m_j w_j^2)
    b2(t)     = sum_j C_j^2 coth_j [1 - cos(w_j t)] / (2 m_j hbar w_j^3)
    b2_dot(t) = sum_j C_j^2 coth_j sin(w_j t) / (2 m_j hbar w_j^2)

b1 drives the coherent phase of off-diagonal elements, b2 their decay.
b2(0) = b2_dot(0) = 0 and d^2 b2/dt^2 (0) = thermal_strength(bath)/hbar.
For a single mode b2 is 2*pi/w periodic, so the decay exponent returns to
zero there (full recoherence); b1 carries a secular drift on top of its
periodic part, so the phase keeps winding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _pool

__all__ = [
    "BathMode",
    "BathSpec",
    "discretize_ohmic",
    "thermal_strength",
    "b1",
    "b2",
    "b2_dot",
    "thermal_sample_block",
]

# Per-substream sample granularity for the counter-based generator contract:
# sample index i is always drawn from Philox substream i // _STREAM_SAMPLES at
# row i % _STREAM_SAMPLES, so any partition of the index range over workers
# reproduces the same draws.
_STREAM_SAMPLES = 4096


@dataclass(frozen=True)
class BathMode:
    """One harmonic mode: mass, angular frequency, linear coupling strength."""

    mass: float
    omega: float
    coupling: float

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError(f"mode mass must be positive, got {self.mass}")
        if not self.omega > 0:
            raise ValueError(f"mode frequency must be positive, got {self.omega}")


@dataclass(frozen=True)
class BathSpec:
    """Immutable bath: modes plus the thermal scales beta and hbar."""

    modes: tuple[BathMode, ...]
    beta: float = math.inf
    hbar: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if len(self.modes) == 0:
            raise ValueError("bath needs at least one mode")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive (math.inf for T=0), got {self.beta}")
        if not self.hbar > 0:
            raise ValueError(f"hbar must be positive, got {self.hbar}")

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    @cached_property
    def masses(self) -> np.ndarray:
        return np.array([m.mass for m in self.modes])

    @cached_property
    def omegas(self) -> np.ndarray:
        return np.array([m.omega for m in self.modes])

    @cached_property
    def couplings(self) -> np.ndarray:
        return np.array([m.coupling for m in self.modes])

    @cached_property
    def coth_factors(self) -> np.ndarray:
        """coth(beta*hbar*w/2) per mode; exactly 1 at zero temperature."""
        return _coth(self.beta, self.hbar, self.omegas)

    @cached_property
    def mode_weights(self) -> dict[str, np.ndarray]:
        """Per-mode weights of the kernels b1, b2 and b2_dot and of
        thermal_strength, and the thermal widths q_std and p_std; formed
        once, read-only."""
        c2, m, w, coth = self.couplings**2, self.masses, self.omegas, self.coth_factors
        weights = {
            "b1": c2 / (m * w**3),
            "b2": c2 * coth / (2.0 * m * self.hbar * w**3),
            "b2_dot": c2 * coth / (2.0 * m * self.hbar * w**2),
            "thermal_strength": _thermal_terms(c2, m, w, coth),
            "q_std": np.sqrt(self.hbar * coth / (2.0 * m * w)),
            "p_std": np.sqrt(m * self.hbar * w * coth / 2.0),
        }
        for a in weights.values():
            a.flags.writeable = False
        return weights


def _coth(beta: float, hbar: float, omegas: np.ndarray) -> np.ndarray:
    if math.isinf(beta):
        return np.ones(omegas.size)
    return 1.0 / np.tanh(0.5 * beta * hbar * omegas)


def _thermal_terms(c2: np.ndarray, m: np.ndarray, w: np.ndarray, coth: np.ndarray) -> np.ndarray:
    """The per-mode terms C^2 coth / (2 m w) of thermal_strength."""
    return c2 * coth / (2.0 * m * w)


def discretize_ohmic(
    eta: float,
    omega_cutoff: float,
    n_modes: int,
    omega_max: float,
    *,
    beta: float = math.inf,
    hbar: float = 1.0,
) -> BathSpec:
    """Populate modes from the Ohmic spectral density J(w) = eta*w*exp(-w/w_c).

    Modes sit at w_j = j*omega_max/N (j = 1..N) with unit masses and
    C_j = sqrt(2 m_j w_j J(w_j) dw / pi), the standard linear-spacing rule
    that reproduces the continuum kernels up to the discretization time
    2*pi/dw.
    """
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    if not omega_max > 0:
        raise ValueError(f"omega_max must be positive, got {omega_max}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")
    if not omega_cutoff > 0:
        raise ValueError(f"omega_cutoff must be positive, got {omega_cutoff}")
    dw = omega_max / n_modes
    omegas = dw * np.arange(1, n_modes + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(omega_cutoff):
            j_vals = eta * omegas
        else:
            j_vals = eta * omegas * np.exp(-omegas / omega_cutoff)
        couplings = np.sqrt(2.0 * omegas * j_vals * dw / np.pi)
    if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(couplings))):
        raise ValueError("mode frequencies and couplings overflow the float range")
    modes = tuple(BathMode(1.0, float(w), float(c)) for w, c in zip(omegas, couplings))
    return BathSpec(modes=modes, beta=beta, hbar=hbar)


def thermal_strength(bath: BathSpec) -> float:
    """sum_j C_j^2 coth(beta hbar w_j/2) / (2 m_j w_j); the thermal coupling
    weight entering every second-order decoherence rate."""
    return float(np.sum(bath.mode_weights["thermal_strength"]))


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    """x - sin(x), switching to a series for small x to avoid cancellation."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, x, 0.0)
    series = xs**3 / 6.0 * (1.0 - xs**2 / 20.0 * (1.0 - xs**2 / 42.0))
    return np.where(small, series, x - np.sin(x))


def _one_minus_cos(x: np.ndarray) -> np.ndarray:
    """1 - cos(x) evaluated as 2 sin^2(x/2); exact relative accuracy at small x."""
    s = np.sin(0.5 * np.asarray(x, dtype=float))
    return 2.0 * s * s


def _kernel(bath: BathSpec, t, weight: np.ndarray, term) -> float | np.ndarray:
    """sum_j weight_j term(w_j t) over the modes; a float for a scalar t."""
    ts = np.asarray(t, dtype=float)
    x = np.multiply.outer(ts, bath.omegas)
    out = np.sum(weight * term(x), axis=-1)
    return float(out) if ts.ndim == 0 else out


def b1(bath: BathSpec, t) -> float | np.ndarray:
    """Coherent-phase kernel.  b1(0) = 0; grows ~ t^3 at short times."""
    return _kernel(bath, t, bath.mode_weights["b1"], _x_minus_sin)


def b2(bath: BathSpec, t) -> float | np.ndarray:
    """Decay kernel; nonnegative, and zero only where every mode has
    w_j t = 0 mod 2*pi or C_j = 0."""
    return _kernel(bath, t, bath.mode_weights["b2"], _one_minus_cos)


def b2_dot(bath: BathSpec, t) -> float | np.ndarray:
    """Time derivative of b2 (term-by-term analytic)."""
    return _kernel(bath, t, bath.mode_weights["b2_dot"], np.sin)


def _thermal_widths(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    weights = bath.mode_weights
    return weights["q_std"], weights["p_std"]


def thermal_sample_block(bath: BathSpec, seed: int, start: int, count: int, project=None):
    """Draw samples [start, start+count) of the thermal phase-space
    distribution of the bath (the thermal Wigner distribution: independent
    zero-mean Gaussians per mode).

    Returns (q, p), the column views block[:, :n] and block[:, n:] of one
    (count, 2 n_modes) block, so each has shape (count, n_modes).  The draw
    for a given (seed, index) never depends on how the index range is
    partitioned, nor on how many threads fill it, so parallel workers can
    split ranges freely and merge in index order.  Worker r of W draws
    substreams r, r + W, ... into one reused (4096, 2 n_modes) buffer.

    With project=(coef_q, coef_p), of shape (n_modes,) or (k, n_modes), the
    block is never formed: each substream's rows go straight from the buffer
    into q @ coef_q[j] + p @ coef_p[j], row j of theta, which is returned
    with shape (count,) or (k, count).  Its bytes are those of that product
    on the (q, p) of the whole substreams the range touches, so they too
    depend on (seed, index) alone.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    n = bath.n_modes
    widths = np.concatenate(_thermal_widths(bath))
    first = start // _STREAM_SAMPLES
    last = (start + count - 1) // _STREAM_SAMPLES if count else first - 1
    streams = range(first, last + 1)
    if project is None:
        block = np.empty((count, 2 * n))
    else:
        coef_q, coef_p = (np.atleast_2d(c) for c in project)
        theta = np.empty((coef_q.shape[0], count))

    def fill(stream: int, buf: np.ndarray) -> None:
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
        s0 = stream * _STREAM_SAMPLES
        lo, hi = max(start, s0), min(start + count, s0 + _STREAM_SAMPLES)
        # the substream's normals come in row order: the rows before lo are
        # drawn too, and only the range's rows are scaled and read
        gen.standard_normal(out=buf[: hi - s0])
        rows = buf[lo - s0 : hi - s0]
        rows *= widths
        if project is None:
            block[lo - start : hi - start] = rows
            return
        # sample i is projected at row i % 4096 of a 4096-row product whatever
        # the range: BLAS takes the last (rows mod 4) rows of a product by
        # another kernel, so a product over the range's rows alone would not
        # have the same bytes for every range
        for j in range(theta.shape[0]):
            row = buf[:, :n] @ coef_q[j] + buf[:, n:] @ coef_p[j]
            theta[j, lo - start : hi - start] = row[lo - s0 : hi - s0]

    # one hand-off a call, as numpy's Philox fill and BLAS release the GIL;
    # even one-mode rows gain from two substreams on
    step = max(1, min(_pool.WORKERS, len(streams)))

    def worker(r: int) -> None:
        buf = np.zeros((_STREAM_SAMPLES, 2 * n))
        for stream in streams[r::step]:
            fill(stream, buf)

    if step > 1:
        # list() waits for every worker and re-raises the first failure
        list(_pool.thread_pool().map(worker, range(step)))
    else:
        worker(0)
    if project is None:
        return block[:, :n], block[:, n:]
    return theta.reshape(np.shape(project[0])[:-1] + (count,))

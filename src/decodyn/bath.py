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
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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

# Substreams of one call are filled on up to _WORKERS threads (numpy's Philox
# normal fill releases the GIL) once a row holds at least _WIDE_ROW normals;
# narrower rows are drawn serially, where the thread hand-off costs more than
# it saves.  Callers that draw a long range take it in _CHUNK_SAMPLES pieces,
# one substream per worker.
_WORKERS = min(len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1, 4)
_WIDE_ROW = 16
_CHUNK_SAMPLES = _WORKERS * _STREAM_SAMPLES

_pool = None
_pool_pid = None


def _thread_pool():
    """The shared substream pool, built on first use and again after a fork
    (a child inherits the pool object but none of its threads)."""
    global _pool, _pool_pid
    if _pool_pid != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(max_workers=_WORKERS, thread_name_prefix="decodyn-draw")
        _pool_pid = os.getpid()
    return _pool


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
        if math.isinf(self.beta):
            return np.ones(self.n_modes)
        x = 0.5 * self.beta * self.hbar * self.omegas
        return 1.0 / np.tanh(x)


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
    c2 = bath.couplings**2
    return float(np.sum(c2 * bath.coth_factors / (2.0 * bath.masses * bath.omegas)))


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
    return _kernel(bath, t, bath.couplings**2 / (bath.masses * bath.omegas**3), _x_minus_sin)


def b2(bath: BathSpec, t) -> float | np.ndarray:
    """Decay kernel; nonnegative, and zero only where every mode has
    w_j t = 0 mod 2*pi or C_j = 0."""
    weight = bath.couplings**2 * bath.coth_factors / (2.0 * bath.masses * bath.hbar * bath.omegas**3)
    return _kernel(bath, t, weight, _one_minus_cos)


def b2_dot(bath: BathSpec, t) -> float | np.ndarray:
    """Time derivative of b2 (term-by-term analytic)."""
    weight = bath.couplings**2 * bath.coth_factors / (2.0 * bath.masses * bath.hbar * bath.omegas**2)
    return _kernel(bath, t, weight, np.sin)


def _thermal_widths(bath: BathSpec) -> tuple[np.ndarray, np.ndarray]:
    coth = bath.coth_factors
    q_std = np.sqrt(bath.hbar * coth / (2.0 * bath.masses * bath.omegas))
    p_std = np.sqrt(bath.masses * bath.hbar * bath.omegas * coth / 2.0)
    return q_std, p_std


def thermal_sample_block(bath: BathSpec, seed: int, start: int, count: int):
    """Draw samples [start, start+count) of the thermal phase-space
    distribution of the bath (the thermal Wigner distribution: independent
    zero-mean Gaussians per mode).

    Returns (q, p), the column views block[:, :n] and block[:, n:] of one
    (count, 2 n_modes) block, so each has shape (count, n_modes).  The draw
    for a given (seed, index) never depends on how the index range is
    partitioned, nor on how many threads fill it, so parallel workers can
    split ranges freely and merge in index order.  A substream that lies
    wholly inside the range is drawn straight into its rows of the block and
    scaled there; a partial first or last one goes through a scratch draw.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    n = bath.n_modes
    block = np.empty((count, 2 * n))
    widths = np.concatenate(_thermal_widths(bath))
    first = start // _STREAM_SAMPLES
    last = (start + count - 1) // _STREAM_SAMPLES if count else first - 1

    def fill(stream: int) -> None:
        gen = np.random.Generator(np.random.Philox(key=seed).jumped(stream))
        lo = max(start, stream * _STREAM_SAMPLES)
        hi = min(start + count, (stream + 1) * _STREAM_SAMPLES)
        out = block[lo - start : hi - start]
        if hi - lo == _STREAM_SAMPLES:
            gen.standard_normal(out=out)
            out *= widths
        else:
            z = gen.standard_normal((_STREAM_SAMPLES, 2 * n))
            rows = slice(lo - stream * _STREAM_SAMPLES, hi - stream * _STREAM_SAMPLES)
            np.multiply(z[rows], widths, out=out)

    streams = range(first, last + 1)
    if _WORKERS > 1 and len(streams) > 1 and 2 * n >= _WIDE_ROW:
        # list() waits for every fill and re-raises the first failure
        list(_thread_pool().map(fill, streams))
    else:
        for stream in streams:
            fill(stream)
    return block[:, :n], block[:, n:]

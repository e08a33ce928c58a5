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

from . import _checks, _pool

__all__ = [
    "BathSpec",
    "discretize_ohmic",
    "thermal_strength",
    "b1",
    "b2",
    "b2_dot",
    "thermal_sample_block",
]

# Per-substream sample granularity of the sampler's contract: sample index i
# is always drawn from SFC64 substream i // _STREAM_SAMPLES (the stream spawned
# from seed with that spawn key) at row i % _STREAM_SAMPLES, so any partition
# of the index range over workers reproduces the same draws.  A worker draws
# and projects a substream in chunks of _chunk_rows(n_modes) rows, each at
# most _CHUNK_BYTES of normals where four rows fit in it.
_STREAM_SAMPLES = 4096
_CHUNK_BYTES = 512 * 1024


def _chunk_rows(n_modes: int) -> int:
    """Rows of one chunk of a substream: the largest power of two, at least
    4 and at most _STREAM_SAMPLES, whose 2 n_modes normals a row take at
    most _CHUNK_BYTES.  A power of two of at least 4 divides the substream
    and keeps every row at the same offset mod 4 as in the whole substream."""
    rows = _STREAM_SAMPLES
    while rows > 4 and rows * 2 * n_modes * 8 > _CHUNK_BYTES:
        rows //= 2
    return rows


@dataclass(frozen=True, eq=False)
class BathSpec:
    """Immutable bath: per-mode masses, angular frequencies and linear
    coupling strengths, plus the thermal scales beta and hbar.  The three
    arrays are copied once, as read-only floats; baths compare by identity.
    A bath whose 1/hbar, coth factors, per-mode weights or
    thermal_strength / hbar overflow the float range is refused."""

    masses: np.ndarray
    omegas: np.ndarray
    couplings: np.ndarray
    beta: float = math.inf
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("masses", "omegas", "couplings"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)
        m, w = self.masses, self.omegas
        if m.ndim != 1 or m.shape != w.shape or m.shape != self.couplings.shape:
            raise ValueError("masses, omegas and couplings must be 1-D arrays of equal length")
        if m.size == 0:
            raise ValueError("masses: a bath needs at least one mode")
        for name, what, a in (("masses", "mass", m), ("omegas", "frequency", w)):
            bad = np.flatnonzero(~(a > 0))
            if bad.size:
                raise ValueError(f"{name}[{bad[0]}]: mode {what} must be positive, got {a[bad[0]]} at mode {bad[0]}")
        _checks.finite(masses=m, omegas=w, couplings=self.couplings)
        if not self.beta > 0:
            raise ValueError(f"beta: must be positive (math.inf for T=0), got {self.beta}")
        _checks.positive(hbar=self.hbar)
        # numpy would carry an overflowing quantity as inf or NaN into every
        # series and rate; an error names hbar for 1/hbar, beta for coth, the
        # mode for its other weights and the couplings for their sum
        with np.errstate(all="ignore"):
            if not math.isfinite(1.0 / self.hbar):
                raise ValueError(f"hbar: 1/hbar overflows the float range at hbar = {self.hbar!r}")
            for name, values in {"coth": self.coth_factors, **self.mode_weights}.items():
                bad = np.flatnonzero(~np.isfinite(values))
                if bad.size:
                    arg = "beta" if name == "coth" else f"couplings[{bad[0]}]"
                    raise ValueError(f"{arg}: {name} of mode {bad[0]} overflows the float range")
            if not math.isfinite(thermal_strength(self) / self.hbar):
                raise ValueError("couplings: thermal_strength / hbar overflows the float range")

    @property
    def n_modes(self) -> int:
        return self.masses.size

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
        raise ValueError(f"n_modes: must be >= 1, got {n_modes}")
    _checks.positive(eta=eta, omega_max=omega_max)
    if not omega_cutoff > 0:
        raise ValueError(f"omega_cutoff: must be positive (math.inf for no cutoff), got {omega_cutoff}")
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
    return BathSpec(np.ones(n_modes), omegas, couplings, beta=beta, hbar=hbar)


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


def thermal_sample_block(bath: BathSpec, seed: int, start: int, count: int, project) -> np.ndarray:
    """Project samples [start, start+count) of the thermal phase-space
    distribution of the bath (the thermal Wigner distribution: independent
    zero-mean Gaussians per mode) onto project=(coef_q, coef_p), each of
    shape (n_modes,) or (k, n_modes).

    Returns theta, of shape (count,) or (k, count), whose row j holds
    q @ coef_q[j] + p @ coef_p[j] per sample.  Sample i is row i % 4096 of
    the (4096, 2 n_modes) normals z of Generator(SFC64(SeedSequence(seed,
    spawn_key=(i // 4096,)))), with (q, p) = z * [q_std, p_std].  The
    substream is drawn in chunks of c rows, the largest power of two from 4
    to 4096 whose normals fit in 512 KiB, and sample i's phase is row
    i % c of the product of its whole chunk with hstack((coef_q * q_std,
    coef_p * p_std)).  As c divides 4096 and is a multiple of 4, that row
    takes the BLAS kernel it takes in the whole substream's product, so
    theta's bytes depend on (seed, index) alone: never on the chunk size,
    on how the index range is partitioned, nor on how many threads fill it.
    Worker r of W draws substreams r, r + W, ... into one reused chunk
    buffer; no (count, 2 n_modes) block is formed.
    """
    if count < 0 or start < 0:
        raise ValueError("start and count must be nonnegative")
    weights = bath.mode_weights
    first = start // _STREAM_SAMPLES
    last = (start + count - 1) // _STREAM_SAMPLES if count else first - 1
    streams = range(first, last + 1)
    coef_q, coef_p = (np.atleast_2d(c) for c in project)
    # the widths ride on the coefficients, so each time is one product of raw normals
    coefs = np.hstack((coef_q * weights["q_std"], coef_p * weights["p_std"]))
    theta = np.empty((coefs.shape[0], count))
    rows = _chunk_rows(bath.n_modes)

    def fill(stream: int, buf: np.ndarray) -> None:
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream,))))
        s0 = stream * _STREAM_SAMPLES
        lo, hi = max(start, s0), min(start + count, s0 + _STREAM_SAMPLES)
        # the substream's normals come in row order: the chunks before lo
        # are drawn too, and only the range's rows are read
        for c0 in range(s0, hi, rows):
            gen.standard_normal(out=buf[: min(rows, hi - c0)])
            if c0 + rows <= lo:
                continue
            # sample i is projected at row i % rows of a whole chunk's
            # product whatever the range: BLAS takes the last (rows mod 4)
            # rows of a product by another kernel, so a product over the
            # range's rows alone would not have the same bytes for every range
            a, b = max(lo, c0), min(hi, c0 + rows)
            for j, row in enumerate(coefs):
                theta[j, a - start : b - start] = (buf @ row)[a - c0 : b - c0]

    # one hand-off a call, as numpy's normal fill and BLAS release the GIL;
    # one-mode rows break even at two substreams and gain from four on
    step = max(1, min(_pool.WORKERS, len(streams)))

    def worker(r: int) -> None:
        buf = np.zeros((rows, 2 * bath.n_modes))
        for stream in streams[r::step]:
            fill(stream, buf)

    _pool.run(worker, range(step))
    return theta.reshape(np.shape(project[0])[:-1] + (count,))

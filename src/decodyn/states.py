"""Initial states on position grids and phase-space transforms.

States are superpositions of Gaussian wavepackets

    psi(Q) = sum_k amp_k (2 pi sigma_k^2)^(-1/4)
             exp[-(Q - cq_k)^2 / (4 sigma_k^2) + i cp_k (Q - cq_k) / hbar]

sampled on a uniform grid; the density matrix is rho(Q1,Q2) = psi(Q1)psi*(Q2)
after grid normalization.  The phase-space (Wigner) representation lives on
the same position grid with the momentum grid conjugate to the Q1-Q2
(off-diagonal) coordinate:

    W(Qbar, P) = (1/2 pi hbar) sum_dQ rho(Qbar + dQ/2, Qbar - dQ/2)
                 exp(-i dQ P / hbar) * step

with dQ running over the 2h lattice reachable at fixed on-grid Qbar and
P on n points spaced pi*hbar/(h*n).  With this pairing the rectangle-rule
momentum sum inverts the transform exactly, so the roundtrip is the
identity; the Q1+Q2-odd sublattice is restored by a spectral half-sample
shift, exact for states resolved by the grid.  rho is Hermitian and W real,
so both transforms work on the Q1 >= Q2 half alone.

Quadrature is trapezoidal on uniform grids throughout; states are smooth
and rapidly decaying, so it converges spectrally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "GridCoverageError",
    "GaussianPacket",
    "SuperpositionState",
    "GridSpec",
    "DensityMatrixGrid",
    "WignerGrid",
    "build_density_matrix",
    "wigner_transform",
    "inverse_wigner",
    "purity",
    "wigner_purity",
    "position_variance",
]


class GridCoverageError(ValueError):
    """Grid does not cover the support of the requested state."""


@dataclass(frozen=True)
class GaussianPacket:
    """One Gaussian wavepacket; sigma is the position standard deviation of
    the packet's probability density."""

    center_q: float
    center_p: float = 0.0
    sigma: float = 1.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not self.sigma > 0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class SuperpositionState:
    """Superposition of Gaussian packets."""

    packets: tuple[GaussianPacket, ...]

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple(self.packets))
        if len(self.packets) == 0:
            raise ValueError("state needs at least one packet")

    @classmethod
    def single(cls, sigma: float, center_q: float = 0.0, center_p: float = 0.0):
        return cls(packets=(GaussianPacket(center_q, center_p, sigma),))

    @classmethod
    def symmetric_cat(cls, separation: float, sigma: float, center: float = 0.0):
        """Equal real-amplitude packets at center -/+ separation/2."""
        if not separation > 0:
            raise ValueError("separation must be positive")
        return cls(
            packets=(
                GaussianPacket(center - 0.5 * separation, 0.0, sigma),
                GaussianPacket(center + 0.5 * separation, 0.0, sigma),
            )
        )

    def psi(self, q, hbar: float = 1.0) -> np.ndarray:
        """Analytic (possibly unnormalized) wavefunction on q."""
        q = np.asarray(q, dtype=float)
        out = np.zeros(q.shape, dtype=complex)
        for pk in self.packets:
            norm = (2.0 * np.pi * pk.sigma**2) ** (-0.25)
            dq = q - pk.center_q
            out += pk.amplitude * norm * np.exp(
                -(dq**2) / (4.0 * pk.sigma**2) + 1j * pk.center_p * dq / hbar
            )
        return out


# Every packet center +- _COVER_SIGMAS widths must lie on the grid.  The auto
# grid pads by _PAD_SIGMAS widths, which puts psi at the edge below 1e-15 of
# its peak, as the spectral steps of the phase-space transforms need.
_COVER_SIGMAS = 8.0
_PAD_SIGMAS = 12.0
_POINTS_PER_SIGMA = 8


@dataclass(frozen=True)
class GridSpec:
    """Uniform position grid."""

    q_min: float
    q_max: float
    n_points: int

    def __post_init__(self):
        if not self.q_max > self.q_min:
            raise ValueError("q_max must exceed q_min")
        if self.n_points < 16:
            raise ValueError(f"n_points must be >= 16, got {self.n_points}")

    @property
    def spacing(self) -> float:
        return (self.q_max - self.q_min) / (self.n_points - 1)

    @cached_property
    def q(self) -> np.ndarray:
        return np.linspace(self.q_min, self.q_max, self.n_points)

    @classmethod
    def cover(cls, state: SuperpositionState):
        """Auto-sized grid: all packet centers +- _PAD_SIGMAS widths, spacing
        at most sigma_min/_POINTS_PER_SIGMA, n_points rounded up to a power
        of two."""
        lo = min(pk.center_q - _PAD_SIGMAS * pk.sigma for pk in state.packets)
        hi = max(pk.center_q + _PAD_SIGMAS * pk.sigma for pk in state.packets)
        h_target = min(pk.sigma for pk in state.packets) / _POINTS_PER_SIGMA
        n = int(2 ** np.ceil(np.log2((hi - lo) / h_target + 1)))
        return cls(q_min=lo, q_max=hi, n_points=max(n, 16))


_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-8
_DIAG_TOL = 1e-12
# total weight the entropy and rate quadratures may drop from the grid
_DROPPED_MASS = 1e-17
# cells of one row chunk of the pure-state pairing
_CHUNK_CELLS = 1 << 20


def _check_trace(tr: float) -> None:
    # the comparison also refuses a NaN or infinite trace
    if not abs(tr - 1.0) <= _TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} != 1")


class DensityMatrixGrid:
    """Complex rho(Q1, Q2) samples on a uniform grid.

    A mixed state is given by its matrix ``values``; construction validates
    Hermiticity, unit trace and diagonal positivity at the tolerances any
    state produced by this package satisfies.  A pure state is given by its
    normalized wavefunction ``psi`` instead: rho = psi psi^dagger is
    Hermitian with a non-negative diagonal by construction, so only the
    trace h sum |psi|^2 is checked, in O(n), and ``values`` is formed on
    first read.
    """

    def __init__(self, grid: GridSpec, values=None, hbar: float = 1.0, *, psi=None):
        if (values is None) == (psi is None):
            raise ValueError("give exactly one of values and psi")
        if not hbar > 0:
            raise ValueError("hbar must be positive")
        self.grid = grid
        self.hbar = hbar
        self.psi = None
        n = grid.n_points
        if psi is not None:
            p = np.asarray(psi, dtype=complex)
            if p.shape != (n,):
                raise ValueError(f"psi must have {n} entries, got shape {p.shape}")
            _check_trace(float(np.sum(np.abs(p) ** 2)) * grid.spacing)
            self.psi = p
            return
        v = np.asarray(values, dtype=complex)
        if v.shape != (n, n):
            raise ValueError(f"values must be {n}x{n}, got {v.shape}")
        scale = max(float(np.max(np.abs(v))), 1.0)
        herm = float(np.max(np.abs(v - v.conj().T)))
        if herm > _HERMITICITY_TOL * scale:
            raise ValueError(f"density matrix not Hermitian (max deviation {herm:.3e})")
        d = np.diagonal(v)
        if float(np.min(d.real)) < -_DIAG_TOL * scale:
            raise ValueError("density matrix diagonal has negative entries")
        _check_trace(float(np.sum(d.real)) * grid.spacing)
        self.values = v

    @cached_property
    def values(self) -> np.ndarray:
        return np.outer(self.psi, self.psi.conj())

    def trace(self) -> float:
        return float(np.sum(_diagonal(self))) * self.grid.spacing

    def support(self):
        """Mirror pairs of the support of |rho|^2, the quadrature nodes of
        the entropies and rates.

        Returns ``(dq, qbar, w, defect)``: the offset Q1-Q2, the midpoint and
        the summed weight h^2 (|rho|^2 + mirror) of every kept cell above
        the diagonal, in row-major order, and the purity defect
        sum(h^2 |rho|^2) - 1 of the full grid.  Pairs whose summed weight is
        below 1e-17/n^2 are dropped, 1e-17 of weight in total.  A pure state
        pairs the 1-D support of a = h |psi|^2, since h^2 |rho|^2 =
        a(Q1) a(Q2): the same pairs, without an n x n array.
        """
        cut = _DROPPED_MASS / self.grid.n_points**2
        if self.psi is None:
            h = self.grid.spacing
            w = np.abs(self.values)
            w *= w
            w *= h * h
            defect = float(np.sum(w)) - 1.0
            w = w + w.T
            i, j = np.nonzero(np.triu(w >= cut, 1))
            w = w[i, j]
        else:
            i, j, w, defect = _pure_pairs(self.psi, self.grid.spacing, cut)
        q = self.grid.q
        return q[i] - q[j], 0.5 * (q[i] + q[j]), w, defect


def _pure_pairs(psi: np.ndarray, h: float, cut: float):
    """Pairs i < j of a pure state, whose weight 2 a_i a_j (a = h |psi|^2) is
    at least cut, in row-major order, with their weights and the defect
    (sum a)^2 - 1.  Only cells with 2 a_i max(a) >= cut can be in a pair, so
    the rows are taken in chunks over those cells alone."""
    a = np.abs(psi)
    a *= a
    a *= h
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


def _diagonal(rho: DensityMatrixGrid) -> np.ndarray:
    """Real diagonal rho(Q, Q); read from psi alone for a pure state."""
    if rho.psi is None:
        return np.diagonal(rho.values).real
    return (rho.psi * rho.psi.conj()).real


@dataclass(frozen=True)
class WignerGrid:
    """Real phase-space density on (q, p); may be negative for nonclassical
    states.  Normalization ``trapz trapz W dq dp = 1`` is enforced."""

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "values", v)
        if v.shape != (q.size, p.size):
            raise ValueError(f"values must be {(q.size, p.size)}, got {v.shape}")
        mass = float(np.trapezoid(np.trapezoid(v, p, axis=1), q))
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"Wigner mass {mass} != 1")


def build_density_matrix(
    state: SuperpositionState,
    grid: GridSpec | None = None,
    hbar: float = 1.0,
) -> DensityMatrixGrid:
    """Sample the pure state on the grid; rho = psi psi^dagger is held as
    its normalized factor psi.

    The grid must cover every packet center +- 8 sigma; omitting it selects
    the auto-sized grid.  psi is renormalized on the grid, so the result has
    unit trace and unit purity to quadrature accuracy.
    """
    if grid is None:
        grid = GridSpec.cover(state)
    lo = min(pk.center_q - _COVER_SIGMAS * pk.sigma for pk in state.packets)
    hi = max(pk.center_q + _COVER_SIGMAS * pk.sigma for pk in state.packets)
    if grid.q_min > lo or grid.q_max < hi:
        raise GridCoverageError(
            f"grid [{grid.q_min}, {grid.q_max}] does not cover required [{lo}, {hi}]"
        )
    psi = state.psi(grid.q, hbar=hbar)
    norm = grid.spacing * float(np.sum(np.abs(psi) ** 2))
    if norm <= 0:
        raise ValueError("state has zero norm on the grid")
    return DensityMatrixGrid(grid=grid, psi=psi / np.sqrt(norm), hbar=hbar)


def purity(rho: DensityMatrixGrid) -> float:
    """Discrete Tr rho^2 = h^2 sum |rho(Q1,Q2)|^2."""
    h = rho.grid.spacing
    return float(h * h * np.sum(np.abs(rho.values) ** 2))


def position_variance(rho: DensityMatrixGrid) -> float:
    """Variance of the diagonal position distribution."""
    q = rho.grid.q
    d = _diagonal(rho)
    norm = np.trapezoid(d, q)
    mean = np.trapezoid(d * q, q) / norm
    return float(np.trapezoid(d * (q - mean) ** 2, q) / norm)


def _half_lattice(n: int, odd: int, strides: tuple[int, int]):
    """Flat indices pairing the i1 >= i2 half of one sublattice with rho.

    Lattice cell (i, k), k >= 0, holds rho[i+k+odd, i-k]: the cell at
    midpoint i + odd/2 and offset 2k + odd.  Returns, column by column, the
    lattice indices i*strides[0] + k*strides[1] of the cells inside the
    grid, their matrix indices and those of their mirrors rho[i-k, i+k+odd].
    """
    k = np.arange((n + 1 - odd) // 2)
    counts = n - odd - 2 * k
    i = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    k = np.repeat(k, counts)
    i += k
    lattice = i * strides[0] + k * strides[1]
    return lattice, i * (n + 1) + k * (n - 1) + odd * n, i * (n + 1) - k * (n - 1) + odd


def wigner_transform(rho: DensityMatrixGrid) -> WignerGrid:
    """Fourier transform along the off-diagonal coordinate at fixed midpoint,
    normalized by 1/(2 pi hbar) so the roundtrip with inverse_wigner is the
    identity.  rho is Hermitian, so a Hermitian FFT of its offsets k >= 0
    gives the real W; on an even grid the offset k = n/2 is off the matrix."""
    n = rho.grid.n_points
    h = rho.grid.spacing
    hbar = rho.hbar
    m = n // 2 + 1
    lattice, cells, _ = _half_lattice(n, 0, (m, 1))
    v = np.zeros(n * m, dtype=complex)
    v[lattice] = rho.values.ravel()[cells]
    # FFT index l - n//2 is the centred momentum index l
    w = np.fft.fftshift(np.fft.hfft(v.reshape(n, m), n, axis=1), axes=1)
    w *= h / (np.pi * hbar)
    p = (np.arange(n) - n // 2) * (np.pi * hbar / (h * n))
    return WignerGrid(q=rho.grid.q.copy(), p=p, values=w, hbar=hbar)


def inverse_wigner(w: WignerGrid) -> DensityMatrixGrid:
    """Rectangle-rule momentum sum of W exp(+i dQ P/hbar); exact inverse of
    wigner_transform on the even Q1+Q2 sublattice, spectral half-sample
    shift on the rest.  A zero-padded real FFT of each row of W gives the
    sum at every offset i1 - i2 >= 0: even bins on the even sublattice, odd
    bins half a step off it.  The i1 < i2 half is the exact conjugate."""
    n = w.q.size
    if w.p.size != n:
        raise ValueError(f"p-grid length {w.p.size} incompatible with q-grid length {n}")
    h = float(w.q[1] - w.q[0])
    dp_expect = np.pi * w.hbar / (h * n)
    dp = float(w.p[1] - w.p[0])
    if abs(dp - dp_expect) > 1e-9 * dp_expect:
        raise ValueError("p-grid is not conjugate to the off-diagonal lattice of the q-grid")
    # centring phase exp(-i pi d (n//2)/n) at offset d, times dp: (-i)^d for
    # even n, an argument reduced below 2 pi for odd n
    if n % 2 == 0:
        phase = np.array([1, -1j, -1, 1j])[np.arange(n) % 4] * dp_expect
    else:
        phase = np.exp(-1j * np.pi * (np.arange(n) * (n // 2) % (2 * n)) / n) * dp_expect
    r = np.fft.rfft(w.values, 2 * n, axis=1).T
    # both sublattices offset-major, so each midpoint column is contiguous
    even = np.conjugate(r[0:n:2], order="C")
    even *= phase[0::2, None]
    odd = np.conjugate(r[1:n:2], order="C")
    odd *= phase[1::2, None]
    del r
    # The odd sublattice also sits half a step off in midpoint: evaluate the
    # trigonometric interpolant there (signed frequencies, Nyquist bin at
    # -n/2) by a phase ramp on its spectrum along the midpoint axis.
    odd = np.fft.fft(odd, axis=1)
    odd *= np.exp(1j * np.pi * np.fft.fftfreq(n))
    odd = np.fft.ifft(odd, axis=1)
    rho = np.empty(n * n, dtype=complex)
    for parity, lat in ((0, even), (1, odd)):
        lattice, cells, mirror = _half_lattice(n, parity, (1, n))
        vals = lat.ravel()[lattice]
        rho[cells] = vals
        rho[mirror] = vals.conj()
    rho = rho.reshape(n, n)
    np.fill_diagonal(rho, even[0].real)
    grid = GridSpec(q_min=float(w.q[0]), q_max=float(w.q[-1]), n_points=n)
    return DensityMatrixGrid(grid=grid, values=rho, hbar=w.hbar)


def wigner_purity(w: WignerGrid) -> float:
    """2 pi hbar * double integral of W^2; equals Tr rho^2 for matched grids."""
    inner = np.trapezoid(w.values**2, w.p, axis=1)
    return float(2.0 * np.pi * w.hbar * np.trapezoid(inner, w.q))

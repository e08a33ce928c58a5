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

from . import _checks, _pool

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
        _checks.finite(center_q=self.center_q, center_p=self.center_p, amplitude=self.amplitude)
        _checks.positive(sigma=self.sigma)


@dataclass(frozen=True)
class SuperpositionState:
    """Superposition of Gaussian packets."""

    packets: tuple[GaussianPacket, ...]

    def __post_init__(self):
        object.__setattr__(self, "packets", tuple(self.packets))
        if len(self.packets) == 0:
            raise ValueError("packets: a state needs at least one packet")

    @classmethod
    def single(cls, sigma: float, center_q: float = 0.0, center_p: float = 0.0):
        return cls(packets=(GaussianPacket(center_q, center_p, sigma),))

    @classmethod
    def symmetric_cat(cls, separation: float, sigma: float, center: float = 0.0):
        """Equal real-amplitude packets at center -/+ separation/2."""
        if not separation > 0:
            raise ValueError(f"separation: must be positive, got {separation}")
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
        _checks.finite(q_min=self.q_min, q_max=self.q_max)
        if not self.q_max > self.q_min:
            raise ValueError(f"q_max: must exceed q_min = {self.q_min}, got {self.q_max}")
        if self.n_points < 16:
            raise ValueError(f"n_points: must be >= 16, got {self.n_points}")

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

    def check_covers(self, state: SuperpositionState) -> None:
        """Raise GridCoverageError unless every packet center +-
        _COVER_SIGMAS widths lies on the grid."""
        lo = min(pk.center_q - _COVER_SIGMAS * pk.sigma for pk in state.packets)
        hi = max(pk.center_q + _COVER_SIGMAS * pk.sigma for pk in state.packets)
        if self.q_min > lo or self.q_max < hi:
            raise GridCoverageError(f"grid [{self.q_min}, {self.q_max}] does not cover required [{lo}, {hi}]")


_HERMITICITY_TOL = 1e-12
_TRACE_TOL = 1e-8
_DIAG_TOL = 1e-12
# total weight the entropy and rate quadratures may drop from the grid
_DROPPED_MASS = 1e-17
# candidate rows of one block of the pure-state pairing
_PAIR_ROWS = 64


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
        _checks.positive(hbar=hbar)
        self.grid = grid
        self.hbar = hbar
        self.psi = None
        n = grid.n_points
        if psi is not None:
            p = np.asarray(psi, dtype=complex)
            if p.shape != (n,):
                raise ValueError(f"psi: must have {n} entries, got shape {p.shape}")
            _check_trace(float(np.sum(np.abs(p) ** 2)) * grid.spacing)
            self.psi = p
            return
        v = np.asarray(values, dtype=complex)
        if v.shape != (n, n):
            raise ValueError(f"values: must be {n}x{n}, got {v.shape}")
        scale = max(float(np.max(np.abs(v))), 1.0)
        herm = float(np.max(np.abs(v - v.conj().T)))
        # the comparison also refuses a NaN or infinite entry, which makes herm NaN
        if not herm <= _HERMITICITY_TOL * scale:
            raise ValueError(f"values: density matrix not Hermitian (max deviation {herm:.3e})")
        d = np.diagonal(v)
        if float(np.min(d.real)) < -_DIAG_TOL * scale:
            raise ValueError("values: density matrix diagonal has negative entries")
        _check_trace(float(np.sum(d.real)) * grid.spacing)
        self.values = v

    @classmethod
    def _hermitian(cls, grid: GridSpec, values: np.ndarray, hbar: float) -> "DensityMatrixGrid":
        """A matrix Hermitian with a real diagonal by construction: only its trace is checked, in O(n)."""
        rho = cls.__new__(cls)
        rho.grid, rho.hbar, rho.psi, rho.values = grid, hbar, None, values
        _check_trace(rho.trace())
        return rho

    @cached_property
    def values(self) -> np.ndarray:
        return np.outer(self.psi, self.psi.conj())

    def trace(self) -> float:
        return float(np.sum(_diagonal(self))) * self.grid.spacing

    def support(self):
        """Mirror pairs of the support of |rho|^2, the quadrature nodes of
        the entropies and rates.

        Returns ``(i, j, w, defect)``: the int32 lattice indices i < j and
        the summed weight h^2 (|rho|^2 + mirror) of every kept cell above
        the diagonal, in row-major order, and the purity defect
        sum(h^2 |rho|^2) - 1 of the full grid.  Pairs whose summed weight is
        below 1e-17/n^2 are dropped, 1e-17 of weight in total.  A pure state
        pairs the 1-D support of a = h |psi|^2, since h^2 |rho|^2 =
        a(Q1) a(Q2): the same pairs, without an n x n array, written block
        by block into arrays of the exact size ``pair_count()`` gives, so
        the support holds 16 bytes a pair and its build little more.  Built
        once: every call returns the same read-only arrays.
        """
        return self._support

    @cached_property
    def integrals(self) -> dict:
        """Memo of floats derived from ``support()``, filled by its readers:
        ``strongdec.support_integral`` keeps each side's rate integral by
        coupling, then side, for the rates and the entropy series."""
        return {}

    def pair_count(self) -> int:
        """The number of pairs ``support()`` keeps.  A pure state counts
        them without building them, in O(m log m) over its m candidate
        cells; a matrix given as ``values`` builds them."""
        if self.psi is None:
            return int(self._support[2].size)
        return _pure_pair_count(self.psi, self.grid.spacing, self._cut)

    @property
    def _cut(self) -> float:
        return _DROPPED_MASS / self.grid.n_points**2

    @cached_property
    def _support(self):
        cut = self._cut
        if self.psi is None:
            h = self.grid.spacing
            w = np.abs(self.values)
            w *= w
            w *= h * h
            defect = float(np.sum(w)) - 1.0
            w = w + w.T
            i, j = np.nonzero(np.triu(w >= cut, 1))
            w = w[i, j]
            i, j = i.astype(np.int32), j.astype(np.int32)
        else:
            i, j, w, defect = _pure_pairs(self.psi, self.grid.spacing, cut)
        for a in (i, j, w):
            a.flags.writeable = False
        return i, j, w, defect


def _pure_cells(psi: np.ndarray, h: float, cut: float):
    """a = h |psi|^2 and the cells that can be in a pair of a pure state:
    those with 2 a_i max(a) >= cut."""
    a = np.abs(psi)
    a *= a
    a *= h
    return a, np.flatnonzero(2.0 * a * a.max() >= cut)


def _pure_pairs(psi: np.ndarray, h: float, cut: float):
    """Pairs i < j of a pure state, whose weight 2 a_i a_j (a = h |psi|^2) is
    at least cut, in row-major order, as int32 lattice indices with their
    weights, and the defect (sum a)^2 - 1.  Only the candidate cells of
    _pure_cells can be in a pair, so the rows are taken over those cells
    alone, _PAIR_ROWS at a time, from the diagonal on, each block written
    into arrays of the exact size _pure_pair_count gives."""
    a, cells = _pure_cells(psi, h, cut)
    total = float(np.sum(a))
    b = a[cells]
    cells = cells.astype(np.int32)
    size = _pure_pair_count(psi, h, cut)
    i, j, w = np.empty(size, dtype=np.int32), np.empty(size, dtype=np.int32), np.empty(size)
    # right of the diagonal within a block's first _PAIR_ROWS columns
    right = ~np.tri(_PAIR_ROWS, dtype=bool)
    end = 0
    for r in range(0, b.size, _PAIR_ROWS):
        k = min(_PAIR_ROWS, b.size - r)
        prod = 2.0 * b[r : r + k, None] * b[None, r:]
        keep = prod >= cut
        keep[:, :k] &= right[:k, :k]
        counts = np.count_nonzero(keep, axis=1)
        start, end = end, end + int(counts.sum())
        i[start:end] = np.repeat(cells[r : r + k], counts)
        j[start:end] = np.broadcast_to(cells[r:], keep.shape)[keep]
        w[start:end] = prod[keep]
    if end != size:
        raise RuntimeError(f"the pairing kept {end} pairs where the count gave {size}")
    return i, j, w, total * total - 1.0


def _pure_pair_count(psi: np.ndarray, h: float, cut: float) -> int:
    """The number of pairs _pure_pairs keeps, without building them.  With
    the candidate weights sorted, the partners j that keep (2 a_i) a_j >=
    cut, rounded as the pairing rounds it, are a suffix: one searchsorted
    per cell finds it to within rounding, and runs of equal weights are
    stepped over until the rounded product agrees."""
    a, cells = _pure_cells(psi, h, cut)
    s = np.sort(a[cells])
    c = 2.0 * s
    k = np.searchsorted(s, cut / c)
    while True:
        low = k > 0
        low[low] = c[low] * s[k[low] - 1] >= cut
        high = k < s.size
        high[high] = c[high] * s[k[high]] < cut
        if not (low.any() or high.any()):
            break
        k[low] = np.searchsorted(s, s[k[low] - 1])
        k[high] = np.searchsorted(s, s[k[high]], "right")
    # each pair i != j is counted from both ends, and i = j is no pair
    return int(np.sum(s.size - k) - np.count_nonzero(c * s >= cut)) // 2


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
            raise ValueError(f"values: must be {(q.size, p.size)}, got {v.shape}")
        # trapezoid weights over p: no n x n temporary, and no BLAS threads competing with the pool's
        half = 0.5 * np.diff(p)
        mass = float(np.trapezoid(np.einsum("ij,j->i", v, np.pad(half, (0, 1)) + np.pad(half, (1, 0))), q))
        # the comparison also refuses a non-finite mass
        if not abs(mass - 1.0) <= 1e-6:
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
    grid.check_covers(state)
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


# rows (odd columns, for the inverse's half-step shift) of one task of the
# Wigner pair's FFT stages on the pool, and the height of the inverse's
# strips; every FFT runs row by row and the strips only move values, so the
# bytes do not depend on it
_ROW_BLOCK = 64


def _row_blocks(n: int) -> list[slice]:
    return [slice(r, min(r + _ROW_BLOCK, n)) for r in range(0, n, _ROW_BLOCK)]


def wigner_transform(rho: DensityMatrixGrid) -> WignerGrid:
    """Fourier transform along the off-diagonal coordinate at fixed midpoint,
    normalized by 1/(2 pi hbar) so the roundtrip with inverse_wigner is the
    identity.  rho is Hermitian, so a Hermitian FFT of its offsets k >= 0
    gives the real W; on an even grid the offset k = n/2 is off the matrix.
    Each pool task forms the lag products of its own block of rows, so no
    n x (n/2 + 1) array of them is held."""
    n = rho.grid.n_points
    h = rho.grid.spacing
    hbar = rho.hbar
    psi = rho.psi
    half = n // 2
    # windows[half + i, k] = psi[i + k] and windows[i, half - k] = psi[i - k]:
    # views of psi zero-padded by half on each side
    if psi is not None:
        padded = np.zeros(n + 2 * half, dtype=complex)
        padded[half : half + n] = psi
        windows = np.lib.stride_tricks.sliding_window_view(padded, half + 1)
    else:
        flat = rho.values.reshape(-1)
    k = np.arange(half + 1)
    w = np.empty((n, n))
    scale = h / (np.pi * hbar)

    def transform(rows: slice) -> None:
        # row i, column k holds rho[i+k, i-k] at midpoint i: the matrix
        # diagonal at offset -2k, psi[i+k] conj(psi[i-k]) for a pure state;
        # the cells off the matrix are +0
        i = np.arange(rows.start, rows.stop)[:, None]
        off = k > np.minimum(i, n - 1 - i)
        if psi is None:
            block = np.take(flat, np.where(off, 0, (i + k) * n + i - k))
        else:
            block = np.conjugate(windows[rows, ::-1])
            np.multiply(windows[half + rows.start : half + rows.stop], block, out=block)
        block[off] = 0
        # hfft(v) is irfft(conj(v), norm="forward"), and only irfft writes
        # into out=; FFT index l - n//2 is the centred momentum index l
        np.conjugate(block, out=block)
        f = np.fft.irfft(block, n, axis=1, norm="forward")
        np.multiply(f[:, : n - n // 2], scale, out=w[rows, n // 2 :])
        np.multiply(f[:, n - n // 2 :], scale, out=w[rows, : n // 2])

    _pool.run(transform, _row_blocks(n))
    p = (np.arange(n) - n // 2) * (np.pi * hbar / (h * n))
    return WignerGrid(q=rho.grid.q.copy(), p=p, values=w, hbar=hbar)


def inverse_wigner(w: WignerGrid) -> DensityMatrixGrid:
    """Rectangle-rule momentum sum of W exp(+i dQ P/hbar); exact inverse of
    wigner_transform on the even Q1+Q2 sublattice, spectral half-sample
    shift on the rest.  A zero-padded real FFT of each row of W gives the
    sum at every offset i1 - i2 >= 0: even bins on the even sublattice, odd
    bins half a step off it.  Every cell of rho is read straight from that
    FFT buffer, a strip of rows at a time; the i1 < i2 half is the exact
    conjugate, so the result is Hermitian with a real diagonal by
    construction and only its trace is checked."""
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
    # r[i, d]: the sum at midpoint i and offset d (d = n is never read),
    # after one spare cell (below)
    width = n + 1
    padded = np.empty(1 + n * width, dtype=complex)
    r = padded[1:].reshape(n, width)

    def transform(rows: slice) -> None:
        # conj(r) times the centring phase, a row at a time: a 2-D multiply
        # would hold numpy iterator buffers on top of r
        block = r[rows]
        np.fft.rfft(w.values[rows], 2 * n, axis=1, out=block)
        np.conjugate(block, out=block)
        for row in block:
            row[:n] *= phase

    _pool.run(transform, _row_blocks(n))
    # The odd offsets also sit half a step off in midpoint: evaluate the
    # trigonometric interpolant there (signed frequencies, Nyquist bin at
    # -n/2) by a phase ramp on the spectrum of each odd column of r, in place.
    ramp = np.exp(1j * np.pi * np.fft.fftfreq(n))

    def shift(ks: slice) -> None:
        # the columns' transposing copies go in tiles of _ROW_BLOCK rows,
        # which stay in cache
        cols = r[:, 2 * ks.start + 1 : 2 * ks.stop : 2]
        f = np.empty((cols.shape[1], n), dtype=complex)
        for i in range(0, n, _ROW_BLOCK):
            f[:, i : i + _ROW_BLOCK] = cols[i : i + _ROW_BLOCK].T
        np.fft.fft(f, axis=1, out=f)
        f *= ramp
        np.fft.ifft(f, axis=1, out=f)
        for i in range(0, n, _ROW_BLOCK):
            cols[i : i + _ROW_BLOCK] = f[:, i : i + _ROW_BLOCK].T

    _pool.run(shift, _row_blocks(n // 2))
    # free them before rho is allocated: r and rho make the peak
    del phase, ramp
    # Cell (i1, i2) = (2 s + p, 2 t + q), i1 >= i2, is r[s + t + (p + q) // 2,
    # 2 (s - t) + p - q]: on each parity class (p, q), a strided view of r,
    # and its mirror (i2, i1) is the conjugate.  A class's cells above the
    # diagonal read other cells of r, the spare cell included, and are never
    # kept.
    size = r.itemsize
    lower = {
        (p, q): np.ndarray(
            ((n + 1 - p) // 2, (n + 1 - q) // 2),
            complex,
            padded,
            size * (1 + (p + q) // 2 * width + p - q),
            (size * (width + 2), size * (width - 2)),
        )
        for p in (0, 1)
        for q in (0, 1)
    }
    b = _ROW_BLOCK
    below = np.tril(np.ones((b, b), dtype=bool), -1)
    rho = np.empty((n, n), dtype=complex)
    flat = rho.reshape(-1)

    def gather(cells, i1: int, i2: int, where=None) -> None:
        # cells[a, c] = rho[i1 + a, i2 + c], on or below the diagonal where kept
        for a in (0, 1):
            for c in (0, 1):
                part = cells[a::2, c::2]
                s, t = (i1 + a) // 2, (i2 + c) // 2
                src = lower[(i1 + a) % 2, (i2 + c) % 2][s : s + part.shape[0], t : t + part.shape[1]]
                if where is None:
                    part[...] = src
                else:
                    np.copyto(part, src, where=where[a::2, c::2])

    def fill(i: int) -> None:
        # rows i..i+k of rho: the cells right of the diagonal, as the
        # transpose of those below it, conjugated with the rows' span in
        # place; then the cells below it, the diagonal tile's through a mask.
        # Copies and a contiguous conjugate need no numpy iterator buffer.
        k = min(b, n - i)
        gather(rho[i : i + k, i:].T, i, i)
        span = flat[i * n + i : (i + k) * n]
        np.conjugate(span, out=span)
        gather(rho[i : i + k, :i], i, 0)
        gather(rho[i : i + k, i : i + k], i, i, below[:k, :k])

    _pool.run(fill, range(0, n, b))
    np.fill_diagonal(rho, r[:, 0].real)
    grid = GridSpec(q_min=float(w.q[0]), q_max=float(w.q[-1]), n_points=n)
    return DensityMatrixGrid._hermitian(grid, rho, w.hbar)


def wigner_purity(w: WignerGrid) -> float:
    """2 pi hbar * double integral of W^2; equals Tr rho^2 for matched grids."""
    inner = np.trapezoid(w.values**2, w.p, axis=1)
    return float(2.0 * np.pi * w.hbar * np.trapezoid(inner, w.q))

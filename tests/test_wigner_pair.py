"""The Wigner pair against its earlier implementation and an exact oracle.

``wigner_transform`` gathers the k >= 0 half of the even-offset
antidiagonals and takes one Hermitian FFT; ``inverse_wigner`` takes one
zero-padded real FFT per row, whose even bins are the even sublattice and
whose odd bins, shifted half a step in midpoint, are the odd sublattice,
and mirrors the i1 >= i2 half by conjugation.  The forward forms the lag
products of each block of rows in its pool task; the inverse reads each
cell of rho straight from the padded FFT buffer, a strip of rows at a
time.  The same FFTs with the flat index arrays of ``half_lattice``
instead must give the same bytes.
The reference below is an earlier path, kept as it was: a twiddled
full-length DFT, a per-column gather loop and a 2n x 2n zero-padded
upsample read at its odd-odd nodes.
Its twiddles carry about n eps of phase error, so the two agree to
rounding, not bytewise.  The oracle is the direct sum of both transforms in
long double (64-bit mantissa), with every phase reduced in integers first:
the pair must lie within a stated bound of it and no farther from it than
the reference.  For odd n the reference upsample is wrong (its padding
shifts the spectrum by one bin), so its odd cells are not compared there.

The FFT stages of both transforms run on the package's thread pool in
fixed blocks of rows (of odd columns, for the inverse's half-step shift),
and the inverse fills rho in strips of as many rows.  Every FFT works row
by row and the strips only move values, so the pair must keep the bytes of
its serial form, kept below as it was, at any worker count and any block
size.
"""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn import _pool, states
from decodyn.states import (
    DensityMatrixGrid,
    GaussianPacket,
    GridSpec,
    SuperpositionState,
    WignerGrid,
    build_density_matrix,
    inverse_wigner,
    purity,
    wigner_purity,
    wigner_transform,
)


def reference_dft(rows, sign):
    n = rows.shape[-1]
    c = n // 2
    idx = np.arange(n)
    tw = np.exp(-sign * 2j * np.pi * c * idx / n)
    const = np.exp(sign * 2j * np.pi * c * c / n)
    x = rows * tw
    core = np.fft.fft(x, axis=-1) if sign < 0 else np.fft.ifft(x, axis=-1) * n
    return const * (core * tw)


def reference_antidiagonals(values):
    n = values.shape[0]
    v = np.zeros((n, n), dtype=complex)
    for j in range(n):
        k = j - n // 2
        a = abs(k)
        if a == 0:
            v[:, j] = np.diagonal(values)
        elif a < n - a:
            ii = np.arange(a, n - a)
            v[ii, j] = values[ii + k, ii - k]
    return v


def reference_transform(rho):
    h, hbar = rho.grid.spacing, rho.hbar
    return (reference_dft(reference_antidiagonals(rho.values), -1) * (h / (np.pi * hbar))).real


def reference_upsample2(a):
    n0, n1 = a.shape
    freq = np.fft.fftshift(np.fft.fft2(a))
    pad = np.zeros((2 * n0, 2 * n1), dtype=complex)
    pad[n0 // 2 : n0 // 2 + n0, n1 // 2 : n1 // 2 + n1] = freq
    return np.fft.ifft2(np.fft.ifftshift(pad)) * 4.0


def reference_inverse(w):
    n = w.q.size
    h = float(w.q[1] - w.q[0])
    v = reference_dft(w.values.astype(complex), +1) * (np.pi * w.hbar / (h * n))
    rho = np.zeros((n, n), dtype=complex)
    for j in range(n):
        kk = j - n // 2
        a = abs(kk)
        if a == 0:
            rho[np.arange(n), np.arange(n)] = v[:, j]
        elif a < n - a:
            ii = np.arange(a, n - a)
            rho[ii + kk, ii - kk] = v[ii, j]
    fine = reference_upsample2(v)
    i1 = np.arange(n)[:, None]
    i2 = np.arange(n)[None, :]
    odd = ((i1 + i2) % 2).astype(bool)
    rho[odd] = fine[(i1 + i2)[odd], (i1 - i2 + n)[odd]]
    return 0.5 * (rho + rho.conj().T)


PI_LONG = 4 * np.arctan(np.longdouble(1))


def long_phase(num, n):
    """exp(i pi num/n) in long double; the integer num is reduced mod 2n
    first, so every argument is exact before it is rounded."""
    return np.exp(1j * PI_LONG * np.mod(num, 2 * n).astype(np.longdouble) / n)


def oracle_transform(rho):
    """Direct-sum W[i, l] = h/(pi hbar) sum_k rho[i+k, i-k]
    exp(-2j pi k (l - c)/n), c = n//2, in long double."""
    n = rho.grid.n_points
    idx = np.arange(n) - n // 2
    v, _ = lattice(rho.values.astype(np.clongdouble), 0)
    scale = np.longdouble(rho.grid.spacing) / (PI_LONG * np.longdouble(rho.hbar))
    return ((v @ long_phase(-2 * np.outer(idx, idx), n)) * scale).real.astype(float)


def oracle_inverse(w):
    """Direct-sum inverse in long double on both sublattices, laid out as
    ``lattice`` lays them out.  Even cells: pi hbar/(h n) sum_l W[i, l]
    exp(+2j pi k (l - c)/n).  Odd cells: the same sum at offset k + 1/2,
    then the trigonometric interpolant of each column half a step along the
    midpoint (signed frequencies, Nyquist bin at -n/2)."""
    n = w.q.size
    idx = np.arange(n) - n // 2
    h = np.longdouble(float(w.q[1] - w.q[0]))
    values = w.values.astype(np.longdouble) * (PI_LONG * np.longdouble(w.hbar) / (h * n))
    even = values @ long_phase(2 * np.outer(idx, idx), n)
    offsets = values @ long_phase(np.outer(idx, 2 * idx + 1), n)
    # interpolant at i + 1/2 from the samples at i': a circulant in i - i',
    # kernel[m] = (1/n) sum_s exp(i pi s (2m + 1)/n)
    s = np.round(np.fft.fftfreq(n, 1.0 / n)).astype(np.int64)
    m = np.arange(n)
    kernel = long_phase(np.outer(2 * m + 1, s), n).sum(axis=1) / n
    odd = kernel[np.subtract.outer(m, m) % n] @ offsets
    return even.astype(complex), odd.astype(complex)


def lattice(values, odd):
    """v[i, j] = values[i+k+odd, i-k], k = j - n//2, zero outside the
    matrix, and the mask of the cells inside it."""
    n = values.shape[0]
    i = np.arange(n)[:, None]
    k = np.arange(n)[None, :] - n // 2
    i1, i2 = i + k + odd, i - k
    inside = (i1 >= 0) & (i1 < n) & (i2 >= 0) & (i2 < n)
    v = np.zeros((n, n), dtype=values.dtype)
    v[inside] = values[i1[inside], i2[inside]]
    return v, inside


def oracle_errors(values, exact, odd):
    """Max |lattice(values) - exact| over the sublattice's cells; for the
    odd sublattice over its i1 > i2 half, the one inverse_wigner computes."""
    v, inside = lattice(values, odd)
    if odd:
        inside &= np.arange(values.shape[0])[None, :] >= values.shape[0] // 2
    return float(np.max(np.abs(v - exact)[inside]))


@st.composite
def cat_states(draw, n):
    """A two-packet cat with random centres, kicks and relative phase, on
    an n-point grid covering each packet +- 12 sigma.  The grid spacing
    stays below sigma/3.9 and |kick| sigma <= 1, so the sampled state is
    resolved far below the 1e-10 roundtrip tolerance."""
    sigma = draw(st.floats(0.2, 1.0))
    left = draw(st.floats(-3.0, 3.0))
    right = left + sigma * draw(st.floats(3.0, 8.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    state = SuperpositionState(
        packets=(
            GaussianPacket(left, draw(st.floats(-1.0, 1.0)), sigma),
            GaussianPacket(
                right,
                draw(st.floats(-1.0, 1.0)),
                sigma,
                amplitude=draw(st.floats(0.3, 1.0)) * complex(math.cos(phase), math.sin(phase)),
            ),
        )
    )
    grid = GridSpec(left - 12.0 * sigma, right + 12.0 * sigma, n)
    return build_density_matrix(state, grid=grid)


even_n = st.integers(64, 128).map(lambda m: 2 * m)
any_n = st.integers(128, 256)


# Bounds relative to max|W| or max|rho|: the largest deviation measured on
# each test's own examples and 300 more drawn from its strategy, rounded up
# in the second digit.  The reference's twiddles carry about n eps of phase
# error, which the pins to it measure; against the oracle the pair stays
# within a few eps.
PIN_FORWARD = 1.5e-14
PIN_EVEN = 4.4e-14
ORACLE_FORWARD = 9.6e-16
ORACLE_EVEN = 1.7e-15
ORACLE_ODD = 1.4e-15


@given(even_n.flatmap(cat_states))
def test_pair_matches_reference_on_even_grids(rho):
    n = rho.grid.n_points
    w = wigner_transform(rho)
    ref_w = reference_transform(rho)
    assert np.max(np.abs(w.values - ref_w)) <= PIN_FORWARD * np.max(np.abs(ref_w))
    back = inverse_wigner(w).values
    ref = reference_inverse(w)
    even = (np.add.outer(np.arange(n), np.arange(n)) % 2) == 0
    assert np.max(np.abs(back[even] - ref[even])) <= PIN_EVEN * np.max(np.abs(rho.values))


@given(any_n.flatmap(cat_states))
def test_pair_invariants_on_any_grid(rho):
    w = wigner_transform(rho)
    ref_w = reference_transform(rho)
    assert np.max(np.abs(w.values - ref_w)) <= PIN_FORWARD * np.max(np.abs(ref_w))
    back = inverse_wigner(w).values
    assert np.array_equal(back, back.conj().T)
    assert np.max(np.abs(back - rho.values)) < 1e-10
    assert abs(purity(rho) - wigner_purity(w)) < 1e-6


@given(st.integers(128, 192).flatmap(cat_states))
def test_pair_against_long_double_oracle(rho):
    n = rho.grid.n_points
    w = wigner_transform(rho)
    exact_w = oracle_transform(rho)
    err = np.max(np.abs(w.values - exact_w))
    assert err <= ORACLE_FORWARD * np.max(np.abs(exact_w))
    assert err <= np.max(np.abs(reference_transform(rho) - exact_w))

    back = inverse_wigner(w).values
    ref = reference_inverse(w)
    scale = np.max(np.abs(rho.values))
    exact_even, exact_odd = oracle_inverse(w)
    err = oracle_errors(back, exact_even, 0)
    assert err <= ORACLE_EVEN * scale
    assert err <= oracle_errors(ref, exact_even, 0)
    err = oracle_errors(back, exact_odd, 1)
    assert err <= ORACLE_ODD * scale
    if n % 2 == 0:
        assert err <= oracle_errors(ref, exact_odd, 1)


def half_lattice(n, odd, strides):
    """Flat indices pairing the i1 >= i2 half of one sublattice with rho,
    the scatter and gather of an earlier pair, kept as it was.

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


def half_lattice_transform(rho):
    """The forward transform with the index gather of half_lattice."""
    n, h = rho.grid.n_points, rho.grid.spacing
    m = n // 2 + 1
    lattice, cells, _ = half_lattice(n, 0, (m, 1))
    v = np.zeros(n * m, dtype=complex)
    v[lattice] = rho.values.ravel()[cells]
    w = np.fft.fftshift(np.fft.hfft(v.reshape(n, m), n, axis=1), axes=1)
    w *= h / (np.pi * rho.hbar)
    return w


def half_lattice_inverse(w):
    """The inverse transform with the index scatter of half_lattice."""
    n = w.q.size
    h = float(w.q[1] - w.q[0])
    dp = np.pi * w.hbar / (h * n)
    if n % 2 == 0:
        phase = np.array([1, -1j, -1, 1j])[np.arange(n) % 4] * dp
    else:
        phase = np.exp(-1j * np.pi * (np.arange(n) * (n // 2) % (2 * n)) / n) * dp
    r = np.fft.rfft(w.values, 2 * n, axis=1).T
    even = np.conjugate(r[0:n:2], order="C")
    even *= phase[0::2, None]
    odd = np.conjugate(r[1:n:2], order="C")
    odd *= phase[1::2, None]
    odd = np.fft.fft(odd, axis=1)
    odd *= np.exp(1j * np.pi * np.fft.fftfreq(n))
    odd = np.fft.ifft(odd, axis=1)
    rho = np.empty(n * n, dtype=complex)
    for parity, lat in ((0, even), (1, odd)):
        lattice, cells, mirror = half_lattice(n, parity, (1, n))
        vals = lat.ravel()[lattice]
        rho[cells] = vals
        rho[mirror] = vals.conj()
    rho = rho.reshape(n, n)
    np.fill_diagonal(rho, even[0].real)
    return rho


def nan_empty(shape, dtype=float, **kwargs):
    """np.empty that fills with NaN, so an unwritten cell shows."""
    return np.full(shape, np.nan, dtype=dtype, **kwargs)


def diagonal_slices(n):
    """The flat cells of an n x n matrix that an earlier inverse_wigner
    wrote: the main diagonal, then for each offset d = 1..n-1 the diagonal d
    below it and its mirror d above it."""
    cells = np.arange(n * n)
    out = [cells[:: n + 1]]
    for d in range(1, n):
        out += [cells[d * n :: n + 1], cells[d : (n - d) * n : n + 1]]
    return out


def unit_mass_wigner(n, seed, hbar=1.0):
    """A random real W on an n-point grid and its conjugate momentum grid,
    scaled to unit mass: no state, but an input the inverse accepts.  Its
    edges are zero, so the trapezoid mass is the rectangle sum, the trace of
    the inverse."""
    q = np.linspace(-5.0, 5.0, n)
    p = (np.arange(n) - n // 2) * (np.pi * hbar / ((q[1] - q[0]) * n))
    w = np.zeros((n, n))
    w[1:-1, 1:-1] = np.random.default_rng(seed).random((n - 2, n - 2))
    w /= np.trapezoid(np.trapezoid(w, p, axis=1), q)
    return WignerGrid(q, p, w, hbar)


@given(st.sampled_from((16, 17, 64, 127)), st.integers(0, 2**32 - 1))
def test_diagonal_slices_write_every_cell_once(n, seed):
    w = unit_mass_wigner(n, seed)
    with mock.patch("numpy.empty", nan_empty):
        back = inverse_wigner(w).values
    assert not np.isnan(back).any()
    assert np.array_equal(back, half_lattice_inverse(w))
    # the reference slices: the two of offset d hold n - d cells each, and
    # with the main diagonal they hold every cell of the matrix once
    slices = diagonal_slices(n)
    assert [s.size for s in slices[1:]] == [n - d for d in range(1, n) for _ in range(2)]
    assert np.array_equal(np.sort(np.concatenate(slices)), np.arange(n * n))


@given(st.integers(64, 129).flatmap(cat_states))
def test_pair_matches_the_half_lattice_reference(rho):
    w = wigner_transform(rho)
    assert np.array_equal(w.values, half_lattice_transform(rho))
    assert np.array_equal(inverse_wigner(w).values, half_lattice_inverse(w))


def serial_transform(rho):
    """wigner_transform before its stages ran on the pool: one Hermitian FFT
    of the whole gathered lattice, one shift and one scale."""
    n, h, psi = rho.grid.n_points, rho.grid.spacing, rho.psi
    v = np.zeros((n, n // 2 + 1), dtype=complex)
    for k in range((n + 1) // 2):
        d = 2 * k
        v[k : n - k, k] = np.diagonal(rho.values, -d) if psi is None else psi[d:] * psi[: n - d].conj()
    w = np.fft.fftshift(np.fft.hfft(v, n, axis=1), axes=1)
    w *= h / (np.pi * rho.hbar)
    return w


def serial_inverse(w):
    """inverse_wigner before its stages ran on the pool, on whole arrays."""
    n = w.q.size
    dp = np.pi * w.hbar / (float(w.q[1] - w.q[0]) * n)
    if n % 2 == 0:
        phase = np.array([1, -1j, -1, 1j])[np.arange(n) % 4] * dp
    else:
        phase = np.exp(-1j * np.pi * (np.arange(n) * (n // 2) % (2 * n)) / n) * dp
    r = np.fft.rfft(w.values, 2 * n, axis=1).T
    even = np.conjugate(r[0:n:2], order="C")
    even *= phase[0::2, None]
    odd = np.conjugate(r[1:n:2], order="C")
    odd *= phase[1::2, None]
    odd = np.fft.fft(odd, axis=1)
    odd *= np.exp(1j * np.pi * np.fft.fftfreq(n))
    odd = np.fft.ifft(odd, axis=1)
    rho = np.empty((n, n), dtype=complex)
    flat = rho.reshape(-1)
    for d in range(1, n):
        k, parity = divmod(d, 2)
        below = (even, odd)[parity][k, k : n - k - parity]
        flat[d * n :: n + 1] = below
        np.conjugate(below, out=flat[d : (n - d) * n : n + 1])
    np.fill_diagonal(rho, even[0].real)
    return rho


def kicked_cat(n):
    """A cat with kicks and a complex relative amplitude on an n-point grid:
    its lattice is complex, so a lost conjugate changes W."""
    state = SuperpositionState(
        packets=(
            GaussianPacket(-2.0, 0.7, 0.5),
            GaussianPacket(2.5, -0.4, 0.6, amplitude=0.8 * complex(math.cos(1.1), math.sin(1.1))),
        )
    )
    return build_density_matrix(state, grid=GridSpec(-9.0, 10.0, n))


def mixed_values(n):
    """The even mixture of two kicked cats, given as a matrix."""
    a, b = kicked_cat(n), build_density_matrix(SuperpositionState.symmetric_cat(3.0, 0.6), grid=GridSpec(-9.0, 10.0, n))
    return DensityMatrixGrid(a.grid, values=0.5 * (a.values + b.values))


# a pure cat on 128 points, 2 x 64; a pure cat on an odd n; a pure cat on an
# n that is a multiple of neither 7 nor 64; a matrix given as values.  The
# block is also the height of the inverse's strips and of its shift's column
# blocks: at 7 and 64 the last strip of cat-odd-129 and cat-200 is partial,
# and at n + 1 one strip fills rho.
PAIR_STATES = {
    "cat-128": lambda: kicked_cat(128),
    "cat-odd-129": lambda: kicked_cat(129),
    "cat-200": lambda: kicked_cat(200),
    "values-144": lambda: mixed_values(144),
}


@pytest.mark.parametrize("name", PAIR_STATES)
def test_pooled_pair_keeps_the_serial_bytes(monkeypatch, name):
    rho = PAIR_STATES[name]()
    n = rho.grid.n_points
    w_serial = serial_transform(rho)
    wigner = WignerGrid(rho.grid.q.copy(), wigner_transform(rho).p, w_serial, rho.hbar)
    back_serial = serial_inverse(wigner)
    for workers in (1, 2, 3):
        for block in (1, 7, 64, n + 1):
            with monkeypatch.context() as mp:
                mp.setattr(_pool, "WORKERS", workers)
                mp.setattr(states, "_ROW_BLOCK", block)
                w = wigner_transform(rho)
                back = inverse_wigner(w)
            assert w.values.tobytes() == w_serial.tobytes(), (workers, block)
            assert back.values.tobytes() == back_serial.tobytes(), (workers, block)


def test_wigner_mass_is_the_trapezoid_rule():
    # on a non-uniform (q, p) grid the weights give the nested trapezoid
    # integral; 1e-6 of mass away from 1 is the refusal threshold
    rng = np.random.default_rng(5)
    q, p = np.sort(rng.random(40)), np.sort(rng.random(33))
    v = rng.random((40, 33))
    v /= np.trapezoid(np.trapezoid(v, p, axis=1), q)
    for factor in (1.0 - 9e-7, 1.0, 1.0 + 9e-7):
        WignerGrid(q, p, v * factor)
    for factor in (1.0 - 1.1e-6, 1.0 + 1.1e-6):
        with pytest.raises(ValueError, match="Wigner mass"):
            WignerGrid(q, p, v * factor)


# tracemalloc peaks of each transform on the held n = 1024 cat below, in
# bytes, measured with numpy 2.4.6 on a 2-core Xeon: 33,647,216 forward
# and 33,719,984 inverse on whole arrays (32.1 and 32.2 MiB), and 18,136,352
# and 33,605,712 with the pooled stages (a few hundred bytes vary from run
# to run).  The forward held the gathered lattice, W and one FFT block per
# worker; the inverse peaks where the padded FFT buffer and rho are held.
# Its strips write rho by copies and one contiguous conjugate each, which
# need no iterator buffer, and hold no buffer of their own, so that peak
# does not grow with the worker count (33,606,872 with a pool of 4).
FORWARD_PEAK = 33_647_216
INVERSE_PEAK = 33_719_984
# With the lag products formed per block, the forward holds W (8 MiB) and,
# a worker, one block of them (64 x 513 complex), its FFT (64 x 1024 floats)
# and the FFT's scratch: 9,645,115 bytes at one worker and 10,888,035 at
# two (1.26 MB a worker), against 17,452,928 and 18,136,688 with the whole
# gathered lattice.  The padded psi and the grids take the fixed part.
FORWARD_FIXED = 64 * 1024
FORWARD_PER_WORKER = 1280 * 1024


def test_pair_peak_memory_is_no_higher_than_on_whole_arrays():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(30.0, 0.5))
    assert rho.grid.n_points == 1024
    w = wigner_transform(rho)
    inverse_wigner(w)
    for transform, arg, bound in ((wigner_transform, rho, FORWARD_PEAK), (inverse_wigner, w, INVERSE_PEAK)):
        tracemalloc.start()
        try:
            out = transform(arg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del out
        assert peak <= bound, (transform.__name__, peak)


@pytest.mark.parametrize("workers", [1, 2])
def test_forward_holds_one_block_of_lag_products_a_worker(monkeypatch, workers):
    rho = build_density_matrix(SuperpositionState.symmetric_cat(30.0, 0.5))
    assert rho.grid.n_points == 1024
    # a pool of exactly this many threads, whatever an earlier test built
    monkeypatch.setattr(_pool, "WORKERS", workers)
    monkeypatch.setattr(_pool, "_pool", None)
    monkeypatch.setattr(_pool, "_pool_pid", None)
    try:
        wigner_transform(rho)
        tracemalloc.start()
        try:
            out = wigner_transform(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    finally:
        if _pool._pool is not None:
            _pool._pool.shutdown()
    assert peak <= out.values.nbytes + FORWARD_FIXED + workers * FORWARD_PER_WORKER, peak

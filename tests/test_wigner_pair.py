"""The Wigner pair against its pre-change implementation.

``wigner_transform`` gathers the even-offset antidiagonals of rho with one
vectorized index gather, and ``inverse_wigner`` restores the odd Q1+Q2
sublattice by a half-sample spectral shift on the n x n lattice.  The
reference below is the earlier path, kept as it was: a per-column gather
loop and a 2n x 2n zero-padded upsample read at its odd-odd nodes.  For even
n both paths evaluate the same trigonometric interpolant, so the gather and
the even sublattice must agree byte for byte and the odd sublattice to
rounding.  For odd n the reference is wrong (its padding shifts the
spectrum by one bin), so only the invariants are checked there.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from decodyn.states import (
    GaussianPacket,
    GridSpec,
    SuperpositionState,
    _sublattice,
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


@given(even_n.flatmap(cat_states))
def test_pair_matches_reference_on_even_grids(rho):
    n = rho.grid.n_points
    w = wigner_transform(rho)
    assert w.values.tobytes() == reference_transform(rho).tobytes()
    back = inverse_wigner(w).values
    ref = reference_inverse(w)
    even = (np.add.outer(np.arange(n), np.arange(n)) % 2) == 0
    assert back[even].tobytes() == ref[even].tobytes()
    assert np.max(np.abs(back[~even] - ref[~even])) <= 1e-14 * np.max(np.abs(rho.values))


@given(any_n.flatmap(cat_states))
def test_pair_invariants_on_any_grid(rho):
    w = wigner_transform(rho)
    assert w.values.tobytes() == reference_transform(rho).tobytes()
    back = inverse_wigner(w).values
    assert np.array_equal(back, back.conj().T)
    assert np.max(np.abs(back - rho.values)) < 1e-10
    assert abs(purity(rho) - wigner_purity(w)) < 1e-6


def test_sublattices_cover_every_cell_once():
    for n in (16, 17, 64, 127):
        cells = []
        for odd in (0, 1):
            lattice, matrix = _sublattice(n, odd)
            assert np.unique(lattice).size == lattice.size
            i, j = np.divmod(lattice, n)
            i1, i2 = np.divmod(matrix, n)
            # lattice (i, j) holds rho[i+k+odd, i-k], k = j - n//2
            k = j - n // 2
            assert np.array_equal(i1, i + k + odd) and np.array_equal(i2, i - k)
            assert np.all((i1 + i2) % 2 == odd)
            cells.append(matrix)
        assert np.array_equal(np.sort(np.concatenate(cells)), np.arange(n * n))

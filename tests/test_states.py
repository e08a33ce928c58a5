import numpy as np
import pytest

from decodyn.states import (
    DensityMatrixGrid,
    GaussianPacket,
    GridCoverageError,
    GridSpec,
    SuperpositionState,
    WignerGrid,
    build_density_matrix,
    inverse_wigner,
    position_variance,
    purity,
    wigner_purity,
    wigner_transform,
)


def cat_overlap(separation, sigma):
    return np.exp(-(separation**2) / (8 * sigma**2))


def test_grid_and_packet_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 64)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        GaussianPacket(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        SuperpositionState(packets=())


def test_coverage_error_reports_required_bounds():
    state = SuperpositionState.symmetric_cat(8.0, 0.5)
    with pytest.raises(GridCoverageError, match=r"\[-8.0, 8.0\]"):
        build_density_matrix(state, grid=GridSpec(-6.0, 6.0, 128))


def test_single_packet_peak_value():
    sigma = 1 / np.sqrt(2)
    grid = GridSpec(-9.0, 9.0, 513)  # odd count puts Q = 0 on the grid
    rho = build_density_matrix(SuperpositionState.single(sigma), grid=grid)
    assert rho.values[256, 256].real == pytest.approx(1 / np.sqrt(np.pi), rel=1e-10)


def test_trace_and_purity_are_one():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.4))
    assert rho.grid.n_points == 512
    assert rho.trace() == pytest.approx(1.0, abs=1e-8)
    assert purity(rho) == pytest.approx(1.0, abs=1e-8)


def test_cat_has_coherence_block():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.3))
    q = rho.grid.q
    ia = np.argmin(np.abs(q + 3.0))
    ib = np.argmin(np.abs(q - 3.0))
    assert abs(rho.values[ia, ib]) > 0.5 * abs(rho.values[ia, ia])


def test_single_gaussian_variance():
    for sigma in (0.3, 1.0, 2.5):
        rho = build_density_matrix(SuperpositionState.single(sigma))
        assert position_variance(rho) == pytest.approx(sigma**2, abs=1e-8 * sigma**2)


@pytest.mark.parametrize("sep,sigma", [(8.0, 0.4), (2.0, 0.5), (5.0, 0.25)])
def test_cat_variance_matches_two_gaussian_moments(sep, sigma):
    # closed-form oracle: var = sigma^2 + (sep^2/4) / (1 + overlap)
    s = cat_overlap(sep, sigma)
    expected = sigma**2 + (sep**2 / 4) / (1 + s)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sigma))
    assert position_variance(rho) == pytest.approx(expected, rel=1e-8)


def test_density_matrix_invariants_enforced():
    grid = GridSpec(-5.0, 5.0, 64)
    good = build_density_matrix(SuperpositionState.single(0.5), grid=GridSpec(-8.0, 8.0, 256))
    bad = good.values[:64, :64].copy()
    with pytest.raises(ValueError, match="trace"):
        DensityMatrixGrid(grid=grid, values=bad)
    skew = good.values.copy()
    skew[3, 5] += 1e-3
    with pytest.raises(ValueError, match="Hermitian"):
        DensityMatrixGrid(grid=good.grid, values=skew)


def test_density_matrix_refuses_nan_off_diagonal_values():
    # max(nan, 1.0) is nan, so a test of herm > tol * scale passed such a matrix
    rho = build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5), grid=GridSpec(-8.0, 8.0, 64))
    values = rho.values.copy()
    values[3, 5] = values[5, 3] = np.nan
    with pytest.raises(ValueError, match="^values: density matrix not Hermitian"):
        DensityMatrixGrid(grid=rho.grid, values=values)


def test_pure_state_keeps_its_factor():
    grid = GridSpec(-8.0, 8.0, 256)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.5), grid=grid)
    psi = rho.psi
    assert psi.shape == (256,)
    assert "values" not in vars(rho)
    assert rho.values.tobytes() == np.outer(psi, psi.conj()).tobytes()
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    for bad, match in ((psi[:-1], "entries"), (2.0 * psi, "trace"), (np.where(np.arange(256) == 9, np.nan, psi), "trace")):
        with pytest.raises(ValueError, match=match):
            DensityMatrixGrid(grid=grid, psi=bad)
    with pytest.raises(ValueError, match="exactly one"):
        DensityMatrixGrid(grid=grid, values=rho.values, psi=psi)


def test_pure_diagonal_reads_psi_alone():
    for state in (SuperpositionState.symmetric_cat(6.0, 0.5), SuperpositionState.single(0.7, 0.4, 1.3)):
        rho = build_density_matrix(state)
        tr, var = rho.trace(), position_variance(rho)
        assert "values" not in vars(rho)
        dense = DensityMatrixGrid(grid=rho.grid, values=np.outer(rho.psi, rho.psi.conj()), hbar=rho.hbar)
        assert tr == dense.trace()
        assert var == position_variance(dense)


def test_wigner_peak_of_ground_state():
    for hbar in (1.0, 2.0):
        sigma = np.sqrt(hbar / 2)
        grid = GridSpec(-12.0 * sigma, 12.0 * sigma, 513)
        rho = build_density_matrix(SuperpositionState.single(sigma), grid=grid, hbar=hbar)
        w = wigner_transform(rho)
        i0 = np.argmin(np.abs(w.q))
        j0 = np.argmin(np.abs(w.p))
        assert w.values[i0, j0] == pytest.approx(1 / (np.pi * hbar), rel=1e-10)


def test_wigner_roundtrip_identity():
    for state in (
        SuperpositionState.single(0.7),
        SuperpositionState.symmetric_cat(8.0, 0.4),
        SuperpositionState.symmetric_cat(8.0, 0.1),
    ):
        rho = build_density_matrix(state)
        back = inverse_wigner(wigner_transform(rho))
        assert np.max(np.abs(back.values - rho.values)) < 1e-10


def test_wigner_mass_and_purity_identity():
    for state in (SuperpositionState.single(0.7), SuperpositionState.symmetric_cat(8.0, 0.4)):
        rho = build_density_matrix(state)
        w = wigner_transform(rho)
        mass = np.trapezoid(np.trapezoid(w.values, w.p, axis=1), w.q)
        assert mass == pytest.approx(1.0, abs=1e-6)
        assert wigner_purity(w) == pytest.approx(purity(rho), abs=1e-6)


def test_cat_wigner_midpoint_fringe():
    sep, sigma = 8.0, 0.4
    rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sigma))
    w = wigner_transform(rho)
    i0 = np.argmin(np.abs(w.q))
    j = np.argmin(np.abs(w.p - np.pi / sep))  # first dark fringe
    qb, p = w.q[i0], w.p[j]
    s = cat_overlap(sep, sigma)
    # interference term of the two-packet Wigner function at (qb, p)
    expected = (
        np.cos(p * sep)
        * np.exp(-2 * sigma**2 * p**2)
        * np.exp(-(qb**2) / (2 * sigma**2))
        / (np.pi * (1 + s))
    )
    assert w.values[i0, j] == pytest.approx(expected, rel=1e-6)
    assert w.values[i0, j] < -0.1 * w.values.max()


def test_wigner_transform_matches_direct_sum():
    # independent slow evaluation of the same transform on a coarse grid
    rho = build_density_matrix(SuperpositionState.single(0.8), grid=GridSpec(-10.0, 10.0, 64))
    w = wigner_transform(rho)
    n, h = 64, rho.grid.spacing
    k = np.arange(n) - n // 2
    direct = np.zeros((n, n))
    for i in range(n):
        for li in range(n):
            acc = 0.0j
            for kk in k:
                if 0 <= i + kk < n and 0 <= i - kk < n:
                    acc += rho.values[i + kk, i - kk] * np.exp(-2j * h * kk * w.p[li])
            direct[i, li] = (acc * h / np.pi).real
    np.testing.assert_allclose(w.values, direct, atol=1e-12)


def test_incompatible_grids_rejected():
    rho = build_density_matrix(SuperpositionState.single(0.7))
    w = wigner_transform(rho)
    import dataclasses

    stretched = dataclasses.replace(w, p=w.p * 1.5, values=w.values / 1.5)
    with pytest.raises(ValueError, match="conjugate"):
        inverse_wigner(stretched)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_wigner_grid_refuses_a_non_finite_entry(bad):
    w = wigner_transform(build_density_matrix(SuperpositionState.single(0.7)))
    values = w.values.copy()
    values[w.q.size // 2, 3] = bad
    with pytest.raises(ValueError, match="Wigner mass"):
        WignerGrid(w.q, w.p, values, w.hbar)
    with pytest.raises(ValueError, match="Wigner mass nan"):
        WignerGrid(np.arange(16.0), np.arange(16.0), np.full((16, 16), np.nan))


def test_inverse_refuses_a_non_finite_wigner_by_its_trace():
    # the inverse checks only the trace of its output; a NaN anywhere in W
    # reaches the diagonal through its row's FFT
    w = wigner_transform(build_density_matrix(SuperpositionState.single(0.7)))
    for cell in ((0, 0), (w.q.size // 2, w.p.size - 1), (w.q.size - 1, 7)):
        values = w.values.copy()
        values[cell] = np.nan
        object.__setattr__(w, "values", values)
        with pytest.raises(ValueError, match="trace nan"):
            inverse_wigner(w)


def test_purity_converges_under_grid_refinement():
    state = SuperpositionState.symmetric_cat(6.0, 0.4)
    coarse = build_density_matrix(state, grid=GridSpec(-10.0, 10.0, 512))
    fine = build_density_matrix(state, grid=GridSpec(-10.0, 10.0, 1024))
    assert abs(purity(coarse) - purity(fine)) < 1e-8


def test_complex_amplitudes_and_momentum():
    packets = (
        GaussianPacket(-2.0, 0.6, 0.5, amplitude=1.0),
        GaussianPacket(2.0, -0.6, 0.5, amplitude=0.8j),
    )
    rho = build_density_matrix(SuperpositionState(packets=packets))
    assert rho.trace() == pytest.approx(1.0, abs=1e-8)
    assert purity(rho) == pytest.approx(1.0, abs=1e-8)
    back = inverse_wigner(wigner_transform(rho))
    assert np.max(np.abs(back.values - rho.values)) < 1e-10


@pytest.mark.parametrize("n", [127, 129, 255])
def test_wigner_roundtrip_odd_grid(n):
    # an odd point count has no Nyquist bin and puts n//2 off the lattice centre
    packets = (
        GaussianPacket(-2.0, 0.7, 0.5, amplitude=1.0),
        GaussianPacket(2.0, -0.7, 0.5, amplitude=0.6 + 0.8j),
    )
    rho = build_density_matrix(SuperpositionState(packets=packets), grid=GridSpec(-9.0, 9.0, n))
    back = inverse_wigner(wigner_transform(rho))
    assert np.max(np.abs(back.values - rho.values)) < 1e-10

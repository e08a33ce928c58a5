"""The support-field entropy and rates against the dense full-grid quadrature.

``DensityMatrixGrid.support()`` pairs each cell above the diagonal with its
mirror image and drops pairs below 1e-17/n^2 of weight, so ``S(t)`` may move
by at most 1e-17 against the quadrature over every n x n cell.  The reference
below is that dense quadrature, kept as it was before the support field.  A
pure state is paired from its 1-D support; the same matrix given as
``values`` takes the n x n path, and both must agree.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn.bath import BathMode, BathSpec, b2, discretize_ohmic, thermal_strength
from decodyn.model import (
    LinearCoupling,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from decodyn.rates import rate_pair
from decodyn.states import DensityMatrixGrid, GaussianPacket, GridSpec, SuperpositionState, build_density_matrix
from decodyn.cli import PRESETS, parse_config, preset_config
from decodyn.strongdec import compute_series, entropy_series, support_field

SINGLE = BathSpec(modes=(BathMode(1.0, 1.0, 1.0),))
OHMIC = discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0)
SIDES = ("classical", "quantum")


def dense_fields(rho0, f, side):
    q = rho0.grid.q
    h = rho0.grid.spacing
    q1 = q[:, None]
    q2 = q[None, :]
    dq = q1 - q2
    qbar = 0.5 * (q1 + q2)
    g = f.slope(qbar) if side == "classical" else f.finite_difference(qbar, dq)
    w = h * h * np.abs(rho0.values) ** 2
    x = 2.0 * dq**2 * g**2
    return w.ravel(), x.ravel()


def dense_entropy(rho0, ts, f, bath, side):
    w, x = dense_fields(rho0, f, side)
    defect = float(np.sum(w)) - 1.0
    return np.array([-float(np.sum(w * np.expm1(-x * b))) - defect for b in np.atleast_1d(b2(bath, ts))])


def dense_rate(rho0, f, cb, hbar, side):
    w, x = dense_fields(rho0, f, side)
    return cb / (2.0 * hbar) * float(np.sum(w * x))


@st.composite
def cat_states(draw):
    """A two-packet cat, possibly kicked and with a relative phase, on a
    grid of at most 256 points covering every packet +- 10 sigma."""
    sep = draw(st.floats(1.0, 6.0))
    sigma = draw(st.floats(0.1, 0.25 * sep))
    kick = draw(st.floats(-2.0, 2.0))
    phase = draw(st.floats(0.0, 2.0 * math.pi))
    n = draw(st.integers(64, 256))
    state = SuperpositionState(
        packets=(
            GaussianPacket(-0.5 * sep, kick, sigma),
            GaussianPacket(0.5 * sep, -kick, sigma, amplitude=complex(math.cos(phase), math.sin(phase))),
        )
    )
    reach = 0.5 * sep + 10.0 * sigma
    return build_density_matrix(state, grid=GridSpec(-reach, reach, n))


couplings = st.one_of(
    st.builds(LinearCoupling, st.floats(0.2, 2.0)),
    st.builds(QuadraticCoupling, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
    st.builds(
        lambda c1, c3: PolynomialCoupling((0.0, c1, 0.0, c3)),
        st.floats(-1.0, 1.0),
        st.floats(0.2, 1.0),
    ),
    st.builds(SinusoidalCoupling, st.floats(0.5, 2.0), st.floats(0.5, 6.0), st.floats(0.0, math.pi)),
)


def degree_at_most_two(f):
    return isinstance(f, (LinearCoupling, QuadraticCoupling))


@given(rho0=cat_states(), f=couplings, bath=st.sampled_from([SINGLE, OHMIC]), t_max=st.floats(0.5, 8.0))
def test_entropy_matches_dense_quadrature(rho0, f, bath, t_max):
    ts = np.linspace(0.0, t_max, 12)
    series = {side: entropy_series(rho0, ts, f, bath, side) for side in SIDES}
    for side, s in series.items():
        assert np.max(np.abs(s - dense_entropy(rho0, ts, f, bath, side))) <= 1e-14
        assert abs(s[0]) <= 1e-12
        assert np.all(s >= -1e-12)
        assert np.all(s < 1.0)
    if degree_at_most_two(f):
        assert series["classical"].tobytes() == series["quantum"].tobytes()
        run = compute_series(rho0, f, bath, ts, probe=(1.0, -1.0))
        assert run.s_c.tobytes() == run.s_q.tobytes()


@given(rho0=cat_states(), f=couplings, bath=st.sampled_from([SINGLE, OHMIC]))
def test_rates_match_dense_quadrature(rho0, f, bath):
    cb = thermal_strength(bath)
    pair = rate_pair(rho0, f, cb, bath.hbar)
    for side, rate in (("classical", pair.classical_rate), ("quantum", pair.quantum_rate)):
        assert rate == pytest.approx(dense_rate(rho0, f, cb, bath.hbar, side), rel=1e-12)
    if degree_at_most_two(f):
        assert pair.classical_rate == pair.quantum_rate


@given(rho0=cat_states(), f=couplings, bath=st.sampled_from([SINGLE, OHMIC]), t_max=st.floats(0.5, 8.0))
def test_pure_factor_matches_the_same_matrix(rho0, f, bath, t_max):
    dense = DensityMatrixGrid(grid=rho0.grid, values=rho0.values, hbar=rho0.hbar)
    assert rho0.psi is not None and dense.psi is None
    ts = np.linspace(0.0, t_max, 12)
    for side in SIDES:
        s = entropy_series(rho0, ts, f, bath, side)
        assert np.max(np.abs(s - entropy_series(dense, ts, f, bath, side))) <= 1e-14
    cb = thermal_strength(bath)
    pair, ref = rate_pair(rho0, f, cb, bath.hbar), rate_pair(dense, f, cb, bath.hbar)
    assert pair.classical_rate == pytest.approx(ref.classical_rate, rel=1e-12)
    assert pair.quantum_rate == pytest.approx(ref.quantum_rate, rel=1e-12)


# tables span [-20, 20], past the reach of every cat_states grid
TABLE_Q = np.linspace(-20.0, 20.0, 17)
tabulated = st.builds(
    lambda slope, bumps: TabulatedCoupling(TABLE_Q, slope * TABLE_Q + np.asarray(bumps)),
    st.floats(0.2, 1.0),
    st.lists(st.floats(-1.0, 1.0), min_size=TABLE_Q.size, max_size=TABLE_Q.size),
)


@given(rho0=cat_states(), f=st.one_of(couplings, tabulated))
def test_quantum_integral_is_four_variances(rho0, f):
    # for rho0 = psi psi^dagger, sum over pairs of 2 a_i a_j 2 (f_i - f_j)^2
    # with a = h |psi|^2 is 4 (sum a) sum a (f - mean)^2, centred on the
    # a-weighted mean
    a = rho0.grid.spacing * np.abs(rho0.psi) ** 2
    fq = f.eval(rho0.grid.q)
    mean = np.dot(a, fq) / np.sum(a)
    oracle = 4.0 * np.sum(a) * np.dot(a, (fq - mean) ** 2)
    w, x, _ = support_field(rho0, f, "quantum")
    assert float(np.dot(w, x)) == pytest.approx(oracle, rel=1e-12)


def test_mixed_state_pairs_without_assuming_purity():
    grid = GridSpec(-6.0, 6.0, 160)
    q = grid.q
    h = grid.spacing
    psis = []
    for center, kick, sigma in ((-1.5, 0.8, 0.4), (2.0, -0.3, 0.6)):
        psi = np.exp(-((q - center) ** 2) / (4.0 * sigma**2) + 1j * kick * q)
        psis.append(psi / math.sqrt(h * float(np.sum(np.abs(psi) ** 2))))
    values = 0.7 * np.outer(psis[0], psis[0].conj()) + 0.3 * np.outer(psis[1], psis[1].conj())
    rho0 = DensityMatrixGrid(grid=grid, values=values)
    ts = np.linspace(0.0, 6.0, 20)
    for f in (PolynomialCoupling((0.0, 0.5, 0.0, 1.0)), SinusoidalCoupling(1.0, 2.5, 0.3)):
        pair = rate_pair(rho0, f, 0.5, 1.0)
        assert pair.classical_rate == pytest.approx(dense_rate(rho0, f, 0.5, 1.0, "classical"), rel=1e-12)
        assert pair.quantum_rate == pytest.approx(dense_rate(rho0, f, 0.5, 1.0, "quantum"), rel=1e-12)
        for bath in (SINGLE, OHMIC):
            for side in SIDES:
                s = entropy_series(rho0, ts, f, bath, side)
                assert np.max(np.abs(s - dense_entropy(rho0, ts, f, bath, side))) <= 1e-14
                # S(0) = 1 - Tr rho^2, about 1 - 0.7^2 - 0.3^2 for two nearly orthogonal packets
                assert s[0] == pytest.approx(1.0 - 0.7**2 - 0.3**2, abs=1e-3)


def test_support_field_drops_the_empty_grid():
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.2))
    n = rho0.grid.n_points
    w, x, defect = support_field(rho0, PolynomialCoupling((0.0, 0.0, 0.0, 1.0)), "quantum")
    assert w.size == x.size < 0.5 * n * (n - 1)
    assert abs(defect) < 1e-12


# the pure pairing weighs 2 a_i a_j and the dense one |rho_ij|^2 + |rho_ji|^2,
# rounded apart; the worst relative gap over these states is 7.4e-16
PAIR_WEIGHT_REL = 1e-14


def preset_states():
    for name in PRESETS:
        scn = parse_config(preset_config(name))
        yield build_density_matrix(scn.state, grid=scn.grid, hbar=scn.model.hbar)
        if scn.scan is not None and scn.scan["kind"] == "separation":
            for sep in scn.scan["separations"]:
                cat = SuperpositionState.symmetric_cat(sep, scn.scan["sigma"])
                yield build_density_matrix(cat, hbar=scn.bath.hbar)


def test_pure_and_dense_support_pair_the_same_cells():
    for rho0 in preset_states():
        dense = DensityMatrixGrid(grid=rho0.grid, values=rho0.values, hbar=rho0.hbar)
        dq, qbar, w, _ = rho0.support()
        dq_d, qbar_d, w_d, _ = dense.support()
        assert w.size == w_d.size
        assert dq.tobytes() == dq_d.tobytes()
        assert qbar.tobytes() == qbar_d.tobytes()
        assert np.max(np.abs(w - w_d) / w_d) <= PAIR_WEIGHT_REL

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn import cli
from decodyn.bath import BathSpec, b2_dot, discretize_ohmic, thermal_strength
from decodyn.model import (
    LinearCoupling,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from decodyn.oracle import short_time_fit
from decodyn.rates import rate_pair
from decodyn.states import SuperpositionState, build_density_matrix
from decodyn.strongdec import (
    classical_factor,
    compute_series,
    entropy_series,
    gamma,
    quantum_factor,
)

SINGLE = BathSpec([1.0], [1.0], [1.0])
OHMIC = discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0)
CUBIC = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))


def test_factor_at_time_zero():
    fac = classical_factor(1.0, -2.0, 0.0, CUBIC, OHMIC)
    assert fac.log_modulus == 0.0
    assert fac.phase == 0.0
    assert fac.value == 1.0


def test_single_mode_closed_factor():
    # Qbar = 1, dQ = 2, t = pi: b1 = pi, b2 = 1
    fac = classical_factor(2.0, 0.0, math.pi, LinearCoupling(1.0), SINGLE)
    assert fac.phase == pytest.approx(2 * math.pi, rel=1e-14)
    assert fac.log_modulus == pytest.approx(-4.0, rel=1e-14)


def test_cubic_cat_classical_factor_is_frozen():
    for t in (0.3, 1.0, 2.5):
        fac = classical_factor(2.0, -2.0, t, CUBIC, SINGLE)
        assert fac.log_modulus == 0.0
        assert fac.phase == 0.0


def test_cubic_quantum_factor_decays():
    fac = quantum_factor(1.0, -1.0, math.pi, CUBIC, SINGLE)
    # finite difference of Q^3 across the origin with dQ = 2 is 1; b2(pi) = 1
    assert fac.log_modulus == pytest.approx(-4.0, rel=1e-14)


def test_quadratic_coupling_factors_agree_everywhere():
    f = QuadraticCoupling(1.0, 0.3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        q1, q2 = rng.uniform(-4, 4, size=2)
        t = rng.uniform(0.0, 8.0)
        fc = classical_factor(q1, q2, t, f, OHMIC)
        fq = quantum_factor(q1, q2, t, f, OHMIC)
        assert fc.log_modulus == pytest.approx(fq.log_modulus, abs=1e-12)
        assert fc.phase == pytest.approx(fq.phase, abs=1e-12)


def test_factor_hermitian_symmetry():
    f = SinusoidalCoupling(1.0, 3.0, 0.4)
    a = quantum_factor(1.2, -0.7, 2.0, f, OHMIC)
    b = quantum_factor(-0.7, 1.2, 2.0, f, OHMIC)
    assert a.log_modulus == b.log_modulus
    assert a.phase == -b.phase


COEFFICIENT = st.floats(-10.0, 10.0)
ANY_COUPLING = st.one_of(
    st.builds(lambda c: PolynomialCoupling(tuple(c)), st.lists(COEFFICIENT, min_size=1, max_size=6)),
    st.builds(SinusoidalCoupling, COEFFICIENT, st.floats(0.1, 10.0), st.floats(-math.pi, math.pi)),
    st.builds(
        lambda v: TabulatedCoupling(tuple(np.linspace(-10.0, 10.0, len(v))), tuple(v)),
        st.lists(COEFFICIENT, min_size=4, max_size=12),
    ),
)


@given(
    f=ANY_COUPLING,
    q=st.floats(-10.0, 10.0),
    t=st.floats(0.0, 1e300),
    bath=st.sampled_from([SINGLE, OHMIC]),
)
def test_diagonal_is_untouched(f, q, t, bath):
    # the weight carries (Q1-Q2)^2, so the diagonal keeps its t = 0 value on
    # both sides and the trace is conserved exactly
    for side, factor in (("classical", classical_factor), ("quantum", quantum_factor)):
        fac = factor(q, q, t, f, bath)
        assert fac.log_modulus == 0.0
        assert fac.phase == 0.0
        assert gamma(q, q, t, f, bath, side) == 0.0
DEGREE_TWO = st.one_of(
    st.builds(LinearCoupling, COEFFICIENT),
    st.builds(QuadraticCoupling, COEFFICIENT, COEFFICIENT),
    # trailing zeros keep the degree at 2 or below
    st.builds(
        lambda c, zeros: PolynomialCoupling(tuple(c) + (0.0,) * zeros),
        st.lists(COEFFICIENT, min_size=1, max_size=3),
        st.integers(0, 2),
    ),
)


@given(
    f=DEGREE_TWO,
    q1=st.floats(-10.0, 10.0),
    q2=st.floats(-10.0, 10.0),
    t=st.floats(0.0, 20.0),
    bath=st.sampled_from([SINGLE, OHMIC]),
)
def test_classical_equals_quantum_for_degree_two(f, q1, q2, t, bath):
    assert classical_factor(q1, q2, t, f, bath) == quantum_factor(q1, q2, t, f, bath)
    assert gamma(q1, q2, t, f, bath, "classical") == gamma(q1, q2, t, f, bath, "quantum")


def test_entropy_zero_at_t0_and_recurrence():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.4))
    f = LinearCoupling(1.0)
    s0, s_recur, s_half = entropy_series(rho, [0.0, 2 * math.pi, math.pi], f, SINGLE, "quantum")
    assert s0 == pytest.approx(0.0, abs=1e-12)
    assert s_recur == pytest.approx(0.0, abs=1e-12)
    assert s_half > 0.3


def test_entropy_bounds_and_monotonicity():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.4))
    ts = np.linspace(0.0, math.pi / 5.0, 40)  # b2 rising on this window
    for side in ("classical", "quantum"):
        s = entropy_series(rho, ts, LinearCoupling(1.0), OHMIC, side)
        assert np.all(s >= -1e-12)
        assert np.all(s < 1.0)
        assert np.all(np.diff(s) >= -1e-12)


def test_entropy_sides_agree_for_quadratic():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.4))
    ts = np.linspace(0.0, 10.0, 50)
    f = QuadraticCoupling(1.0, 0.3)
    sc = entropy_series(rho, ts, f, OHMIC, "classical")
    sq = entropy_series(rho, ts, f, OHMIC, "quantum")
    assert np.max(np.abs(sc - sq)) < 1e-10


def test_classical_entropy_dominates_for_bounded_coupling():
    # wavelength well under the separation: classical decay is faster
    f = SinusoidalCoupling(1.0, 1.0, 0.3)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.5))
    ts = np.linspace(0.1, 3.0, 15)
    sc = entropy_series(rho, ts, f, OHMIC, "classical")
    sq = entropy_series(rho, ts, f, OHMIC, "quantum")
    assert np.all(sc >= sq - 1e-12)


def test_gamma_values_and_zero_at_origin():
    g = gamma(2.0, 0.0, math.pi / 2, LinearCoupling(1.0), SINGLE, "classical")
    assert g == pytest.approx(-2.0, rel=1e-14)
    assert gamma(2.0, 0.0, 0.0, LinearCoupling(1.0), SINGLE, "quantum") == 0.0


def test_gamma_matches_numeric_log_modulus_derivative():
    f = SinusoidalCoupling(1.0, 3.0, 0.2)
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(10):
        q1, q2 = rng.uniform(-3, 3, size=2)
        t = rng.uniform(0.1, 6.0)
        for side, factor in (("classical", classical_factor), ("quantum", quantum_factor)):
            num = (factor(q1, q2, t + eps, f, OHMIC).log_modulus
                   - factor(q1, q2, t - eps, f, OHMIC).log_modulus) / (2 * eps)
            assert gamma(q1, q2, t, f, OHMIC, side) == pytest.approx(num, abs=1e-6)


def test_gamma_sign_follows_b2_dot():
    ts = np.linspace(0.01, math.pi / 5, 30)
    assert np.all(np.asarray(b2_dot(OHMIC, ts)) >= 0)
    g = gamma(2.0, -2.0, ts, CUBIC, OHMIC, "quantum")
    assert np.all(g <= 0)


def test_bounded_coupling_gamma_ratio_grows_with_separation():
    f = SinusoidalCoupling(1.0, 2 * math.pi, 0.0)  # sin(Q)
    qbar = 0.3
    t = 1.0
    ratios = []
    for dq in (10.7, 107.0, 1070.0):
        gc = gamma(qbar + dq / 2, qbar - dq / 2, t, f, OHMIC, "classical")
        gq = gamma(qbar + dq / 2, qbar - dq / 2, t, f, OHMIC, "quantum")
        ratios.append(abs(gc / gq))
    assert ratios[0] < ratios[1] < ratios[2]
    # and the ratio does not involve hbar
    import dataclasses

    scaled = dataclasses.replace(OHMIC, hbar=100.0)
    gc = gamma(0.3 + 5.35, 0.3 - 5.35, t, f, scaled, "classical")
    gq = gamma(0.3 + 5.35, 0.3 - 5.35, t, f, scaled, "quantum")
    assert abs(gc / gq) == pytest.approx(ratios[0], rel=1e-12)


def test_series_structure_and_linear_equality():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.4))
    ts = np.linspace(0.0, 10.0, 60)
    series = compute_series(rho, LinearCoupling(1.0), OHMIC, ts, probe=(-4.0, 4.0))
    assert series.times.shape == (60,)
    assert len(list(series.rows())) == 60
    assert np.max(np.abs(series.gamma_c - series.gamma_q)) < 1e-12
    assert np.max(np.abs(series.s_c - series.s_q)) < 1e-10
    assert series.probe == (-4.0, 4.0)


@pytest.mark.parametrize(
    "f,state_sigma",
    [
        (LinearCoupling(1.0), 0.4),
        (QuadraticCoupling(1.0, 0.3), 0.4),
        (PolynomialCoupling((0.0, 0.0, 0.0, 1.0)), 0.2),
        (SinusoidalCoupling(1.0, 8.0, math.pi / 4), 0.1),
    ],
)
def test_short_time_entropy_reproduces_perturbative_rates(f, state_sigma):
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, state_sigma))
    cb = thermal_strength(OHMIC)
    t_bath = 1.0 / 5.0  # inverse of the largest bath frequency
    # window far below the quartic crossover; the cubic coupling has decay
    # exponents ~3e4 per unit b2, so 0.01*t_bath would already bias the fit
    window = 1e-4 * t_bath
    ts = np.linspace(0.0, window, 17)
    pair = rate_pair(rho, f, cb, OHMIC.hbar)
    c1, c2 = short_time_fit(ts, entropy_series(rho, ts, f, OHMIC, "quantum"), window)
    expected = pair.quantum_rate
    assert c2 == pytest.approx(expected, rel=1e-4)
    assert abs(c1) < 1e-3 * abs(c2) * window
    c1c, c2c = short_time_fit(ts, entropy_series(rho, ts, f, OHMIC, "classical"), window)
    assert c2c == pytest.approx(pair.classical_rate, rel=1e-4)


def test_entropy_series_scalar_and_array_forms():
    rho = build_density_matrix(SuperpositionState.single(0.5))
    f = LinearCoupling(1.0)
    arr = entropy_series(rho, [0.0, 1.0], f, SINGLE, "quantum")
    assert arr.shape == (2,)
    assert entropy_series(rho, 1.0, f, SINGLE, "quantum")[0] == pytest.approx(arr[1], rel=1e-14)
    with pytest.raises(ValueError):
        entropy_series(rho, [0.0, 1.0], f, SINGLE, "both")


@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_series_columns_equal_the_point_functions(name):
    # every probe column is, bit for bit, the point function at that time
    scn = cli.parse_config(cli.preset_config(name))
    probe = scn.probe
    rho0 = build_density_matrix(scn.state, grid=scn.grid, hbar=scn.model.hbar)
    series = compute_series(rho0, scn.coupling, scn.bath, scn.times, probe)
    args = (scn.coupling, scn.bath)
    for c, side, factor in (("c", "classical", classical_factor), ("q", "quantum", quantum_factor)):
        points = [factor(*probe, t, *args) for t in scn.times]
        expected = {
            "logmod": [p.log_modulus for p in points],
            "phase": [p.phase for p in points],
            "gamma": [gamma(*probe, t, *args, side) for t in scn.times],
        }
        for column, values in expected.items():
            assert getattr(series, f"{column}_{c}").tobytes() == np.array(values).tobytes(), f"{column}_{c}"


def test_series_refuse_the_first_time_at_which_a_kernel_overflows():
    # omega t = 1e310 overflows, so sin and cos give NaN: once both series
    # wrote NaN columns there with no error.  The suite turns warnings into
    # errors and the run raises on overflow; neither may preempt the refusal.
    bath = BathSpec([1.0], [1e300], [1e150])
    rho = build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5))
    times = [0.0, 1e-300, 1e10, 1e20]
    message = r"^times: the {} kernel is not finite at t = 10000000000\.0$"
    for errstate in ({}, {"over": "raise", "invalid": "raise"}):
        with np.errstate(**errstate):
            with pytest.raises(ValueError, match=message.format("b1")):
                compute_series(rho, CUBIC, bath, times, (1.0, -1.0))
            for side in ("classical", "quantum"):
                with pytest.raises(ValueError, match=message.format("b2")):
                    entropy_series(rho, times, CUBIC, bath, side)
    # the times before it are finite and give the same series as before
    series = compute_series(rho, CUBIC, bath, times[:2], (1.0, -1.0))
    assert np.all(np.isfinite(series.b1)) and np.all(np.isfinite(series.s_c))

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn.bath import BathSpec, b2
from decodyn.model import (
    CouplingFunction,
    LinearCoupling,
    ModelConfig,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from decodyn.states import SuperpositionState, build_density_matrix
from decodyn.strongdec import _coefficients, classical_factor, quantum_factor, support_field


def test_model_config_validation():
    assert math.isinf(ModelConfig().beta)  # zero temperature by default
    with pytest.raises(ValueError):
        ModelConfig(hbar=0.0)
    with pytest.raises(ValueError):
        ModelConfig(beta=-1.0)


def test_eval_examples():
    assert LinearCoupling(1.0).eval(3.0) == 3.0
    got = SinusoidalCoupling(1.0, 4.0, np.pi / 4).eval(2.0)
    assert abs(got - np.sin(np.pi + np.pi / 4)) < 1e-15
    assert abs(got + np.sqrt(2) / 2) < 1e-15
    assert PolynomialCoupling((0.0, 0.0, 0.0, 1.0)).eval(-1.0) == -1.0


def test_slope_examples():
    cubic = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))
    assert cubic.slope(0.0) == 0.0
    assert QuadraticCoupling(0.0, 1.0).slope(1.5) == 3.0
    sin = SinusoidalCoupling(1.0, 5.0, 0.7)
    assert abs(sin.slope(0.0) - (2 * np.pi / 5.0) * np.cos(0.7)) < 1e-15


def test_finite_difference_cubic_gap():
    # f = Q^3 at (1, -1): r = f(1) - f(-1) = 2 on the quantum side, and
    # (Q1 - Q2) f'(0) = 0 on the classical side
    cubic = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))
    assert _coefficients(1.0, -1.0, cubic, "quantum") == (4.0, 0.0)
    assert _coefficients(1.0, -1.0, cubic, "classical") == (0.0, 0.0)
    bath = BathSpec([1.0], [1.0], [1.0])
    assert quantum_factor(1.0, -1.0, 1.0, cubic, bath).log_modulus == -4.0 * b2(bath, 1.0)
    assert classical_factor(1.0, -1.0, 1.0, cubic, bath).log_modulus == 0.0


def test_finite_difference_quadratic_identity():
    # the identity quotient_is_slope rests on: at degree <= 2,
    # f(q1) - f(q2) = (q1 - q2) f'(qbar) for every pair
    f = QuadraticCoupling(1.3, -0.4)

    class Unknown(CouplingFunction):
        # the same f, not known to be a polynomial: its quantum r differences f
        def _values(self, q):
            return f._values(q)

    rng = np.random.default_rng(0)
    for _ in range(50):
        q1, q2 = rng.uniform(-10, 10, size=2)
        slope_r = math.sqrt(_coefficients(q1, q2, f, "quantum")[0])
        difference_r = math.sqrt(_coefficients(q1, q2, Unknown(), "quantum")[0])
        assert abs(difference_r - slope_r) <= 1e-13 * max(1.0, slope_r)


def test_finite_difference_matched_sinusoid_vanishes():
    # f(Q_a) = f(Q_b) when the wavelength equals the separation
    sep = 8.0
    f = SinusoidalCoupling(1.0, sep, np.pi / 4)
    decay, _ = _coefficients(0.5 * sep, -0.5 * sep, f, "quantum")
    assert math.sqrt(decay) < 1e-14


def test_finite_difference_zero_dq_returns_slope():
    # r = (Q1 - Q2) g: at Q1 == Q2 it is 0 on both sides, and at Q1 - Q2 = 1
    # the classical r is the slope f'(Qbar) itself
    f = SinusoidalCoupling(2.0, 3.0, 0.1)
    for side in ("classical", "quantum"):
        assert _coefficients(0.75, 0.75, f, side) == (0.0, 0.0)
    assert _coefficients(1.25, 0.25, f, "classical") == (f.slope(0.75) ** 2, f.eval(0.75) * f.slope(0.75))
    decay, drive = _coefficients(np.array([0.75, 1.25]), np.array([0.75, 0.25]), f, "classical")
    assert decay[0] == 0.0 and drive[0] == 0.0
    assert decay[1] == pytest.approx(f.slope(0.75) ** 2, rel=1e-15)


def test_finite_difference_converges_quadratically():
    f = SinusoidalCoupling(1.0, 3.0, 0.3)
    qbar = 0.9
    errs = []
    for d in (0.1, 0.05, 0.025):
        q1, q2 = qbar + 0.5 * d, qbar - 0.5 * d
        quantum, _ = _coefficients(q1, q2, f, "quantum")
        classical, _ = _coefficients(q1, q2, f, "classical")
        errs.append(abs(quantum / classical - 1.0))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def test_quotient_takes_no_slope_on_support_pairs():
    slopes = []

    class CountingSine(SinusoidalCoupling):
        def _derivative(self, q):
            slopes.append(np.size(q))
            return super()._derivative(q)

    f = CountingSine(1.0, 3.0, 0.2)
    w, x, _ = support_field(build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.4)), f, "quantum")
    assert x.size > 1000 and slopes == []
    # a diagonal element: r = f(q) - f(q) = 0, with no slope
    fac = quantum_factor(0.7, 0.7, 1.0, f, BathSpec([1.0], [1.0], [1.0]))
    assert fac.log_modulus == 0.0 and fac.phase == 0.0
    assert slopes == []


def test_bounded_coupling_bounds_weighted_difference():
    amp = 1.7
    f = SinusoidalCoupling(amp, 2.3, 0.4)
    rng = np.random.default_rng(1)
    qbar = rng.uniform(-20, 20, size=200)
    dq = rng.uniform(-50, 50, size=200)
    decay, _ = _coefficients(qbar + 0.5 * dq, qbar - 0.5 * dq, f, "quantum")
    assert np.all(np.sqrt(decay) <= 2 * amp + 1e-12)


# bounded so that no product below overflows
FINITE = st.floats(-1e100, 1e100)


@given(a=FINITE, b=FINITE, q=FINITE)
def test_linear_and_quadratic_are_polynomials(a, b, q):
    # in-test copies of the closed forms the two classes carried before they
    # became thin constructors of PolynomialCoupling
    def lin(x):
        return a * x

    def quad(x):
        return x * (a + b * x)

    def quad_slope(x):
        return a + 2.0 * b * x

    f, g = LinearCoupling(a), QuadraticCoupling(a, b)
    assert f.eval(q) == lin(q)
    assert f.slope(q) == a
    assert g.eval(q) == quad(q)
    assert g.slope(q) == quad_slope(q)
    assert isinstance(f, PolynomialCoupling) and isinstance(g, PolynomialCoupling)


def test_vectorized_eval_shapes():
    f = QuadraticCoupling(1.0, 0.5)
    q = np.linspace(-1, 1, 7)
    assert f.eval(q).shape == (7,)
    assert isinstance(f.eval(0.5), float)


def test_tabulated_matches_sampled_function():
    q = np.linspace(-4, 4, 401)
    tab = TabulatedCoupling(tuple(q), tuple(np.sin(q)))
    x = np.linspace(-3.5, 3.5, 57)
    assert np.max(np.abs(tab.eval(x) - np.sin(x))) < 1e-6
    # the derivative of the interpolating spline
    assert np.max(np.abs(tab.slope(x) - np.cos(x))) < 1e-3


def test_tabulated_quotient_tends_to_its_slope():
    # slope differentiates the spline that eval interpolates, so on a coarse
    # table the difference quotient still meets it as dQ -> 0 and the
    # classical and quantum decay exponents agree at a small dQ
    qs = np.linspace(-4.0, 4.0, 40)
    tab = TabulatedCoupling(tuple(qs), tuple(np.sin(qs)))
    x = np.linspace(-3.0, 3.0, 601)
    bath = BathSpec([1.0], [1.0], [1.0])
    classical = classical_factor(1e-3, -1e-3, 1.0, tab, bath).log_modulus
    quantum = quantum_factor(1e-3, -1e-3, 1.0, tab, bath).log_modulus
    assert abs(quantum / classical - 1.0) < 1e-5


def test_tabulated_validation_and_range():
    with pytest.raises(ValueError):
        TabulatedCoupling((0, 1, 1, 2), (0, 0, 0, 0))
    with pytest.raises(ValueError):
        TabulatedCoupling((0, 1, 2), (0, 0, 0))
    tab = TabulatedCoupling((0, 1, 2, 3), (0, 1, 4, 9))
    with pytest.raises(ValueError, match="outside"):
        tab.eval(3.5)
    with pytest.raises(ValueError, match="outside"):
        quantum_factor(1.5, -0.5, 1.0, tab, BathSpec([1.0], [1.0], [1.0]))


def test_sinusoidal_requires_nonzero_wavelength():
    with pytest.raises(ValueError):
        SinusoidalCoupling(1.0, 0.0)


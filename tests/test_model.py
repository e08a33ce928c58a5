import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn.bath import BathSpec
from decodyn.model import (
    LinearCoupling,
    ModelConfig,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from decodyn.states import SuperpositionState, build_density_matrix
from decodyn.strongdec import classical_factor, quantum_factor, support_field


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
    cubic = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))
    assert cubic.finite_difference(0.0, 2.0) == 1.0
    assert cubic.slope(0.0) == 0.0


def test_finite_difference_quadratic_identity():
    f = QuadraticCoupling(1.3, -0.4)
    rng = np.random.default_rng(0)
    for _ in range(50):
        qbar = rng.uniform(-5, 5)
        dq = rng.uniform(-10, 10)
        fd = f.finite_difference(qbar, dq)
        assert abs(fd - f.slope(qbar)) <= 1e-13 * max(1.0, abs(f.slope(qbar)))


def test_finite_difference_matched_sinusoid_vanishes():
    # f(Q_a) = f(Q_b) when the wavelength equals the separation
    sep = 8.0
    f = SinusoidalCoupling(1.0, sep, np.pi / 4)
    assert abs(f.finite_difference(0.0, sep)) < 1e-15


def test_finite_difference_zero_dq_returns_slope():
    f = SinusoidalCoupling(2.0, 3.0, 0.1)
    assert f.finite_difference(0.7, 0.0) == f.slope(0.7)
    out = f.finite_difference(np.array([0.7, 0.7]), np.array([0.0, 1.0]))
    assert out[0] == f.slope(0.7)


def test_finite_difference_converges_quadratically():
    f = SinusoidalCoupling(1.0, 3.0, 0.3)
    qbar = 0.9
    errs = [abs(f.finite_difference(qbar, d) - f.slope(qbar)) for d in (0.1, 0.05, 0.025)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)


def _where_quotient(f, qbar, dq):
    # in-test copy of the quotient as it was when it took the slope at every
    # entry and kept it where dQ = 0 through np.where
    qb, d = np.broadcast_arrays(np.asarray(qbar, dtype=float), np.asarray(dq, dtype=float))
    diff = f._values(qb + 0.5 * d) - f._values(qb - 0.5 * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = diff / d
    return np.where(d == 0.0, f._derivative(qb), out)


TABLE_Q = np.linspace(-4.0, 4.0, 33)
VARIANTS = (
    LinearCoupling(1.3),
    QuadraticCoupling(0.7, -0.4),
    PolynomialCoupling((0.1, -1.0, 0.5, 0.8)),
    SinusoidalCoupling(1.2, 2.5, 0.3),
    TabulatedCoupling(tuple(TABLE_Q), tuple(np.sin(TABLE_Q) + 0.2 * TABLE_Q)),
)


@pytest.mark.parametrize("f", VARIANTS, ids=lambda f: type(f).__name__)
@given(cells=st.lists(st.tuples(st.floats(-1.5, 1.5), st.just(0.0) | st.floats(-2.0, 2.0)), max_size=40))
def test_quotient_equals_the_where_form(f, cells):
    # one zero and one nonzero dQ in every example; the table spans [-4, 4]
    qbar, dq = np.array([(0.3, 0.0), (-0.2, 1.1), *cells]).T
    assert np.array_equal(f.finite_difference(qbar, dq), _where_quotient(f, qbar, dq))
    assert np.array_equal(f.finite_difference(0.4, dq), _where_quotient(f, 0.4, dq))
    for q, d in ((0.3, 0.0), (-0.2, 1.1)):
        assert f.finite_difference(q, d) == float(_where_quotient(f, q, d))


def test_quotient_takes_no_slope_on_support_pairs():
    slopes = []

    class CountingSine(SinusoidalCoupling):
        def _derivative(self, q):
            slopes.append(np.size(q))
            return super()._derivative(q)

    f = CountingSine(1.0, 3.0, 0.2)
    w, x, _ = support_field(build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.4)), f, "quantum")
    assert x.size > 1000 and slopes == []
    f.finite_difference(np.array([0.1, 0.2, 0.3]), np.array([0.0, 1.0, 0.0]))
    assert slopes == [2]


def test_bounded_coupling_bounds_weighted_difference():
    amp = 1.7
    f = SinusoidalCoupling(amp, 2.3, 0.4)
    rng = np.random.default_rng(1)
    qbar = rng.uniform(-20, 20, size=200)
    dq = rng.uniform(-50, 50, size=200)
    weighted = np.abs(dq * f.finite_difference(qbar, dq))
    assert np.all(weighted <= 2 * amp + 1e-12)


def _closed_quotient(values, slope, qbar, dq):
    if dq == 0.0:
        return slope(qbar)
    return (values(qbar + 0.5 * dq) - values(qbar - 0.5 * dq)) / dq


# bounded so that no product below overflows
FINITE = st.floats(-1e100, 1e100)


@given(a=FINITE, b=FINITE, q=FINITE, dq=FINITE)
def test_linear_and_quadratic_are_polynomials(a, b, q, dq):
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
    assert f.finite_difference(q, dq) == _closed_quotient(lin, lambda x: a, q, dq)
    assert g.eval(q) == quad(q)
    assert g.slope(q) == quad_slope(q)
    assert g.finite_difference(q, dq) == _closed_quotient(quad, quad_slope, q, dq)
    assert isinstance(f, PolynomialCoupling) and isinstance(g, PolynomialCoupling)


def test_vectorized_eval_shapes():
    f = QuadraticCoupling(1.0, 0.5)
    q = np.linspace(-1, 1, 7)
    assert f.eval(q).shape == (7,)
    assert isinstance(f.eval(0.5), float)
    mat = f.finite_difference(np.zeros((3, 3)), np.ones((3, 3)))
    assert mat.shape == (3, 3)


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
    assert np.max(np.abs(tab.finite_difference(x, 1e-5) - tab.slope(x))) < 1e-9
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
        tab.finite_difference(0.5, 2.0)


def test_sinusoidal_requires_nonzero_wavelength():
    with pytest.raises(ValueError):
        SinusoidalCoupling(1.0, 0.0)


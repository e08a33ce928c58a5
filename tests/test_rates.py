import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn import strongdec
from decodyn.bath import BathSpec, discretize_ohmic, thermal_strength
from decodyn.model import (
    CouplingFunction,
    LinearCoupling,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
)
from decodyn.rates import hbar_scan, linear_closed_form, rate_pair, separation_scan
from decodyn.states import GaussianPacket, GridSpec, SuperpositionState, build_density_matrix, position_variance

SINGLE = BathSpec([1.0], [1.0], [1.0])
CUBIC = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))


def test_linear_gaussian_closed_value():
    rho = build_density_matrix(SuperpositionState.single(math.sqrt(0.5)))
    got = rate_pair(rho, LinearCoupling(1.0), cb=0.5, hbar=1.0).classical_rate
    assert got == pytest.approx(0.5, rel=1e-9)


def test_zero_thermal_strength_zero_rate():
    rho = build_density_matrix(SuperpositionState.single(0.6))
    assert rate_pair(rho, LinearCoupling(1.0), cb=0.0, hbar=1.0).classical_rate == 0.0


def test_linear_coupling_rates_identical():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.4))
    pair = rate_pair(rho, LinearCoupling(1.0), cb=0.5, hbar=1.0)
    assert pair.ratio == 1.0
    assert pair.classical_rate == pair.quantum_rate


def test_quadratic_coupling_rates_identical_to_machine_precision():
    f = QuadraticCoupling(1.0, 0.3)
    rng = np.random.default_rng(2)
    for _ in range(5):
        sep = rng.uniform(2.0, 8.0)
        sigma = rng.uniform(0.2, 0.6)
        rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sigma))
        pair = rate_pair(rho, f, cb=0.7, hbar=1.0)
        assert pair.ratio == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize(
    "sigma,bath",
    [
        (math.sqrt(0.5), SINGLE),
        (0.6, BathSpec([2.0], [1.7], [0.9], beta=1.3)),
        (1.1, discretize_ohmic(0.4, 1.0, 50, 5.0, beta=2.0)),
    ],
)
def test_quantum_rate_matches_linear_closed_form(sigma, bath):
    rho = build_density_matrix(SuperpositionState.single(sigma), hbar=bath.hbar)
    cb = thermal_strength(bath)
    got = rate_pair(rho, LinearCoupling(1.0), cb, bath.hbar).quantum_rate
    expected = linear_closed_form(position_variance(rho), bath)
    assert got == pytest.approx(expected, rel=1e-6)


def test_linear_closed_form_examples():
    assert linear_closed_form(0.5, SINGLE) == 0.5
    assert linear_closed_form(0.0, SINGLE) == 0.0
    with pytest.raises(ValueError):
        linear_closed_form(-0.1, SINGLE)


def test_cubic_cat_quantum_dominates():
    # classical weight df/dQ vanishes at the cat midpoint, so narrowing the
    # packets suppresses the classical rate without bound
    sep = 8.0
    ratios = []
    for frac in (40, 80, 150):
        rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sep / frac))
        ratios.append(rate_pair(rho, CUBIC, cb=0.5, hbar=1.0).ratio)
    assert ratios[0] < ratios[1] < ratios[2]
    assert ratios[2] > 1e3


def test_narrow_cubic_cat_pairs_its_support_only():
    # at width sep/640 the automatic grid has n = 8192, where an n x n rho
    # alone would take 1.07 GB; the pure state is paired from its 1-D support
    sep, k = 8.0, 640
    closed_form = (k**6 + 60 * k**4 + 720 * k**2 + 960) / (18 * (k**4 + 18 * k**2 + 24))
    tracemalloc.start()
    try:
        rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sep / k))
        pair = rate_pair(rho, CUBIC, cb=0.5, hbar=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rho.grid.n_points == 8192
    assert pair.ratio == pytest.approx(closed_form, rel=1e-12)
    assert peak < 100e6


def test_matched_sinusoid_classical_dominates():
    sep = 8.0
    f = SinusoidalCoupling(1.0, sep, math.pi / 4)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sep / 80))
    pair = rate_pair(rho, f, cb=0.5, hbar=1.0)
    assert pair.quantum_rate < 1e-3 * pair.classical_rate


def test_bounded_coupling_rate_bound():
    amp = 1.4
    f = SinusoidalCoupling(amp, 2.0, 0.3)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(10.0, 0.5))
    cb, hbar = 0.8, 1.0
    assert rate_pair(rho, f, cb, hbar).quantum_rate <= (cb / hbar) * 4 * amp**2 * (1 + 1e-12)


def test_global_phase_invariance():
    base = SuperpositionState.symmetric_cat(6.0, 0.4)
    phased = SuperpositionState(
        packets=tuple(
            GaussianPacket(p.center_q, p.center_p, p.sigma, p.amplitude * np.exp(0.7j))
            for p in base.packets
        )
    )
    f = SinusoidalCoupling(1.0, 3.0, 0.2)
    p1 = rate_pair(build_density_matrix(base), f, cb=0.5, hbar=1.0)
    p2 = rate_pair(build_density_matrix(phased), f, cb=0.5, hbar=1.0)
    assert p1.classical_rate == pytest.approx(p2.classical_rate, rel=1e-12)
    assert p1.quantum_rate == pytest.approx(p2.quantum_rate, rel=1e-12)


def test_separation_scan_saturation():
    f = SinusoidalCoupling(1.0, 1.0, math.pi / 4)
    pairs = separation_scan(f, [2.0, 4.0, 8.0], sigma=0.5, bath=SINGLE)
    quantum = [p.quantum_rate for p in pairs]
    classical = [p.classical_rate for p in pairs]
    assert max(quantum) - min(quantum) < 0.01 * min(quantum)
    assert classical[0] < classical[1] < classical[2]
    assert classical[2] > 10 * classical[0]


def test_separation_scan_validation():
    f = SinusoidalCoupling(1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="increasing"):
        separation_scan(f, [4.0, 2.0], sigma=0.3, bath=SINGLE)
    # the separations are checked before sigma, as the CLI states the rule
    for seps in ([], [-1.0, 2.0], [0.0, 2.0], [math.nan, 2.0], [2.0, math.nan]):
        with pytest.raises(ValueError, match="separations must be positive and strictly increasing"):
            separation_scan(f, seps, sigma=0.2, bath=SINGLE)
    with pytest.raises(ValueError, match="sigma"):
        separation_scan(f, [2.0, 4.0], sigma=1.5, bath=SINGLE)


def test_hbar_scan_ratio_invariant():
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    pairs = hbar_scan(rho, CUBIC, SINGLE, [1.0, 100.0])
    r1, r2 = pairs[0].ratio, pairs[1].ratio
    assert abs(r1 - r2) <= 1e-12 * abs(r1)
    # each rate scales down with hbar
    assert pairs[1].quantum_rate == pytest.approx(pairs[0].quantum_rate / 100, rel=1e-12)


CAT = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))


@pytest.mark.parametrize("factor", [-1.0, 0.0, math.nan, math.inf])
def test_hbar_scan_refuses_a_factor_without_a_positive_finite_hbar(factor):
    # a negative factor gave negative rates, zero divided by zero, NaN gave
    # NaN rates and inf zero rates, all but zero without an error
    with pytest.raises(ValueError, match=r"hbar_factors\[1\]"):
        hbar_scan(CAT, CUBIC, SINGLE, [1.0, factor])


@given(
    factors=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=5),
    beta=st.just(math.inf) | st.floats(1e-2, 1e2),
)
def test_hbar_scan_matches_a_bath_rebuilt_per_factor(factors, beta):
    # the scan sums each factor's thermal strength from the bath's arrays; it
    # must be the same bytes as the strength of the bath rebuilt at that hbar
    bath = discretize_ohmic(0.25, 1.0, 16, 5.0, beta=beta, hbar=0.7)
    pairs = hbar_scan(CAT, CUBIC, bath, factors)
    for factor, pair in zip(factors, pairs):
        scaled = dataclasses.replace(bath, hbar=bath.hbar * factor)
        assert pair == rate_pair(CAT, CUBIC, thermal_strength(scaled), scaled.hbar)


def _count_fields(monkeypatch):
    sides = []
    field = strongdec.support_field

    def counted(rho0, f, side):
        sides.append(side)
        return field(rho0, f, side)

    monkeypatch.setattr(strongdec, "support_field", counted)
    return sides


@pytest.mark.parametrize(
    "f, sides",
    [
        (CUBIC, ["classical", "quantum"]),
        (SinusoidalCoupling(1.0, 3.0, 0.2), ["classical", "quantum"]),
        (LinearCoupling(1.0), ["classical"]),
        (QuadraticCoupling(0.5, 0.3), ["classical"]),
    ],
)
def test_each_side_is_summed_once_per_state(monkeypatch, f, sides):
    # a degree <= 2 coupling has one field for both sides
    calls = _count_fields(monkeypatch)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(6.0, 0.4))
    cb = thermal_strength(SINGLE)
    pair = rate_pair(rho, f, cb, SINGLE.hbar)
    assert hbar_scan(rho, f, SINGLE, [1.0, 10.0])[0] == pair
    assert rate_pair(rho, f, cb, SINGLE.hbar) == pair
    assert calls == sides


@dataclasses.dataclass
class _SettableCubic(CouplingFunction):
    """A user coupling that dataclass equality leaves unhashable."""

    a: float

    def _values(self, q):
        return PolynomialCoupling((0.0, 0.0, 0.0, self.a))._values(q)

    def _derivative(self, q):
        return PolynomialCoupling((0.0, 0.0, 0.0, self.a))._derivative(q)


def test_an_unhashable_coupling_is_summed_on_every_call():
    # it may change between calls, so no memo may hold its integrals
    def fresh():
        return build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5), grid=GridSpec(-8.0, 8.0, 128))

    f = _SettableCubic(1.0)
    with pytest.raises(TypeError):
        hash(f)
    rho = fresh()
    for a in (1.0, 2.0):
        f.a = a
        ref = PolynomialCoupling((0.0, 0.0, 0.0, a))
        assert rate_pair(rho, f, 0.5, 1.0) == rate_pair(fresh(), ref, 0.5, 1.0)
        assert hbar_scan(rho, f, SINGLE, [1.0, 3.0]) == hbar_scan(fresh(), ref, SINGLE, [1.0, 3.0])


def test_ratio_underflow_reported_as_infinity():
    from decodyn.rates import RatePair

    assert RatePair.from_rates(0.0, 0.5).ratio == math.inf
    assert RatePair.from_rates(1e-301, 1.0).ratio == math.inf
    assert math.isnan(RatePair.from_rates(0.0, 0.0).ratio)
    assert RatePair.from_rates(2.0, 1.0).ratio == 0.5
    # constant coupling: no decoherence through either weight
    rho = build_density_matrix(SuperpositionState.single(0.5))
    pair = rate_pair(rho, PolynomialCoupling((1.0,)), cb=0.5, hbar=1.0)
    assert pair.classical_rate == 0.0
    assert pair.quantum_rate == 0.0
    assert math.isnan(pair.ratio)

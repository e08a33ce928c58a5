"""Acceptance suite: every gate of the build, one test per criterion.

Each test prints a single `criterion NN ...: PASS/FAIL` line (visible with
``pytest -s``) and enforces both the numeric tolerance and the runtime
budget of its criterion.
"""

import math
import time

import numpy as np

from decodyn.bath import BathSpec, b2, discretize_ohmic, thermal_strength
from decodyn.cli import parse_config, preset_config
from decodyn.model import LinearCoupling, PolynomialCoupling, QuadraticCoupling, SinusoidalCoupling
from decodyn.oracle import fock_quantum_factor, mc_classical_factor, short_time_fit
from decodyn.rates import hbar_scan, linear_closed_form, rate_pair, separation_scan
from decodyn.states import (
    SuperpositionState,
    build_density_matrix,
    inverse_wigner,
    position_variance,
    purity,
    wigner_purity,
    wigner_transform,
)
from decodyn.strongdec import compute_series, entropy_series

SINGLE = BathSpec([1.0], [1.0], [1.0])
OHMIC = discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0)
CUBIC = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))


class Budget:
    def __init__(self, number, label, limit):
        self.number = number
        self.label = label
        self.limit = limit
        self.start = time.perf_counter()

    def finish(self, ok: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok and elapsed < self.limit else "FAIL"
        tail = f" [{detail}]" if detail else ""
        print(f"criterion {self.number} ({self.label}): {verdict} "
              f"in {elapsed:.1f}s of {self.limit:.0f}s{tail}")
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s exceeded {self.limit}s budget"


def test_criterion_01_linear_and_quadratic_exactness():
    budget = Budget("01", "linear/quadratic couplings: identical dynamics", 30.0)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.4))
    assert rho.grid.n_points == 512
    times = np.linspace(0.0, 10.0, 200)
    worst_gamma = worst_entropy = 0.0
    for f in (LinearCoupling(1.0), QuadraticCoupling(1.0, 0.3)):
        series = compute_series(rho, f, OHMIC, times, probe=(-4.0, 4.0))
        worst_gamma = max(worst_gamma, float(np.max(np.abs(series.gamma_c - series.gamma_q))))
        worst_entropy = max(worst_entropy, float(np.max(np.abs(series.s_c - series.s_q))))
    ok = worst_gamma < 1e-12 and worst_entropy < 1e-10
    budget.finish(ok, f"max|dgamma|={worst_gamma:.1e} max|dS|={worst_entropy:.1e}")
    assert worst_gamma < 1e-12
    assert worst_entropy < 1e-10


def test_criterion_02_linear_closed_form_cross_check():
    budget = Budget("02", "linear-coupling rate equals closed form", 10.0)
    combos = [
        (math.sqrt(0.5), SINGLE),
        (0.6, BathSpec([2.0], [1.7], [0.9], beta=1.3)),
        (1.1, OHMIC),
    ]
    worst = 0.0
    for sigma, bath in combos:
        rho = build_density_matrix(SuperpositionState.single(sigma), hbar=bath.hbar)
        got = rate_pair(rho, LinearCoupling(1.0), thermal_strength(bath), bath.hbar).quantum_rate
        expected = linear_closed_form(position_variance(rho), bath)
        worst = max(worst, abs(got - expected) / expected)
    budget.finish(worst < 1e-6, f"worst rel err {worst:.1e}")
    assert worst < 1e-6


def test_criterion_03_cubic_regime_rate_ratio():
    budget = Budget("03a", "cubic coupling: quantum rate dominates by 1e3", 10.0)
    sep = 8.0

    # independent oracle: for f = Q^3 on a symmetric cat with k = sep/sigma,
    # Gaussian moments of the two rate quadratures give (packet overlap
    # exp(-k^2/8) neglected)
    #   I_c = (9/8) sigma^2 (sep^4 + 18 sep^2 sigma^2 + 24 sigma^4)
    #   I_q = sep^6/16 + (15/4) sep^4 sigma^2 + 45 sep^2 sigma^4 + 60 sigma^6
    # so the ratio depends on k alone and exceeds 1e3 only for k > 134.0075
    def closed_form_ratio(k):
        return (k**6 + 60 * k**4 + 720 * k**2 + 960) / (18 * (k**4 + 18 * k**2 + 24))

    ratios = {}
    for k in (40, 160):
        rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sep / k))
        pair = rate_pair(rho, CUBIC, thermal_strength(SINGLE), SINGLE.hbar)
        ratios[k] = (pair.ratio, closed_form_ratio(k))
    worst = max(abs(got - want) / want for got, want in ratios.values())
    ratio = ratios[160][0]
    ok = ratio > 1e3 and worst < 1e-12
    budget.finish(ok, f"quantum/classical = {ratio:.1f}, closed-form rel err {worst:.1e}")
    assert worst < 1e-12, (
        f"rate ratios {ratios} (got, closed form) differ by {worst:.1e} relative"
    )
    assert ratio > 1e3, (
        f"quantum/classical rate ratio {ratio:.1f} <= 1e3 at packet width "
        f"separation/160 (closed form {ratios[160][1]:.1f}; R(40) = "
        f"{ratios[40][1]:.1f}; the gate holds for separation/sigma > 134.0075)"
    )


def test_criterion_03_cubic_regime_decay_exponents():
    budget = Budget("03b", "cubic coupling: decay without classical decay", 10.0)
    times = np.linspace(0.0, 0.95 * math.pi, 200)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    series = compute_series(rho, CUBIC, SINGLE, times, probe=(-4.0, 4.0))
    classical_silent = bool(np.all(series.gamma_c == 0.0))
    quantum_decays = bool(np.all(series.gamma_q[1:] < 0.0))
    budget.finish(classical_silent and quantum_decays)
    assert classical_silent
    assert quantum_decays


def test_criterion_04_matched_sinusoid_regime():
    budget = Budget("04", "matched sinusoid: classical rate dominates by 1e3", 10.0)
    sep = 8.0
    f = SinusoidalCoupling(1.0, sep, math.pi / 4)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sep / 80))
    pair = rate_pair(rho, f, thermal_strength(SINGLE), SINGLE.hbar)
    ratio = pair.classical_rate / pair.quantum_rate
    budget.finish(ratio > 1e3, f"classical/quantum = {ratio:.0f}")
    assert ratio > 1e3


def test_criterion_05_quantum_rate_saturation():
    budget = Budget("05", "bounded coupling: quantum rate saturates", 60.0)
    f = SinusoidalCoupling(1.0, 1.0, math.pi / 4)
    seps = [2.0, 4.0, 8.0, 16.0, 32.0]
    pairs = separation_scan(f, seps, sigma=0.5, bath=SINGLE)
    quantum = np.array([p.quantum_rate for p in pairs])
    classical = np.array([p.classical_rate for p in pairs])
    top = quantum[-3:]
    sat = (top.max() - top.min()) < 0.05 * top.min()
    growth = bool(np.all(np.diff(classical) > 0)) and classical[-1] > 10 * classical[0]
    budget.finish(sat and growth,
                  f"quantum spread {(top.max()-top.min())/top.min():.2e}, "
                  f"classical x{classical[-1]/classical[0]:.0f}")
    assert sat
    assert growth


def test_criterion_06_rate_ratio_independent_of_hbar():
    budget = Budget("06", "rate ratio unchanged at 100x hbar", 10.0)
    rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    pairs = hbar_scan(rho, CUBIC, SINGLE, [1.0, 100.0])
    gap = abs(pairs[0].ratio - pairs[1].ratio)
    ok = gap <= 1e-12 * pairs[0].ratio
    budget.finish(ok, f"|ratio(hbar) - ratio(100 hbar)| = {gap:.2e}")
    assert ok


def test_criterion_07_zero_first_order_rate():
    budget = Budget("07", "entropy growth starts quadratically", 30.0)
    cases = [
        (LinearCoupling(1.0), 0.4),
        (QuadraticCoupling(1.0, 0.3), 0.4),
        (CUBIC, 0.2),
        (SinusoidalCoupling(1.0, 8.0, math.pi / 4), 0.1),
    ]
    t_bath = 1.0 / 5.0
    window = 1e-6 * t_bath
    times = np.linspace(0.0, window, 17)
    cb = thermal_strength(OHMIC)
    worst_linear = worst_quad = 0.0
    for f, sigma in cases:
        rho = build_density_matrix(SuperpositionState.symmetric_cat(8.0, sigma))
        pair = rate_pair(rho, f, cb, OHMIC.hbar)
        for side, expected in (("quantum", pair.quantum_rate), ("classical", pair.classical_rate)):
            c1, c2 = short_time_fit(times, entropy_series(rho, times, f, OHMIC, side), window)
            worst_linear = max(worst_linear, abs(c1) / (abs(c2) * window))
            worst_quad = max(worst_quad, abs(c2 - expected) / expected)
    ok = worst_linear < 1e-10 and worst_quad < 1e-4
    budget.finish(ok, f"linear/quadratic scale {worst_linear:.1e}, rate err {worst_quad:.1e}")
    assert worst_linear < 1e-10
    assert worst_quad < 1e-4


def test_criterion_08_trajectory_ensemble_oracle():
    budget = Budget("08", "trajectory ensemble reproduces classical factor", 120.0)
    from decodyn.strongdec import classical_factor

    configs = [
        (SINGLE, LinearCoupling(1.0), [math.pi / 4, math.pi / 2, 2.0, 2.7, math.pi]),
        (SINGLE, CUBIC, [0.1, 0.2, 0.3, 0.45, 0.58]),
        (OHMIC, LinearCoupling(1.0), [0.3, 0.6, 1.0, 2.0, 4.0]),
        (OHMIC, CUBIC, [0.05, 0.1, 0.2, 0.3, 0.5]),
    ]
    worst = 0.0
    for bath, f, ts in configs:
        for t, est in zip(ts, mc_classical_factor(2.0, 0.0, ts, f, bath, n_samples=100_000, seed=0)):
            analytic = classical_factor(2.0, 0.0, t, f, bath).value
            worst = max(worst, est.sigma_distance(analytic))
    small = mc_classical_factor(2.0, 0.0, math.pi / 2, LinearCoupling(1.0), SINGLE,
                                n_samples=10_000, seed=0)
    large = mc_classical_factor(2.0, 0.0, math.pi / 2, LinearCoupling(1.0), SINGLE,
                                n_samples=100_000, seed=0)
    shrink = large.std_error / small.std_error
    ok = worst < 3.0 and 0.2 < shrink < 0.5
    budget.finish(ok, f"worst deviation {worst:.2f} sigma, error shrink x{shrink:.2f}")
    assert worst < 3.0
    assert 0.2 < shrink < 0.5


def test_criterion_09_fock_oracle():
    budget = Budget("09", "Fock propagation reproduces quantum modulus", 60.0)
    f = LinearCoupling(1.0)
    times = np.linspace(0.0, 2 * math.pi, 10)
    overlaps = fock_quantum_factor(1.0, -1.0, times, f, SINGLE)
    fd = (f.eval(1.0) - f.eval(-1.0)) / 2.0
    worst = 0.0
    for t, overlap in zip(times, overlaps):
        expected = math.exp(-4.0 * fd**2 * b2(SINGLE, float(t)))
        worst = max(worst, abs(abs(overlap) - expected))
    recurrence_gap = abs(abs(overlaps[-1]) - 1.0)
    ok = worst < 1e-4 and recurrence_gap < 1e-6
    budget.finish(ok, f"worst modulus err {worst:.1e}, recurrence gap {recurrence_gap:.1e}")
    assert worst < 1e-4
    assert recurrence_gap < 1e-6


def test_criterion_10_representation_consistency():
    budget = Budget("10", "matrix and phase-space representations agree", 10.0)
    worst_purity = worst_round = 0.0
    # the five distinct preset states (quadratic/hbar-scan/fock-validate reuse these)
    for name in ("linear", "cubic-cat", "sine-cat", "saturation-scan", "mc-validate"):
        state = parse_config(preset_config(name)).state
        rho = build_density_matrix(state)
        w = wigner_transform(rho)
        worst_purity = max(worst_purity, abs(purity(rho) - wigner_purity(w)))
        back = inverse_wigner(w)
        worst_round = max(worst_round, float(np.max(np.abs(back.values - rho.values))))
    ok = worst_purity < 1e-6 and worst_round < 1e-10
    budget.finish(ok, f"purity gap {worst_purity:.1e}, roundtrip {worst_round:.1e}")
    assert worst_purity < 1e-6
    assert worst_round < 1e-10


def test_criterion_11_entropy_plateau_matches_two_gaussian_quadrature():
    budget = Budget("11", "dephased-cat entropy plateau", 30.0)
    sep, sigma = 8.0, 0.2
    rho = build_density_matrix(SuperpositionState.symmetric_cat(sep, sigma))
    f = LinearCoupling(1.0)
    t_star = 30.0
    s_grid, s_before, s_after = entropy_series(rho, [t_star, 25.0, 35.0], f, OHMIC, "quantum")

    # independent oracle: fully-dephased limit keeps only the two diagonal
    # packet blocks; quadrature over fresh 1D grids with the analytic packet
    decay = float(b2(OHMIC, t_star))
    x = np.linspace(-sep / 2 - 10 * sigma, -sep / 2 + 10 * sigma, 401)
    pdf = np.exp(-((x + sep / 2) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    kernel = np.exp(-2.0 * decay * (x[:, None] - x[None, :]) ** 2)
    block = np.trapezoid(np.trapezoid(pdf[:, None] * pdf[None, :] * kernel, x, axis=1), x)
    overlap = math.exp(-(sep**2) / (8 * sigma**2))
    weight = 1.0 / (4.0 * (1.0 + overlap) ** 2)
    s_oracle = 1.0 - 2.0 * weight * float(block)

    rel = abs(s_grid - s_oracle) / s_oracle
    flat = max(abs(s_before - s_grid), abs(s_after - s_grid))
    ok = rel < 0.02 and flat < 0.05
    budget.finish(ok, f"S={s_grid:.4f} oracle={s_oracle:.4f} rel={rel:.1e} wobble={flat:.3f}")
    assert rel < 0.02
    assert flat < 0.05

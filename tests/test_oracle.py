import math

import numpy as np
import pytest

from decodyn import oracle
from decodyn.bath import BathSpec, b2, discretize_ohmic, thermal_sample_block
from decodyn.model import LinearCoupling, PolynomialCoupling, QuadraticCoupling
from decodyn.oracle import FockConfig, McEstimate, fock_quantum_factor, mc_classical_factor, short_time_fit
from decodyn.strongdec import classical_factor, quantum_factor

SINGLE = BathSpec([1.0], [1.0], [1.0])
CUBIC = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))


def test_mc_refuses_tiny_or_ragged_sample_counts():
    with pytest.raises(ValueError, match="too small"):
        mc_classical_factor(2.0, 0.0, 1.0, LinearCoupling(1.0), SINGLE, n_samples=999)
    with pytest.raises(ValueError, match="multiple"):
        mc_classical_factor(2.0, 0.0, 1.0, LinearCoupling(1.0), SINGLE, n_samples=1050)


def test_mc_uncoupled_bath_is_exactly_one():
    bath = BathSpec([1.0, 1.0], [1.0, 2.0], [0.0, 0.0])
    est = mc_classical_factor(2.0, 0.0, 1.3, LinearCoupling(1.0), bath, n_samples=2000)
    assert est.mean == 1.0 + 0.0j
    assert est.std_error == 0.0


def test_mc_time_zero_is_exactly_one():
    est = mc_classical_factor(2.0, 0.0, 0.0, CUBIC, SINGLE, n_samples=2000)
    assert est.mean == 1.0 + 0.0j
    assert est.std_error == 0.0


def test_mc_reproducible():
    a = mc_classical_factor(2.0, 0.0, 0.9, LinearCoupling(1.0), SINGLE, n_samples=5000, seed=3)
    b = mc_classical_factor(2.0, 0.0, 0.9, LinearCoupling(1.0), SINGLE, n_samples=5000, seed=3)
    assert a == b
    c = mc_classical_factor(2.0, 0.0, 0.9, LinearCoupling(1.0), SINGLE, n_samples=5000, seed=4)
    assert c.mean != a.mean


@pytest.mark.parametrize("t", [math.pi / 4, math.pi / 2, math.pi])
def test_mc_matches_closed_form_linear(t):
    est = mc_classical_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE, n_samples=100_000, seed=0)
    analytic = classical_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE).value
    assert est.sigma_distance(analytic) < 3.0
    # modulus and phase separately: validates decay and drift kernels
    assert abs(abs(est.mean) - abs(analytic)) < 3 * est.std_error
    phase_err = abs(np.angle(est.mean) - np.angle(analytic))
    assert phase_err < 3 * est.std_error / abs(est.mean)


def test_mc_matches_closed_form_cubic_multimode():
    bath = discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0)
    for t in (0.1, 0.3):
        est = mc_classical_factor(2.0, 0.0, t, CUBIC, bath, n_samples=50_000, seed=1)
        analytic = classical_factor(2.0, 0.0, t, CUBIC, bath).value
        assert est.sigma_distance(analytic) < 3.0


def test_mc_error_scales_as_inverse_sqrt_n():
    t = math.pi / 2
    small = mc_classical_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE, n_samples=10_000, seed=2)
    large = mc_classical_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE, n_samples=40_000, seed=2)
    ratio = large.std_error / small.std_error
    assert 0.35 < ratio < 0.65


def test_mc_sigma_distances_are_calibrated():
    # 32 seeded estimates at one point: with a calibrated error bar the
    # squared sigma distance d^2 averages 1 (an exponential of mean 1 when the
    # real and imaginary errors are equal), with a standard deviation of
    # 1/sqrt(32) = 0.18 for the batch mean.  Over 40 batches of 32 seeds
    # (seeds 1000 b + k) the batch mean read 0.61 to 1.60, median 0.98,
    # standard deviation 0.20, and the largest d of the 1280 was 3.17.  The
    # lower bound sits 2.7 measured deviations under 1, the upper one 5 over
    # it, as the batch mean has a long right tail.  Halving or doubling the
    # error bar, or widths 10% too wide, fail them
    t = math.pi / 2
    analytic = classical_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE).value
    estimates = [mc_classical_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE, 10_000, seed=k) for k in range(32)]
    d = np.array([est.sigma_distance(analytic) for est in estimates])
    assert 0.45 < np.mean(d**2) < 2.0
    assert d.max() < 4.5


@pytest.mark.parametrize("group,draws", [(5, 1), (2, 3)], ids=["one-group", "groups-of-2"])
@pytest.mark.parametrize(
    "bath,f,times",
    [
        (SINGLE, CUBIC, [0.0, 0.1, 0.3, 0.45, 0.58]),
        (discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0), LinearCoupling(1.0), [0.3, 0.6, 1.0, 2.0, 4.0]),
    ],
    ids=["one-mode", "ohmic"],
)
def test_mc_times_in_one_call_equal_one_call_each(monkeypatch, bath, f, times, group, draws):
    # one draw per group of times, each time's estimate equal to its own call
    monkeypatch.setattr(oracle, "_GROUP_BYTES", group * 8 * 20_000)
    calls = []
    monkeypatch.setattr(oracle, "thermal_sample_block", lambda *a: calls.append(a) or thermal_sample_block(*a))
    together = mc_classical_factor(2.0, 0.0, times, f, bath, n_samples=20_000, seed=5)
    assert len(calls) == draws
    alone = [mc_classical_factor(2.0, 0.0, t, f, bath, n_samples=20_000, seed=5) for t in times]
    assert isinstance(together, list) and all(isinstance(est, McEstimate) for est in alone)
    assert together == alone


def test_mc_estimate_validation():
    with pytest.raises(ValueError):
        McEstimate(mean=1.0 + 0j, std_error=-1.0, n_samples=10)
    with pytest.raises(ValueError):
        McEstimate(mean=1.0 + 0j, std_error=0.0, n_samples=0)


def test_fock_requires_single_mode():
    bath = BathSpec([1.0, 1.0], [1.0, 2.0], [1.0, 0.5])
    with pytest.raises(ValueError, match="single"):
        fock_quantum_factor(1.0, -1.0, 1.0, LinearCoupling(1.0), bath)


def test_fock_refuses_an_empty_time_list():
    for empty in ([], np.array([])):
        with pytest.raises(ValueError, match="time list is empty"):
            fock_quantum_factor(1.0, -1.0, empty, LinearCoupling(1.0), SINGLE)


def test_fock_config_validation():
    with pytest.raises(ValueError):
        FockConfig(n_levels=4)


def test_fock_uncoupled_is_unity():
    bath = BathSpec([1.0], [1.0], [0.0])
    for t in (0.0, 1.0, 5.0):
        assert fock_quantum_factor(1.0, -1.0, t, LinearCoupling(1.0), bath) == pytest.approx(1.0)


def test_fock_modulus_matches_decay_kernel():
    ts = np.linspace(0.0, 2 * math.pi, 10)
    overlaps = fock_quantum_factor(1.0, -1.0, ts, LinearCoupling(1.0), SINGLE)
    f = LinearCoupling(1.0)
    for t, overlap in zip(ts, overlaps):
        fd = f.finite_difference(0.0, 2.0)
        expected = math.exp(-4.0 * fd**2 * b2(SINGLE, float(t)))
        assert abs(overlap) == pytest.approx(expected, abs=1e-10)
    assert abs(overlaps[-1]) == pytest.approx(1.0, abs=1e-6)  # recurrence


def test_fock_modulus_for_quadratic_coupling():
    # coupling stays linear in the bath coordinate, so the closed form holds
    f = QuadraticCoupling(1.0, 0.3)
    for t in (0.6, 1.4, 2.9):
        overlap = fock_quantum_factor(1.0, -1.0, t, f, SINGLE)
        fd = f.finite_difference(0.0, 2.0)
        expected = math.exp(-4.0 * fd**2 * b2(SINGLE, t))
        assert abs(overlap) == pytest.approx(expected, rel=1e-9)


def test_fock_thermal_modulus():
    bath = BathSpec([1.0], [1.0], [1.0], beta=2.0)
    f = LinearCoupling(1.0)
    for t in (0.8, 2.0):
        overlap = fock_quantum_factor(1.0, -1.0, t, f, bath, FockConfig(n_levels=96))
        expected = math.exp(-4.0 * b2(bath, t))
        assert abs(overlap) == pytest.approx(expected, rel=1e-6)


def test_fock_cold_bath_is_the_zero_temperature_overlap():
    # at beta hbar w = 2000 every Boltzmann factor exp(-beta E_n) underflows;
    # relative to the ground level only e_0 is left, as at T = 0
    ts = [0.5, 1.0, 2.0]
    cold = BathSpec([1.0], [1.0], [1.0], beta=2000.0)
    got = fock_quantum_factor(1.0, -1.0, ts, LinearCoupling(1.0), cold, FockConfig(n_levels=16))
    assert np.array_equal(got, fock_quantum_factor(1.0, -1.0, ts, LinearCoupling(1.0), SINGLE, FockConfig(n_levels=16)))


def test_fock_truncation_failure_raises():
    strong = BathSpec([1.0], [1.0], [20.0])
    with pytest.raises(RuntimeError, match="not converged"):
        fock_quantum_factor(1.0, -1.0, 2.0, LinearCoupling(1.0), strong, FockConfig(n_levels=8))


def _einsum_overlap(q1, q2, times, f, bath, n_levels):
    """The thermally weighted trace of U2(t)^dag U1(t), one O(n^3) einsum per
    time, in the same truncated number basis."""
    m, w, c = bath.masses[0], bath.omegas[0], bath.couplings[0]
    n = np.arange(n_levels)
    off = np.sqrt(n[1:])
    q_mat = np.sqrt(bath.hbar / (2.0 * m * w)) * (np.diag(off, 1) + np.diag(off, -1))
    h_free = np.diag(bath.hbar * w * (n + 0.5))
    (e1, v1), (e2, v2) = (np.linalg.eigh(h_free + c * f.eval(q) * q_mat) for q in (q1, q2))
    occ = np.exp(-bath.beta * bath.hbar * w * (n + 0.5))
    occ = occ / occ.sum()
    out = []
    for t in times:
        a2 = v2 * np.exp(1j * e2 * t / bath.hbar)
        a1 = v1 * np.exp(-1j * e1 * t / bath.hbar)
        out.append(occ @ np.einsum("na,ab,nb->n", a2, v2.T @ v1, a1))
    return np.array(out)


# worst |kernel - einsum| measured on these cases: 2.0e-15 (beta = 2, linear, 16 levels)
FOCK_KERNEL_ABS = 4e-15


@pytest.mark.parametrize("n_levels", [16, 64, 128])
@pytest.mark.parametrize("beta", [0.5, 2.0])
@pytest.mark.parametrize("f", [LinearCoupling(1.0), PolynomialCoupling((0.0, 1.0, 0.0, 0.2))], ids=["linear", "cubic"])
def test_fock_kernel_matches_the_einsum_trace(n_levels, beta, f):
    bath = BathSpec([1.0], [1.0], [1.0], beta=beta)
    times = np.linspace(0.0, 2 * math.pi, 10)
    got = oracle._branch_overlap(1.0, -1.0, times, f, bath, n_levels)
    assert np.max(np.abs(got - _einsum_overlap(1.0, -1.0, times, f, bath, n_levels))) < FOCK_KERNEL_ABS


def test_fock_phase_matches_drift_kernel_for_linear_coupling():
    # for f = Q the implemented quantum phase and the branch overlap agree
    for t in (0.7, 1.9):
        overlap = fock_quantum_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE)
        fac = quantum_factor(2.0, 0.0, t, LinearCoupling(1.0), SINGLE)
        diff = np.angle(overlap * np.exp(-1j * fac.phase))
        assert abs(diff) < 1e-8


def test_short_time_fit_recovers_exact_quadratic():
    ts = np.linspace(0.0, 1.0, 40)
    vals = 0.25 + 1.5 * ts - 2.0 * ts**2
    c1, c2 = short_time_fit(ts, vals, window=1.0)
    assert c1 == pytest.approx(1.5, rel=1e-12)
    assert c2 == pytest.approx(-2.0, rel=1e-12)


def test_short_time_fit_constant_series():
    ts = np.linspace(0.0, 1.0, 20)
    c1, c2 = short_time_fit(ts, np.full(20, 0.3), window=1.0)
    assert c1 == 0.0
    assert c2 == 0.0


def test_short_time_fit_input_validation():
    ts = np.linspace(0.0, 1.0, 20)
    with pytest.raises(ValueError, match="at least 8"):
        short_time_fit(ts, np.zeros(20), window=0.2)
    with pytest.raises(ValueError, match="start at t = 0"):
        short_time_fit(ts + 0.5, np.zeros(20), window=1.4)
    degenerate = np.array([0.0] + [1.0] * 9)
    with pytest.raises(ValueError, match="ill-conditioned"):
        short_time_fit(degenerate, np.zeros(10), window=1.0)

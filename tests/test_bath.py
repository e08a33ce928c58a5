import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn import _pool
from decodyn import bath as bath_module
from decodyn import oracle as oracle_module
from decodyn.bath import (
    BathMode,
    BathSpec,
    b1,
    b2,
    b2_dot,
    discretize_ohmic,
    thermal_sample_block,
    thermal_strength,
)
from decodyn.model import PolynomialCoupling


def single_mode(m=1.0, omega=1.0, c=1.0, beta=math.inf, hbar=1.0):
    return BathSpec(modes=(BathMode(m, omega, c),), beta=beta, hbar=hbar)


def test_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(modes=())
    with pytest.raises(ValueError):
        BathMode(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        BathMode(1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        single_mode(beta=0.0)


def test_thermal_strength_zero_temperature():
    assert thermal_strength(single_mode()) == 0.5


def test_thermal_strength_finite_temperature():
    # beta*hbar*omega = 2 -> coth(1)/2; oracle via the exponential form
    coth1 = (math.e**2 + 1) / (math.e**2 - 1)
    got = thermal_strength(single_mode(beta=2.0))
    assert got == pytest.approx(coth1 / 2, rel=1e-15)
    assert got == pytest.approx(0.6565176427496657, rel=1e-12)


def test_thermal_strength_uncoupled_is_zero():
    bath = BathSpec(modes=(BathMode(1.0, 1.0, 0.0), BathMode(2.0, 0.5, 0.0)))
    assert thermal_strength(bath) == 0.0


def test_thermal_strength_monotone_in_beta():
    betas = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf]
    vals = [thermal_strength(single_mode(omega=1.7, beta=b)) for b in betas]
    assert all(x >= y - 1e-15 for x, y in zip(vals, vals[1:]))


def test_kernels_at_zero():
    bath = discretize_ohmic(0.3, 1.0, 30, 5.0, beta=2.0)
    assert b1(bath, 0.0) == 0.0
    assert b2(bath, 0.0) == 0.0
    assert b2_dot(bath, 0.0) == 0.0


def test_single_mode_closed_values():
    bath = single_mode()
    assert b2(bath, math.pi) == pytest.approx(1.0, abs=1e-15)
    assert b1(bath, math.pi) == pytest.approx(math.pi, abs=1e-14)
    assert b2_dot(bath, math.pi / 2) == pytest.approx(0.5, abs=1e-15)


def test_b2_nonnegative_and_periodic_single_mode():
    bath = single_mode(omega=1.3)
    t = np.linspace(0, 20, 500)
    vals = b2(bath, t)
    assert np.all(vals >= 0)
    period = 2 * math.pi / 1.3
    np.testing.assert_allclose(b2(bath, t + period), vals, atol=1e-13)
    # b1 grows secularly: its oscillating part is periodic on top of a drift
    drift = 1.0 * period / (1.0 * 1.3**2)
    np.testing.assert_allclose(b1(bath, t + period), np.asarray(b1(bath, t)) + drift, atol=1e-12)


def test_b2_second_derivative_at_zero_is_thermal_strength():
    for bath in (single_mode(beta=2.0), discretize_ohmic(0.4, 1.0, 40, 5.0, beta=1.5, hbar=2.0)):
        eps = 1e-4
        d2 = (b2(bath, 2 * eps) - 2 * b2(bath, eps) + b2(bath, 0.0)) / eps**2
        assert d2 == pytest.approx(thermal_strength(bath) / bath.hbar, rel=1e-6)


def test_b2_dot_matches_finite_difference():
    bath = discretize_ohmic(0.35, 1.0, 25, 5.0, beta=2.0)
    rng = np.random.default_rng(3)
    eps = 1e-6
    for t in rng.uniform(0.01, 10.0, size=20):
        fd = (b2(bath, t + eps) - b2(bath, t - eps)) / (2 * eps)
        assert abs(fd - b2_dot(bath, t)) < 1e-8


def test_small_time_kernels_are_stable():
    bath = single_mode()
    t = 1e-7
    # leading orders: b1 ~ t^3/6, b2 ~ t^2/4 (coth=1, unit parameters)
    assert b1(bath, t) == pytest.approx(t**3 / 6, rel=1e-9)
    assert b2(bath, t) == pytest.approx(t**2 / 4, rel=1e-9)


def test_discretize_ohmic_single_mode_example():
    bath = discretize_ohmic(math.pi, math.inf, 1, 1.0)
    assert bath.n_modes == 1
    mode = bath.modes[0]
    assert mode.omega == 1.0
    assert mode.mass == 1.0
    assert mode.coupling**2 == pytest.approx(2.0, rel=1e-14)


def test_discretize_ohmic_distinct_positive_frequencies():
    bath = discretize_ohmic(0.5, 1.0, 50, 5.0)
    w = bath.omegas
    assert np.all(w > 0)
    assert np.all(np.diff(w) > 0)


def test_discretize_ohmic_validation():
    with pytest.raises(ValueError):
        discretize_ohmic(0.5, 1.0, 0, 5.0)
    with pytest.raises(ValueError):
        discretize_ohmic(-0.5, 1.0, 10, 5.0)
    with pytest.raises(ValueError):
        discretize_ohmic(0.5, 1.0, 10, -5.0)


def test_dense_ohmic_bath_has_no_early_recurrence():
    # 50 modes spaced by dw: b2 must stay clear of zero until ~2*pi/dw
    bath = discretize_ohmic(0.5, 1.0, 50, 5.0)
    dw = 5.0 / 50
    t = np.linspace(1.0, 2 * math.pi / dw - 1.0, 800)
    vals = np.asarray(b2(bath, t))
    assert vals.min() > 0.01 * vals.max()


def test_sampling_zero_temperature_widths():
    bath = single_mode()
    q, p = thermal_sample_block(bath, seed=5, start=0, count=1_000_000)
    # ground-state widths: var q = var p = 1/2
    assert q.var() == pytest.approx(0.5, rel=0.01)
    assert p.var() == pytest.approx(0.5, rel=0.01)
    n = q.shape[0]
    assert abs(q.mean()) < 4 * q.std() / math.sqrt(n)
    assert abs(p.mean()) < 4 * p.std() / math.sqrt(n)


def test_sampling_finite_temperature_widths():
    bath = single_mode(beta=2.0)
    coth1 = (math.e**2 + 1) / (math.e**2 - 1)
    q, p = thermal_sample_block(bath, seed=6, start=0, count=400_000)
    assert q.var() == pytest.approx(coth1 / 2, rel=0.01)
    assert p.var() == pytest.approx(coth1 / 2, rel=0.01)


def test_sampling_reproducible_and_partition_invariant():
    bath = discretize_ohmic(0.5, 1.0, 7, 3.0, beta=1.0)
    q1, p1 = thermal_sample_block(bath, seed=9, start=0, count=10_000)
    q2, p2 = thermal_sample_block(bath, seed=9, start=0, count=10_000)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(p1, p2)
    # ranges crossing the internal substream boundary give identical draws
    qa, pa = thermal_sample_block(bath, seed=9, start=0, count=3000)
    qb, pb = thermal_sample_block(bath, seed=9, start=3000, count=7000)
    np.testing.assert_array_equal(np.vstack([qa, qb]), q1)
    np.testing.assert_array_equal(np.vstack([pa, pb]), p1)
    qc, _ = thermal_sample_block(bath, seed=9, start=4095, count=10)
    np.testing.assert_array_equal(qc, q1[4095:4105])


STREAM = bath_module._STREAM_SAMPLES


def _with_workers(workers, fn, *args):
    """fn(*args) with the sampler's worker count set to workers, as on a host
    with that many cores."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "WORKERS", workers)
        return fn(*args)


@st.composite
def sample_ranges(draw):
    """(start, count, split) with the range over at most 5 substreams."""
    start = draw(st.integers(0, 5 * STREAM))
    count = draw(st.integers(0, 5 * STREAM - start % STREAM))
    return start, count, draw(st.integers(0, count))


def _projection_reference(bath, seed, start, count, cq, cp):
    """q @ cq + p @ cp on the (q, p) of the whole substreams that hold
    [start, start+count), cut to the range.  A product over the range's own
    rows is no reference: BLAS takes the last (rows mod 4) rows of a product
    by another kernel, with other bytes."""
    first, stop = start // STREAM, -(-(start + count) // STREAM)
    q, p = thermal_sample_block(bath, seed, first * STREAM, (stop - first) * STREAM)
    offset = start - first * STREAM
    return (q @ cq + p @ cp)[offset : offset + count]


@given(n_modes=st.integers(8, 64), seed=st.integers(0, 2**32 - 1), ranges=sample_ranges())
def test_sampling_bytes_do_not_depend_on_threads_or_split(n_modes, seed, ranges):
    start, count, split = ranges
    bath = discretize_ohmic(0.5, 1.0, n_modes, 3.0, beta=1.0)
    q1, p1 = _with_workers(1, thermal_sample_block, bath, seed, start, count)
    q2, p2 = _with_workers(2, thermal_sample_block, bath, seed, start, count)
    assert q1.shape == p1.shape == q2.shape == p2.shape == (count, n_modes)
    assert q1.tobytes() == q2.tobytes() and p1.tobytes() == p2.tobytes()
    qa, pa = _with_workers(2, thermal_sample_block, bath, seed, start, split)
    qb, pb = _with_workers(2, thermal_sample_block, bath, seed, start + split, count - split)
    assert np.vstack([qa, qb]).tobytes() == q1.tobytes()
    assert np.vstack([pa, pb]).tobytes() == p1.tobytes()
    cq, cp = np.random.default_rng(seed).standard_normal((2, n_modes))
    expected = _projection_reference(bath, seed, start, count, cq, cp)
    for workers in (1, 2, 3):
        theta = _with_workers(workers, thermal_sample_block, bath, seed, start, count, (cq, cp))
        assert theta.tobytes() == expected.tobytes()
    theta_a = _with_workers(2, thermal_sample_block, bath, seed, start, split, (cq, cp))
    theta_b = _with_workers(2, thermal_sample_block, bath, seed, start + split, count - split, (cq, cp))
    assert np.concatenate([theta_a, theta_b]).tobytes() == expected.tobytes()


def _substream_reference(bath, seed, start, count):
    """Samples [start, start+count) by the contract alone: sample i is row
    i % 4096 of Philox(key=seed).jumped(i // 4096)'s (4096, 2n) normals,
    scaled by the thermal widths."""
    first, last = start // STREAM, (start + count - 1) // STREAM
    z = np.vstack(
        [
            np.random.Generator(np.random.Philox(key=seed).jumped(s)).standard_normal((STREAM, 2 * bath.n_modes))
            for s in range(first, last + 1)
        ]
    )
    offset = start - first * STREAM
    block = z[offset : offset + count] * np.concatenate(bath_module._thermal_widths(bath))
    return block[:, : bath.n_modes], block[:, bath.n_modes :]


@pytest.mark.parametrize("n_modes", [1, 50])
@pytest.mark.parametrize(
    "start,count",
    [
        (100, STREAM - 100),  # partial first substream
        (STREAM, STREAM + 7),  # whole, then partial last
        (4000, 2 * STREAM),  # partial first and partial last
        (5, 10),  # both ends inside one substream
        (0, 2 * STREAM),  # whole substreams
    ],
)
@pytest.mark.parametrize("workers", [1, 2])
def test_sampling_follows_the_substream_contract(n_modes, start, count, workers):
    bath = discretize_ohmic(0.5, 1.0, n_modes, 3.0, beta=1.0)
    q, p = _with_workers(workers, thermal_sample_block, bath, 3, start, count)
    q_ref, p_ref = _substream_reference(bath, 3, start, count)
    assert q.tobytes() == q_ref.tobytes() and p.tobytes() == p_ref.tobytes()
    # the projection drawn per substream has the bytes of the same product on (q, p)
    coefs = np.random.default_rng(n_modes + start).standard_normal((2, 3, n_modes))
    theta = _with_workers(workers, thermal_sample_block, bath, 3, start, count, tuple(coefs))
    assert theta.shape == (3, count)
    for j, (cq, cp) in enumerate(zip(*coefs)):
        assert theta[j].tobytes() == _projection_reference(bath, 3, start, count, cq, cp).tobytes()
    row = _with_workers(workers, thermal_sample_block, bath, 3, start, count, (coefs[0, 1], coefs[1, 1]))
    assert row.tobytes() == theta[1].tobytes()


def _mc_50_modes(seed=11):
    bath = discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0)
    f = PolynomialCoupling((0.0, 1.0, 0.0, 0.05))
    return oracle_module.mc_classical_factor(2.0, -1.0, 0.8, f, bath, 20_000, seed)


def test_mc_bytes_do_not_depend_on_threads():
    assert _with_workers(1, _mc_50_modes) == _with_workers(2, _mc_50_modes)


def _mc_in_child(results):
    results.put(_mc_50_modes())


def test_mc_runs_in_a_forked_child(monkeypatch):
    # the parent's pool threads do not exist in a fork; the child must not
    # hand its substreams to them
    monkeypatch.setattr(_pool, "WORKERS", 2)
    expected = _mc_50_modes()
    ctx = multiprocessing.get_context("fork")
    results = ctx.Queue()
    child = ctx.Process(target=_mc_in_child, args=(results,))
    child.start()
    try:
        got = results.get(timeout=60)
    finally:
        child.join(5)
        if child.is_alive():
            child.kill()
    assert got == expected
    assert child.exitcode == 0

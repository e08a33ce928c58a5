import math
import multiprocessing
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn import _pool
from decodyn import bath as bath_module
from decodyn import oracle as oracle_module
from decodyn.bath import (
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
    return BathSpec([m], [omega], [c], beta=beta, hbar=hbar)


@pytest.mark.parametrize(
    "masses,omegas,couplings,match",
    [
        ([], [], [], "at least one mode"),
        ([1.0, 1.0], [1.0], [1.0, 1.0], "equal length"),
        ([1.0], [1.0, 2.0], [1.0], "equal length"),
        ([1.0], [1.0], [], "equal length"),
        ([[1.0]], [[1.0]], [[1.0]], "1-D"),
        ([1.0, 0.0], [1.0, 1.0], [1.0, 1.0], "mass must be positive, got 0.0 at mode 1"),
        ([-1.0], [1.0], [1.0], "mass must be positive"),
        ([float("nan")], [1.0], [1.0], "mass must be positive, got nan"),
        ([1.0], [-1.0], [1.0], "frequency must be positive"),
        ([1.0], [0.0], [1.0], "frequency must be positive"),
        ([1.0], [float("nan")], [1.0], "frequency must be positive, got nan"),
    ],
)
def test_spec_refuses_bad_modes(masses, omegas, couplings, match):
    with pytest.raises(ValueError, match=match):
        BathSpec(masses, omegas, couplings)


def test_spec_validation():
    for kwargs in ({"beta": 0.0}, {"beta": float("nan")}, {"hbar": 0.0}, {"hbar": -1.0}):
        with pytest.raises(ValueError):
            single_mode(**kwargs)


def test_spec_arrays_are_read_only_copies():
    masses, omegas, couplings = [1.0, 2.0], np.array([1.0, 0.5]), np.array([0.3, 0.4])
    bath = BathSpec(masses, omegas, couplings)
    masses[0], omegas[0], couplings[0] = 9.0, 9.0, 9.0
    assert bath.masses.tolist() == [1.0, 2.0]
    assert bath.omegas.tolist() == [1.0, 0.5]
    assert bath.couplings.tolist() == [0.3, 0.4]
    for a in (bath.masses, bath.omegas, bath.couplings):
        assert a.dtype == np.float64 and a.shape == (2,)
        with pytest.raises(ValueError):
            a[0] = 5.0
    assert bath.n_modes == 2


def test_thermal_strength_zero_temperature():
    assert thermal_strength(single_mode()) == 0.5


def test_thermal_strength_finite_temperature():
    # beta*hbar*omega = 2 -> coth(1)/2; oracle via the exponential form
    coth1 = (math.e**2 + 1) / (math.e**2 - 1)
    got = thermal_strength(single_mode(beta=2.0))
    assert got == pytest.approx(coth1 / 2, rel=1e-15)
    assert got == pytest.approx(0.6565176427496657, rel=1e-12)


def test_thermal_strength_uncoupled_is_zero():
    bath = BathSpec([1.0, 2.0], [1.0, 0.5], [0.0, 0.0])
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
    assert bath.omegas[0] == 1.0
    assert bath.masses[0] == 1.0
    assert bath.couplings[0] ** 2 == pytest.approx(2.0, rel=1e-14)


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


def _qp(bath, seed, start, count):
    """(q, p) of samples [start, start+count), each of shape (count, n_modes),
    projected on the identity: row j of q is z @ (q_std_j e_j), a sum of
    exact zeros and one product, whose bytes are z_j q_std_j's."""
    eye, zero = np.eye(bath.n_modes), np.zeros((bath.n_modes, bath.n_modes))
    theta = thermal_sample_block(bath, seed, start, count, (np.vstack([eye, zero]), np.vstack([zero, eye])))
    return theta[: bath.n_modes].T, theta[bath.n_modes :].T


def test_sampling_zero_temperature_widths():
    bath = single_mode()
    q, p = _qp(bath, seed=5, start=0, count=1_000_000)
    # ground-state widths: var q = var p = 1/2
    assert q.var() == pytest.approx(0.5, rel=0.01)
    assert p.var() == pytest.approx(0.5, rel=0.01)
    n = q.shape[0]
    assert abs(q.mean()) < 4 * q.std() / math.sqrt(n)
    assert abs(p.mean()) < 4 * p.std() / math.sqrt(n)


def test_sampling_finite_temperature_widths():
    bath = single_mode(beta=2.0)
    coth1 = (math.e**2 + 1) / (math.e**2 - 1)
    q, p = _qp(bath, seed=6, start=0, count=400_000)
    assert q.var() == pytest.approx(coth1 / 2, rel=0.01)
    assert p.var() == pytest.approx(coth1 / 2, rel=0.01)


def test_sampling_reproducible_and_partition_invariant():
    bath = discretize_ohmic(0.5, 1.0, 7, 3.0, beta=1.0)
    q1, p1 = _qp(bath, seed=9, start=0, count=10_000)
    q2, p2 = _qp(bath, seed=9, start=0, count=10_000)
    np.testing.assert_array_equal(q1, q2)
    np.testing.assert_array_equal(p1, p2)
    # ranges crossing the internal substream boundary give identical draws
    qa, pa = _qp(bath, seed=9, start=0, count=3000)
    qb, pb = _qp(bath, seed=9, start=3000, count=7000)
    np.testing.assert_array_equal(np.vstack([qa, qb]), q1)
    np.testing.assert_array_equal(np.vstack([pa, pb]), p1)
    qc, _ = _qp(bath, seed=9, start=4095, count=10)
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


def _substream_normals(bath, seed, start, count):
    """The contract's standard normals of the whole substreams that hold
    [start, start+count), with the offset of start in them: substream s is
    the (4096, 2n) normals of SFC64 spawned from seed with spawn key s."""
    first = start // STREAM
    stop = max(-(-(start + count) // STREAM), first + 1)
    z = np.vstack(
        [
            np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(s,)))).standard_normal(
                (STREAM, 2 * bath.n_modes)
            )
            for s in range(first, stop)
        ]
    )
    return z, start - first * STREAM


def _projection_reference(bath, seed, start, count, cq, cp):
    """z @ hstack((cq * q_std, cp * p_std)) on the contract's normals z of the
    whole substreams that hold [start, start+count), cut to the range.  A
    product over the range's own rows is no reference: BLAS takes the last
    (rows mod 4) rows of a product by another kernel, with other bytes."""
    z, offset = _substream_normals(bath, seed, start, count)
    weights = bath.mode_weights
    return (z @ np.hstack((cq * weights["q_std"], cp * weights["p_std"])))[offset : offset + count]


@given(n_modes=st.integers(8, 64), seed=st.integers(0, 2**64 - 1), ranges=sample_ranges())
def test_sampling_bytes_do_not_depend_on_threads_or_split(n_modes, seed, ranges):
    start, count, split = ranges
    bath = discretize_ohmic(0.5, 1.0, n_modes, 3.0, beta=1.0)
    q1, p1 = _with_workers(1, _qp, bath, seed, start, count)
    q2, p2 = _with_workers(2, _qp, bath, seed, start, count)
    assert q1.shape == p1.shape == q2.shape == p2.shape == (count, n_modes)
    assert q1.tobytes() == q2.tobytes() and p1.tobytes() == p2.tobytes()
    qa, pa = _with_workers(2, _qp, bath, seed, start, split)
    qb, pb = _with_workers(2, _qp, bath, seed, start + split, count - split)
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
    """(q, p) of samples [start, start+count) by the contract alone: sample i
    is row i % 4096 of substream i // 4096's normals, times the thermal
    widths."""
    z, offset = _substream_normals(bath, seed, start, count)
    weights = bath.mode_weights
    block = z[offset : offset + count] * np.concatenate((weights["q_std"], weights["p_std"]))
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
    q, p = _with_workers(workers, _qp, bath, 3, start, count)
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


@pytest.mark.parametrize("n_modes", [1, 2, 3, 50, 64, 65, 1024, 8192, 20_000])
def test_chunk_rule(n_modes):
    # a power of two from 4 to 4096, so it divides the substream and keeps
    # each row's offset mod 4; the largest whose normals fit in 512 KiB
    rows = bath_module._chunk_rows(n_modes)
    assert rows & (rows - 1) == 0 and 4 <= rows <= STREAM
    row_bytes = 2 * n_modes * 8
    assert rows == 4 or rows * row_bytes <= 512 * 1024
    assert rows == STREAM or 2 * rows * row_bytes > 512 * 1024


@pytest.mark.parametrize(
    "n_modes,start,count",
    [
        (130, 100, 300),  # 128-row chunks: ends inside the first and third
        (130, 4000, 500),  # across the substream edge
        (520, 31, 2),  # 32-row chunks: both ends inside one
        (520, 64, 4032),  # from a chunk edge to the substream's end
    ],
)
def test_chunked_projection_keeps_the_substream_bytes(n_modes, start, count):
    bath = discretize_ohmic(0.5, 1.0, n_modes, 3.0, beta=1.0)
    assert bath_module._chunk_rows(n_modes) < STREAM
    cq, cp = np.random.default_rng(n_modes).standard_normal((2, n_modes))
    expected = _projection_reference(bath, 5, start, count, cq, cp)
    for workers in (1, 2):
        theta = _with_workers(workers, thermal_sample_block, bath, 5, start, count, (cq, cp))
        assert theta.tobytes() == expected.tobytes()


# tracemalloc peaks of one call, measured with numpy 2.4.6 on a 2-core Xeon
# at 2 workers: 1.56 MiB at 50 modes and 100k samples, and 1.09 MiB at the
# command line's 1024-mode cap and 8192 samples; 7.09 and 128.1 MiB when
# each worker held a whole 4096-row substream.  Besides theta and one chunk
# of at most 512 KiB a worker, the coefficients, each chunk's products and
# the pool's bookkeeping take the slack (25 KB measured at the cap).
SAMPLER_SLACK = 64 * 1024


@pytest.mark.parametrize("n_modes,count", [(50, 100_000), (1024, 8192)])
@pytest.mark.parametrize("workers", [1, 2])
def test_sampler_holds_one_chunk_a_worker(n_modes, count, workers):
    bath = discretize_ohmic(0.25, 1.0, n_modes, 5.0, beta=2.0)
    project = tuple(np.random.default_rng(n_modes).standard_normal((2, n_modes)))
    # a first call builds the pool
    _with_workers(workers, thermal_sample_block, bath, 3, 0, count, project)
    tracemalloc.start()
    try:
        theta = _with_workers(workers, thermal_sample_block, bath, 3, 0, count, project)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= theta.nbytes + workers * 512 * 1024 + SAMPLER_SLACK, peak


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

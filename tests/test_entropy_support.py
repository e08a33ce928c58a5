"""The support-field entropy and rates against the dense full-grid quadrature.

``DensityMatrixGrid.support()`` pairs each cell above the diagonal with its
mirror image and drops pairs below 1e-17/n^2 of weight, so ``S(t)`` may move
by at most 1e-17 against the quadrature over every n x n cell.  The reference
below is that dense quadrature, kept as it was before the support field.  A
pure state is paired from its 1-D support; the same matrix given as
``values`` takes the n x n path, and both must agree.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn.bath import BathSpec, b2, discretize_ohmic, thermal_strength
from decodyn.model import (
    LinearCoupling,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from decodyn import _pool, rates, states, strongdec
from decodyn.rates import hbar_scan, rate_pair
from decodyn.states import DensityMatrixGrid, GaussianPacket, GridSpec, SuperpositionState, build_density_matrix
from decodyn.cli import PRESETS, main, parse_config, preset_config, run_scenario
from decodyn.strongdec import compute_series, entropy_series, support_field

SINGLE = BathSpec([1.0], [1.0], [1.0])
OHMIC = discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0)
SIDES = ("classical", "quantum")


def where_quotient(f, qbar, dq):
    """In-test copy of the two-point difference quotient
    [f(qbar + dq/2) - f(qbar - dq/2)] / dq, with the slope where dq = 0."""
    qb, d = np.broadcast_arrays(np.asarray(qbar, dtype=float), np.asarray(dq, dtype=float))
    diff = f._values(qb + 0.5 * d) - f._values(qb - 0.5 * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = diff / d
    return np.where(d == 0.0, f._derivative(qb), out)


def dense_fields(rho0, f, side):
    q = rho0.grid.q
    h = rho0.grid.spacing
    q1 = q[:, None]
    q2 = q[None, :]
    dq = q1 - q2
    qbar = 0.5 * (q1 + q2)
    g = f.slope(qbar) if side == "classical" else where_quotient(f, qbar, dq)
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


def _pair_bytes(pairs):
    return np.array([(p.classical_rate, p.quantum_rate, p.ratio) for p in pairs]).tobytes()


@given(
    rho0=cat_states(),
    f=st.one_of(couplings, tabulated),
    g=st.one_of(couplings, tabulated),
    factors=st.lists(st.floats(1e-2, 1e2), min_size=1, max_size=3),
)
def test_a_warm_memo_gives_the_fresh_state_bytes(rho0, f, g, factors):
    # two couplings interleaved on one state, each read by rate_pair and
    # hbar_scan; every result must be the bytes of the same call on the
    # state built afresh, whose memo is empty
    def fresh():
        return DensityMatrixGrid(grid=rho0.grid, psi=rho0.psi, hbar=rho0.hbar)

    cb = thermal_strength(SINGLE)
    for h in (f, g, f, g):
        assert _pair_bytes([rate_pair(rho0, h, cb, 1.0)]) == _pair_bytes([rate_pair(fresh(), h, cb, 1.0)])
        assert _pair_bytes(hbar_scan(rho0, h, SINGLE, factors)) == _pair_bytes(hbar_scan(fresh(), h, SINGLE, factors))


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
    """(scenario, state) for the state of every preset and each cat of its
    separation scan."""
    for name in PRESETS:
        scn = parse_config(preset_config(name))
        yield scn, build_density_matrix(scn.state, grid=scn.grid, hbar=scn.model.hbar)
        if scn.scan is not None and scn.scan["kind"] == "separation":
            for sep in scn.scan["separations"]:
                cat = SuperpositionState.symmetric_cat(sep, scn.scan["sigma"])
                yield scn, build_density_matrix(cat, hbar=scn.bath.hbar)


def test_pure_and_dense_support_pair_the_same_cells():
    for _, rho0 in preset_states():
        dense = DensityMatrixGrid(grid=rho0.grid, values=rho0.values, hbar=rho0.hbar)
        i, j, w, _ = rho0.support()
        i_d, j_d, w_d, _ = dense.support()
        assert w.size == w_d.size == rho0.pair_count() == dense.pair_count()
        assert i.dtype == j.dtype == i_d.dtype == j_d.dtype == np.int32
        assert i.tobytes() == i_d.tobytes()
        assert j.tobytes() == j_d.tobytes()
        assert np.max(np.abs(w - w_d) / w_d) <= PAIR_WEIGHT_REL


def test_pair_count_agrees_with_the_pairing_at_a_cut_on_its_own_products():
    # a cut equal to a product of two weights puts pairs exactly on it, where
    # a searchsorted on cut / (2 a_i) alone lands a step off the rounded
    # product for some cells
    rng = np.random.default_rng(5)
    psi = rng.random(400) * np.exp(1j * rng.random(400))
    psi[::9] = psi[4]  # runs of equal weights
    a, _ = states._pure_cells(psi, 0.1, 0.0)
    first_guess_off = 0
    for i, j in rng.integers(0, psi.size, (40, 2)):
        cut = 2.0 * a[i] * a[j]
        kept = states._pure_pairs(psi, 0.1, cut)[0].size
        assert states._pure_pair_count(psi, 0.1, cut) == kept
        _, cells = states._pure_cells(psi, 0.1, cut)
        s = np.sort(a[cells])
        k = np.searchsorted(s, cut / (2.0 * s))
        first_guess_off += (np.sum(s.size - k) - np.count_nonzero(2.0 * s * s >= cut)) // 2 != kept
    assert first_guess_off > 0


def _count_pairings(monkeypatch) -> list:
    calls = []
    pure_pairs = states._pure_pairs

    def counted(*args):
        calls.append(args)
        return pure_pairs(*args)

    monkeypatch.setattr(states, "_pure_pairs", counted)
    return calls


def test_hbar_scan_run_pairs_its_state_once(monkeypatch, tmp_path):
    # both entropy sides of the series and the scan's rates read one pairing
    calls = _count_pairings(monkeypatch)
    run_scenario("hbar-scan", out_dir=tmp_path)
    assert len(calls) == 1


def test_rates_and_hbar_scan_share_one_pairing(monkeypatch):
    calls = _count_pairings(monkeypatch)
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    f = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))
    pair = rate_pair(rho0, f, thermal_strength(SINGLE), SINGLE.hbar)
    assert hbar_scan(rho0, f, SINGLE, [1.0, 100.0])[0] == pair
    assert len(calls) == 1


@pytest.mark.parametrize("held_as", ["psi", "values"])
def test_support_is_built_once_and_read_only(held_as):
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5))
    if held_as == "values":
        rho0 = DensityMatrixGrid(grid=rho0.grid, values=rho0.values, hbar=rho0.hbar)
    first, again = rho0.support(), rho0.support()
    assert first[3] == again[3]
    for a, b in zip(first[:3], again[:3]):
        assert a is b
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


# the merged, cut series against an exact sum over every kept pair, unmerged
# and uncut; the worst gap over these states and times is 2.2e-16, one ulp
# of an S in [0.5, 1), where the np.dot loop it replaced was 2.8e-15 off
FSUM_ABS = 4.5e-16


def fsum_entropy(rho0, ts, f, bath, side):
    w, x, defect = support_field(rho0, f, side)
    return np.array([-math.fsum((w * np.expm1(-x * b)).tolist()) - defect for b in b2(bath, ts)])


def test_entropy_is_within_an_ulp_of_the_exact_sum_on_every_preset_state():
    for scn, rho0 in preset_states():
        # a dozen times from t = 0 to t_max; each S(t) is the same bytes
        # alone as in the full series
        ts = scn.times[:: scn.times.size // 12]
        for side in SIDES:
            s = entropy_series(rho0, ts, scn.coupling, scn.bath, side)
            assert np.max(np.abs(s - fsum_entropy(rho0, ts, scn.coupling, scn.bath, side))) <= FSUM_ABS


def lattice_midpoint(rho0) -> float:
    """The midpoint of the middle support pair (i, j), as the classical
    field's slope table holds it: q[s // 2] and q[(s + 1) // 2] halved, s = i + j."""
    i, j, _, _ = rho0.support()
    s = int(i[i.size // 2]) + int(j[j.size // 2])
    q = rho0.grid.q
    return float(0.5 * (q[s // 2] + q[(s + 1) // 2]))


class NanSlopeAt(PolynomialCoupling):
    """f = Q^3 with a NaN slope at one midpoint."""

    def __init__(self, bad: float):
        super().__init__((0.0, 0.0, 0.0, 1.0))
        self.bad = bad

    def _derivative(self, q):
        return np.where(q == self.bad, np.nan, super()._derivative(q))


def test_nan_exponent_is_never_cut_as_dead():
    # a NaN exponent sorts after every finite one, where the dead tail
    # starts; it must still turn S into NaN at every time, as expm1 does
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    f = NanSlopeAt(lattice_midpoint(rho0))
    ts = np.linspace(0.0, 3.0, 9)
    assert np.all(np.isnan(entropy_series(rho0, ts, f, SINGLE, "classical")))
    assert not np.any(np.isnan(entropy_series(rho0, ts, f, SINGLE, "quantum")))


def test_zero_b2_keeps_every_pair_live():
    # at b2 = 0 every term is expm1(-0) = 0, so S is -defect exactly; a pair
    # wrongly cut as dead would add -w there
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    f = PolynomialCoupling((0.0, 0.0, 0.0, 1e6))
    idle = BathSpec([1.0], [1.0], [0.0])
    _, _, defect = support_field(rho0, f, "quantum")
    assert entropy_series(rho0, [0.0, 1.0], f, SINGLE, "quantum")[0] == -defect
    assert np.all(entropy_series(rho0, [0.0, 1.0, 2.0], f, idle, "quantum") == -defect)


class InfSlopeAt(NanSlopeAt):
    """f = Q^3 with an infinite slope at one midpoint."""

    def _derivative(self, q):
        return np.where(q == self.bad, np.inf, PolynomialCoupling._derivative(self, q))


def test_zero_b2_takes_no_expm1_on_a_finite_field(monkeypatch):
    # at b2 = 0 each term is w expm1(-0) = -0 and their sum is +0, so every
    # preset state takes no sum at t = 0 and keeps the loop's bytes:
    # S(0) = -0 where the defect is 0, as on sine-cat.  An infinite
    # exponent takes no sum either, and inf 0 = NaN keeps S(0) NaN.
    calls = []
    loop = strongdec._loop_sum

    def counted(xu, wu, b):
        calls.append(b)
        return loop(xu, wu, b)

    monkeypatch.setattr(strongdec, "_loop_sum", counted)
    zeros = {}
    for scn, rho0 in preset_states():
        for side in SIDES:
            s = entropy_series(rho0, [0.0], scn.coupling, scn.bath, side)
            assert s.tobytes() == expm1_loop(rho0, [0.0], scn.coupling, scn.bath, side).tobytes()
            zeros.setdefault(scn.name, s[0])
    assert calls == []
    assert math.copysign(1.0, zeros["sine-cat"]) == -1.0
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    f = InfSlopeAt(lattice_midpoint(rho0))
    with np.errstate(invalid="ignore"):
        assert np.isnan(entropy_series(rho0, [0.0], f, SINGLE, "classical")[0])
    assert calls == []


@given(rho0=cat_states(), f=couplings, bath=st.sampled_from([SINGLE, OHMIC]), t_max=st.floats(0.5, 8.0))
def test_each_time_has_the_same_bytes_alone_and_in_a_threaded_batch(rho0, f, bath, t_max):
    # 7 times over 3 workers: an uneven interleave
    ts = np.linspace(0.0, t_max, 7)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pool, "WORKERS", 3)
        for side in SIDES:
            batch = entropy_series(rho0, ts, f, bath, side)
            alone = [entropy_series(rho0, [t], f, bath, side)[0] for t in ts]
            assert batch.tobytes() == np.array(alone).tobytes()


def index_order_merge(w, x):
    """The merge's contract: the distinct x in ascending order, each group's
    weights added in index order by a plain loop, and every NaN exponent in
    one last entry.  Round k adds each group's k-th weight to its total."""
    order = np.argsort(x, kind="stable")  # index order within each group
    xs, ws = x[order], w[order]
    first = np.ones(xs.size, dtype=bool)
    first[1:] = (xs[1:] != xs[:-1]) & ~(np.isnan(xs[1:]) & np.isnan(xs[:-1]))
    starts = np.flatnonzero(first)
    sizes = np.diff(starts, append=xs.size)
    totals = np.zeros(starts.size)
    for k in range(int(sizes.max(initial=0))):
        has = sizes > k
        totals[has] += ws[starts[has] + k]
    return xs[starts], totals


def expm1_loop(rho0, ts, f, bath, side):
    """The series before the head: every live exponent x b2 < 40 takes an
    expm1, the dead rest adds -w."""
    w, x, defect = support_field(rho0, f, side)
    xu, wu = index_order_merge(w, x)
    nan = xu.size > 0 and np.isnan(xu[-1])
    out = []
    for b in np.atleast_1d(b2(bath, np.asarray(ts, dtype=float))).tolist():
        k = xu.size if nan or not b > 0 else int(np.searchsorted(xu, 40.0 / b))
        live = np.expm1(xu[:k] * -b) * wu[:k]
        out.append(-(live.sum() - wu[k:].sum()) - defect)
    return np.array(out)


U = 2.0**-53


def head_bound(rho0, f, side):
    """The stated bound on the head's change of S (strongdec): the series'
    remainder 1/22! and 2^-43 of rounding per unit of weight, and 6u of the
    purity defect."""
    w, _, defect = support_field(rho0, f, side)
    return float(w.sum()) * (1.0 / math.factorial(22) + 2.0**-43) + 6.0 * U * abs(defect)


@given(
    rho0=cat_states(),
    f=st.one_of(couplings, tabulated),
    bath=st.sampled_from([SINGLE, OHMIC]),
    t_max=st.floats(0.05, 8.0),
)
def test_head_changes_the_expm1_loop_by_at_most_its_bound(rho0, f, bath, t_max):
    ts = np.linspace(0.0, t_max, 12)
    for side in SIDES:
        s = entropy_series(rho0, ts, f, bath, side)
        assert np.max(np.abs(s - expm1_loop(rho0, ts, f, bath, side))) <= head_bound(rho0, f, side)


@given(rho0=cat_states(), f=st.one_of(couplings, tabulated), bath=st.sampled_from([SINGLE, OHMIC]), t_max=st.floats(0.5, 8.0))
def test_head_remainder_is_bounded_where_it_shows(rho0, f, bath, t_max):
    # below 1 the remainder y^22/22! of a head pair is far below rounding;
    # with the head taken up to x b2 = 6 it reaches 1.2e-4, and S must still
    # stay within the remainder of every pair up to there, with 2^-36 of
    # rounding per unit of weight (e^6 times that at 1)
    ts = np.linspace(0.0, t_max, 12)
    for side in SIDES:
        w, x, defect = support_field(rho0, f, side)
        old = expm1_loop(rho0, ts, f, bath, side)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strongdec, "_HEAD_Y", 6.0)
            s = entropy_series(rho0, ts, f, bath, side)
        for i, b in enumerate(b2(bath, ts)):
            y = x * b
            inside = y <= 6.0 * (1.0 + 1e-12)  # the head's cut, rounded either way
            remainder = math.fsum((w[inside] * y[inside] ** 22).tolist()) / math.factorial(22)
            assert abs(s[i] - old[i]) <= remainder + float(w.sum()) * 2.0**-36 + 6.0 * U * abs(defect)


def test_head_edge_cases_against_the_expm1_loop():
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    cubic = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))
    ts = np.linspace(0.0, 3.0, 9)
    # b2 = 0 at t = 0: S = -defect exactly, as before
    for side in SIDES:
        assert entropy_series(rho0, [0.0], cubic, SINGLE, side)[0] == expm1_loop(rho0, [0.0], cubic, SINGLE, side)[0]
    # a subnormal b2 (2.5e-321) puts every block in the head, without an
    # overflow error where run_scenario raises on one
    tiny = [1e-160]
    assert 0.0 < b2(SINGLE, tiny)[0] < np.finfo(float).tiny
    with np.errstate(over="raise", invalid="raise"):
        for side in SIDES:
            s = entropy_series(rho0, tiny, cubic, SINGLE, side)
            assert abs(s[0] - expm1_loop(rho0, tiny, cubic, SINGLE, side)[0]) <= head_bound(rho0, cubic, side)
    # a NaN exponent: NaN at every time on that side, the other side as before
    nan_at = NanSlopeAt(lattice_midpoint(rho0))
    assert np.all(np.isnan(entropy_series(rho0, ts, nan_at, SINGLE, "classical")))
    quantum = entropy_series(rho0, ts, nan_at, SINGLE, "quantum")
    assert np.max(np.abs(quantum - expm1_loop(rho0, ts, nan_at, SINGLE, "quantum"))) <= head_bound(rho0, nan_at, "quantum")
    # exponents up to 1e17, whose 21st powers overflow: those blocks stay out
    # of the head at every time
    steep = PolynomialCoupling((0.0, 0.0, 0.0, 1e6))
    _, x, _ = support_field(rho0, steep, "quantum")
    assert np.max(x) > 1e308 ** (1.0 / 21.0)
    for t in (np.logspace(-12.0, 0.0, 13), ts):
        for side in SIDES:
            s = entropy_series(rho0, t, steep, SINGLE, side)
            assert np.all(np.isfinite(s))
            assert np.max(np.abs(s - expm1_loop(rho0, t, steep, SINGLE, side))) <= head_bound(rho0, steep, side)


def test_fewer_exponents_than_a_block_stay_within_the_block_bound():
    # a field smaller than one block has no head: every exponent is in an
    # anchored block or a dead one
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5), grid=GridSpec(-8.0, 8.0, 24))
    f = SinusoidalCoupling(1.0, 3.0, 0.2)
    ts = np.linspace(0.0, 5.0, 11)
    for side in SIDES:
        assert support_field(rho0, f, side)[0].size < strongdec._HEAD_BLOCK
        s = entropy_series(rho0, ts, f, OHMIC, side)
        assert np.max(np.abs(s - expm1_loop(rho0, ts, f, OHMIC, side))) <= block_bound(rho0, f, side)


def block_bound(rho0, f, side):
    """The stated bound on the blocks' change of S (strongdec): the
    series' remainder 1/22! and 2^-43 of rounding per unit of weight,
    2^-62 per block for the extended-precision sums (at most one block per
    distinct exponent), and 6u of the purity defect."""
    w, x, defect = support_field(rho0, f, side)
    blocks = np.unique(x).size
    return float(w.sum()) * (1.0 / math.factorial(22) + 2.0**-43 + blocks * 2.0**-62) + 6.0 * U * abs(defect)


@given(
    rho0=cat_states(),
    f=st.one_of(couplings, tabulated),
    bath=st.sampled_from([SINGLE, OHMIC]),
    t_max=st.floats(0.05, 8.0),
)
def test_blocks_change_the_expm1_loop_by_at_most_their_bound(rho0, f, bath, t_max):
    ts = np.linspace(0.0, t_max, 12)
    for side in SIDES:
        w, x, _ = support_field(rho0, f, side)
        xu, wu = strongdec._merged(w, x)
        # the partition: at most a block of exponents, a span of at most 1/40
        # of the first, and a block start at every head's end
        starts = strongdec._blocks(xu)
        first, last = xu[starts[:-1]], xu[starts[1:] - 1]
        assert np.all(np.diff(starts) <= strongdec._HEAD_BLOCK)
        assert np.all(last - first <= first / 40.0)
        assert np.all(np.isin(np.arange(0, xu.size, strongdec._HEAD_BLOCK), starts))
        loop = expm1_loop(rho0, ts, f, bath, side)
        s = entropy_series(rho0, ts, f, bath, side)
        assert np.max(np.abs(s - loop)) <= block_bound(rho0, f, side)
        # at the module's width a live block's remainder is at most
        # e^-(c b2) (c b2/41)^22/22! <= 2.8e-37 per unit weight, too small to
        # show; with bins of ratio 3/2 it reaches 2e-8, and S must stay within
        # e^-(c b2) sum w y^22/22! over each block with c b2 < 40
        # (y = (x - c) b2 < 20), the head's 1/22! and the same rounding
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strongdec, "_PER_LOG", 1.0 / math.log1p(0.5))
            s = entropy_series(rho0, ts, f, bath, side)
            starts = strongdec._blocks(xu)
        c = np.repeat(xu[starts[:-1]], np.diff(starts))
        for i, b in enumerate(b2(bath, ts)):
            live = c * b < 40.0
            y = (xu[live] - c[live]) * b
            remainder = math.fsum((np.exp(-c[live] * b) * wu[live] * y**22).tolist()) / math.factorial(22)
            slack = remainder + float(w.sum()) / math.factorial(22) + block_bound(rho0, f, side)
            assert abs(s[i] - loop[i]) <= slack


@pytest.mark.parametrize(
    "coefficients, t_live",
    [([0, 0, 0, 1e6], 1e-6), ([0, 0, 0, 1e20], 1e-20), ([0, 0, 0, 1e100], 1e-98), ([0, 1e30], 1e-28)],
)
@pytest.mark.parametrize("short", [False, True])
def test_steep_couplings_run_within_the_block_bound(coefficients, t_live, short, tmp_path):
    # exponents up to 7e205, under run_scenario's overflow and invalid
    # errors: past 1e14 each exponent is a block of its own, whose moments
    # are zero, so no (x - c)^21 overflows.  On the preset's times those
    # exponents are dead; on times up to t_live they are live
    cfg = preset_config("linear") | {"coupling": {"variant": "polynomial", "coefficients": coefficients}}
    if short:
        cfg["time"] = {"t_max": t_live, "n_steps": 200}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    series = np.genfromtxt(tmp_path / "out" / "linear_series.csv", delimiter=",", names=True)
    scn = parse_config(cfg)
    rho0 = build_density_matrix(scn.state, grid=scn.grid, hbar=scn.model.hbar)
    for side, column in zip(SIDES, ("S_c", "S_q")):
        s = series[column]
        assert np.all(np.isfinite(s))
        loop = expm1_loop(rho0, scn.times, scn.coupling, scn.bath, side)
        assert np.max(np.abs(s - loop)) <= block_bound(rho0, scn.coupling, side)


def test_b2_past_the_moment_limit_takes_the_loop(monkeypatch):
    # c = 1e8 on one mode gives b2 = 5e15 (1 - cos t): 2.3e15-9.9e15 at
    # t = 1-3, past the 1e14 up to which a moment's b2^21 neither overflows
    # nor loses more than 2.5e-30 to underflow; those times take one expm1
    # per live exponent, the same bytes as the loop, and the earlier times
    # in the same call take the blocks
    strong = BathSpec([1.0], [1.0], [1e8])
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5))
    f = PolynomialCoupling((0.0, 0.0, 0.0, 1e-7))
    ts = np.array([0.0, 0.02, 0.05, 0.1, 0.2, 1.0, 2.0, 3.0])
    b2s = b2(strong, ts)
    past = b2s > 1e14
    assert past.tolist() == [False] * 5 + [True] * 3
    calls = []
    loop = strongdec._loop_sum

    def counted(xu, wu, b):
        calls.append(b)
        return loop(xu, wu, b)

    monkeypatch.setattr(strongdec, "_loop_sum", counted)
    for side in SIDES:
        calls.clear()
        s = entropy_series(rho0, ts, f, strong, side)
        want = expm1_loop(rho0, ts, f, strong, side)
        assert s[past].tobytes() == want[past].tobytes()
        assert np.max(np.abs(s[~past] - want[~past])) <= block_bound(rho0, f, side)
        assert calls == b2s[past].tolist()
        # some exponents are live at the loop's times, and some dead
        _, x, _ = support_field(rho0, f, side)
        assert 0 < np.count_nonzero(x * b2s[-1] < 40.0) < x.size


def _ties(x):
    """The longest run of one value in x."""
    xs = np.sort(x)
    first = np.ones(xs.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    return int(np.max(np.diff(np.flatnonzero(first), append=xs.size)))


@pytest.mark.parametrize(
    "f, side, ties",
    [
        (SinusoidalCoupling(1.0, 8.0, 0.7), "quantum", 1),
        (QuadraticCoupling(1.0, 0.3), "classical", 2),
        (PolynomialCoupling((0.0, 0.0, 0.0, 1.0)), "quantum", 2),
        (PolynomialCoupling((0.0, 0.0, 0.0, 1.0)), "classical", 5),
        (LinearCoupling(1.0), "classical", 428),
    ],
)
def test_merge_gives_the_stable_merge_bytes(f, side, ties):
    # no ties, pairs (mirror midpoints of a symmetric cat), and runs (the
    # linear exponent depends on the lattice offset j - i alone, the cubic
    # slope on Qbar^2);
    # each run's weights add in index order, as a stable merge keeps them
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(8.0, 0.2))
    w, x, _ = support_field(rho0, f, side)
    assert _ties(x) == ties
    for got, want in zip(strongdec._merged(w, x), index_order_merge(w, x)):
        assert got.tobytes() == want.tobytes()


@given(
    x=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, math.nan]) | st.floats(0.0, 10.0), max_size=300),
    seed=st.integers(0, 2**32 - 1),
)
def test_merge_gives_the_stable_merge_bytes_on_any_field(x, seed):
    x = np.asarray(x, dtype=float)
    w = np.random.default_rng(seed).random(x.size)
    for got, want in zip(strongdec._merged(w, x), index_order_merge(w, x)):
        assert got.tobytes() == want.tobytes()


def pairwise_merge(w, x):
    """A merge in another order: numpy's pairwise add.reduceat of the
    stably sorted field, which adds each group's first weight to the sum of
    the rest."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    first = np.ones(xs.size, dtype=bool)
    first[1:] = xs[1:] != xs[:-1]
    starts = np.flatnonzero(first)
    return xs[starts], np.add.reduceat(w[order], starts)


@pytest.mark.parametrize("f", [LinearCoupling(1.0), PolynomialCoupling((0.0, 0.0, 0.0, 1.0))])
@pytest.mark.parametrize("separation, sigma", [(8.0, 0.2), (3.0, 0.5)])
def test_merge_order_moves_s_by_at_most_its_bound(separation, sigma, f):
    # the stated bound between two orders of adding each group (strongdec):
    # W (2 (m - 1) u + 2^-42) + 12u |defect|, m the largest group
    rho0 = build_density_matrix(SuperpositionState.symmetric_cat(separation, sigma))
    ts = np.linspace(0.0, 8.0, 17)
    for side in SIDES:
        w, x, defect = support_field(rho0, f, side)
        bound = float(w.sum()) * (2 * (_ties(x) - 1) * U + 2.0**-42) + 12.0 * U * abs(defect)
        s = entropy_series(rho0, ts, f, OHMIC, side)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(strongdec, "_merged", pairwise_merge)
            other = entropy_series(rho0, ts, f, OHMIC, side)
        assert np.max(np.abs(s - other)) <= bound


def test_each_side_field_is_evaluated_once_per_run(monkeypatch, tmp_path):
    # the entropy fills the rate memo, so an hbar scan after the series
    # reads it; each state built in a run evaluates each side's field once
    for name in PRESETS:
        calls = []
        field = strongdec.support_field

        def counted(rho0, f, side):
            calls.append((rho0, side))
            return field(rho0, f, side)

        # wherever the field is read from
        for module in (strongdec, rates):
            if hasattr(module, "support_field"):
                monkeypatch.setattr(module, "support_field", counted)
        run_scenario(name, out_dir=tmp_path / name)
        monkeypatch.undo()
        f = parse_config(preset_config(name)).coupling
        sides = ["classical"] if strongdec.quotient_is_slope(f) else ["classical", "quantum"]
        states_seen = {id(rho0): rho0 for rho0, _ in calls}
        assert states_seen, name
        for key in states_seen:
            assert sorted(side for rho0, side in calls if id(rho0) == key) == sides, name

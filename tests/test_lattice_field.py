"""The support field's lattice tables against the per-pair formula.

``strongdec.support_field`` forms each pair's exponent x from tables over
the lattice: f'(qbar) at the 2n - 1 midpoints on the classical side, f at
the n points on the quantum side.  Before, each pair read its own offset
dq = q_i - q_j and midpoint qbar = (q_i + q_j)/2, and the quantum side the
difference quotient at qbar +- dq/2.  The module docstring of ``strongdec``
bounds how far r = sqrt(x/2) = |Q1 - Q2| |g| may move between the two, in
terms of u, max|q|/h and the coupling; this checks that bound, and that a
state held as psi or as values pairs and weighs the same cells.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn import strongdec
from decodyn.bath import BathSpec
from decodyn.model import PolynomialCoupling, SinusoidalCoupling, TabulatedCoupling
from decodyn.rates import rate_pair
from decodyn.states import DensityMatrixGrid, GaussianPacket, GridSpec, SuperpositionState, build_density_matrix
from decodyn.strongdec import support_field

U = 2.0**-53
SIDES = ("classical", "quantum")


@st.composite
def packet_states(draw):
    """One to three packets, kicked and with complex amplitudes, on a grid
    of 64 to 256 points covering every packet +- 10 sigma."""
    packets = []
    for _ in range(draw(st.integers(1, 3))):
        phase = draw(st.floats(0.0, 2.0 * math.pi))
        packets.append(
            GaussianPacket(
                draw(st.floats(-4.0, 4.0)),
                draw(st.floats(-2.0, 2.0)),
                draw(st.floats(0.2, 1.0)),
                amplitude=draw(st.floats(0.2, 1.0)) * complex(math.cos(phase), math.sin(phase)),
            )
        )
    state = SuperpositionState(packets=tuple(packets))
    lo = min(pk.center_q - 10.0 * pk.sigma for pk in packets)
    hi = max(pk.center_q + 10.0 * pk.sigma for pk in packets)
    return build_density_matrix(state, grid=GridSpec(lo, hi, draw(st.integers(64, 256))))


@st.composite
def states_and_couplings(draw):
    """A pure state and a coupling: a polynomial of degree up to 4, a
    sinusoid, or a table spanning only the hull of the state's support."""
    rho0 = draw(packet_states())
    kind = draw(st.sampled_from(["polynomial", "sinusoid", "table"]))
    if kind == "polynomial":
        degree = draw(st.integers(0, 4))
        lower = draw(st.lists(st.floats(-1.0, 1.0), min_size=degree, max_size=degree))
        return rho0, PolynomialCoupling([*lower, draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.2, 1.0))])
    if kind == "sinusoid":
        return rho0, SinusoidalCoupling(draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 6.0)), draw(st.floats(0.0, math.pi)))
    i, j, _, _ = rho0.support()
    q = rho0.grid.q
    knots = np.linspace(q[int(i.min())], q[int(j.max())], draw(st.integers(4, 12)))
    bumps = draw(st.lists(st.floats(-1.0, 1.0), min_size=knots.size, max_size=knots.size))
    return rho0, TabulatedCoupling(knots, draw(st.floats(0.2, 1.0)) * knots + np.asarray(bumps))


def where_quotient(f, qbar, dq):
    """In-test copy of the two-point difference quotient
    [f(qbar + dq/2) - f(qbar - dq/2)] / dq, with the slope where dq = 0."""
    qb, d = np.broadcast_arrays(np.asarray(qbar, dtype=float), np.asarray(dq, dtype=float))
    diff = f._values(qb + 0.5 * d) - f._values(qb - 0.5 * d)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = diff / d
    return np.where(d == 0.0, f._derivative(qb), out)


def per_pair_field(rho0, f, side):
    """The exponent as each pair took it before the lattice tables:
    2 dq^2 g(qbar)^2 from dq = q_i - q_j and qbar = (q_i + q_j)/2, g the
    slope or the difference quotient.  The quotient reads f within 3u max|q|
    of q_i and q_j, so a table spanning only the hull is read past its ends
    here, through the same spline."""
    i, j, _, _ = rho0.support()
    q = rho0.grid.q
    dq, qbar = q[i] - q[j], 0.5 * (q[i] + q[j])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TabulatedCoupling, "_check_range", lambda self, q: None)
        g = f.slope(qbar) if strongdec._takes_slope(f, side) else where_quotient(f, qbar, dq)
    return 2.0 * dq**2 * g**2


def _spline_scales(spline):
    """(L1, L2, eps, eps1) of a cubic spline, each piece a power sum in
    s = Q - knot: bounds on |f'| and |f''|, and on the rounding of the
    computed f and f' (16u of the sum of the terms' magnitudes, u |s| of the
    argument, and the gap between adjacent pieces at their knot, summed in
    exact arithmetic)."""
    c = spline.c  # c[3 - m, k]: the coefficient of s^m on piece k
    x = spline.x
    dx = np.diff(x)
    mags = [np.abs(c[3 - m]) * dx**m for m in range(4)]
    l1 = float(np.max(sum(m * np.abs(c[3 - m]) * dx ** (m - 1) for m in range(1, 4))))
    l2 = float(np.max(sum(m * (m - 1) * np.abs(c[3 - m]) * dx ** (m - 2) for m in range(2, 4))))
    jumps = [0.0, 0.0]
    for k in range(dx.size - 1):
        s = Fraction(float(x[k + 1])) - Fraction(float(x[k]))
        cs = [Fraction(float(c[3 - m, k])) for m in range(4)]
        value = sum(cs[m] * s**m for m in range(4))
        slope = sum(m * cs[m] * s ** (m - 1) for m in range(1, 4))
        jumps[0] = max(jumps[0], abs(float(value - Fraction(float(c[3, k + 1])))))
        jumps[1] = max(jumps[1], abs(float(slope - Fraction(float(c[2, k + 1])))))
    eps = 16 * U * float(np.max(sum(mags))) + U * float(dx.max()) * l1 + jumps[0]
    eps1 = 16 * U * float(np.max(sum(m * mags[m] / dx for m in range(1, 4)))) + U * float(dx.max()) * l2 + jumps[1]
    return l1, l2, eps, eps1


def coupling_scales(f, m):
    """(L1, L2, eps, eps1): bounds on |f'| and |f''| for |Q| <= m, and on
    the rounding error of the computed f and f' there."""
    if isinstance(f, PolynomialCoupling):
        c = np.abs(np.asarray(f.coefficients))
        k = np.arange(c.size)
        d = c.size - 1
        l1 = float(np.sum(k[1:] * c[1:] * m ** (k[1:] - 1)))
        l2 = float(np.sum(k[2:] * (k[2:] - 1) * c[2:] * m ** (k[2:] - 2)))
        # Horner's rule of degree d is within 2d u of sum |c_k| |Q|^k
        return l1, l2, 2 * d * U * float(np.sum(c * m**k)), 2 * max(d - 1, 0) * U * l1
    if isinstance(f, SinusoidalCoupling):
        a, k, phi = abs(f.amplitude), 2.0 * math.pi / abs(f.wavelength), abs(f.phase)
        # the argument's roundings, then 4 ulp of sin or cos and one product
        return a * k, a * k * k, a * U * (3 * k * m + phi + 5), a * k * U * (2 * k * m + phi + 5)
    return _spline_scales(f._spline)


def field_bound(rho0, f, side, r):
    """The stated bound (strongdec) on |r - r_old| per pair, r = sqrt(x/2)."""
    i, j, _, _ = rho0.support()
    h = rho0.grid.spacing
    m = max(abs(rho0.grid.q_min), abs(rho0.grid.q_max))
    l1, l2, eps, eps1 = coupling_scales(f, m)
    if side == "classical" or strongdec.quotient_is_slope(f):
        return (8 * m / h + 6) * U * r + (j - i) * h * (10 * U * m * l2 + 2 * eps1)
    return 6 * U * r + 6 * U * m * l1 + 4 * eps


@given(case=states_and_couplings())
def test_lattice_field_matches_the_per_pair_formula(case):
    rho0, f = case
    dense = DensityMatrixGrid(grid=rho0.grid, values=rho0.values, hbar=rho0.hbar)
    fields = {}
    for side in SIDES:
        w, x, _ = support_field(rho0, f, side)
        # a state held as values pairs the same cells into the same exponents
        for a, b in zip(rho0.support()[:2], dense.support()[:2]):
            assert a.dtype == np.int32 and a.tobytes() == b.tobytes()
        assert support_field(dense, f, side)[1].tobytes() == x.tobytes()
        r = np.sqrt(0.5 * x)
        old = np.sqrt(0.5 * per_pair_field(rho0, f, side))
        # each square root rounds once, by at most u/2 of r
        assert np.all(np.abs(r - old) <= field_bound(rho0, f, side, r) + U * (r + old))
        fields[side] = x
    if strongdec.quotient_is_slope(f):
        assert fields["classical"].tobytes() == fields["quantum"].tobytes()


@given(case=states_and_couplings())
def test_probe_rule_matches_the_field(case):
    # the point rule of the factors and the probe columns, taken at lattice
    # pairs of the support, gives the field's exponent: the same bytes on
    # the quantum side, where both difference the same values of f, and
    # within the field's stated bound where g is the slope
    rho0, f = case
    i, j, _, _ = rho0.support()
    q = rho0.grid.q
    pick = np.unique(np.linspace(0, i.size - 1, 256).astype(int))
    for side in SIDES:
        x = support_field(rho0, f, side)[1]
        probe = np.array([2.0 * strongdec._coefficients(q[a], q[b], f, side)[0] for a, b in zip(i[pick], j[pick])])
        if strongdec._takes_slope(f, side):
            r, point = np.sqrt(0.5 * x), np.sqrt(0.5 * probe)
            bound = field_bound(rho0, f, side, r)[pick]
            assert np.all(np.abs(r[pick] - point) <= bound + U * (r[pick] + point))
        else:
            assert probe.tobytes() == x[pick].tobytes()


def test_a_diagonal_matrix_has_an_empty_field():
    # a fully decohered state keeps no pair, so no table is formed: S is
    # minus the purity defect at every time and both rates are zero
    grid = GridSpec(-4.0, 4.0, 64)
    rho0 = DensityMatrixGrid(grid=grid, values=np.eye(64) / (64 * grid.spacing))
    f = PolynomialCoupling((0.0, 0.0, 0.0, 1.0))
    bath = BathSpec([1.0], [1.0], [1.0])
    for side in SIDES:
        w, x, defect = support_field(rho0, f, side)
        assert w.size == x.size == 0
        assert np.all(strongdec.entropy_series(rho0, [0.0, 1.0], f, bath, side) == -defect)
    assert rate_pair(rho0, f, 0.5, 1.0).quantum_rate == 0.0

"""Exact decoherence dynamics in the strong-decoherence limit.

With the system Hamiltonian negligible on the decoherence time scale, every
off-diagonal element evolves independently:

    rho(Q1, Q2, t) / rho(Q1, Q2, 0) = exp[i*phase(t) + log_modulus(t)]

    log_modulus = -(Q1-Q2)^2 g(Qbar)^2 b2(t)
    phase       =  (Q1-Q2) f(Qbar) g(Qbar) b1(t) / hbar

with g = df/dQ (classical propagation of the same initial state) or
g = [f(Q1)-f(Q2)]/(Q1-Q2) (quantum propagation).  The linear entropy is the
matching quadrature

    S(t) = 1 - integral |rho(Q1,Q2,0)|^2 exp[-2 (Q1-Q2)^2 g^2 b2(t)]

and the instantaneous log-decay rate of an element is

    gamma(t) = -(Q1-Q2)^2 g(Qbar)^2 b2_dot(t),

computed from the analytic derivative so it stays finite where the modulus
underflows.  The diagonal is untouched (g weight carries (Q1-Q2)^2), so the
trace is conserved exactly and a single-mode bath recoheres fully at
t = 2*pi/omega.

The entropy quadrature runs on the mirror-paired support of rho0,
``DensityMatrixGrid.support()``, paired once per state: the exponent
x = 2 (Q1-Q2)^2 g^2 is exactly symmetric under Q1 <-> Q2 and zero on the
diagonal, so each cell above the diagonal carries the summed weight of
itself and its mirror.  The support drops at most 1e-17 of weight, and
since |expm1(-x b2)| <= 1 that bounds the change in S(t).

One rule gives r = (Q1-Q2) g of a pair, and from it x = 2 r^2, the decay
r^2 and the drive f(Qbar) r: where g is the slope (``_takes_slope``: the
classical side, and both sides for a polynomial of degree <= 2, whose
quotient is f'(Qbar) exactly, so the entropy is evaluated once),
r = (Q1-Q2) f'(Qbar); on the quantum side r = f(Q1) - f(Q2), with no
division and no dQ = 0 case.  ``_coefficients`` takes it at one pair, for
the point factors, ``gamma`` and the probe columns.  Each pair of the
support is a lattice point (i, j), i < j, of the grid q, so
``support_field`` takes it from a table over the hull [lo, hi] of the
support (the smallest and largest index any pair uses), by gathers:

* where g is the slope, x = 2 ((j - i) h)^2 f'(qbar[i + j])^2, with
  qbar[s] = (q[floor(s/2)] + q[ceil(s/2)])/2 read at the 2 (hi - lo) + 1
  midpoints and 2 (k h)^2 at the hi - lo + 1 offsets k;
* on the quantum side x = 2 (F[i] - F[j])^2, with F = f(q) read at the
  hi - lo + 1 points.

The tables are elementwise and each pair is a gather, with no BLAS and no
thread, so x has the same bytes at any core count.

The change against the per-pair formula it replaces, 2 dq^2 g(qbar)^2 with
dq = fl(q_i - q_j) and qbar = fl((q_i + q_j)/2) (the quotient read f at
fl(qbar +- dq/2)), to first order in u = 2^-53, on r = sqrt(x/2) = |dq g|
of a pair.  The grid is numpy's linspace, q_k = fl(fl(k h) + q_min) with
q_max last and h the spacing, so q_k = q_min + k h + e_k with |e_k| <= 4uM,
M = max(|q_min|, |q_max|).  So d = fl((j - i) h) and dq differ by at most
|e_i - e_j| + u |dq| + u |d| <= (8M/h + 2) u |d|, as |d| >= h; each
midpoint, old or new, lies within 5uM of q_min + s h/2, so the two differ by
at most 10uM; and the quotient's arguments lie within 3uM of q_i and q_j.
Forming x takes at most 3u of it, 1.5u of r, on either side, and the
quotient's division and difference 2u more.  With L1 and L2 bounds on |f'|
and |f''| over the hull, and eps and eps' on the rounding error of the
computed f and f' there (Horner's rule of degree k: 2k u sum |c_m| M^m),
r moves by at most

    (8M/h + 6) u r + |d| (10uM L2 + 2 eps')     where g is the slope,
    6u r + 6uM L1 + 4 eps                       on the quantum side,

the first term 4.6e-13 of r at the presets' M/h <= 512.  As
|expm1(-a) - expm1(-b)| <= |a - b| for a, b >= 0, S(t) moves by at most
b2 sum w |dx| and the rate integral by sum w |dx|, with
|dx| <= 2 (2r + |dr|) |dr|.  On the presets every pair moved by at most 0.3
of its bound, S by at most 4.4e-16 and the rates by 1.1e-15 relative, and
a table is read on no point outside the hull.  A probe at lattice points
has 2 r^2 = x on the quantum side, byte for byte where f gives a scalar the
bytes it gives an array, and where g is the slope its r is the per-pair
formula, within the bound.

``entropy_series`` merges pairs of equal x once per side: ``np.unique``
sorts the distinct x and ``np.bincount`` adds each one's weights in index
order, whatever order the sort leaves them in, so the bytes do not depend
on the sort; a linear coupling has one distinct x per lattice offset, a
few hundred among 1e5 pairs, and all NaN exponents merge into one last
entry.  Once per call, and from the field alone, the sorted exponents split
into anchored blocks: a block ends at every 256th exponent, so each head
below ends where a block starts, and at every bin of ratio 1 + 1/41, so its
span is at most 1/40 of its first exponent c; an exponent past 1e14 is a
block of its own.  Each time takes one of four cases, from what it can
observe:

* a NaN exponent: S is NaN at every time, with no sum;
* b2 = 0: each term is w expm1(-0) = -0, so S = -0 - defect, or NaN where
  an exponent or a weight is infinite (inf 0 = NaN);
* 0 < b2 <= 1e14: the blocks, below;
* b2 > 1e14: one expm1 per live exponent (x b2 < 40), the rest adding
  minus their summed weight.  A moment's term (-b2)^j a_j would overflow
  past b2 = 4.8e14 (b2^21 > 1.8e308), and a rounding lost to underflow in
  a_j, at most 2^-1075, would move it by up to 2^-1075 b2^21: 2.5e-30 at
  1e14 but 2.5e-9 at 1e15.  Only exponents below 40/b2 < 4e-13 are live
  there, and no preset reaches it.

At each time with 0 < b2 <= 1e14 the exponents split in three, summed by
one moment routine (``_moments``: a_j = sum w d^j/j!, j = 1..21, over each
block) and one Horner rule (``_horner``: sum_j (-b2)^j a_j =
-b2 (a_1 - b2 (a_2 - ...))):

* the head, whole blocks of 256 exponents with x b2 <= 1, is the Horner sum
  of d = x moments, prefix-summed over the blocks in extended precision
  (x86-64's 80-bit long double, unit v = 2^-64) and each rounded once, a
  table built once per call from the field alone;
* each live anchored block past the head, c b2 < 40, adds
  expm1(-c b2) (W + Q) + Q, with W its weight and
  Q = sum w expm1(-(x - c) b2) the Horner sum of its d = x - c moments over
  every (time, block) pair at once; (x - c) b2 <= c b2/41 < 1 there;
* each dead block, c b2 >= 40, adds minus its weight, read from one suffix
  sum of the block weights.

Each time adds its head, block terms and dead weight in extended precision
and rounds once.  No exponent above 1e14 enters a moment (its block's
d is 0), so no x^21 or (x - c)^21 overflows (a 1e100 Q^3 coupling reaches
x = 7e205).  Both parts carry the same 21 terms, so one table layout and
one Horner loop serve them: the head needs 21, as its remainder is
y^22/22! at y = x b2 <= 1; a block's remainder enters times e^(-c b2) with
y <= c b2/41, so 12 terms would keep it below 1/22! (1.2e-22), a cut left
for a change of the series' speed.

The bound, against the exact sum S = -sum w expm1(-x b2) - defect over
every pair of the field, unmerged, with u = 2^-53, W = sum w, m the largest
group of equal exponents and N the number of blocks (at most the number of
distinct exponents), to first order in u:

    |S(t) - exact| <= W ((m - 1) u + 1/22! + 2^-43 + N 2^-62) + u |defect|.

Its parts: a merged weight is within (m - 1)u of its group's sum, and
enters with a factor in [-1, 0].  In the head, y = x b2 <= 1, the
alternating series' remainder is at most y^22/22! <= 8.9e-22 a unit
weight; the term of power j takes j roundings for w x^j, at most 255 for
the block's sum, one for the division by j!, one for the prefix's rounding
to a double (its extended sum adding at most v a block, 32u at the 2^16
blocks of 2^24 pairs) and 2j for Horner's rule, so the head is within
W_h [1/22! + (3e + 289 (e - 1)) u] <= W_h (1/22! + 2^-44), W_h its
weight.  In an anchored block x - c is exact (c <= x <= 2c, Sterbenz), the
remainder is at most (22/41)^22 e^-22/22! = 2.8e-37 a unit weight, and the
same count without the prefix puts Q within (3e + 256 (e - 1)) u W
<= 449u W of its series; with W's own 255u, 3u for c b2 and expm1 and 3u
for the term, a live block is within W (1/22! + 710u), and a dead one
within W (e^-40 + 255u): past 40, expm1(-x b2) is -1 to within
e^-40 = 4.2e-18.  Past 1e14 a live exponent's x b2, expm1 and product take
3u and numpy's pairwise sums at most 44 additions for 2^24 pairs, so that
time is within 48u W.  A time's sum of at most N block terms, its head and
a suffix of at most N weights in extended precision add (N + 1) 2^-63 W,
and the rounding to a double and the final subtraction 2u W + u |defect|.
A rounding lost to underflow moves a term by at most 2^-1075 b2^21
<= 2.5e-30.  On the presets the bound is at most 1.5e-13 (linear, m = 316;
N <= 1525); at every preset time S is within 1.1e-16 of a math.fsum over
every pair, and it moved by at most 2.2e-16 against the three sums it
replaces (prefix moments, anchored moments and a per-exponent loop for
fields under 256 exponents).  Between two orders of the merge (numpy's
pairwise add.reduceat of a sorted field, say) the same reasoning gives
W (2 (m - 1)u + 2^-42 + N 2^-61) + 2u |defect|; the presets' series move by
at most 1.1e-16 that way, and only where m >= 142.

Every sum runs in an order fixed by its own arrays and none uses BLAS or a
thread: a block's moments and weight depend on its exponents alone, the
suffix sum on the field alone, and a time's sum on its own blocks, so S(t)
has the same bytes at any core count and whether t is evaluated alone or in
a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, b1, b2, b2_dot
from .model import CouplingFunction, PolynomialCoupling
from .states import DensityMatrixGrid

__all__ = [
    "DecoherenceFactor",
    "DecoherenceSeries",
    "classical_factor",
    "quantum_factor",
    "gamma",
    "entropy_series",
    "compute_series",
]

# At x b2 >= _DEAD, expm1(-x b2) is -1 to within e^-40 = 4.2e-18, so such a
# pair adds -w without an expm1.  The weights sum to at most 1, so this moves
# S(t) by at most 4.3e-18, below the 1e-17 of weight the support drops.
_DEAD = 40.0
# The head (module docstring): blocks of _HEAD_BLOCK sorted exponents with
# x b2 <= _HEAD_Y; the head and the anchored blocks take _HEAD_TERMS
# moments.  No exponent past _HEAD_LIMIT enters a moment, and a b2 past it
# takes one expm1 per live exponent.
_HEAD_Y = 1.0
_HEAD_TERMS = 21
_HEAD_BLOCK = 256
_HEAD_LIMIT = 1e14
# An anchored block (module docstring) ends at each bin of ratio 1 + 1/41
# of the exponents, bin floor(log(x) _PER_LOG), so while c b2 < _DEAD for its
# first exponent c, its span times b2 is below 40/41.
_PER_LOG = 1.0 / np.log1p(1.0 / 41.0)
# j! for j = 1.._HEAD_TERMS, each exact
_FACTORIALS = np.cumprod(np.arange(1.0, _HEAD_TERMS + 1))
# (time, block) pairs per pass of the block sums
_PAIR_CHUNK = 1 << 13


@dataclass(frozen=True)
class DecoherenceFactor:
    """Polar form of the evolution factor of one off-diagonal element."""

    log_modulus: float
    phase: float

    @property
    def value(self) -> complex:
        return np.exp(self.log_modulus + 1j * self.phase)


def quotient_is_slope(f: CouplingFunction) -> bool:
    """True when the difference quotient of f equals f'(Qbar) exactly, which
    holds for polynomials of degree <= 2."""
    return isinstance(f, PolynomialCoupling) and f.degree <= 2


def _takes_slope(f: CouplingFunction, side: str) -> bool:
    """True when side's weight g is the slope f'(Qbar)."""
    if side not in ("classical", "quantum"):
        raise ValueError(f"side must be 'classical' or 'quantum', got {side!r}")
    return side == "classical" or quotient_is_slope(f)


def _coefficients(q1, q2, f: CouplingFunction, side: str):
    """(decay, drive) = (r^2, f(Qbar) r) with r = (Q1-Q2) g (module
    docstring), the kernel coefficients of log_modulus = -decay*b2 and
    phase = drive*b1/hbar."""
    qbar = 0.5 * (q1 + q2)
    r = (q1 - q2) * f.slope(qbar) if _takes_slope(f, side) else f.eval(q1) - f.eval(q2)
    return r * r, f.eval(qbar) * r


def _factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec, side: str) -> DecoherenceFactor:
    decay, drive = _coefficients(q1, q2, f, side)
    return DecoherenceFactor(log_modulus=float(-decay * b2(bath, t)), phase=float(drive * b1(bath, t) / bath.hbar))


def classical_factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec) -> DecoherenceFactor:
    """Evolution factor of the classical analog element at (Q1, Q2)."""
    return _factor(q1, q2, t, f, bath, "classical")


def quantum_factor(q1: float, q2: float, t: float, f: CouplingFunction, bath: BathSpec) -> DecoherenceFactor:
    """Evolution factor of the quantum element at (Q1, Q2)."""
    return _factor(q1, q2, t, f, bath, "quantum")


def gamma(q1: float, q2: float, t, f: CouplingFunction, bath: BathSpec, side: str):
    """d ln|rho(Q1,Q2,t)|/dt from the analytic b2 derivative."""
    decay, _ = _coefficients(q1, q2, f, side)
    return -decay * b2_dot(bath, t)


def support_field(rho0: DensityMatrixGrid, f: CouplingFunction, side: str):
    """Entropy quadrature terms on the support of rho0.

    Returns ``(w, x, defect)``: the pair weights and purity defect of
    ``rho0.support()`` and the exponent x = 2 (Q1-Q2)^2 g^2 of every pair,
    evaluated on each call from per-lattice tables (module docstring);
    ``support_integral`` keeps sum(w x) in ``rho0.integrals``.
    """
    i, j, w, defect = rho0.support()
    slope = _takes_slope(f, side)
    if not i.size:
        return w, np.zeros(0), defect
    # every pair has i < j in row-major order, so its cells lie in
    # [i[0], max j]; a table entry below lo is never read and f is evaluated
    # on the hull alone
    q, lo, hi = rho0.grid.q, int(i[0]), int(j.max())
    if slope:
        # x = 2 ((j - i) h)^2 f'(qbar[i + j])^2, qbar[s] the midpoint of
        # cells floor(s/2) and ceil(s/2)
        s = np.arange(2 * lo, 2 * hi + 1)
        gs = np.zeros(2 * hi + 1)
        gs[2 * lo :] = f.slope(0.5 * (q[s // 2] + q[(s + 1) // 2]))
        gs *= gs
        ds = np.arange(hi - lo + 1) * rho0.grid.spacing
        ds *= ds
        ds *= 2.0
        x = ds[j - i]
        x *= gs[i + j]
    else:
        # x = 2 (f(q_i) - f(q_j))^2
        fs = np.zeros(hi + 1)
        fs[lo:] = f.eval(q[lo : hi + 1])
        x = fs[i]
        x -= fs[j]
        x *= x
        x *= 2.0
    return w, x, defect


def support_integral(rho0: DensityMatrixGrid, f: CouplingFunction, side: str, field=None) -> float:
    """sum(w x) over the support field of one side, the rate integral.

    Kept in ``rho0.integrals`` by coupling, then side, so each side's field
    is summed once per state; a coupling whose quotient is its slope keeps
    one float for both sides.  ``field`` is that side's ``(w, x)`` when the
    caller holds it.
    """
    side = "classical" if quotient_is_slope(f) else side
    try:
        memo = rho0.integrals.setdefault(f, {})
    except TypeError:  # an unhashable coupling may change: no memo
        memo = {}
    if side not in memo:
        w, x = field if field is not None else support_field(rho0, f, side)[:2]
        # numpy's pairwise sum runs in an order fixed by the array alone
        memo[side] = float((w * x).sum())
    return memo[side]


def _merged(w, x):
    """The distinct exponents of x in ascending order (NaN last, all NaNs one
    entry), each with the weights of its pairs added in index order."""
    xu, inv = np.unique(x, return_inverse=True)
    return xu, np.bincount(inv, weights=w)


def _moments(d, w, starts) -> np.ndarray:
    """Row j holds sum w d^(j+1)/(j+1)! over each block of d, block k from
    starts[k] to the next start or the end; each column depends on its block
    alone."""
    p = w.copy()
    table = np.empty((_HEAD_TERMS, starts.size))
    for j in range(_HEAD_TERMS):
        p *= d  # w d^(j+1)
        # each block's sum, in an order fixed by the block alone
        np.add.reduceat(p, starts, out=table[j])
        table[j] /= _FACTORIALS[j]
    return table


def _horner(moments, k, b):
    """sum_j (-b)^j a_j with a_j = moments[j-1, k], by Horner's rule:
    -b (a_1 - b (a_2 - b (...)))."""
    q = moments[-1].take(k)
    for row in moments[-2::-1]:
        q *= b
        np.subtract(row.take(k), q, out=q)
    q *= -b
    return q


def _blocks(xu) -> np.ndarray:
    """The start of every block of the sorted exponents xu, then xu.size.

    A block ends at every _HEAD_BLOCK-th exponent, so every head's end starts
    one, and at every bin of ratio 1 + 1/41, so its span is at most 1/40 of
    its first exponent (a rounded log moves a bin's edge by far less than
    the margin); an exponent past _HEAD_LIMIT is a block of its own.
    """
    end = int(np.searchsorted(xu, _HEAD_LIMIT, side="right"))
    with np.errstate(divide="ignore"):  # log(0) = -inf: a bin of its own
        bins = np.floor(np.log(xu[:end]) * _PER_LOG)
    first = np.ones(xu.size + 1, dtype=bool)
    np.not_equal(bins[1:], bins[:-1], out=first[1:end])
    first[::_HEAD_BLOCK] = True
    return np.flatnonzero(first)


def _block_sums(xu, wu, b2s):
    """Per time, with 0 < b2 <= _HEAD_LIMIT, the sum of w expm1(-x b2) over
    every exponent: the head and each live block from their moments, each
    dead block as minus its weight."""
    starts = _blocks(xu)
    # a subnormal b2 cuts at inf, and fmin cuts a NaN one at _HEAD_LIMIT
    with np.errstate(over="ignore"):
        heads = np.searchsorted(xu, np.fmin(_HEAD_Y / b2s, _HEAD_LIMIT), side="right") // _HEAD_BLOCK
        hi = np.searchsorted(xu[starts[:-1]], _DEAD / b2s)
    sums = np.zeros(b2s.size, dtype=np.longdouble)
    on = np.flatnonzero(heads)
    if on.size:
        end = int(heads.max()) * _HEAD_BLOCK
        # the running sum in extended precision, each entry rounded once: a
        # time reads the same prefix however far the table is built
        moments = _moments(xu[:end], wu[:end], np.arange(0, end, _HEAD_BLOCK))
        prefix = np.cumsum(moments, axis=1, dtype=np.longdouble).astype(float)
        sums[on] = _horner(prefix, heads[on] - 1, b2s[on])
    # every head ends where a block starts
    lo = np.searchsorted(starts, heads * _HEAD_BLOCK)
    weights = np.add.reduceat(wu, starts[:-1])
    # dead[k]: the weight of blocks k.., added in extended precision from the last
    dead = np.zeros(starts.size, dtype=np.longdouble)
    np.cumsum(weights[::-1], dtype=np.longdouble, out=dead[-2::-1])
    counts = hi - lo
    if counts.any():
        first, last = int(lo[counts > 0].min()), int(hi[counts > 0].max())
        anchors, weights = xu[starts[first:last]], weights[first:last]
        span = slice(starts[first], starts[last])
        # exact: within a block c <= x <= 2c (Sterbenz)
        d = xu[span] - np.repeat(anchors, np.diff(starts[first : last + 1]))
        moments = _moments(d, wu[span], starts[first:last] - starts[first])
        # times in chunks of about _PAIR_CHUNK (time, block) pairs
        offsets = np.cumsum(counts) - counts
        chunks = np.flatnonzero(np.diff(offsets // _PAIR_CHUNK, prepend=-1))
        for t0, t1 in zip(chunks, [*chunks[1:], b2s.size]):
            n = counts[t0:t1]
            at = offsets[t0:t1] - offsets[t0]
            blk = np.arange(int(n.sum())) + np.repeat(lo[t0:t1] - first - at, n)
            b = np.repeat(b2s[t0:t1], n)
            q = _horner(moments, blk, b)
            # sum w expm1(-x b) = expm1(-c b) (W + Q) + Q over a block
            e = np.expm1(-(anchors.take(blk) * b))
            term = e * (weights.take(blk) + q) + q
            nz = np.flatnonzero(n)
            sums[t0 + nz] += np.add.reduceat(term, at[nz], dtype=np.longdouble)
    return (sums - dead[hi]).astype(float)


def _loop_sum(xu, wu, b: float) -> float:
    """The sum of w expm1(-x b) with one expm1 per live exponent, for a b
    past _HEAD_LIMIT."""
    k = int(np.searchsorted(xu, _DEAD / b))
    live = np.expm1(xu[:k] * -b) * wu[:k]
    # each dead pair adds -w in place of its expm1 w
    return live.sum() - wu[k:].sum()


def _kernels(bath: BathSpec, ts: np.ndarray, *kernels) -> list[np.ndarray]:
    """Each of kernels at the times ts.  A time at which one is not finite
    (omega t, or a weighted term or the sum over the modes, overflows the
    float range) is refused by name, as the series would carry NaN or inf at
    it with no error.  numpy's float warnings are off meanwhile, so that a
    caller who turns warnings into errors gets the same ValueError."""
    with np.errstate(all="ignore"):
        values = [np.asarray(kernel(bath, ts)) for kernel in kernels]
    finite = [np.isfinite(np.ravel(value)) for value in values]
    bad = np.flatnonzero(~np.logical_and.reduce(finite))
    if bad.size:
        i = bad[0]
        name = next(kernel.__name__ for kernel, ok in zip(kernels, finite) if not ok[i])
        t = float(np.ravel(ts)[i])
        raise ValueError(f"times: the {name} kernel is not finite at t = {t!r}")
    return values


def entropy_series(rho0: DensityMatrixGrid, times, f: CouplingFunction, bath: BathSpec, side: str) -> np.ndarray:
    """Linear entropy S(t) = 1 - sum w exp(-x b2(t)) over the state's
    support field.

    Evaluated through expm1 so the quadratic small-time growth keeps full
    relative accuracy, with the quadrature purity defect subtracted to pin
    S(0) = 0 exactly for pure states.  Pairs of equal x are merged; at each
    time with 0 < b2 <= _HEAD_LIMIT the head blocks x b2 <= _HEAD_Y and each
    live block are summed from their moments, and each dead block adds minus
    its weight (module docstring).  Fills the rate memo
    (``support_integral``) on the way.  A time at which b2 is not finite is
    refused with a ValueError that opens with ``times:``.
    """
    w, x, defect = support_field(rho0, f, side)
    support_integral(rho0, f, side, (w, x))
    xu, wu = _merged(w, x)
    (b2s,) = _kernels(bath, np.atleast_1d(np.asarray(times, dtype=float)), b2)
    # a NaN exponent sorts last; expm1 would carry it into every time
    if xu.size and np.isnan(xu[-1]):
        return np.full(b2s.shape, np.nan)
    zero, loop = b2s == 0.0, b2s > _HEAD_LIMIT
    # at b2 = 0 each term is w expm1(-0) = -0 and their sum is +0, unless an
    # exponent is inf (inf 0 = NaN) or a weight is (then so is the defect)
    totals = np.zeros(b2s.shape)
    if not ((xu.size == 0 or np.isfinite(xu[-1])) and np.isfinite(defect)):
        totals[zero] = np.nan
    for i in np.flatnonzero(loop):
        totals[i] = _loop_sum(xu, wu, float(b2s[i]))
    blocked = ~zero & ~loop
    if blocked.any():
        totals[blocked] = _block_sums(xu, wu, b2s[blocked])
    return -totals - defect


# (CSV column, DecoherenceSeries field), in column order
_COLUMN_FIELDS = (
    ("t", "times"),
    ("B1", "b1"),
    ("B2", "b2"),
    ("gamma_c", "gamma_c"),
    ("gamma_q", "gamma_q"),
    ("S_c", "s_c"),
    ("S_q", "s_q"),
    ("phase_c", "phase_c"),
    ("phase_q", "phase_q"),
    ("logmod_c", "logmod_c"),
    ("logmod_q", "logmod_q"),
)


@dataclass(frozen=True)
class DecoherenceSeries:
    """Per-time diagnostics at a probe element (q1, q2) plus entropies."""

    times: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    gamma_c: np.ndarray
    gamma_q: np.ndarray
    s_c: np.ndarray
    s_q: np.ndarray
    phase_c: np.ndarray
    phase_q: np.ndarray
    logmod_c: np.ndarray
    logmod_q: np.ndarray
    probe: tuple[float, float]

    COLUMNS = tuple(column for column, _ in _COLUMN_FIELDS)

    def rows(self):
        """Tuples of Python floats, one a time, in column order."""
        return zip(*(getattr(self, field).tolist() for _, field in _COLUMN_FIELDS))


def compute_series(
    rho0: DensityMatrixGrid,
    f: CouplingFunction,
    bath: BathSpec,
    times,
    probe: tuple[float, float],
) -> DecoherenceSeries:
    """Evaluate kernels, probe factors, decay exponents and entropies on a
    time grid.  A time at which b1, b2 or b2_dot is not finite is refused
    with a ValueError that opens with ``times:``."""
    ts = np.asarray(times, dtype=float)
    q1, q2 = probe
    b1s, b2s, b2ds = _kernels(bath, ts, b1, b2, b2_dot)
    columns = {}
    for side, c in (("classical", "c"), ("quantum", "q")):
        decay, drive = _coefficients(q1, q2, f, side)
        columns[f"logmod_{c}"] = -decay * b2s
        columns[f"phase_{c}"] = drive * b1s / bath.hbar
        columns[f"gamma_{c}"] = -decay * b2ds
        # a degree <= 2 coupling has the same entropy on both sides
        redundant = side == "quantum" and quotient_is_slope(f)
        columns[f"s_{c}"] = columns["s_c"] if redundant else entropy_series(rho0, ts, f, bath, side)
    return DecoherenceSeries(times=ts, b1=b1s, b2=b2s, probe=(float(q1), float(q2)), **columns)

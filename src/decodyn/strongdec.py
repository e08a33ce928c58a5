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
since |expm1(-x b2)| <= 1 that bounds the change in S(t).  For a polynomial
of degree <= 2 the difference quotient is f'(Qbar) exactly, so ``_decay``
gives the quantum side the slope and the entropy is evaluated once.

``entropy_series`` merges pairs of equal x once per side: ``np.unique``
sorts the distinct x and ``np.bincount`` adds each one's weights in index
order, whatever order the sort leaves them in, so the bytes do not depend
on the sort; a linear coupling has about a thousand distinct x among 1e5
pairs, and all NaN exponents merge into one last entry.  At each time the
sorted exponents split in three:

* the head, whole blocks of 256 exponents with x b2 <= 1, is summed as
  sum_{j=1}^{21} (-b2)^j/j! M_j from the blocks' prefix moments
  M_j = sum w x^j, a table built once per call from the field alone;
* the live rest, x b2 < 40, takes an expm1 per exponent;
* the dead tail adds minus its summed weight: past 40, expm1(-x b2) is -1
  to within e^-40 = 4.2e-18, which moves S(t) by at most 4.3e-18.

Neither an exponent nor b2 above 1e14 enters the head, so no x^21 or b2^21
overflows; b2 = 0 has no head, so S = -defect exactly, and a NaN exponent
sorts last, outside the head, and keeps S NaN.

The head's bound, with u = 2^-53, y = x b2 <= 1 and W_h the head's weight:
the alternating series stops with a remainder of at most y^22/22! <= 8.9e-22
per unit weight.  To first order in u, w x^j takes j roundings, a block's
sum at most 255, the prefix one (it runs in extended precision, adding at
most 2^-64 per block, 32u at the 2^16 blocks of 2^24 pairs) and Horner's
rule at most 3j on the term of power j, so the head is within
W_h [1/22! + (4e + 288 (e - 1)) u] <= W_h (1/22! + 2^-44) of the exact
sum of w expm1(-x b2) over its pairs.  The loop it replaces, and the live
rest, each carry at most 48u W of their own (x b2, expm1 and the product,
4u a pair; numpy's pairwise sum, at most 44 additions deep for 2^24
pairs), and three final roundings add 6u (W + |defect|), so against the
loop S(t) moves by at most W (1/22! + 2^-43) + 6u |defect|, about 1.1e-13.
On the eight presets' series it moved by at most 2.2e-16 (4.4e-16
relative), and stayed within 2.2e-16 of a math.fsum over every pair.

The merge's bound, with m the largest group of equal exponents: any order
of adding a group's nonnegative weights is within (m - 1)u of their sum W_g
to first order in u, so the index order and any other (numpy's pairwise
add.reduceat of a sorted field, say) differ by at most 2 (m - 1)u W_g.
Each merged weight enters S with a factor in [-1, 0] (expm1 in the live
rest, -1 in the dead tail, the head's alternating partial sums in [-y, 0]),
and on either set of weights the series' own rounding (the head's
W_h 2^-44, the live rest's 48u W and the final 6u (W + |defect|)) is at most
W 2^-43 + 6u |defect|, so between two orders S(t) moves by at most
W (2 (m - 1)u + 2^-42) + 12u |defect|, 2.9e-13 on the linear preset's
m = 295.  Against the pairwise reduceat, the presets' series moved by at
most 1.1e-16, and only where m >= 131.

Every sum runs in an order fixed by the arrays alone and no sum uses BLAS;
a long series splits its times over the package's one thread pool, so S(t)
has the same bytes at any core count and whether t is evaluated alone or in
a batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _pool
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
# A series of at least this many distinct exponents times times is split
# over the shared pool.  On 2 cores, 2e6 broke even and the threads took
# 0.65-0.72 of the serial time on the 1.1e7 to 2e7 of the n = 512 and 1024
# cats; smaller series spend more on the hand-off than they save.
_WIDE_SERIES = 1 << 21
# The head (module docstring): blocks of _HEAD_BLOCK sorted exponents with
# x b2 <= _HEAD_Y, summed from _HEAD_TERMS moments; past _HEAD_LIMIT neither
# an exponent nor b2 joins it.  Below 1e14 no x^21 or b2^21 overflows, and a
# power lost to underflow leaves a term below 1e-33.
_HEAD_Y = 1.0
_HEAD_TERMS = 21
_HEAD_BLOCK = 256
_HEAD_LIMIT = 1e14
# blocks per pass of the moment table's build
_MOMENT_CHUNK = 64


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


def _decay(f: CouplingFunction, qbar, dq, side: str):
    """(g, (Q1-Q2)^2 g^2): the weight and the decay coefficient of
    log_modulus = -(Q1-Q2)^2 g^2 b2."""
    if side not in ("classical", "quantum"):
        raise ValueError(f"side must be 'classical' or 'quantum', got {side!r}")
    if side == "classical" or quotient_is_slope(f):
        g = f.slope(qbar)
    else:
        g = f.finite_difference(qbar, dq)
    return g, dq**2 * g**2


def _coefficients(q1, q2, f: CouplingFunction, side: str):
    """(decay, drive) = ((Q1-Q2)^2 g^2, (Q1-Q2) f(Qbar) g), the kernel
    coefficients of log_modulus = -decay*b2 and phase = drive*b1/hbar."""
    dq = q1 - q2
    qbar = 0.5 * (q1 + q2)
    g, decay = _decay(f, qbar, dq, side)
    return decay, dq * f.eval(qbar) * g


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
    evaluated on each call; ``support_integral`` keeps sum(w x) in
    ``rho0.integrals``.
    """
    dq, qbar, w, defect = rho0.support()
    _, decay = _decay(f, qbar, dq, side)
    return w, 2.0 * decay, defect


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


def _prefix_moments(xu, wu, blocks: int) -> np.ndarray:
    """Row m <= blocks holds sum w x^j, j = 1.._HEAD_TERMS, over the first m
    blocks of _HEAD_BLOCK exponents; row m depends on those blocks alone."""
    table = np.zeros((blocks + 1, _HEAD_TERMS))
    buf = np.empty(min(blocks, _MOMENT_CHUNK) * _HEAD_BLOCK)
    for lo in range(0, blocks, _MOMENT_CHUNK):
        hi = min(lo + _MOMENT_CHUNK, blocks)
        x = xu[lo * _HEAD_BLOCK : hi * _HEAD_BLOCK].reshape(hi - lo, _HEAD_BLOCK)
        p = buf[: x.size].reshape(x.shape)
        np.copyto(p, wu[lo * _HEAD_BLOCK : hi * _HEAD_BLOCK].reshape(x.shape))
        for j in range(_HEAD_TERMS):
            p *= x  # w x^(j+1)
            # numpy's pairwise sum of each block's row, in a fixed order
            np.add.reduce(p, axis=1, out=table[lo + 1 : hi + 1, j])
    # the running sum in extended precision, each row rounded once
    return np.cumsum(table, axis=0, dtype=np.longdouble).astype(float)


def _head(xu, wu, b2s):
    """Per time, the end of the head and its sum of w expm1(-x b2)."""
    blocks = np.zeros(b2s.size, dtype=np.intp)
    on = (b2s > 0.0) & (b2s <= _HEAD_LIMIT)
    with np.errstate(over="ignore"):  # a subnormal b2 cuts at inf
        cut = np.minimum(_HEAD_Y / b2s[on], _HEAD_LIMIT)
    blocks[on] = np.searchsorted(xu, cut, side="right") // _HEAD_BLOCK
    sums = np.zeros(b2s.size)
    on = np.flatnonzero(blocks)
    if on.size:
        # a time reads the same row however far the table is built
        m, b = _prefix_moments(xu, wu, int(blocks.max()))[blocks[on]], b2s[on]
        # Horner's rule: sum_j (-b)^j/j! M_j = -b (M_1 - b/2 (M_2 - b/3 (...)))
        t = m[:, -1]
        for j in range(_HEAD_TERMS - 1, 0, -1):
            t = m[:, j - 1] - b / (j + 1) * t
        sums[on] = -b * t
    return blocks * _HEAD_BLOCK, sums


def entropy_series(rho0: DensityMatrixGrid, times, f: CouplingFunction, bath: BathSpec, side: str) -> np.ndarray:
    """Linear entropy S(t) = 1 - sum w exp(-x b2(t)) over the state's
    support field.

    Evaluated through expm1 so the quadratic small-time growth keeps full
    relative accuracy, with the quadrature purity defect subtracted to pin
    S(0) = 0 exactly for pure states.  Pairs of equal x are merged; at each
    time the head blocks x b2 <= _HEAD_Y are summed from their moments, and
    only the live rest x b2 < _DEAD takes an expm1.  Fills the rate memo
    (``support_integral``) on the way.
    """
    w, x, defect = support_field(rho0, f, side)
    support_integral(rho0, f, side, (w, x))
    xu, wu = _merged(w, x)
    # a NaN exponent sorts last, where the cut would count it as dead
    nan = xu.size > 0 and np.isnan(xu[-1])
    b2s = np.atleast_1d(np.asarray(b2(bath, np.asarray(times, dtype=float))))
    starts, heads = _head(xu, wu, b2s)
    out = np.empty(b2s.shape)

    def fill(rows: range) -> None:
        buf = np.empty(xu.size)
        for i in rows:
            # a Python float: a subnormal b2 cuts at inf, with no overflow error
            b = float(b2s[i])
            h = int(starts[i])
            k = xu.size if nan or not b > 0 else int(np.searchsorted(xu, _DEAD / b))
            live = buf[: k - h]
            np.multiply(xu[h:k], -b, out=live)
            np.expm1(live, out=live)
            live *= wu[h:k]
            # each dead pair adds -w in place of its expm1 w
            total = live.sum() - wu[k:].sum()
            out[i] = -(total + heads[i] if h else total) - defect

    # interleaved rows balance early, all-live times against late ones
    step = _pool.WORKERS if xu.size * b2s.size >= _WIDE_SERIES else 1
    _pool.run(fill, [range(r, b2s.size, step) for r in range(min(step, b2s.size))])
    return out


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
        return zip(*(getattr(self, field) for _, field in _COLUMN_FIELDS))


def compute_series(
    rho0: DensityMatrixGrid,
    f: CouplingFunction,
    bath: BathSpec,
    times,
    probe: tuple[float, float],
) -> DecoherenceSeries:
    """Evaluate kernels, probe factors, decay exponents and entropies on a
    time grid."""
    ts = np.asarray(times, dtype=float)
    q1, q2 = probe
    b1s = np.asarray(b1(bath, ts))
    b2s = np.asarray(b2(bath, ts))
    b2ds = np.asarray(b2_dot(bath, ts))
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

"""Second-order (short-time) decoherence rates.

Both rates share one quadrature over the initial density matrix,

    rate = (cb/hbar) * h^2 sum |rho(Q1,Q2)|^2 (Q1-Q2)^2 g(Qbar)^2
         = (cb / 2 hbar) * sum w x,

with g = df/dQ for the classical rate and g = [f(Q1)-f(Q2)]/(Q1-Q2) for the
quantum rate, and cb = thermal_strength(bath).  The rate is the t^2
coefficient of the linear entropy, so it reads the entropy's support field:
weights w on the mirror-paired support of rho
(``DensityMatrixGrid.support()``) and exponents x = 2 (Q1-Q2)^2 g^2.  The
ratio quantum/classical is therefore independent of hbar and of the bath
for a fixed initial matrix; it equals 1 exactly for f = a*Q + b*Q**2, where
one field serves both sides.

The field depends only on rho0 and f, so results are deterministic for a
given grid.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bath import BathSpec, thermal_strength
from .model import CouplingFunction
from .states import DensityMatrixGrid, SuperpositionState, build_density_matrix
from .strongdec import quotient_is_slope, support_field

__all__ = [
    "RatePair",
    "rate_pair",
    "linear_closed_form",
    "separation_scan",
    "hbar_scan",
]

# below this the classical rate is reported as underflowed and the ratio as
# infinite rather than NaN: a coupling whose slope vanishes on the support of
# rho0 but whose values differ between packets.  The cubic-cat classical rate
# is not such a case; it grows like sigma^2 sep^4 and is finite for sigma > 0
_UNDERFLOW = 1e-300


@dataclass(frozen=True)
class RatePair:
    """Classical and quantum quadratic-in-time entropy coefficients, 1/time^2."""

    classical_rate: float
    quantum_rate: float
    ratio: float

    @classmethod
    def from_rates(cls, classical: float, quantum: float) -> "RatePair":
        if classical < _UNDERFLOW:
            ratio = math.inf if quantum >= _UNDERFLOW else math.nan
        else:
            ratio = quantum / classical
        return cls(classical_rate=classical, quantum_rate=quantum, ratio=ratio)


def _integral(rho0: DensityMatrixGrid, f: CouplingFunction, side: str) -> float:
    w, x, _ = support_field(rho0, f, side)
    return float(np.dot(w, x))


def _integrals(rho0: DensityMatrixGrid, f: CouplingFunction) -> tuple[float, float]:
    i_c = _integral(rho0, f, "classical")
    return i_c, i_c if quotient_is_slope(f) else _integral(rho0, f, "quantum")


def _pair(integrals: tuple[float, float], cb: float, hbar: float) -> RatePair:
    pref = cb / (2.0 * hbar)
    return RatePair.from_rates(pref * integrals[0], pref * integrals[1])


def rate_pair(rho0: DensityMatrixGrid, f: CouplingFunction, cb: float, hbar: float) -> RatePair:
    """Both rates, sharing one field when the two weights coincide."""
    return _pair(_integrals(rho0, f), cb, hbar)


def linear_closed_form(delta2q: float, bath: BathSpec) -> float:
    """Closed form of both rates for f(Q) = Q on a pure state of position
    variance delta2q:  2 * delta2q * thermal_strength(bath) / hbar."""
    if delta2q < 0:
        raise ValueError("variance must be nonnegative")
    return 2.0 * delta2q * thermal_strength(bath) / bath.hbar


def separation_scan(
    f: CouplingFunction,
    separations,
    sigma: float,
    bath: BathSpec,
) -> list[RatePair]:
    """Rates for symmetric cats of increasing separation, one RatePair per
    separation.  Packet width must stay well below the smallest separation
    so the packets are distinguishable."""
    seps = [float(s) for s in separations]
    if any(b <= a for a, b in zip(seps, seps[1:])):
        raise ValueError("separations must be strictly increasing")
    if not sigma < 0.5 * seps[0]:
        raise ValueError(f"sigma={sigma} too wide for smallest separation {seps[0]}")
    cb = thermal_strength(bath)
    out = []
    for sep in seps:
        state = SuperpositionState.symmetric_cat(sep, sigma)
        rho0 = build_density_matrix(state, hbar=bath.hbar)
        out.append(rate_pair(rho0, f, cb, bath.hbar))
    return out


def hbar_scan(
    rho0: DensityMatrixGrid,
    f: CouplingFunction,
    bath: BathSpec,
    hbar_factors,
) -> list[RatePair]:
    """Rates at rescaled hbar with the initial matrix held fixed.  Each rate
    scales with hbar, the ratio does not."""
    integrals = _integrals(rho0, f)
    out = []
    for factor in hbar_factors:
        scaled = dataclasses.replace(bath, hbar=bath.hbar * float(factor))
        out.append(_pair(integrals, thermal_strength(scaled), scaled.hbar))
    return out

"""Second-order (short-time) decoherence rates.

Both rates share one quadrature over the initial density matrix,

    rate = (cb/hbar) * h^2 sum |rho(Q1,Q2)|^2 (Q1-Q2)^2 g(Qbar)^2
         = (cb / 2 hbar) * sum w x,

with g = df/dQ for the classical rate and g = [f(Q1)-f(Q2)]/(Q1-Q2) for the
quantum rate, and cb = thermal_strength(bath).  The rate is the t^2
coefficient of the linear entropy, so it reads the entropy's support field:
weights w on the mirror-paired support of rho
(``DensityMatrixGrid.support()``, paired once per state) and exponents
x = 2 (Q1-Q2)^2 g^2.  The ratio quantum/classical is independent of hbar
and of the bath for a fixed initial matrix; it is 1 exactly for f = a*Q +
b*Q**2, where ``strongdec`` gives both sides the slope as g.

The field depends only on rho0 and f, so each side's sum is kept on rho0
(``DensityMatrixGrid.integrals``) by coupling and side
(``strongdec.support_integral``, which ``entropy_series`` also fills); a
later rate_pair or hbar_scan on that state and coupling costs only its
thermal sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .bath import BathSpec, _coth, _thermal_terms, thermal_strength
from .model import CouplingFunction
from .states import DensityMatrixGrid, SuperpositionState, build_density_matrix
from .strongdec import support_integral

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


def _integrals(rho0: DensityMatrixGrid, f: CouplingFunction) -> tuple[float, float]:
    return support_integral(rho0, f, "classical"), support_integral(rho0, f, "quantum")


def _pair(integrals: tuple[float, float], cb: float, hbar: float) -> RatePair:
    pref = cb / (2.0 * hbar)
    return RatePair.from_rates(pref * integrals[0], pref * integrals[1])


def rate_pair(rho0: DensityMatrixGrid, f: CouplingFunction, cb: float, hbar: float) -> RatePair:
    """Both rates, from the support pairs of rho0; each side is summed once per state and coupling."""
    _checks.finite(cb=cb)
    _checks.positive(hbar=hbar)
    return _pair(_integrals(rho0, f), cb, hbar)


def linear_closed_form(delta2q: float, bath: BathSpec) -> float:
    """Closed form of both rates for f(Q) = Q on a pure state of position
    variance delta2q:  2 * delta2q * thermal_strength(bath) / hbar."""
    if delta2q < 0:
        raise ValueError(f"delta2q: must be nonnegative, got {delta2q}")
    return 2.0 * delta2q * thermal_strength(bath) / bath.hbar


def _check_separations(separations, sigma: float) -> list[float]:
    """The separations as floats, refused unless positive, increasing and finite, with 0 < sigma < half the first."""
    seps = [float(s) for s in separations]
    if not seps or not seps[0] > 0 or any(not b > a for a, b in zip(seps, seps[1:])):
        raise ValueError(f"separations: the separations must be positive and strictly increasing, got {seps}")
    _checks.finite(separations=seps)
    if not 0 < sigma < 0.5 * seps[0]:
        raise ValueError(f"sigma: must be positive and below half the smallest separation {seps[0]}, got {sigma}")
    return seps


def _check_hbar_factors(hbar_factors) -> list[float]:
    """The factors as floats, refused when there is none."""
    factors = [float(x) for x in hbar_factors]
    if not factors:
        raise ValueError("hbar_factors: the scan needs at least one factor")
    return factors


def separation_scan(
    f: CouplingFunction,
    separations,
    sigma: float,
    bath: BathSpec,
) -> list[RatePair]:
    """Rates for symmetric cats of increasing separation, one RatePair per
    separation, each cat of packet width sigma."""
    seps = _check_separations(separations, sigma)
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
    scales with hbar, the ratio does not.  Each factor's thermal strength is
    summed from the bath's arrays, the same bytes as thermal_strength of the
    bath rebuilt at that hbar; the integrals are rho0's, summed at most once."""
    factors = _check_hbar_factors(hbar_factors)
    integrals = _integrals(rho0, f)
    c2, m, w = bath.couplings**2, bath.masses, bath.omegas
    out = []
    for i, factor in enumerate(factors):
        hbar = bath.hbar * factor
        if not 0 < hbar < math.inf:
            raise ValueError(f"hbar_factors[{i}]: hbar * factor must be positive and finite, got {hbar}")
        cb = float(np.sum(_thermal_terms(c2, m, w, _coth(bath.beta, hbar, w))))
        out.append(_pair(integrals, cb, hbar))
    return out

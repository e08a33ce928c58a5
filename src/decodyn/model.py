"""Model configuration and the system-bath coupling function f(Q).

The system couples to every bath mode through a single position-dependent
function f(Q).  Three evaluation modes of f drive everything downstream:

* ``eval``              -- f(Q) itself,
* ``slope``             -- df/dQ, which enters the classical decay exponents,
* ``finite_difference`` -- [f(Qbar + dQ/2) - f(Qbar - dQ/2)] / dQ, the
  two-point difference quotient that enters the quantum decay exponents.

For f = a*Q + b*Q**2 the difference quotient equals the derivative for every
(Qbar, dQ), so linear/quadratic couplings produce identical classical and
quantum decoherence dynamics.  All differences between the two descriptions
come from couplings where slope and finite_difference disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _checks

__all__ = [
    "ModelConfig",
    "CouplingFunction",
    "LinearCoupling",
    "QuadraticCoupling",
    "PolynomialCoupling",
    "SinusoidalCoupling",
    "TabulatedCoupling",
]


@dataclass(frozen=True)
class ModelConfig:
    """Global scales of a run.

    beta is the inverse temperature; ``math.inf`` means zero temperature.
    """

    hbar: float = 1.0
    beta: float = math.inf

    def __post_init__(self):
        _checks.positive(hbar=self.hbar)
        if not self.beta > 0:
            raise ValueError(f"beta: must be positive (math.inf for T=0), got {self.beta}")


def _wrap(values: np.ndarray, scalar: bool):
    return float(values) if scalar else values


class CouplingFunction:
    """Base class for coupling functions; subclasses define values/derivative.

    All evaluation methods accept scalars or arrays and broadcast.
    Instances are immutable and safe to share across workers.
    """

    def _values(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _derivative(self, q: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def eval(self, q):
        """f(Q)."""
        arr = np.asarray(q, dtype=float)
        return _wrap(self._values(arr), arr.ndim == 0)

    def slope(self, qbar):
        """df/dQ at Qbar (analytic for parametric variants)."""
        arr = np.asarray(qbar, dtype=float)
        return _wrap(self._derivative(arr), arr.ndim == 0)

    def finite_difference(self, qbar, dq):
        """[f(Qbar + dQ/2) - f(Qbar - dQ/2)] / dQ.

        dQ = 0 returns slope(Qbar), the continuous limit, which keeps the
        quantum factor of a diagonal element defined: today only a probe
        at q1 = q2 meets it, as the support field differences f on the
        lattice and never divides.  The slope is evaluated at those entries
        alone.
        """
        qb = np.asarray(qbar, dtype=float)
        d = np.asarray(dq, dtype=float)
        scalar = qb.ndim == 0 and d.ndim == 0
        qb, d = np.broadcast_arrays(qb, d)
        diff = self._values(qb + 0.5 * d) - self._values(qb - 0.5 * d)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.asarray(diff / d)
        zero = d == 0.0
        if zero.any():
            out[zero] = self._derivative(qb[zero])
        return _wrap(out, scalar)


@dataclass(frozen=True)
class PolynomialCoupling(CouplingFunction):
    """f(Q) = sum_k c_k Q^k with coefficients in ascending order."""

    coefficients: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) == 0:
            raise ValueError("coefficients: needs at least one coefficient")
        _checks.finite(coefficients=self.coefficients)

    @property
    def degree(self) -> int:
        for k in range(len(self.coefficients) - 1, -1, -1):
            if self.coefficients[k] != 0.0:
                return k
        return 0

    def _values(self, q):
        return np.polynomial.polynomial.polyval(q, self.coefficients)

    def _derivative(self, q):
        der = np.polynomial.polynomial.polyder(self.coefficients)
        return np.polynomial.polynomial.polyval(q, der)


class LinearCoupling(PolynomialCoupling):
    """f(Q) = a*Q, the polynomial (0, a)."""

    def __init__(self, a: float = 1.0):
        super().__init__((0.0, a))


class QuadraticCoupling(PolynomialCoupling):
    """f(Q) = a*Q + b*Q**2, the polynomial (0, a, b)."""

    def __init__(self, a: float = 1.0, b: float = 0.0):
        super().__init__((0.0, a, b))


@dataclass(frozen=True)
class SinusoidalCoupling(CouplingFunction):
    """f(Q) = amplitude * sin(2*pi*Q/wavelength + phase); bounded."""

    amplitude: float = 1.0
    wavelength: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        _checks.finite(amplitude=self.amplitude, wavelength=self.wavelength, phase=self.phase)
        if self.wavelength == 0:
            raise ValueError("wavelength: must be nonzero")

    def _values(self, q):
        return self.amplitude * np.sin(2.0 * np.pi * q / self.wavelength + self.phase)

    def _derivative(self, q):
        k = 2.0 * np.pi / self.wavelength
        return self.amplitude * k * np.cos(k * q + self.phase)


@dataclass(frozen=True)
class TabulatedCoupling(CouplingFunction):
    """f(Q) given by samples on a strictly increasing grid.

    eval uses cubic-spline interpolation and slope the derivative of the
    same spline, so the difference quotient of f tends to its slope as dQ
    goes to zero.  Evaluation outside the grid is a domain error.
    """

    q_grid: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        q = tuple(float(x) for x in self.q_grid)
        v = tuple(float(x) for x in self.values)
        object.__setattr__(self, "q_grid", q)
        object.__setattr__(self, "values", v)
        if len(q) != len(v):
            raise ValueError(f"values: must have one entry a point of q_grid, got {len(v)} for {len(q)}")
        if len(q) < 4:
            raise ValueError(f"q_grid: needs at least 4 points, got {len(q)}")
        _checks.finite(q_grid=q, values=v)
        if not np.all(np.diff(q) > 0):
            raise ValueError("q_grid: must be strictly increasing")

    @cached_property
    def _spline(self):
        # imported here: scipy.interpolate costs about 0.5 s, and only a
        # tabulated coupling needs it
        from scipy.interpolate import CubicSpline

        return CubicSpline(self.q_grid, self.values)

    def _check_range(self, q: np.ndarray):
        lo, hi = self.q_grid[0], self.q_grid[-1]
        if np.any(q < lo) or np.any(q > hi):
            raise ValueError(f"tabulated coupling evaluated outside [{lo}, {hi}]")

    def _values(self, q):
        self._check_range(q)
        return self._spline(q)

    def _derivative(self, q):
        self._check_range(q)
        return self._spline(q, 1)

"""Input rules of the library: an error about one argument opens with that
argument's name (and the entry's index), which the command line maps to the
config field."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decodyn.bath import BathSpec, discretize_ohmic
from decodyn.model import LinearCoupling, ModelConfig, PolynomialCoupling, SinusoidalCoupling, TabulatedCoupling
from decodyn.oracle import FockConfig, fock_quantum_factor, mc_classical_factor
from decodyn.rates import hbar_scan, rate_pair, separation_scan
from decodyn.states import DensityMatrixGrid, GaussianPacket, GridSpec, SuperpositionState, build_density_matrix

LINEAR = LinearCoupling(1.0)
SINGLE = BathSpec([1.0], [1.0], [1.0])
CAT = build_density_matrix(SuperpositionState.symmetric_cat(4.0, 0.5))

# valid keyword arguments of each constructor, and of rate_pair; a float or
# a list of floats is fed NaN and +-inf
VALID = {
    GridSpec: {"q_min": -1.0, "q_max": 1.0, "n_points": 64},
    GaussianPacket: {"center_q": 0.5, "center_p": -0.5, "sigma": 1.0, "amplitude": 1.0 + 0.5j},
    PolynomialCoupling: {"coefficients": [0.0, 1.0, 0.5]},
    SinusoidalCoupling: {"amplitude": 1.0, "wavelength": 2.0, "phase": 0.5},
    TabulatedCoupling: {"q_grid": [0.0, 1.0, 2.0, 3.0], "values": [0.0, 1.0, 4.0, 9.0]},
    BathSpec: {"masses": [1.0, 2.0], "omegas": [1.0, 0.5], "couplings": [0.3, 0.4], "beta": 2.0, "hbar": 1.0},
    ModelConfig: {"hbar": 1.0, "beta": 2.0},
    DensityMatrixGrid: {"grid": CAT.grid, "values": CAT.values, "hbar": 1.0},
    rate_pair: {"rho0": CAT, "f": LINEAR, "cb": 0.5, "hbar": 1.0},
}
FLOAT_ARGUMENTS = [
    (build, name)
    for build, kwargs in VALID.items()
    for name, value in kwargs.items()
    if isinstance(value, float | complex | list)
]


@pytest.mark.parametrize("build,name", FLOAT_ARGUMENTS, ids=[f"{b.__name__}.{n}" for b, n in FLOAT_ARGUMENTS])
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
def test_non_finite_argument_is_refused_by_name(build, name, bad, data):
    kwargs = dict(VALID[build])
    field = name
    if isinstance(kwargs[name], list):
        i = data.draw(st.integers(0, len(kwargs[name]) - 1))
        kwargs[name] = [bad if k == i else v for k, v in enumerate(kwargs[name])]
        field = f"{name}[{i}]"
    else:
        kwargs[name] = bad
    if (name, bad) == ("beta", math.inf):
        build(**kwargs)  # zero temperature
        return
    with pytest.raises(ValueError) as err:
        build(**kwargs)
    assert str(err.value).startswith(f"{field}: ")


NON_POSITIVE = st.floats(max_value=0.0) | st.just(math.nan)
EMPTY = st.sampled_from([[], (), np.array([])])

# the library side of each rule the command line maps to a config field: a
# strategy of values that break the rule, the call, and the argument named
RULES = {
    "mode mass": (NON_POSITIVE, lambda m: BathSpec([1.0, m], [1.0, 1.0], [1.0, 1.0]), "masses[1]"),
    "mode frequency": (NON_POSITIVE, lambda w: BathSpec([1.0], [w], [1.0]), "omegas[0]"),
    "ohmic eta": (NON_POSITIVE, lambda eta: discretize_ohmic(eta, 1.0, 8, 5.0), "eta"),
    "ohmic cutoff": (NON_POSITIVE, lambda wc: discretize_ohmic(0.25, wc, 8, 5.0), "omega_cutoff"),
    "ohmic omega_max": (NON_POSITIVE, lambda wm: discretize_ohmic(0.25, 1.0, 8, wm), "omega_max"),
    "ohmic n_modes": (st.integers(max_value=0), lambda n: discretize_ohmic(0.25, 1.0, n, 5.0), "n_modes"),
    "increasing separations": (
        st.floats(max_value=4.0),
        lambda s: separation_scan(LINEAR, [4.0, s], 0.5, SINGLE),
        "separations",
    ),
    "scan sigma": (
        st.floats(min_value=1.0) | NON_POSITIVE,
        lambda sigma: separation_scan(LINEAR, [2.0, 4.0], sigma, SINGLE),
        "sigma",
    ),
    # hbar x factor: the factor underflows hbar = 1e-300 to zero, or flips its sign
    "scaled hbar": (st.floats(max_value=1e-24), lambda f: BathSpec([1.0], [1.0], [1.0], hbar=1e-300 * f), "hbar"),
    "MC samples": (
        st.integers(max_value=999) | st.integers(1000, 10**6).filter(lambda n: n % 100),
        lambda n: mc_classical_factor(2.0, 0.0, 1.0, LINEAR, SINGLE, n_samples=n),
        "n_samples",
    ),
    "Fock levels": (st.integers(max_value=7), FockConfig, "n_levels"),
    # finite arguments whose 1/hbar, coth factor, a mode's weight or the
    # rate prefactor thermal_strength / hbar overflow the float range
    "overflowing 1/hbar": (st.floats(0.0, 5e-309).filter(bool), lambda h: BathSpec([1.0], [1.0], [1.0], hbar=h), "hbar"),
    "overflowing coth": (st.floats(0.0, 1e-308).filter(bool), lambda b: BathSpec([1.0], [1.0], [1.0], beta=b), "beta"),
    "overflowing mode weight": (
        st.floats(1e155, 1e300) | st.floats(-1e300, -1e155),
        lambda c: BathSpec([1.0, 1.0], [1.0, 2.0], [1.0, c]),
        "couplings[1]",
    ),
    "overflowing thermal strength": (
        st.integers(3, 5),
        lambda k: BathSpec([1.0] * k, [1.0] * k, [1.2e154] * k),
        "couplings",
    ),
    # an empty list of scan factors or MC times (test_oracle holds Fock's)
    "hbar factors": (EMPTY, lambda factors: hbar_scan(CAT, LINEAR, SINGLE, factors), "hbar_factors"),
    "MC times": (EMPTY, lambda t: mc_classical_factor(2.0, 0.0, t, LINEAR, SINGLE), "t"),
    "Fock single mode": (
        st.integers(2, 5),
        lambda k: fock_quantum_factor(1.0, -1.0, 1.0, LINEAR, BathSpec([1.0] * k, list(range(1, k + 1)), [1.0] * k)),
        "bath",
    ),
}


@pytest.mark.parametrize("rule", sorted(RULES))
@given(data=st.data())
def test_rule_message_opens_with_the_argument(rule, data):
    values, call, name = RULES[rule]
    with pytest.raises(ValueError) as err:
        call(data.draw(values))
    assert str(err.value).startswith(f"{name}: ")

"""The entropy series against its closed form for a linear coupling.

For f = a Q on a superposition of Gaussian packets with real amplitudes and
zero momenta, |psi|^2 is a sum of Gaussians: the product of packets k and l
is a Gaussian at the precision-weighted midpoint, of variance
2 sk^2 sl^2 / (sk^2 + sl^2) and mass exp(-(qk - ql)^2 / (4 (sk^2 + sl^2)))
times the packet norms.  The exponent is x b2 = C (Q1 - Q2)^2 with
C = 2 a^2 b2(t), and Q1 - Q2 is Gaussian within each pair of components, so

    S(t) = 1 - sum W W' exp(-C mu^2 / (1 + 2 C v)) / sqrt(1 + 2 C v),

summed over pairs of components of weights W, W', mean gap mu and summed
variance v.  This is the continuum integral: nothing in it depends on the
grid, the support pairing or the merge of equal exponents.
"""

import math

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from decodyn.bath import BathSpec, b2, discretize_ohmic
from decodyn.model import LinearCoupling
from decodyn.states import GaussianPacket, SuperpositionState, build_density_matrix
from decodyn.strongdec import entropy_series

BATHS = (BathSpec([1.0, 2.3], [1.0, 0.6], [0.8, 1.1], beta=1.5), discretize_ohmic(0.25, 1.0, 50, 5.0, beta=2.0))
# The grid's lattice sum aliases the Gaussian in Q1 - Q2, of width below
# 1/sqrt(2 C), by about exp(-pi^2 / (C h^2)): under 1e-17 while C h^2 <= 0.2,
# past which the grid no longer resolves the decay and the closed form is
# not its limit.
RESOLVED = 0.2
# measured worst case: 6.7e-16 over the profile's 20 examples, 2.1e-15 over
# 1500 random ones (S is at most 1, so a few ulps of 1)
BOUND = 4e-15


def linear_entropy_closed_form(state: SuperpositionState, a: float, b2s) -> np.ndarray:
    """S(t) of f = a Q at the kernel values b2s, for packets of real
    amplitude and zero momentum, as 1 - sum W W' exp(...) / sqrt(...) taken
    through expm1 (the weights sum to 1)."""
    weights, means, variances = [], [], []
    for pk in state.packets:
        for pl in state.packets:
            sk, sl = pk.sigma**2, pl.sigma**2
            norm = (4.0 * math.pi * math.pi * sk * sl) ** -0.25
            var = 2.0 * sk * sl / (sk + sl)
            mass = norm * math.sqrt(2.0 * math.pi * var) * math.exp(-((pk.center_q - pl.center_q) ** 2) / (4.0 * (sk + sl)))
            weights.append(pk.amplitude.real * pl.amplitude.real * mass)
            means.append((pk.center_q * sl + pl.center_q * sk) / (sk + sl))
            variances.append(var)
    w = np.asarray(weights) / math.fsum(weights)
    ww = np.outer(w, w).ravel()
    mu2 = (np.subtract.outer(means, means) ** 2).ravel()
    v = np.add.outer(variances, variances).ravel()
    c = 2.0 * a * a * np.asarray(b2s, dtype=float)[:, None]
    return -(np.expm1(-c * mu2 / (1.0 + 2.0 * c * v) - 0.5 * np.log1p(2.0 * c * v)) @ ww)


@st.composite
def real_cats(draw):
    """One to three packets of real amplitude and zero momentum, each at
    least three widths from the last."""
    packets, q = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        sigma = draw(st.floats(0.3, 1.0))
        amp = draw(st.floats(0.2, 1.0)) * draw(st.sampled_from([1.0, -1.0]))
        packets.append(GaussianPacket(q, 0.0, sigma, complex(amp)))
        q += draw(st.floats(3.0, 6.0)) * sigma
    return SuperpositionState(packets=tuple(packets))


@given(state=real_cats(), a=st.floats(0.1, 3.0), bath=st.sampled_from(BATHS), t_max=st.floats(0.5, 8.0))
def test_linear_entropy_matches_its_closed_form(state, a, bath, t_max):
    rho0 = build_density_matrix(state)
    ts = np.linspace(0.0, t_max, 12)
    b2s = np.asarray(b2(bath, ts))
    ts = ts[2.0 * a * a * b2s * rho0.grid.spacing**2 <= RESOLVED]
    oracle = linear_entropy_closed_form(state, a, b2(bath, ts))
    for side in ("classical", "quantum"):
        s = entropy_series(rho0, ts, LinearCoupling(a), bath, side)
        assert np.max(np.abs(s - oracle)) <= BOUND

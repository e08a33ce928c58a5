"""Quantum and classical decoherence dynamics for a system coupled to a
harmonic bath: perturbative short-time rates, exact strong-decoherence
evolution, entropies and decay exponents, with brute-force oracles.

The package namespace re-exports the ``__all__`` of each module."""

__version__ = "0.1.0"

from . import bath, model, oracle, rates, states, strongdec
from .bath import *  # noqa: F403
from .model import *  # noqa: F403
from .oracle import *  # noqa: F403
from .rates import *  # noqa: F403
from .states import *  # noqa: F403
from .strongdec import *  # noqa: F403

__all__ = [
    "__version__",
    *model.__all__,
    *bath.__all__,
    *states.__all__,
    *rates.__all__,
    *strongdec.__all__,
    *oracle.__all__,
]

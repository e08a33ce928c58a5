"""Quantum and classical decoherence dynamics for a system coupled to a
harmonic bath: perturbative short-time rates, exact strong-decoherence
evolution, entropies and decay exponents, with brute-force oracles."""

__version__ = "0.1.0"

from .bath import (
    BathMode,
    BathSpec,
    b1,
    b2,
    b2_dot,
    discretize_ohmic,
    thermal_sample_block,
    thermal_strength,
)
from .model import (
    CouplingFunction,
    LinearCoupling,
    ModelConfig,
    PolynomialCoupling,
    QuadraticCoupling,
    SinusoidalCoupling,
    TabulatedCoupling,
)
from .oracle import FockConfig, McEstimate, fock_quantum_factor, mc_classical_factor, short_time_fit
from .rates import (
    RatePair,
    hbar_scan,
    linear_closed_form,
    rate_pair,
    separation_scan,
)
from .states import (
    DensityMatrixGrid,
    GaussianPacket,
    GridCoverageError,
    GridSpec,
    SuperpositionState,
    WignerGrid,
    build_density_matrix,
    inverse_wigner,
    position_variance,
    purity,
    wigner_purity,
    wigner_transform,
)
from .strongdec import (
    DecoherenceFactor,
    DecoherenceSeries,
    classical_factor,
    compute_series,
    entropy_series,
    gamma,
    quantum_factor,
)

__all__ = [
    "__version__",
    "ModelConfig",
    "CouplingFunction",
    "LinearCoupling",
    "QuadraticCoupling",
    "PolynomialCoupling",
    "SinusoidalCoupling",
    "TabulatedCoupling",
    "BathMode",
    "BathSpec",
    "discretize_ohmic",
    "thermal_strength",
    "b1",
    "b2",
    "b2_dot",
    "thermal_sample_block",
    "GaussianPacket",
    "SuperpositionState",
    "GridSpec",
    "GridCoverageError",
    "DensityMatrixGrid",
    "WignerGrid",
    "build_density_matrix",
    "wigner_transform",
    "inverse_wigner",
    "purity",
    "wigner_purity",
    "position_variance",
    "RatePair",
    "rate_pair",
    "linear_closed_form",
    "separation_scan",
    "hbar_scan",
    "DecoherenceFactor",
    "DecoherenceSeries",
    "classical_factor",
    "quantum_factor",
    "gamma",
    "entropy_series",
    "compute_series",
    "McEstimate",
    "FockConfig",
    "mc_classical_factor",
    "fock_quantum_factor",
    "short_time_fit",
]

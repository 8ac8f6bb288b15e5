"""Additive-error permanent estimation.

Exact O(2^n n) permanent kernels, Glynn-type estimators over signs and roots of
unity, randomized sampling with explicit Hoeffding sample counts,
derandomization through small-bias sample spaces (binary and complex), and
a linear-optics layer mapping interferometer outcomes onto permanents.
"""

from .binary_bias import (
    SampleSpace,
    build_binary_space,
    exhaustive_binary_space,
    measure_bias,
)
from .complex_bias import (
    AmplifierParams,
    BETA,
    ComplexSampleSpace,
    CwiseGenerator,
    ExponentVector,
    StrongProductParams,
    amplify,
    build_complex_space,
    cwise_tuple,
    exhaustive_complex_space,
    measure_complex_bias,
    strong_fraction,
    strong_product_sample,
    theta_strong,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DescriptorError,
    DomainError,
    MatrixParseError,
    PermestError,
    SizeLimitError,
)
from .estimators import (
    Estimate,
    GuaranteeReport,
    PhaseVector,
    estimate_derandomized,
    estimate_derandomized_multi,
    estimate_random,
    estimate_random_multi,
    gengly,
    gly,
    permanent_upper_bound,
)
from .exact import (
    permanent_gengly_exact,
    permanent_glynn_exact,
    permanent_naive,
    permanent_ryser,
)
from .matrices import (
    MultiplicitySpec,
    SpectralNormResult,
    expand,
    parse_matrix,
    serialize_matrix,
    spectral_norm,
)
from .optics import (
    AmplitudeResult,
    amplitude_estimate,
    amplitude_exact,
    bunching_bound,
    saturating_outcome,
    saturating_unitary,
    transition_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AmplifierParams",
    "AmplitudeResult",
    "BETA",
    "CapacityError",
    "ComplexSampleSpace",
    "ConvergenceError",
    "CwiseGenerator",
    "DescriptorError",
    "DomainError",
    "Estimate",
    "ExponentVector",
    "GuaranteeReport",
    "MatrixParseError",
    "MultiplicitySpec",
    "PermestError",
    "PhaseVector",
    "SampleSpace",
    "SizeLimitError",
    "SpectralNormResult",
    "StrongProductParams",
    "amplify",
    "amplitude_estimate",
    "amplitude_exact",
    "build_binary_space",
    "build_complex_space",
    "bunching_bound",
    "cwise_tuple",
    "estimate_derandomized",
    "estimate_derandomized_multi",
    "estimate_random",
    "estimate_random_multi",
    "exhaustive_binary_space",
    "exhaustive_complex_space",
    "expand",
    "gengly",
    "gly",
    "measure_bias",
    "measure_complex_bias",
    "parse_matrix",
    "permanent_gengly_exact",
    "permanent_glynn_exact",
    "permanent_naive",
    "permanent_ryser",
    "permanent_upper_bound",
    "saturating_outcome",
    "saturating_unitary",
    "serialize_matrix",
    "spectral_norm",
    "strong_fraction",
    "strong_product_sample",
    "theta_strong",
    "transition_matrix",
]

"""Additive-error permanent estimation.

Exact O(2^n n) permanent kernels, Glynn-type estimators over signs and roots of
unity, randomized sampling with explicit Hoeffding sample counts,
derandomization through small-bias sample spaces (binary and complex), and
a linear-optics layer mapping interferometer outcomes onto permanents.

The public names below are resolved on first use: ``import permest`` loads
none of the submodules, and ``permest.estimate_random`` imports only
``permest.estimators`` (and what that module imports).
"""

from importlib import import_module

__version__ = "0.1.0"

# the submodule that defines each public name
_SOURCE = {
    "AmplifierParams": "complex_bias",
    "AmplitudeResult": "optics",
    "BETA": "complex_bias",
    "CapacityError": "errors",
    "ComplexSampleSpace": "complex_bias",
    "ConvergenceError": "errors",
    "CwiseGenerator": "complex_bias",
    "DescriptorError": "errors",
    "DomainError": "errors",
    "Estimate": "estimators",
    "GuaranteeReport": "estimators",
    "MatrixParseError": "errors",
    "MultiplicitySpec": "matrices",
    "PermestError": "errors",
    "SampleSpace": "binary_bias",
    "SizeLimitError": "errors",
    "SpectralNormResult": "matrices",
    "amplitude_estimate": "optics",
    "amplitude_exact": "optics",
    "build_binary_space": "binary_bias",
    "build_complex_space": "complex_bias",
    "bunching_bound": "optics",
    "estimate_derandomized": "estimators",
    "estimate_derandomized_multi": "estimators",
    "estimate_random": "estimators",
    "estimate_random_multi": "estimators",
    "exhaustive_binary_space": "binary_bias",
    "exhaustive_complex_space": "complex_bias",
    "expand": "matrices",
    "measure_bias": "binary_bias",
    "measure_complex_bias": "complex_bias",
    "parse_matrix": "matrices",
    "permanent_gengly_exact": "exact",
    "permanent_glynn_exact": "exact",
    "permanent_naive": "exact",
    "permanent_ryser": "exact",
    "permanent_upper_bound": "estimators",
    "saturating_outcome": "optics",
    "saturating_unitary": "optics",
    "serialize_matrix": "matrices",
    "spectral_norm": "matrices",
    "strong_fraction": "complex_bias",
    "transition_matrix": "optics",
}
_SUBMODULES = frozenset(_SOURCE.values())

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})

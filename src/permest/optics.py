"""Linear-optics outcome amplitudes and probabilities via permanents.

For a k-mode interferometer with unitary U, the amplitude of seeing output
occupation (s_1..s_k) given input occupation (t_1..t_k) is
``Per(U_{s,t}) / sqrt(prod s_i! prod t_j!)`` where U_{s,t} repeats row i of U
s_i times and column j t_j times. One mapping turns an outcome into a
multiplicity spec grouped on the side with the smaller roots-of-unity grid;
the exact amplitude is the full average over that grid, which is also the
exhaustive estimate. Estimation is offered for the standard initial state
(one photon in each of the first n modes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrices import MultiplicitySpec, _round_up, as_matrix, as_square

__all__ = [
    "AmplitudeResult",
    "amplitude_estimate",
    "amplitude_exact",
    "bunching_bound",
    "saturating_outcome",
    "saturating_unitary",
    "transition_matrix",
    "validate_pattern",
]


@dataclass(frozen=True)
class AmplitudeResult:
    """Amplitude, probability, and (for estimates) their additive bounds."""

    amplitude: complex
    probability: float
    amp_error_bound: float = 0.0
    prob_error_bound: float = 0.0


def validate_pattern(counts: Sequence[int]) -> tuple[int, ...]:
    pattern = tuple(int(c) for c in counts)
    if any(c < 0 for c in pattern):
        raise ValueError("occupation counts must be nonnegative")
    return pattern


def _checked(u, row_pattern, col_pattern):
    """The square matrix and both patterns, validated against each other."""
    u = as_square(u)
    k = u.shape[0]
    rows = validate_pattern(row_pattern)
    cols = validate_pattern(col_pattern)
    if len(rows) != k or len(cols) != k:
        raise ValueError(f"patterns must have length {k}")
    if sum(rows) != sum(cols):
        raise ValueError("row and column patterns must total the same photon count")
    return u, rows, cols


def transition_matrix(u, row_pattern, col_pattern) -> np.ndarray:
    """U with row i repeated row_pattern[i] times and column j repeated
    col_pattern[j] times (zero counts drop the row/column)."""
    u, rows, cols = _checked(u, row_pattern, col_pattern)
    return np.repeat(np.repeat(u, rows, axis=0), cols, axis=1)


def _outcome_spec(u, row_pattern, col_pattern) -> MultiplicitySpec | None:
    """U_{s,t} as a multiplicity spec over the side with the smaller grid,
    prod (c + 1) over its counts, the rows on a tie; None for the vacuum.
    Modes with zero counts drop out: a multiplicity must be positive."""
    u, rows, cols = _checked(u, row_pattern, col_pattern)
    if sum(rows) == 0:
        return None
    if math.prod(c + 1 for c in rows) > math.prod(c + 1 for c in cols):
        u, rows, cols = u.T, cols, rows  # Per(A^T) = Per(A)
    # grouped rows are the repeated columns of the transpose
    keep = [i for i, c in enumerate(rows) if c > 0]
    return MultiplicitySpec(np.repeat(u[keep], cols, axis=1).T, [rows[i] for i in keep])


def _log_factorial_sum(pattern) -> float:
    return sum(math.lgamma(c + 1) for c in pattern)


def amplitude_exact(u, row_pattern, col_pattern) -> AmplitudeResult:
    """Per(U_{s,t}) / sqrt(s! t!) and its squared magnitude, exactly: the
    full average of the roots-of-unity estimator over the outcome's grid."""
    from .exact import permanent_gengly_exact

    spec = _outcome_spec(u, row_pattern, col_pattern)
    # vacuum to vacuum: the empty permanent is 1
    per = 1.0 if spec is None else permanent_gengly_exact(spec)
    amp = per / math.exp(
        0.5 * (_log_factorial_sum(row_pattern) + _log_factorial_sum(col_pattern))
    )
    return AmplitudeResult(complex(amp), float(abs(amp) ** 2))


def amplitude_estimate(
    u,
    row_pattern,
    epsilon: float,
    mode: str = "random",
    delta: float = 0.01,
    rng_seed: int = 0,
) -> AmplitudeResult:
    """Estimate the outcome amplitude for the standard initial state;
    exhaustive mode ignores ``epsilon``.

    The amplitude guarantee is the estimate's guarantee,
    ``epsilon * sqrt(prod s_i!/s_i^s_i) * |B|^n``, over sqrt(prod s_i!),
    rounded up like every bound: for subunitary U it is at most epsilon
    times 1 + O(n * k * 2^-53), the bound's rounding allowance. The
    probability bound follows from
    ``| |a|^2 - |b|^2 | <= |a-b| (|a| + |b|)`` with the estimate standing in
    for the unknown true amplitude.
    """
    from .estimators import estimate_derandomized, estimate_exhaustive, estimate_random

    u = as_matrix(u)
    k = u.shape[0]
    pattern = validate_pattern(row_pattern)
    n = sum(pattern)
    if not (1 <= n <= k):
        raise ValueError("photon number must lie in 1..k for the standard input")
    spec = _outcome_spec(u, pattern, (1,) * n + (0,) * (k - n))
    if mode == "random":
        est = estimate_random(spec, epsilon, delta, rng_seed)
    elif mode == "exhaustive":
        est = estimate_exhaustive(spec)
    elif mode == "derandomized":
        from .complex_bias import build_complex_space

        est = estimate_derandomized(spec, build_complex_space(spec.moduli, epsilon))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    root_fact = math.exp(0.5 * _log_factorial_sum(pattern))
    amp = est.value / root_fact
    error = est.guarantee().additive_error_bound
    # 0.0 only where the guarantee is: in exhaustive mode and on a zero matrix
    amp_err = _round_up(error / root_fact) if error else 0.0
    prob = float(abs(amp) ** 2)
    prob_err = _round_up(amp_err * (2.0 * abs(amp) + amp_err)) if error else 0.0
    return AmplitudeResult(complex(amp), prob, amp_err, prob_err)


def bunching_bound(pattern) -> float:
    """prod s_i! / s_i^s_i: the largest possible probability of the outcome
    from the standard initial state (0! = 1 and 0^0 = 1)."""
    pattern = validate_pattern(pattern)
    # true division of ints rounds the exact ratio correctly
    bound = math.prod(math.factorial(c) for c in pattern) / math.prod(c**c for c in pattern)
    return _round_up(bound)


def saturating_unitary(pattern) -> np.ndarray:
    """Block-diagonal unitary of per-block discrete Fourier matrices, one
    s_i-dimensional block per mode; the designated bunched outcome then hits
    the bunching bound exactly."""
    pattern = validate_pattern(pattern)
    if any(c < 1 for c in pattern):
        raise ValueError("saturating construction needs every count >= 1")
    n = sum(pattern)
    u = np.zeros((n, n), dtype=np.complex128)
    offset = 0
    for s in pattern:
        a = np.arange(s)
        u[offset : offset + s, offset : offset + s] = np.exp(
            2j * np.pi * np.outer(a, a) / s
        ) / np.sqrt(s)
        offset += s
    return u


def saturating_outcome(pattern) -> tuple[int, ...]:
    """The bunched outcome over n modes: s_i photons in the first mode of
    block i, zero elsewhere."""
    pattern = validate_pattern(pattern)
    return tuple(c for s in pattern for c in (s,) + (0,) * (s - 1))

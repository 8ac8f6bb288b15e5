"""Linear-optics outcome amplitudes and probabilities via permanents.

For a k-mode interferometer with unitary U, the amplitude of seeing output
occupation (s_1..s_k) given input occupation (t_1..t_k) is
``Per(U_{s,t}) / sqrt(prod s_i! prod t_j!)`` where U_{s,t} repeats row i of U
s_i times and column j t_j times. Estimation is offered for the standard
initial state (one photon in each of the first n modes), where the repeated
rows map onto the multiplicity-spec estimators after a transpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .matrices import MultiplicitySpec, as_matrix

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


def validate_pattern(counts: Sequence[int], total: int | None = None) -> tuple[int, ...]:
    pattern = tuple(int(c) for c in counts)
    if any(c < 0 for c in pattern):
        raise ValueError("occupation counts must be nonnegative")
    if total is not None and sum(pattern) != total:
        raise ValueError(f"occupation counts sum to {sum(pattern)}, expected {total}")
    return pattern


def transition_matrix(u, row_pattern, col_pattern) -> np.ndarray:
    """U with row i repeated row_pattern[i] times and column j repeated
    col_pattern[j] times (zero counts drop the row/column)."""
    u = as_matrix(u)
    k = u.shape[0]
    if u.shape[1] != k:
        raise ValueError("interferometer matrix must be square")
    rows = validate_pattern(row_pattern)
    cols = validate_pattern(col_pattern)
    if len(rows) != k or len(cols) != k:
        raise ValueError(f"patterns must have length {k}")
    if sum(rows) != sum(cols):
        raise ValueError("row and column patterns must total the same photon count")
    return np.repeat(np.repeat(u, rows, axis=0), cols, axis=1)


def _log_factorial_sum(pattern) -> float:
    return sum(math.lgamma(c + 1) for c in pattern)


def amplitude_exact(u, row_pattern, col_pattern) -> AmplitudeResult:
    """Per(U_{s,t}) / sqrt(s! t!) and its squared magnitude, exactly."""
    from .exact import permanent_ryser

    a = transition_matrix(u, row_pattern, col_pattern)
    n = a.shape[0]
    if n == 0:
        amp = 1.0 + 0.0j  # vacuum to vacuum
    else:
        denom = math.exp(
            0.5 * (_log_factorial_sum(row_pattern) + _log_factorial_sum(col_pattern))
        )
        amp = permanent_ryser(a) / denom
    return AmplitudeResult(complex(amp), float(abs(amp) ** 2))


def amplitude_estimate(
    u,
    row_pattern,
    epsilon: float,
    mode: str = "random",
    delta: float = 0.01,
    rng_seed: int = 0,
) -> AmplitudeResult:
    """Estimate the outcome amplitude for the standard initial state.

    The amplitude guarantee is ``epsilon * sqrt(prod s_i!/s_i^s_i) * |B|^n``,
    rounded up like every bound term: for subunitary U it is at most epsilon
    times 1 + O(n * k * 2^-53), the bound's rounding allowance. The
    probability bound follows from
    ``| |a|^2 - |b|^2 | <= |a-b| (|a| + |b|)`` with the estimate standing in
    for the unknown true amplitude.
    """
    from .estimators import estimate_derandomized_multi, estimate_random_multi

    u = as_matrix(u)
    k = u.shape[0]
    if u.shape[1] != k:
        raise ValueError("interferometer matrix must be square")
    pattern = validate_pattern(row_pattern)
    if len(pattern) != k:
        raise ValueError(f"pattern must have length {k}")
    n = sum(pattern)
    if not (1 <= n <= k):
        raise ValueError("photon number must lie in 1..k for the standard input")
    # the transition matrix repeats row i of U's first n columns s_i times,
    # so its transpose is a repeated-column expansion; estimator
    # multiplicities must be positive, so unobserved modes drop out
    keep = [i for i, c in enumerate(pattern) if c > 0]
    u_eff = u[np.ix_(keep, range(k))]
    spec = MultiplicitySpec(u_eff[:, :n].T, tuple(pattern[i] for i in keep))
    if mode == "random":
        est = estimate_random_multi(spec, epsilon, delta, rng_seed)
    elif mode == "exhaustive":
        from .exact import _gengly_exhaustive_estimate

        # the full average is exact for any complex matrix
        est = _gengly_exhaustive_estimate(spec)
    elif mode == "derandomized":
        from .complex_bias import build_complex_space

        space = build_complex_space(tuple(s + 1 for s in spec.mults), epsilon)
        est = estimate_derandomized_multi(spec, space)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    root_fact = math.exp(0.5 * _log_factorial_sum(pattern))
    amp = est.value / root_fact
    amp_err = est.epsilon * est.bound_term / root_fact
    prob = float(abs(amp) ** 2)
    prob_err = amp_err * (2.0 * abs(amp) + amp_err)
    return AmplitudeResult(complex(amp), prob, amp_err, prob_err)


def bunching_bound(pattern) -> float:
    """prod s_i! / s_i^s_i: the largest possible probability of the outcome
    from the standard initial state (0! = 1 and 0^0 = 1)."""
    pattern = validate_pattern(pattern)
    num = 1
    den = 1
    for c in pattern:
        if c > 0:
            num *= math.factorial(c)
            den *= c**c
    # true division of ints rounds the exact ratio correctly
    return num / den


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
    out = []
    for s in pattern:
        out.append(s)
        out.extend([0] * (s - 1))
    return tuple(out)

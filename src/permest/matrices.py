"""Complex matrix storage, text format, multiplicity expansion, the
roots-of-unity grid of a multiplicity spec (roots, scale, size) and
a certified spectral norm (one LAPACK singular value plus a rounding slack).

Matrices are plain 2-D ``numpy`` arrays of ``complex128``. The text format is
line oriented: the first data line is ``rows cols``, each following line holds
one row as ``2*cols`` whitespace-separated decimals alternating real and
imaginary parts. Lines whose first non-blank character is ``#`` are comments.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConvergenceError, MatrixParseError

__all__ = [
    "MultiplicitySpec",
    "SpectralNormResult",
    "as_matrix",
    "as_spec",
    "as_square",
    "expand",
    "gengly_scale",
    "parse_matrix",
    "phase_space_size",
    "roots_of_unity",
    "serialize_matrix",
    "spectral_norm",
]


def as_matrix(values) -> np.ndarray:
    """Coerce to a nonempty 2-D complex128 array with finite entries."""
    a = np.asarray(values, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_square(values) -> np.ndarray:
    """``as_matrix``, for a square matrix only."""
    a = as_matrix(values)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    return a


@dataclass(frozen=True)
class MultiplicitySpec:
    """An n x k base matrix plus positive column multiplicities summing to n.

    ``expand`` turns this into the n x n matrix whose i-th base column is
    repeated ``mults[i]`` times. A square matrix is the spec whose
    multiplicities are all 1 (``as_spec``).
    """

    base: np.ndarray
    mults: tuple[int, ...]

    def __post_init__(self):
        base = as_matrix(self.base)
        mults = tuple(int(s) for s in self.mults)
        if len(mults) != base.shape[1]:
            raise ValueError(
                f"{len(mults)} multiplicities for {base.shape[1]} columns"
            )
        if any(s < 1 for s in mults):
            raise ValueError("every multiplicity must be >= 1")
        if sum(mults) != base.shape[0]:
            raise ValueError(
                f"multiplicities sum to {sum(mults)}, need rows = {base.shape[0]}"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "mults", mults)

    @property
    def n(self) -> int:
        return self.base.shape[0]

    @property
    def k(self) -> int:
        return self.base.shape[1]

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(s + 1 for s in self.mults)


def as_spec(target) -> MultiplicitySpec:
    """A spec unchanged; a square matrix as its all-ones spec, checked once."""
    if isinstance(target, MultiplicitySpec):
        return target
    a = as_square(target)
    spec = object.__new__(MultiplicitySpec)
    spec.__dict__.update(base=a, mults=(1,) * a.shape[0])
    return spec


def expand(spec: MultiplicitySpec) -> np.ndarray:
    """The n x n matrix with column i of the base repeated mults[i] times."""
    return np.repeat(spec.base, spec.mults, axis=1)


# exact values where the roots are representable without rounding
_EXACT_ROOTS = {
    1: np.array([1.0 + 0.0j]),
    2: np.array([1.0 + 0.0j, -1.0 + 0.0j]),
    4: np.array([1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j]),
}


def roots_of_unity(m: int) -> np.ndarray:
    """The m-th roots of unity, index j holding exp(2*pi*i*j/m)."""
    if m in _EXACT_ROOTS:
        return _EXACT_ROOTS[m]
    return np.exp(2j * np.pi * np.arange(m) / m)


def _log_gengly_scale(mults: Sequence[int]) -> float:
    return sum(math.lgamma(s + 1) - 0.5 * s * math.log(s) for s in mults)


def gengly_scale(mults: Sequence[int]) -> float:
    """s_1!...s_k! / sqrt(s_1^s_1 ... s_k^s_k), computed in log space."""
    return math.exp(_log_gengly_scale(mults))


def phase_space_size(moduli: Sequence[int]) -> int:
    return int(np.prod([int(m) for m in moduli], dtype=object))


def parse_matrix(text: str | bytes) -> np.ndarray:
    """Parse the documented text format into a complex matrix."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    rows = cols = None
    data: list[list[complex]] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if rows is None:
            if len(tokens) != 2:
                raise MatrixParseError(
                    f"header must be 'rows cols', got {len(tokens)} tokens", lineno
                )
            try:
                rows, cols = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise MatrixParseError("non-numeric dimension token", lineno) from None
            if rows < 1 or cols < 1:
                raise MatrixParseError("dimensions must be positive", lineno)
            continue
        if len(data) == rows:
            raise MatrixParseError(f"extra data after {rows} rows", lineno)
        if len(tokens) != 2 * cols:
            raise MatrixParseError(
                f"row {len(data) + 1} has {len(tokens)} values, expected {2 * cols}",
                lineno,
            )
        try:
            vals = [float(t) for t in tokens]
        except ValueError:
            raise MatrixParseError("non-numeric token", lineno) from None
        if not all(np.isfinite(vals)):
            raise MatrixParseError("non-finite value", lineno)
        data.append([complex(vals[2 * j], vals[2 * j + 1]) for j in range(cols)])
    if rows is None:
        raise MatrixParseError("empty input", max(last_line, 1))
    if len(data) < rows:
        raise MatrixParseError(f"row {len(data) + 1} missing", last_line + 1)
    return np.array(data, dtype=np.complex128)


def serialize_matrix(a) -> str:
    """Emit the text format with 17 significant digits (lossless for doubles)."""
    a = as_matrix(a)
    lines = [f"{a.shape[0]} {a.shape[1]}"]
    for row in a:
        lines.append(" ".join(f"{v.real:.17g} {v.imag:.17g}" for v in row))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SpectralNormResult:
    """A certified upper bound on the largest singular value.

    ``value`` is LAPACK's largest singular value times ``1 + residual``, the
    relative slack that covers LAPACK's error bound; ``iterations`` counts
    the LAPACK calls (0 for the zero matrix).
    """

    value: float
    iterations: int
    residual: float


def spectral_norm(a) -> SpectralNormResult:
    """An upper bound on the largest singular value of ``a``, from one LAPACK
    SVD without singular vectors.

    LAPACK's computed singular values are within p(n) * 2^-53 * sigma_1 of
    the true ones, p(n) a modest function of the size (LAPACK Users' Guide,
    section 4.9); ``value`` adds ``4 * max(rows, cols) * 2^-53`` relative,
    so it is never below the true norm. Below the normal range, where that
    relative slack rounds away, it is added absolutely plus one subnormal
    step. A failed SVD raises ``ConvergenceError``.
    """
    a = as_matrix(a)
    if not np.any(a):
        return SpectralNormResult(0.0, 0, 0.0)
    try:
        sigma = float(np.linalg.svd(a, compute_uv=False)[0])
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK singular values: {exc}") from None
    slack = 4 * max(a.shape) * 2.0**-53
    value = sigma * (1.0 + slack)
    if value < sys.float_info.min:
        # below the normal range the relative slack rounds away: add it
        # absolutely, plus one subnormal step for the roundings
        value = math.nextafter(sigma + sigma * slack, math.inf)
    return SpectralNormResult(value, 1, slack)

"""Glynn-type permanent estimators and their averaging strategies.

``gly`` evaluates the signed row-sum product at one sign vector; its mean
over all of {-1,+1}^n is the permanent. ``gengly`` is the roots-of-unity
generalization for matrices given as a base matrix with repeated columns:
coordinate i ranges over the (s_i + 1)-th roots of unity and is scaled by
sqrt(s_i), which keeps the estimator unbiased while shrinking its worst-case
magnitude to ``s_1! ... s_k! / sqrt(s_1^s_1 ... s_k^s_k) * |B|^n``.

Averaging comes in three modes: ``random`` (independent uniform samples with
a Hoeffding-derived sample count), ``derandomized`` (full enumeration of a
small-bias sample space's seeds), and ``exhaustive`` (the exact grid sum of
``exact``: ``permanent_glynn_exact`` for a matrix, ``permanent_gengly_exact``
for a spec). A uniform (0-biased) sample space is the whole grid, so the
derandomized mean of ``gly`` over one is that same exhaustive estimate, bit
for bit. ``gengly``'s derandomized mean still enumerates a uniform space's
support (ROADMAP item 11).

``gly_batch`` and ``gengly_batch`` are thin wrappers over one kernel,
``_rowsum_products(x, at, weight)``: weight[m] * prod_i (x @ at)[m, i] for
every row m of x. It works in blocks of ``_BLOCK`` = 2^12 rows, so a block's
row sums (1.9 MiB at n=30 in complex128) stay in a 2 MiB L2: one matmul per
block, then the column product as n in-place passes into one preallocated
complex128 output. dtype dispatch: gly on a real matrix runs in float64
throughout, with the row sums laid out (n, B) so each pass reads one
contiguous row; gly on a complex matrix is one real matmul of the float
signs against the (re, im)-interleaved float64 view of a.T, read back as
complex; gengly builds its complex y in (k, M) layout with one gather per
coordinate from a sqrt(s)*roots table, after checking the phase range. The
sign product x_1...x_n comes from the integer count of -1 signs, and the
gengly phase factor from a per-phase table, as the weight.

Both random-mode estimators run one loop, ``_random_mean``: ``_CHUNK`` =
2^16-sample chunks of ``_BLOCK``-row blocks, written into one reused buffer
and summed pairwise once per chunk. gly draws its signs per block from
``numpy.random.default_rng(rng_seed)``: sign j is bit 31 (even j) or bit 63
(odd j) of raw PCG64 word j // 2, mapped 0 -> +1 and 1 -> -1, the stream of
``integers(0, 2)`` built without an int64 array. gengly draws each chunk's
phases column by column with ``integers`` and narrows each column at once to
the smallest unsigned dtype that holds max(moduli) - 1 (uint8 up to modulus
256), after dropping the previous chunk's columns. When the grid of
prod(moduli) cells is at most the samples in full blocks and at most 2^16,
the kernel runs once over every cell and each full block gathers its values
from that table, bit-identical to evaluating the block (see
``_random_mean``); gengly's full blocks read their cells from the narrow
columns with integer multiply-adds, gly's from its float signs by a matvec.

One decoder pair turns flat cell indices into kernel input, given the place
values of a numbering: ``_index_signs`` and ``_index_phases``. Random mode
decodes its grid tables with them; the derandomized mean reads a space's
support as ascending indices in the space's own numbering (``places``),
decodes one ``_BLOCK`` of them at a time, and sums probability times value
pairwise, which no BLAS thread count can reorder. gly's blocks are decoded
into one sign buffer, reused for every block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .matrices import (
    MultiplicitySpec,
    PhaseVector,
    _log_gengly_scale,
    as_square,
    gengly_scale,
    phase_space_size,
    roots_of_unity,
    spectral_norm,
)

__all__ = [
    "Estimate",
    "GuaranteeReport",
    "PhaseVector",
    "estimate_derandomized",
    "estimate_derandomized_multi",
    "estimate_random",
    "estimate_random_multi",
    "gengly",
    "gengly_batch",
    "gengly_scale",
    "gly",
    "gly_batch",
    "permanent_upper_bound",
    "phase_space_size",
    "roots_of_unity",
    "sample_count",
]

_CHUNK = 1 << 16
# the most samples random mode draws: eps ~ 7.5e-5 at delta = 0.01
SAMPLE_LIMIT = 1 << 32
# estimator kernel rows per block: a (2^12, 30) complex128 block is 1.9 MiB
_BLOCK = 1 << 12

@dataclass(frozen=True)
class GuaranteeReport:
    """Absolute additive guarantee: epsilon times the estimator bound."""

    additive_error_bound: float
    confidence: float


@dataclass(frozen=True)
class Estimate:
    """An estimator average plus everything needed to state its guarantee.

    ``bound_term`` is the quantity the accuracy parameter multiplies:
    ``permanent_upper_bound``, which rounds up ``|A|^n`` in the plain case
    and the scaled ``|B|^n`` bound in the multiplicity case.
    """

    value: complex
    bound_term: float
    epsilon: float
    samples_used: int
    mode: str
    confidence: float = 1.0

    def __post_init__(self):
        if self.mode not in ("random", "derandomized", "exhaustive"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.samples_used < 1:
            raise ValueError("samples_used must be >= 1")

    def guarantee(self) -> GuaranteeReport:
        error = self.epsilon * self.bound_term
        if error < sys.float_info.min and self.epsilon > 0.0 and self.bound_term > 0.0:
            # a product below the normal range can round down, to 0.0 too
            error = math.nextafter(error, math.inf)
        return GuaranteeReport(error, self.confidence)


def gly(a, x: PhaseVector) -> complex:
    """x_1...x_n times the product of signed row sums of ``a`` at x."""
    a = as_square(a)
    n = a.shape[0]
    if len(x.phases) != n or any(m != 2 for m in x.moduli):
        raise ValueError("need a binary phase vector of length n")
    signs = 1.0 - 2.0 * np.array([x.phases], dtype=np.float64)
    return complex(gly_batch(a, signs)[0])


def _rowsum_products(x: np.ndarray, at: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """weight[m] * prod_i (x @ at)[m, i] for every row m of x, as complex128.

    Runs in blocks of ``_BLOCK`` rows, so each block's row sums stay in L2:
    one matmul, then the column product as in-place passes. Real x against
    real at stays float64 throughout, with the row sums laid out (n, B) so
    that each pass reads one contiguous row. Real x against complex at is
    one real matmul on at's interleaved (re, im) pairs, viewed back as
    complex. Complex paths keep the (B, n) layout: a transposed zgemm was
    not bit-identical to it at small M.
    """
    # decided before the split view below makes a complex at float64
    real = x.dtype == np.float64 and at.dtype == np.float64
    split = x.dtype == np.float64 and at.dtype == np.complex128
    if split:
        at = np.ascontiguousarray(at).view(np.float64)
    out = np.empty(x.shape[0], dtype=np.complex128)
    for lo in range(0, x.shape[0], _BLOCK):
        block = x[lo : lo + _BLOCK]
        if real:
            rows = at.T @ block.T
        else:
            rows = block @ at
            if split:
                rows = rows.view(np.complex128)
            rows = rows.T
        prod = rows[0].copy()
        for i in range(1, rows.shape[0]):
            prod *= rows[i]
        prod *= weight[lo : lo + _BLOCK]
        out[lo : lo + _BLOCK] = prod
    return out


def gly_batch(a, signs: np.ndarray) -> np.ndarray:
    """Vectorized ``gly`` over rows of a (M, n) matrix of +-1 signs."""
    a = np.asarray(a)
    signs = np.asarray(signs, dtype=np.float64)
    n = signs.shape[1]
    if np.iscomplexobj(a) and a.imag.any():
        at = a.T.astype(np.complex128)
    else:
        at = a.T.real.astype(np.float64)
    # prod_j x_j from the sign sum: (n - sum_j x_j) / 2 of the x_j are -1
    minus = (n - signs @ np.ones(n)).astype(np.int64) >> 1
    parity = 1.0 - 2.0 * (minus & 1)
    return _rowsum_products(signs, at, parity)


def gengly(spec: MultiplicitySpec, x: PhaseVector) -> complex:
    """The generalized estimator at one point of the roots-of-unity grid."""
    moduli = tuple(s + 1 for s in spec.mults)
    if x.moduli != moduli:
        raise ValueError(f"phase vector moduli {x.moduli} != {moduli}")
    vals = gengly_batch(spec, np.array([x.phases], dtype=np.int64))
    return complex(vals[0])


def gengly_batch(spec: MultiplicitySpec, phases: np.ndarray) -> np.ndarray:
    """Vectorized ``gengly`` over rows of a (M, k) integer phase array."""
    mults = spec.mults
    k = spec.k
    phases = np.asarray(phases, dtype=np.int64)
    if phases.ndim != 2 or phases.shape[1] != k:
        raise ValueError(f"phase array must be (M, {k})")
    cols = np.ascontiguousarray(phases.T)
    y = np.empty((k, phases.shape[0]), dtype=np.complex128)
    pow_prod = np.ones(phases.shape[0], dtype=np.complex128)
    for i, s in enumerate(mults):
        # a negative phase reads as a huge unsigned one; with the range
        # checked, the clipped gathers below never clip
        if np.any(cols[i].view(np.uint64) > s):
            raise ValueError(f"phases in column {i} must lie in [0, {s}]")
        roots = roots_of_unity(s + 1)
        np.take(math.sqrt(s) * roots, cols[i], out=y[i], mode="clip")
        # z_i^{s_i} from a per-phase table keeps small moduli exact. The conj
        # stays after the product: conj of each factor instead can flip the
        # sign of a zero imaginary part
        pow_prod *= np.take(roots[np.arange(s + 1) * s % (s + 1)], cols[i], mode="clip")
    weight = gengly_scale(mults) * np.conj(pow_prod)
    return _rowsum_products(y.T, spec.base.T, weight)


def sample_count(epsilon: float, delta: float) -> int:
    """Samples for the additive guarantee: ceil(4 ln(4/delta) / eps^2).

    Hoeffding on the real and imaginary parts of the normalized estimator
    (each in [-1, 1]), with the error split evenly and a union bound over
    the four tail events. Raises CapacityError when the count exceeds
    ``SAMPLE_LIMIT`` or is not finite (eps^2 underflows to zero).
    """
    square = epsilon * epsilon
    count = 4.0 * math.log(4.0 / delta) / square if square else math.inf
    if not count <= SAMPLE_LIMIT:
        raise CapacityError(
            f"epsilon={epsilon}, delta={delta} needs {count:.4g} samples, over the "
            f"cap of 2^{SAMPLE_LIMIT.bit_length() - 1}"
        )
    return int(math.ceil(count))


_SIGN_BIT = np.uint64(1 << 63)
_ONE_BITS = np.uint64(0x3FF0000000000000)  # float64 1.0


def _random_signs(bitgen, rows: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """(rows, n) float64 +-1 signs, the same stream as mapping
    ``integers(0, 2, size=(rows, n))`` of a Generator on ``bitgen`` to
    1 - 2*bit.

    On a range of 2 that draw takes the top bit of each 32-bit half of a raw
    64-bit word, low half first: sign j is bit 31 (even j) or bit 63 (odd j)
    of word j // 2. Each bit is moved into the sign bit of a float64 1.0.
    An odd rows * n leaves the last half-word unused, where ``integers``
    would keep it for its next call, so only a final draw may be odd.

    ``out``, a uint64 array of at least rows * n + 1 entries, receives the
    signs instead of a new array, so a stream of blocks can reuse one buffer.
    """
    count = rows * n
    raw = bitgen.random_raw((count + 1) // 2)
    if out is None:
        out = np.empty(2 * raw.shape[0], dtype=np.uint64)
    pairs = out[: 2 * raw.shape[0]].reshape(-1, 2)
    np.left_shift(raw, np.uint64(32), out=pairs[:, 0])
    pairs[:, 0] &= _SIGN_BIT
    np.bitwise_and(raw, _SIGN_BIT, out=pairs[:, 1])
    pairs |= _ONE_BITS
    return pairs.view(np.float64).reshape(-1)[:count].reshape(rows, n)


def _check_params(epsilon: float, delta: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")


def _random_mean(m: int, grid: int, draw, evaluate, cells) -> complex:
    """Mean of m independent samples of an estimator, the loop of both
    random-mode estimators.

    ``draw(c)`` draws one chunk of c samples and returns ``chunk(lo, rows,
    lookup)``: the kernel input of its rows lo..lo+rows-1, or with ``lookup``
    true their cell indices. ``evaluate`` is the estimator kernel on such a
    block. The samples are summed pairwise once per ``_CHUNK`` rows, from
    one reused buffer.

    The grid has ``grid`` cells; ``cells(lo, hi)`` is the kernel input of
    cells lo..hi-1, in the numbering of the chunk's cell indices. When the
    full ``_BLOCK``-row blocks hold at least ``grid`` samples, and ``grid``
    is at most ``_CHUNK``, the kernel runs once over the grid and every full
    block gathers its values from that table. The rest is evaluated as it
    is drawn. Bit identity rests on the kernel giving a row
    the same bits wherever it sits: true for the complex kernels in any
    block of 2 or more rows (one row takes BLAS's matrix-vector path), and
    for the real gly kernel in blocks of a multiple of 8 rows or at most
    192, as every table block and full block is. In other ragged blocks its
    matmul rounds the last rows differently, so the final ragged block is
    never looked up.
    """
    table = None
    if grid <= min(m - m % _BLOCK, _CHUNK):
        table = np.empty(grid, dtype=np.complex128)
        for lo in range(0, grid, _BLOCK):
            # a one-row block would take BLAS's matrix-vector path
            lo = min(lo, grid - 2)
            hi = min(lo + _BLOCK, grid)
            table[lo:hi] = evaluate(cells(lo, hi))
    vals = np.empty(min(m, _CHUNK), dtype=np.complex128)
    total = 0j
    for done in range(0, m, _CHUNK):
        c = min(_CHUNK, m - done)
        chunk = draw(c)
        for lo in range(0, c, _BLOCK):
            rows = min(_BLOCK, c - lo)
            if table is not None and rows == _BLOCK:
                np.take(table, chunk(lo, rows, True), out=vals[lo : lo + rows], mode="clip")
            else:
                vals[lo : lo + rows] = evaluate(chunk(lo, rows, False))
        # one pairwise sum per chunk pins the summation order
        total += complex(np.sum(vals[:c]))
    return total / m


def _index_phases(idx: np.ndarray, places: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """(k, M) int64 phases of flat cell indices in the numbering with place
    values ``places``: phase i is idx // places[i] % moduli[i]."""
    out = np.empty((len(moduli), idx.shape[0]), dtype=np.int64)
    for i, mod in enumerate(moduli):
        np.floor_divide(idx, places[i], out=out[i])
        out[i] %= mod
    return out


def _index_signs(
    idx: np.ndarray, places: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(M, n) float64 signs of flat cell indices below 2^32, every place
    value a power of two: sign j is -1 where bit log2(places[j]) is set, in
    the random signs' C order.

    The bits come from ``np.unpackbits`` of the uint32 indices, and each is
    shifted into the sign bit of a 1.0. Random mode and binary spaces pass
    places 2^0..2^(n-1), whose bits are the first n unpacked; a complex
    space over moduli 2 numbers its cells last coordinate fastest, and its
    bits are gathered in place order. ``out``, a uint64 array of at least
    M * n entries, receives the signs instead of a new array, as in
    ``_random_signs``.
    """
    at = np.bitwise_count(places - 1)
    ascending = np.array_equal(at, np.arange(places.size))
    quads = idx.astype("<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(quads, axis=1, count=places.size if ascending else 32, bitorder="little")
    if not ascending:
        bits = np.take(bits, at, axis=1)
    if out is None:
        out = np.empty(bits.size, dtype=np.uint64)
    signs = out[: bits.size].reshape(bits.shape)
    signs[...] = bits
    signs <<= np.uint64(63)
    signs |= _ONE_BITS
    return signs.view(np.float64)


def permanent_upper_bound(spec: MultiplicitySpec) -> float:
    """``s_1!...s_k!/sqrt(s_1^s_1...s_k^s_k) * |B|^n``, rounded up: an upper
    bound on the magnitude of the expanded matrix's permanent and of every
    ``gengly`` sample, and the bound term of every estimate (all s_i = 1
    gives ``|A|^n``, the bound on every ``gly`` sample).

    ``|B|`` is ``spectral_norm``'s certified value. The log of the bound
    adds ``2^-53`` times (4 plus the magnitudes of its two terms): the
    rounding of ``math.log``, the sums and products, and ``math.exp``; a
    bound below the normal range is rounded up one subnormal step, so a
    nonzero matrix never gets 0.0. A bound beyond the double range raises
    ``OverflowError``.
    """
    sigma = spectral_norm(spec.base).value
    if sigma == 0.0:
        return 0.0
    log_scale = _log_gengly_scale(spec.mults)
    log_norm = spec.n * math.log(sigma)
    allowance = (abs(log_scale) + abs(log_norm) + 4.0) * 2.0**-53
    bound = math.exp(log_scale + log_norm + allowance)
    if bound == math.inf:
        raise OverflowError("the bound term exceeds the double range")
    if bound < sys.float_info.min:
        # below the normal range exp's rounding is a whole subnormal step,
        # and a nonzero bound can underflow to 0.0
        bound = math.nextafter(bound, math.inf)
    return bound


def estimate_random(
    a, epsilon: float, delta: float = 0.01, rng_seed: int = 0
) -> Estimate:
    """Mean of independent uniform sign-vector samples of ``gly``.

    Guarantee: within ``epsilon * |A|^n`` of the permanent with probability
    at least ``1 - delta``. Reproducible for a fixed ``rng_seed``: the signs
    are bits 31 and 63 of each raw PCG64 word of
    ``default_rng(rng_seed)``, the same stream as ``integers(0, 2)``. They
    are drawn in blocks of ``_BLOCK`` = 2^12 rows, and the samples are
    summed pairwise once per ``_CHUNK`` = 2^16 rows. Sign j = -1 is bit j of
    the sample's cell: when 2^n is at most the samples in full blocks and at
    most 2^16, ``gly_batch`` runs once over the 2^n cells and each full
    block reads its values from that table; otherwise every block is
    evaluated.
    """
    a = as_square(a)
    n = a.shape[0]
    _check_params(epsilon, delta)
    # an overflowing bound raises here, before any sample can overflow
    bound = permanent_upper_bound(MultiplicitySpec(a, (1,) * n))
    m = sample_count(epsilon, delta)
    bitgen = np.random.default_rng(rng_seed).bit_generator
    # one sign buffer for every block: a fresh one, live next to the
    # kernel's row sums, made malloc return the heap to the kernel and fault
    # it in again at every block (40k page faults per estimate at n=30)
    signs = np.empty(min(m, _BLOCK) * n + 1, dtype=np.uint64)

    # sum_j 2^j x_j = (2^n - 1) - 2 * cell, exact in float64
    weights = 2.0 ** np.arange(n)

    # a block of _BLOCK rows has an even number of signs, so only the run's
    # last draw can be odd
    def chunk(lo, rows, lookup):
        x = _random_signs(bitgen, rows, n, out=signs)
        return ((2.0**n - 1.0 - x @ weights) / 2.0).astype(np.intp) if lookup else x

    value = _random_mean(
        m,
        1 << n,
        lambda c: chunk,
        lambda x: gly_batch(a, x),
        lambda lo, hi: _index_signs(np.arange(lo, hi), 1 << np.arange(n)),
    )
    return Estimate(value, bound, epsilon, m, "random", confidence=1.0 - delta)


def estimate_random_multi(
    spec: MultiplicitySpec, epsilon: float, delta: float = 0.01, rng_seed: int = 0
) -> Estimate:
    """Mean of uniform roots-of-unity samples of ``gengly``.

    Reproducible for a fixed ``rng_seed``: each ``_CHUNK`` = 2^16-sample
    chunk draws its phases column by column with ``integers(0, s_i + 1)`` of
    ``default_rng(rng_seed)``, and is evaluated in blocks of ``_BLOCK`` rows
    and summed pairwise. Each column is kept only as a copy in the smallest
    unsigned dtype that holds every phase, and the previous chunk's columns
    are freed before the next chunk is drawn. When the grid's prod(s_i + 1)
    cells are at most the samples in full blocks and at most 2^16,
    ``gengly_batch`` runs once over the cells and each full block reads its
    values from that table, at cells summed from the narrow columns times
    their ``np.intp`` place values; every other block is stacked into int64
    phases and evaluated.
    """
    _check_params(epsilon, delta)
    bound = permanent_upper_bound(spec)
    moduli = [s + 1 for s in spec.mults]
    m = sample_count(epsilon, delta)
    rng = np.random.default_rng(rng_seed)
    narrow = np.min_scalar_type(max(moduli) - 1)
    # np.intp strides: a uint8 column times a Python int raises under NEP 50.
    # They are read only where the table is used (grid <= _CHUNK), where
    # they cannot wrap
    strides = np.cumprod([1, *moduli[:-1]], dtype=np.intp)
    cols = []

    # the per-column draws depend on the chunk size: keep _CHUNK for sampling
    def draw(c):
        # the last chunk's columns go before this chunk's are drawn
        cols.clear()
        cols.extend(rng.integers(0, mod, size=c).astype(narrow) for mod in moduli)
        return chunk

    def chunk(lo, rows, lookup):
        block = [col[lo : lo + rows] for col in cols]
        if not lookup:
            # stacked one block at a time, while the block is in cache
            return np.stack(block, dtype=np.int64).T
        idx = block[0].astype(np.intp)
        for col, stride in zip(block[1:], strides[1:]):
            idx += col * stride
        return idx

    value = _random_mean(
        m,
        phase_space_size(moduli),
        draw,
        lambda x: gengly_batch(spec, x),
        lambda lo, hi: _index_phases(np.arange(lo, hi), strides, moduli).T,
    )
    return Estimate(value, bound, epsilon, m, "random", confidence=1.0 - delta)


def _exhaustive_estimate(target) -> Estimate:
    """The exact grid sum, ``gly``'s over {-1,+1}^n for a matrix or
    ``gengly``'s for a ``MultiplicitySpec``, as an exhaustive ``Estimate``
    with zero epsilon; the bound comes first, so it refuses before the sum."""
    from . import exact

    if isinstance(target, MultiplicitySpec):
        bound = permanent_upper_bound(target)
        size = phase_space_size([s + 1 for s in target.mults])
        return Estimate(exact.permanent_gengly_exact(target), bound, 0.0, size, "exhaustive")
    a = as_square(target)
    bound = permanent_upper_bound(MultiplicitySpec(a, (1,) * a.shape[0]))
    return Estimate(exact.permanent_glynn_exact(a), bound, 0.0, 1 << a.shape[0], "exhaustive")


def _require_derandomizable(space, spec: MultiplicitySpec, what: str) -> None:
    """Refuse a space on another grid, then entries that are not nonnegative reals."""
    moduli = tuple(s + 1 for s in spec.mults)
    if tuple(space.moduli) != moduli:
        raise ValueError(f"space moduli {tuple(space.moduli)} != {moduli}")
    # exact check: the certainty guarantee needs nonnegative reals
    if np.any(spec.base.imag != 0.0) or np.any(spec.base.real < 0.0):
        raise DomainError(
            f"derandomized estimation requires {what} with nonnegative real "
            "entries (imaginary parts exactly zero)"
        )


def _derandomized_mean(space, spec: MultiplicitySpec, evaluate) -> Estimate:
    """Mean of the estimator over a sample space's support, equal to the
    seed-enumeration average exactly: equal sample points are grouped and
    weighted by their seed multiplicity. ``evaluate(block, places)`` decodes
    a ``_BLOCK`` of the ascending support indices, in the space's numbering,
    straight into kernel input that stays in L2."""
    bound = permanent_upper_bound(spec)
    idx, probs = space.support_cells()
    # padded to whole groups of 8 rows: the real gly matmul rounds the rows
    # of a ragged tail differently with the BLAS thread count
    idx = np.pad(idx, (0, -idx.size % 8), "edge")
    vals = np.empty(idx.size, dtype=np.complex128)
    for lo in range(0, idx.size, _BLOCK):
        vals[lo : lo + _BLOCK] = evaluate(idx[lo : lo + _BLOCK], space.places)
    mode = "exhaustive" if space.exhaustive else "derandomized"
    # a pairwise sum: a BLAS dot splits across threads, and its last bits
    # changed with the thread count
    value = complex(np.sum(probs * vals[: probs.size]))
    return Estimate(value, bound, space.declared_epsilon, space.seed_count, mode)


def estimate_derandomized(a, space) -> Estimate:
    """Deterministic mean of ``gly`` over a sample space with n binary
    coordinates (moduli all 2); over a uniform space, the exhaustive
    estimate: ``permanent_glynn_exact`` of ``a``."""
    a = as_square(a)
    spec = MultiplicitySpec(a, (1,) * a.shape[0])
    _require_derandomizable(space, spec, "a matrix")
    if space.exhaustive:
        return _exhaustive_estimate(a)

    # one sign buffer for every block, as in random mode: a fresh one made
    # malloc fault its pages in again at every block
    signs = np.empty(_BLOCK * a.shape[0], dtype=np.uint64)

    def evaluate(block, places):
        return gly_batch(a, _index_signs(block, places, out=signs))

    return _derandomized_mean(space, spec, evaluate)


def estimate_derandomized_multi(spec: MultiplicitySpec, space) -> Estimate:
    """Deterministic mean of ``gengly`` over a sample space on the spec's
    roots-of-unity grid. A uniform space's support is enumerated too: the
    benchmark reaches this path only through uniform spaces (ROADMAP item 11)."""
    _require_derandomizable(space, spec, "a base matrix")

    def evaluate(block, places):
        return gengly_batch(spec, _index_phases(block, places, space.moduli).T)

    return _derandomized_mean(space, spec, evaluate)

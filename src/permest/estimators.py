"""Glynn-type permanent estimators and their averaging strategies.

Gurvits's estimator gly at a sign vector x is x_1...x_n times the product of
the row sums of A x; its mean over all of {-1,+1}^n is the permanent. gengly
is the roots-of-unity generalization for matrices given as a base matrix with
repeated columns: coordinate i ranges over the (s_i + 1)-th roots of unity
and is scaled by sqrt(s_i), which keeps the estimator unbiased while
shrinking its worst-case magnitude to
``s_1! ... s_k! / sqrt(s_1^s_1 ... s_k^s_k) * |B|^n``. Both are evaluated
only in batches, ``gly_batch`` over rows of signs and ``gengly_batch`` over
rows of phases; one point is a batch of one row.

Averaging comes in three modes, one entry each, and each takes a square
matrix or a ``MultiplicitySpec``: ``estimate_random`` (independent uniform
samples with a Hoeffding-derived sample count), ``estimate_derandomized``
(full enumeration of a small-bias sample space's seeds) and
``estimate_exhaustive`` (the exact grid sum of ``exact``). Each picks its
estimator once, from the input's type: a matrix runs gly on the sign grid
and a spec, an all-ones one included, gengly on its roots-of-unity grid, so
a matrix's stream and its all-ones spec's differ. A uniform (0-biased)
sample space is the whole grid, so the derandomized mean of gly over one is
that same exhaustive estimate, bit for bit. gengly's derandomized mean
still enumerates a uniform space's support (ROADMAP item 11).
``estimate_random_multi`` and ``estimate_derandomized_multi`` forward
``as_spec(target)`` for the benchmark only (ROADMAP item 19).

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

One cell evaluator, ``_cell_values``, gives the estimator's value at 1-D
flat cell indices in a numbering with place values ``places``: it decodes
``_BLOCK`` cells at a time (``_index_signs`` into one reused sign buffer
for gly, ``_index_phases`` for gengly), pads only a ragged last block to a
whole group of 8 kernel rows, and writes into a buffer the caller owns.
Random mode's lookup table evaluates the grid through it, and the
derandomized mean each block of a space's ``support_blocks`` (the contract
stated in ``binary_bias``: 2-D cell indices in its own numbering,
``places``, with probabilities that broadcast against them), summing
probability times value pairwise per row, then over the rows, which no BLAS
thread count can reorder.

Both random-mode streams run one loop, ``_random_mean``: ``_CHUNK`` =
2^16-sample chunks of ``_BLOCK``-row blocks, written into one reused buffer
and summed pairwise once per chunk; a sum beyond the double range raises
``OverflowError``. gly draws its signs per block from
``numpy.random.default_rng(rng_seed)``: sign j is the top bit of 32-bit
half j of the raw PCG64 words, low half first, mapped 0 -> +1 and 1 -> -1,
the stream of ``integers(0, 2)`` built without an int64 array. The halves
of each fresh draw become float32 +-1 in place (the top bit ORed into a
1.0), which an evaluated block widens into one reused float64 buffer.
gengly draws each chunk's phases column by column with ``integers`` and
narrows each column at once to the smallest unsigned dtype that holds
max(moduli) - 1 (uint8 up to modulus 256), after dropping the previous
chunk's columns. When the grid of prod(moduli) cells is at most the samples
in full blocks and at most 2^16, ``_lookup_table`` evaluates every cell
once and each full block gathers its values from that table, bit-identical
to evaluating the block; gengly's full blocks read their cells from the
narrow columns with integer multiply-adds, gly's from its float32 signs by
an exact float32 matvec. gly's table evaluates only the cells with sign
n-1 = +1 and mirrors them into the rest: the cell of -x has the value of
the cell of x, since IEEE rounding is symmetric under sign.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, DomainError
from .matrices import (
    MultiplicitySpec,
    _gengly_scale_factors,
    _log_gengly_scale,
    _round_up,
    as_spec,
    phase_space_size,
    roots_of_unity,
    spectral_norm,
)

__all__ = [
    "Estimate",
    "GuaranteeReport",
    "estimate_derandomized",
    "estimate_derandomized_multi",
    "estimate_exhaustive",
    "estimate_random",
    "estimate_random_multi",
    "gengly_batch",
    "gly_batch",
    "permanent_upper_bound",
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
        if not math.isfinite(error):
            raise OverflowError("the additive error bound exceeds the double range")
        if self.epsilon > 0.0 and self.bound_term > 0.0:
            error = _round_up(error)
        return GuaranteeReport(error, self.confidence)


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
    """gly of the square matrix ``a`` at every row of a (M, n) array of +-1
    signs: x_1...x_n times the product of the row sums of ``a`` at x."""
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    n = a.shape[0]
    signs = np.asarray(signs, dtype=np.float64)
    if signs.ndim != 2 or signs.shape[1] != n:
        raise ValueError(f"sign array must be (M, {n})")
    if np.iscomplexobj(a) and a.imag.any():
        at = a.T.astype(np.complex128)
    else:
        at = a.T.real.astype(np.float64)
    # prod_j x_j from the sign sum: (n - sum_j x_j) / 2 of the x_j are -1
    minus = (n - signs @ np.ones(n)).astype(np.int64) >> 1
    parity = 1.0 - 2.0 * (minus & 1)
    return _rowsum_products(signs, at, parity)


def gengly_batch(spec: MultiplicitySpec, phases: np.ndarray) -> np.ndarray:
    """gengly of ``spec`` at every row of a (M, k) integer array of phases:
    phase p of column i is the root of unity exp(2 pi i p / (s_i + 1))."""
    mults = spec.mults
    k = spec.k
    phases = np.asarray(phases)
    # a cast to int64 would truncate a fractional phase to a valid one
    if not np.issubdtype(phases.dtype, np.integer):
        raise ValueError(f"phases must be integers, got dtype {phases.dtype}")
    phases = phases.astype(np.int64, copy=False)
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
    scale, *rest = _gengly_scale_factors(mults)
    values = _rowsum_products(y.T, spec.base.T, scale * np.conj(pow_prod))
    for factor in rest:
        values *= factor
    return values


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


def _sign_halves(bitgen, rows: int, n: int) -> np.ndarray:
    """``_random_signs`` as float32, made in place in the fresh raw words:
    each 32-bit half keeps its top bit, ORed into a float32 1.0."""
    raw = bitgen.random_raw((rows * n + 1) // 2)
    # a no-op on a little-endian host; elsewhere it lays each word out low half first
    halves = raw.astype("<u8", copy=False).view("<u4")
    halves &= 0x80000000
    halves |= 0x3F800000
    return halves.view("<f4")[: rows * n].reshape(rows, n)


def _random_signs(bitgen, rows: int, n: int, out: np.ndarray) -> np.ndarray:
    """(rows, n) float64 +-1 signs in ``out``, a float64 array of at least
    rows * n entries that a stream of blocks reuses: the same stream as
    mapping ``integers(0, 2, size=(rows, n))`` of a Generator on ``bitgen``
    to 1 - 2*bit.

    On a range of 2 that draw takes the top bit of each 32-bit half of a raw
    64-bit word, low half first: sign j is the top bit of half j of a uint32
    view of the words, made a float32 sign by ``_sign_halves`` and widened
    here. An odd rows * n leaves the last half-word unused, where
    ``integers`` would keep it for its next call, so only a final draw may
    be odd.
    """
    wide = out[: rows * n].reshape(rows, n)
    np.copyto(wide, _sign_halves(bitgen, rows, n))
    return wide


def _random_cells(bitgen, rows: int, n: int) -> np.ndarray:
    """The cells of the next (rows, n) ``_random_signs`` draw, n <= 16: sign
    j = -1 is bit j. ``(2^n - 1 - x @ 2^j) / 2`` runs on the float32 signs,
    where every partial sum is an integer below 2^17 and so exact."""
    x = _sign_halves(bitgen, rows, n)
    total = x @ (2.0 ** np.arange(n, dtype=np.float32))
    return ((np.float32((1 << n) - 1) - total) / 2).astype(np.intp)


def _cell_values(
    spec: MultiplicitySpec, gengly: bool, cells: np.ndarray, places: np.ndarray, out: np.ndarray
) -> None:
    """Write into ``out`` the estimator's value at each 1-D flat cell index
    of ``cells`` (place values ``places``): gengly of ``spec`` at the
    cell's phases, or gly of ``spec.base`` at its signs.

    The cells are decoded and evaluated ``_BLOCK`` at a time, gly's into one
    sign buffer reused for every block. A ragged block, only ever the last
    as ``_BLOCK`` is a multiple of 8, is padded with copies of its last cell
    to a whole group of 8 kernel rows: the real gly matmul rounds the rows
    of a ragged block differently with the BLAS thread count, and a block of
    one row takes BLAS's matrix-vector path.
    """
    if not gengly:
        most = min(_BLOCK, cells.size)
        signs = np.empty((most + -most % 8) * spec.n, dtype=np.uint64)
    for lo in range(0, cells.size, _BLOCK):
        block = cells[lo : lo + _BLOCK]
        rows = block.size
        if rows % 8:
            block = np.pad(block, (0, -rows % 8), "edge")
        if gengly:
            vals = gengly_batch(spec, _index_phases(block, places, spec.moduli).T)
        else:
            vals = gly_batch(spec.base, _index_signs(block, places, signs))
        out[lo : lo + rows] = vals[:rows]


def _lookup_table(spec: MultiplicitySpec, gengly: bool, places: np.ndarray) -> np.ndarray:
    """The estimator's value at every cell of the grid (``_cell_values``).

    gly's cell grid - 1 - c has the value of cell c: it is the cell of -x
    for the cell of x, by the global sign flip. So on a grid of 4 or more
    cells gly's kernel runs over the first half, and the second half is
    that half reversed. IEEE rounding is symmetric under sign, so -x's row
    sums, their product and its parity are the exact negations of x's, and
    gly at -x is gly at x bit for bit. The one exception is an exactly zero
    row sum, +0 for both x and -x, which can flip the sign of a zero part of
    the value. That only reaches a random-mode total that is exactly zero,
    and the total starts from +0j, to which either zero adds as +0.
    """
    grid = phase_space_size(spec.moduli)
    table = np.empty(grid, dtype=np.complex128)
    top = grid // 2 if not gengly and grid >= 4 else grid
    _cell_values(spec, gengly, np.arange(top), places, table[:top])
    table[top:] = table[: grid - top][::-1]
    return table


def _random_mean(m: int, draw, table: np.ndarray | None) -> complex:
    """Mean of m independent samples of an estimator, the loop of random
    mode's sign and phase streams.

    ``draw(c)`` draws one chunk of c samples and returns ``chunk(lo, rows,
    lookup)``: the estimator's values at its rows lo..lo+rows-1, or with
    ``lookup`` true their cells in ``table``, the values of the whole grid
    (``_lookup_table``) when random mode builds one. Every full
    ``_BLOCK``-row block is gathered from the table. The final ragged block
    is never looked up: the real gly kernel rounds the last rows of a ragged
    block differently from the same rows in a table block. The samples are
    summed pairwise once per ``_CHUNK`` rows, from one reused buffer; a sum
    beyond the double range raises ``OverflowError``.
    """
    vals = np.empty(min(m, _CHUNK), dtype=np.complex128)
    total = 0j
    with np.errstate(over="ignore", invalid="ignore"):
        for done in range(0, m, _CHUNK):
            c = min(_CHUNK, m - done)
            chunk = draw(c)
            for lo in range(0, c, _BLOCK):
                rows = min(_BLOCK, c - lo)
                if table is not None and rows == _BLOCK:
                    np.take(table, chunk(lo, rows, True), out=vals[lo : lo + rows], mode="clip")
                else:
                    vals[lo : lo + rows] = chunk(lo, rows, False)
            # one pairwise sum per chunk pins the summation order
            total += complex(np.sum(vals[:c]))
    if not cmath.isfinite(total):
        raise OverflowError("the sample sum exceeds the double range")
    return total / m


def _index_phases(idx: np.ndarray, places: np.ndarray, moduli: Sequence[int]) -> np.ndarray:
    """(k, M) int64 phases of flat cell indices in the numbering with place
    values ``places``: phase i is idx // places[i] % moduli[i]."""
    out = np.empty((len(moduli), idx.shape[0]), dtype=np.int64)
    for i, mod in enumerate(moduli):
        np.floor_divide(idx, places[i], out=out[i])
        out[i] %= mod
    return out


_ONE_BITS = np.uint64(0x3FF0000000000000)  # float64 1.0


def _index_signs(idx: np.ndarray, places: np.ndarray, out: np.ndarray) -> np.ndarray:
    """(M, n) float64 signs of flat cell indices below 2^32, every place
    value a power of two, in ``out``, a uint64 array of at least M * n
    entries: sign j is -1 where bit log2(places[j]) is set, in the random
    signs' C order.

    The bits come from ``np.unpackbits`` of the uint32 indices, and each is
    shifted into the sign bit of a 1.0. Random mode and binary spaces pass
    places 2^0..2^(n-1), whose bits are the first n unpacked; a complex
    space over moduli 2 numbers its cells last coordinate fastest, and its
    bits are gathered in place order.
    """
    at = np.bitwise_count(places - 1)
    ascending = np.array_equal(at, np.arange(places.size))
    quads = idx.astype("<u4").view(np.uint8).reshape(-1, 4)
    bits = np.unpackbits(quads, axis=1, count=places.size if ascending else 32, bitorder="little")
    if not ascending:
        bits = np.take(bits, at, axis=1)
    signs = out[: bits.size].reshape(bits.shape)
    signs[...] = bits
    signs <<= np.uint64(63)
    signs |= _ONE_BITS
    return signs.view(np.float64)


_LOG_MAX = math.log(sys.float_info.max)


def permanent_upper_bound(target) -> float:
    """``s_1!...s_k!/sqrt(s_1^s_1...s_k^s_k) * |B|^n`` of ``as_spec(target)``,
    rounded up: an upper bound on the magnitude of the expanded matrix's
    permanent and of every gengly sample, and the bound term of every
    estimate (a matrix, all s_i = 1, gives ``|A|^n``, the bound on every gly
    sample).

    ``|B|`` is ``spectral_norm``'s certified value. The log of the bound
    adds ``2^-53`` times (4 plus the magnitudes of its two terms): the
    rounding of ``math.log``, the sums and products, and ``math.exp``; a
    bound below the normal range is rounded up one subnormal step, so a
    nonzero matrix never gets 0.0. A bound beyond the double range raises
    ``OverflowError``.
    """
    spec = as_spec(target)
    sigma = spectral_norm(spec.base).value
    if sigma == 0.0:
        return 0.0
    log_scale = _log_gengly_scale(spec.mults)
    log_norm = spec.n * math.log(sigma)
    allowance = (abs(log_scale) + abs(log_norm) + 4.0) * 2.0**-53
    log_bound = log_scale + log_norm + allowance
    # math.exp is finite up to log(DBL_MAX) and raises its own "math range
    # error" past it
    if log_bound > _LOG_MAX:
        raise OverflowError("the bound term exceeds the double range")
    return _round_up(math.exp(log_bound))


# The bodies of estimate_random and estimate_derandomized. Their _multi
# forwards call these, not the public entries, so that the benchmark's tracer
# sees one estimator span per call, the parent of its kernel calls.
def _random(target, epsilon: float, delta: float, rng_seed: int) -> Estimate:
    spec = as_spec(target)
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    # an overflowing bound raises here, before any sample can overflow
    bound = permanent_upper_bound(spec)
    m = sample_count(epsilon, delta)
    moduli, n = spec.moduli, spec.n
    gengly = spec is target
    # np.intp places, gengly's lookup strides and gly's 2^j: a uint8 column
    # times a Python int raises under NEP 50. They are read only where the
    # table is used (grid <= _CHUNK), where they cannot wrap
    places = np.cumprod([1, *moduli[:-1]], dtype=np.intp)
    table = None
    if phase_space_size(moduli) <= min(m - m % _BLOCK, _CHUNK):
        table = _lookup_table(spec, gengly, places)
    if gengly:
        rng = np.random.default_rng(rng_seed)
        narrow = np.min_scalar_type(max(moduli) - 1)
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
                return gengly_batch(spec, np.stack(block, dtype=np.int64).T)
            idx = block[0].astype(np.intp)
            for col, place in zip(block[1:], places[1:]):
                idx += col * place
            return idx

    else:
        bitgen = np.random.default_rng(rng_seed).bit_generator
        # one sign buffer for every block: a fresh one, live next to the
        # kernel's row sums, made malloc return the heap to the kernel and
        # fault it in again at every block (40k page faults per estimate at n=30)
        signs = np.empty(min(m, _BLOCK) * n, dtype=np.float64)

        # a block of _BLOCK rows has an even number of signs, so only the
        # run's last draw can be odd
        def chunk(lo, rows, lookup):
            if lookup:
                return _random_cells(bitgen, rows, n)
            return gly_batch(spec.base, _random_signs(bitgen, rows, n, signs))

        def draw(c):
            return chunk

    value = _random_mean(m, draw, table)
    return Estimate(value, bound, epsilon, m, "random", confidence=1.0 - delta)


def estimate_random(
    target, epsilon: float, delta: float = 0.01, rng_seed: int = 0
) -> Estimate:
    """Mean of independent uniform samples of gly at sign vectors for a
    square matrix, or of gengly at roots of unity for a ``MultiplicitySpec``
    (an all-ones spec included).

    Guarantee: within ``epsilon * permanent_upper_bound(target)`` of the
    permanent with probability at least ``1 - delta``. Reproducible for a
    fixed ``rng_seed``: a matrix draws its signs from the raw PCG64 words of
    ``default_rng(rng_seed)``, the stream of ``integers(0, 2)``, and a spec
    each chunk's phases column by column with ``integers(0, s_i + 1)``.
    Samples are evaluated in blocks of ``_BLOCK`` = 2^12 rows, or gathered
    from a table of the grid when it is small, and summed pairwise once per
    ``_CHUNK`` = 2^16 rows (module docstring, ``_random_mean``).
    """
    return _random(target, epsilon, delta, rng_seed)


def estimate_random_multi(
    target, epsilon: float, delta: float = 0.01, rng_seed: int = 0
) -> Estimate:
    """``estimate_random(as_spec(target), ...)``: a forward kept only for the
    benchmark, which leaves with ROADMAP item 19."""
    return _random(as_spec(target), epsilon, delta, rng_seed)


def estimate_exhaustive(target) -> Estimate:
    """The exact grid sum, gly's over {-1,+1}^n for a matrix or
    gengly's for a ``MultiplicitySpec``, as an exhaustive ``Estimate``
    with zero epsilon; the bound comes first, so it refuses before the sum."""
    from . import exact

    spec = as_spec(target)
    bound = permanent_upper_bound(spec)
    kernel = exact.permanent_gengly_exact if spec is target else exact.permanent_glynn_exact
    return Estimate(kernel(spec), bound, 0.0, phase_space_size(spec.moduli), "exhaustive")


def _derandomized(target, space) -> Estimate:
    spec = as_spec(target)
    if tuple(space.moduli) != spec.moduli:
        raise ValueError(f"space moduli {tuple(space.moduli)} != {spec.moduli}")
    # exact check: the certainty guarantee needs nonnegative reals
    if np.any(spec.base.imag != 0.0) or np.any(spec.base.real < 0.0):
        raise DomainError(
            "derandomized estimation requires a matrix with nonnegative real "
            "entries (imaginary parts exactly zero)"
        )
    gengly = spec is target
    if not gengly and space.exhaustive:
        return estimate_exhaustive(spec.base)
    bound = permanent_upper_bound(spec)
    sums = []
    for cells, probs in space.support_blocks():
        vals = np.empty(cells.shape, dtype=np.complex128)
        _cell_values(spec, gengly, cells.ravel(), space.places, vals.ravel())
        vals *= probs
        # pairwise sums: a BLAS dot splits across threads, and its last bits
        # changed with the thread count
        sums.append(np.sum(vals, axis=1))
        # freed before the next block's buffer is allocated and before the
        # support's arrays: freed last, at return, it joined the heap top,
        # glibc trimmed the heap, and the next call faulted the pages back in
        del vals
    value = complex(np.sum(np.concatenate(sums)))
    mode = "exhaustive" if space.exhaustive else "derandomized"
    return Estimate(value, bound, space.declared_epsilon, space.seed_count, mode)


def estimate_derandomized(target, space) -> Estimate:
    """Deterministic mean of gly for a square matrix, or of gengly for a
    ``MultiplicitySpec``, over a sample space on its grid, with nonnegative
    real entries. It equals the seed-enumeration average and streams the
    space's ``support_blocks`` (module docstring); over a uniform space,
    gly's mean is the matrix's ``estimate_exhaustive``, bit for bit."""
    return _derandomized(target, space)


def estimate_derandomized_multi(target, space) -> Estimate:
    """``estimate_derandomized(as_spec(target), space)``: a forward kept only
    for the benchmark, which leaves with ROADMAP item 19."""
    return _derandomized(as_spec(target), space)

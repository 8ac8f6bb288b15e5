"""Exact permanent computation.

``permanent_naive`` is the permutation-sum reference (factorial time, the
ground truth every other routine is tested against): a literal sum over all
n! permutations, built as one int8 table by insertion and multiplied out in
blocks of 2^16 permutations. Ryser, Glynn and
gengly-exact are thin wrappers over one O(2^n n) kernel, ``_grid_sum``: a
weighted sum, over a product grid of per-column values, of the product of
the row sums at each grid point. The leading columns form a cache-resident
table of at most 2^``_BLOCK_BITS`` = 2^14 row-sum vectors; each point of the
other columns shifts it by their row sums and multiplies its n rows. The outer
points run in batches of a few points, one buffer row each, and the batches
are split across the CPUs the process may use. Real input runs in float64,
complex input in complex128. Each shifted table is reduced by a pairwise
sum, and the outer sum is Kahan-compensated against Ryser's cancellation in
point order once every batch is done, so the values depend neither on the
CPU count nor on the BLAS thread count.
"""

from __future__ import annotations

import cmath
import math
import os
import threading

import numpy as np

from .errors import SizeLimitError
from .matrices import MultiplicitySpec, as_matrix

__all__ = [
    "GRAY_LIMIT",
    "NAIVE_LIMIT",
    "PHASE_SPACE_LIMIT",
    "permanent_gengly_exact",
    "permanent_glynn_exact",
    "permanent_naive",
    "permanent_ryser",
]

NAIVE_LIMIT = 10
GRAY_LIMIT = 30
PHASE_SPACE_LIMIT = 1 << 24

# a 2^14 complex128 table row is 256 KiB, well inside L2
_BLOCK_BITS = 14
# shifted table rows one batch of outer points fills: 4 points of a real 2^14
# table, 2 of a complex one
_BATCH_BYTES = 512 << 10
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# permutations per block of the permutation sum
_NAIVE_BLOCK = 1 << 16

_SIGNS = np.array([1.0, -1.0])


def _square(a, limit: int, name: str) -> np.ndarray:
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got {a.shape}")
    if a.shape[0] > limit:
        raise SizeLimitError(f"{name} is capped at n <= {limit}")
    return a


def _permutations(n: int) -> np.ndarray:
    """All n! permutations of range(n), one int8 row each: every permutation
    of range(k) is extended by inserting k at each of its k + 1 positions."""
    perms = np.zeros((1, 0), dtype=np.int8)
    for k in range(n):
        rows = perms.shape[0]
        grown = np.empty((rows * (k + 1), k + 1), dtype=np.int8)
        for pos in range(k + 1):
            block = grown[pos * rows : (pos + 1) * rows]
            block[:, :pos] = perms[:, :pos]
            block[:, pos] = k
            block[:, pos + 1 :] = perms[:, pos:]
        perms = grown
    return perms


def permanent_naive(a) -> complex:
    """Sum over all n! permutations of products of matched entries."""
    a = _square(a, NAIVE_LIMIT, "permanent_naive")
    n = a.shape[0]
    perms = _permutations(n)
    total = 0j
    for lo in range(0, perms.shape[0], _NAIVE_BLOCK):
        block = perms[lo : lo + _NAIVE_BLOCK]
        # entry (i, perm[i]) of each permutation, multiplied left to right
        prod = a[0, block[:, 0]]
        for i in range(1, n):
            prod *= a[i, block[:, i]]
        total += complex(np.sum(prod))
    return total


class _Kahan:
    __slots__ = ("total", "comp")

    def __init__(self):
        # float until a complex term arrives, so real sums stay real
        self.total = 0.0
        self.comp = 0.0

    def add(self, term) -> None:
        y = term - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


def _outer_point(high, index: int) -> list:
    """The (value, weight) pair of each outer column at outer point
    ``index``, numbered as ``itertools.product(*high)`` numbers its points
    (the last column fastest)."""
    point = []
    for column in reversed(high):
        index, digit = divmod(index, len(column))
        point.append(column[digit])
    return point[::-1]


def _batch_terms(a_high, table, table_w, high, start, out, tmp, terms) -> None:
    """Store the terms of the q outer points from ``start`` on at their
    indices in ``terms``, with q the rows of ``out`` (fewer in the last
    batch): each point shifts the table by its own row sums, the q shifted
    tables are multiplied row by row in one (q, T) buffer and each is
    reduced by a pairwise sum."""
    chunk = [_outer_point(high, p) for p in range(start, min(start + out.shape[0], terms.size))]
    q = len(chunk)
    # one matvec per point: a gemm over the batch changed the last bits
    base = np.stack(
        [a_high @ np.array([v for v, _ in point], dtype=table.dtype) for point in chunk],
        axis=1,
    )
    out, tmp = out[:q], tmp[:q]
    np.add(table[0], base[0, :, None], out=out)
    for i in range(1, table.shape[0]):
        np.add(table[i], base[i, :, None], out=tmp)
        out *= tmp
    np.multiply(table_w, out, out=tmp)
    for j, point in enumerate(chunk):
        # a pairwise sum: a BLAS dot splits across threads, and its last
        # bits changed with the thread count
        terms[start + j] = math.prod(w for _, w in point) * np.sum(tmp[j]).item()


def _grid_sum(a: np.ndarray, values, weights):
    """sum_e prod_j weights[j][e_j] * prod_i sum_j values[j][e_j] * a[i, j].

    The points of the outer columns run in batches that fill about
    ``_BATCH_BYTES`` of buffer, split across the CPUs the process may use;
    the terms are Kahan-added in point order afterwards, so the value
    depends neither on the CPU count nor on the BLAS thread count. A float
    when every input is real. Raises OverflowError when the total is not
    finite, which only overflow can cause (``as_matrix`` rejects non-finite
    input).
    """
    if not any(np.any(np.imag(x)) for x in (a, *values, *weights)):
        a, values, weights = a.real, [v.real for v in values], [w.real for w in weights]
    n, k = a.shape
    table = np.zeros((n, 1), dtype=a.dtype)
    table_w = np.ones(1, dtype=a.dtype)
    low = 0
    while low < k and table_w.size * values[low].size <= 1 << _BLOCK_BITS:
        table = (table[:, :, None] + a[:, low, None, None] * values[low]).reshape(n, -1)
        table_w = np.outer(table_w, weights[low]).ravel()
        low += 1
    high = [list(zip(v.tolist(), w.tolist())) for v, w in zip(values[low:], weights[low:])]
    count = math.prod(len(column) for column in high)
    # numpy rounds a complex product of one-entry arrays unlike one of a
    # longer run, so a one-entry table keeps one point per batch
    rows = _BATCH_BYTES // table[0].nbytes if table_w.size > 1 else 1
    batch = min(count, max(1, rows))
    batches = range(0, count, batch)
    # two batches or more per worker: one is too little work to pay for a thread
    workers = max(1, min(_CPUS, len(batches) // 2))
    # allocated here: buffers a worker thread allocates stay resident in its
    # malloc arena after the call
    buffers = [np.empty((2, batch, table_w.size), dtype=a.dtype) for _ in range(workers)]
    a_high = a[:, low:]
    # each term is a Python float (complex for complex input), stored exactly
    terms = np.zeros(count, dtype=a.dtype)
    errors = []

    def work(w: int) -> None:
        try:
            # numpy's error state does not carry over into a new thread
            with np.errstate(over="ignore", invalid="ignore"):
                for start in batches[w::workers]:
                    if errors:
                        return
                    _batch_terms(a_high, table, table_w, high, start, *buffers[w], terms)
        except BaseException as exc:
            # re-raised below; an interrupt of the calling thread also stops
            # the other workers at their next batch
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    work(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    acc = _Kahan()
    # one Python scalar at a time: a list of them all costs 32 bytes a point
    for i in range(count):
        acc.add(terms.item(i))
    if not cmath.isfinite(acc.total):
        raise OverflowError("the permanent sum is not finite in double precision")
    return acc.total


def permanent_ryser(a) -> complex:
    """Ryser's inclusion-exclusion over column subsets.

    Per(A) = (-1)^n sum_{S subseteq [n]} (-1)^{|S|} prod_i sum_{j in S} a_ij.
    """
    a = _square(a, GRAY_LIMIT, "permanent_ryser")
    n = a.shape[0]
    total = _grid_sum(a, [np.array([0.0, 1.0])] * n, [_SIGNS] * n)
    return complex((-1) ** n * total)


def permanent_glynn_exact(a) -> complex:
    """Exact average of the Glynn estimator over all 2^n sign vectors.

    The estimator is invariant under a global sign flip, so the first
    coordinate is fixed to +1 and the average runs over the remaining
    2^(n-1) vectors.
    """
    a = _square(a, GRAY_LIMIT, "permanent_glynn_exact")
    n = a.shape[0]
    signs = [np.ones(1)] + [_SIGNS] * (n - 1)
    return complex(_grid_sum(a, signs, signs) / (1 << (n - 1)))


def permanent_gengly_exact(spec: MultiplicitySpec) -> complex:
    """Exact average of the generalized estimator over the whole phase grid.

    Equals the permanent of the expanded matrix.
    """
    from .estimators import gengly_scale, phase_space_size, roots_of_unity

    moduli = [s + 1 for s in spec.mults]
    size = phase_space_size(moduli)
    if size > PHASE_SPACE_LIMIT:
        raise SizeLimitError(
            f"phase space has {size} points, cap is {PHASE_SPACE_LIMIT}"
        )
    values, weights = [], []
    for s in spec.mults:
        roots = roots_of_unity(s + 1)
        values.append(math.sqrt(s) * roots)
        # z^s by index arithmetic keeps small moduli exact
        weights.append(np.conj(roots[(np.arange(s + 1) * s) % (s + 1)]))
    total = _grid_sum(spec.base, values, weights)
    return complex(total * gengly_scale(spec.mults) / size)


def _gengly_exhaustive_estimate(spec: MultiplicitySpec):
    """``permanent_gengly_exact`` as an exhaustive-mode ``Estimate``: zero
    epsilon, the gengly bound term, one sample per grid point."""
    from .estimators import Estimate, permanent_upper_bound, phase_space_size

    # the bound first, so that a refusal comes before the grid sum
    bound = permanent_upper_bound(spec)
    size = phase_space_size([s + 1 for s in spec.mults])
    return Estimate(permanent_gengly_exact(spec), bound, 0.0, size, "exhaustive")

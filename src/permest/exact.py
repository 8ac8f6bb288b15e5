"""Exact permanent computation.

``permanent_naive`` is the permutation-sum reference (factorial time, the
ground truth every other routine is tested against): a literal sum over all
n! permutations, built as one int8 table by insertion and multiplied out in
blocks of 2^16 permutations. Ryser, Glynn and gengly-exact are thin wrappers
over one O(2^n n) kernel, ``_grid_sum``: a weighted sum, over a product grid
of per-column values, of the product of the row sums at each grid point.
Every routine takes a matrix or a ``MultiplicitySpec`` (a matrix is its
all-ones spec): naive expands a spec; Ryser and Glynn give s equal
columns one grid column (Kan's multiset form), where taking c of them
(Ryser) or flipping c to -1 (Glynn) is one point of value c or s - 2c and
weight (-1)^c C(s, c), one copy of Glynn's first group held at +1. At s = 1
that is the 2^n grid's column. The leading columns form a table of at most
2^``_BLOCK_BITS`` = 2^14 row-sum vectors, n rows of up to 2^14 entries,
built in place in one buffer column by column; each point of the other
columns shifts it by their row sums and multiplies its n rows. The outer
points run in batches of a few points, one buffer row each, and the batches
are split across the CPUs the process may use. At 2^14 entries the whole
table is n x 128 KiB real or n x 256 KiB complex (2.5 or 5 MiB at n = 20),
more than a core's L2; a batch reads it one row at a time, and that row and
the batch's buffers stay in L2. Real input runs in float64, complex input in
complex128. Each shifted table is reduced by a pairwise sum, and the outer
sum is Kahan-compensated against Ryser's cancellation in point order once
every batch is done, so the values depend neither on the CPU count nor on
the BLAS thread count.

Glynn and gengly-exact, the estimators' means over their whole grids, are
the exhaustive estimates of ``estimators``; Glynn is also its derandomized
mean over a uniform space of signs.
"""

from __future__ import annotations

import cmath
import functools
import math
import os
import threading

import numpy as np

from .errors import SizeLimitError
from .matrices import (
    MultiplicitySpec,
    _gengly_scale_factors,
    as_spec,
    expand,
    phase_space_size,
    roots_of_unity,
)

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
PHASE_SPACE_LIMIT = 1 << GRAY_LIMIT

# a 2^14 table row is 128 KiB (float64) or 256 KiB (complex128): one row and
# the batch buffers fit a core's L2, the n rows of the table do not
_BLOCK_BITS = 14
# shifted table rows one batch of outer points fills: 4 points of a real 2^14
# table, 2 of a complex one
_BATCH_BYTES = 512 << 10
# outer points one batch decodes at most: the cap that binds on short tables
_BATCH_POINTS = 64
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# permutations per block of the permutation sum
_NAIVE_BLOCK = 1 << 16


def _spec(target, limit: int, name: str) -> MultiplicitySpec:
    spec = as_spec(target)
    if spec.n > limit:
        raise SizeLimitError(f"{name} is capped at n <= {limit}")
    return spec


@functools.cache
def _group_columns(s: int, fixed: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ryser's values, Glynn's values and their weights for s equal columns, ``fixed`` at +1."""
    c = np.arange(s - fixed + 1.0)
    return c, s - 2.0 * c, (-1.0) ** c * [math.comb(s - fixed, i) for i in range(s - fixed + 1)]


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


def permanent_naive(target) -> complex:
    """Sum over all n! permutations of products of matched entries."""
    a = expand(_spec(target, NAIVE_LIMIT, "permanent_naive"))
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


def _grid_table(a: np.ndarray, values, weights):
    """The row sums and weights of the leading grid columns, and how many
    columns they take: the largest ``low`` whose grid has at most
    2^``_BLOCK_BITS`` points. Entry t of ``table`` (n x T) and of ``table_w``
    belongs to the point whose column-j digit is digit j of t, column 0 the
    most significant, as ``itertools.product`` numbers them.

    The table is filled in place: after column j its entries so far sit at
    every ``stride``-th slot, and each value c of column j adds its row sums
    to them into the slots ``c * step :: stride`` (the last value in place),
    one ``np.add`` over all rows. Every entry is the sum of its columns'
    terms in column order from a zero start, as it was when each column made
    a new table.
    """
    n, k = a.shape
    low, size = 0, 1
    while low < k and size * values[low].size <= 1 << _BLOCK_BITS:
        size *= values[low].size
        low += 1
    table = np.empty((n, size), dtype=a.dtype)
    table[:, 0] = 0
    # the weights stay an outer product: a strided in-place multiply by one
    # weight at a time rounded complex weights differently
    table_w = np.ones(1, dtype=a.dtype)
    stride = size
    for j in range(low):
        m = values[j].size
        step = stride // m
        shifts = (a[:, j, None, None] * values[j]).reshape(n, m)
        done = table[:, ::stride]
        for c in range(m - 1, -1, -1):
            np.add(done, shifts[:, c, None], out=table[:, c * step :: stride])
        stride = step
        table_w = np.outer(table_w, weights[j]).ravel()
    return table, table_w, low


def _batch_terms(a_high, table, table_w, high, start, out, tmp, terms) -> None:
    """Store the terms of the q outer points from ``start`` on at their
    indices in ``terms``, with q the rows of ``out`` (fewer in the last
    batch): each point shifts the table by its own row sums, the q shifted
    tables are multiplied row by row in one (q, T) buffer and each is
    reduced by a pairwise sum. Point p takes entry ``p // place % size`` of
    each outer column's values and weights, which ``high`` holds end to end
    from index ``first`` on: the points are numbered as ``itertools.product``
    numbers them, the last column fastest."""
    q = min(out.shape[0], terms.size - start)
    place, size, first, flat_v, flat_w = high
    cells = np.arange(start, start + q)[:, None] // place
    cells %= size
    cells += first
    point_v, point_w = flat_v[cells], flat_w[cells]
    # one matvec per point: a gemm over the batch changed the last bits
    base = np.empty((a_high.shape[0], q), dtype=table.dtype)
    for j, v in enumerate(point_v):
        base[:, j] = a_high @ v
    out, tmp = out[:q], tmp[:q]
    np.add(table[0], base[0, :, None], out=out)
    for i in range(1, table.shape[0]):
        np.add(table[i], base[i, :, None], out=tmp)
        out *= tmp
    np.multiply(table_w, out, out=tmp)
    for j in range(q):
        # a pairwise sum: a BLAS dot splits across threads, and its last
        # bits changed with the thread count
        terms[start + j] = math.prod(point_w[j].tolist()) * np.sum(tmp[j]).item()


def _grid_sum(a: np.ndarray, values, weights):
    """sum_e prod_j weights[j][e_j] * prod_i sum_j values[j][e_j] * a[i, j].

    The points of the outer columns run in batches that fill about
    ``_BATCH_BYTES`` of buffer, at most ``_BATCH_POINTS`` points each, split
    across the CPUs the process may use; the terms are Kahan-added in point
    order afterwards, so the value depends neither on the CPU count nor on
    the BLAS thread count. A float when every input is real. Raises
    OverflowError when the total is not finite, which only overflow can
    cause (``as_matrix`` rejects non-finite input).
    """
    if not any(x.dtype.kind == "c" and x.imag.any() for x in (a, *values, *weights)):
        a, values, weights = a.real, [v.real for v in values], [w.real for w in weights]
    table, table_w, low = _grid_table(a, values, weights)
    size = np.array([v.size for v in values[low:]], dtype=np.int64)
    count = int(size.prod())
    # place value, size and first flat index of each outer column, then their
    # values and weights end to end (the empty arrays set the dtypes and
    # cover a grid with no outer column)
    high = (
        count // np.cumprod(size),
        size,
        np.cumsum(size) - size,
        np.concatenate([np.empty(0, dtype=a.dtype), *values[low:]]),
        np.concatenate([np.empty(0), *weights[low:]]),
    )
    batch = min(count, max(1, _BATCH_BYTES // table[0].nbytes), _BATCH_POINTS)
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
    # Kahan's sum, one Python scalar at a time (a list of them all costs 32
    # bytes a point); a float until a complex term arrives, so real sums stay real
    total = comp = 0.0
    for i in range(count):
        y = terms.item(i) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if not cmath.isfinite(total):
        raise OverflowError("the permanent sum is not finite in double precision")
    return total


def permanent_ryser(target) -> complex:
    """Ryser's inclusion-exclusion over column subsets.

    Per(A) = (-1)^n sum_{S subseteq [n]} (-1)^{|S|} prod_i sum_{j in S} a_ij.
    """
    spec = _spec(target, GRAY_LIMIT, "permanent_ryser")
    values, _, weights = zip(*map(_group_columns, spec.mults))
    return complex((-1) ** spec.n * _grid_sum(spec.base, values, weights))


def permanent_glynn_exact(target) -> complex:
    """Exact average of the Glynn estimator over all 2^n sign vectors.

    The estimator is invariant under a global sign flip, so the first
    coordinate is fixed to +1 and the average runs over the remaining
    2^(n-1) vectors.
    """
    spec = _spec(target, GRAY_LIMIT, "permanent_glynn_exact")
    _, values, weights = zip(_group_columns(spec.mults[0], 1), *map(_group_columns, spec.mults[1:]))
    return complex(_grid_sum(spec.base, values, weights) / (1 << (spec.n - 1)))


def permanent_gengly_exact(target) -> complex:
    """Exact average of the generalized estimator over the whole phase grid
    of ``as_spec(target)``.

    Equals the permanent of the expanded matrix. On a real base the points e
    and -e of the grid give conjugate terms, so the sum is real up to
    rounding and its imaginary part is returned as 0.0. The scale
    s_1!...s_k!/sqrt(s_1^s_1...s_k^s_k) multiplies the sum afterwards, as two
    square-root factors where it is past the double range.
    """
    spec = as_spec(target)
    size = phase_space_size(spec.moduli)
    if size > PHASE_SPACE_LIMIT:
        raise SizeLimitError(f"phase space has {size} points, cap is {PHASE_SPACE_LIMIT}")
    factors = _gengly_scale_factors(spec.mults)
    values, weights = [], []
    for s in spec.mults:
        roots = roots_of_unity(s + 1)
        values.append(math.sqrt(s) * roots)
        # z^s by index arithmetic keeps small moduli exact
        weights.append(np.conj(roots[(np.arange(s + 1) * s) % (s + 1)]))
    total = _grid_sum(spec.base, values, weights)
    if not spec.base.imag.any():
        total = total.real
    for factor in factors:
        total *= factor
    return complex(total / size)

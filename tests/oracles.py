"""Independent oracles for the test suite.

These deliberately avoid the package's vectorized code paths: plain loops,
textbook formulas, and a hand-rolled one-sided Jacobi SVD. Tests compare the
package against these, never the other way around.
"""

import cmath
import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from permest.binary_bias import IRREDUCIBLE, SampleSpace
from permest.matrices import MultiplicitySpec, as_spec, expand


def jacobi_svd_sigma_max(a, sweeps: int = 60, tol: float = 1e-14) -> float:
    """Largest singular value via one-sided Jacobi column orthogonalization."""
    w = np.array(a, dtype=complex)
    n_cols = w.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(n_cols - 1):
            for j in range(i + 1, n_cols):
                ci = w[:, i]
                cj = w[:, j]
                aii = float(np.real(np.vdot(ci, ci)))
                ajj = float(np.real(np.vdot(cj, cj)))
                g = np.vdot(ci, cj)
                mg = abs(g)
                if mg <= max(tol * math.sqrt(aii * ajj), 1e-300):
                    continue
                off = max(off, mg / max(math.sqrt(aii * ajj), 1e-300))
                phase = g / mg
                tau = (ajj - aii) / (2.0 * mg)
                t = math.copysign(1.0, tau) / (abs(tau) + math.hypot(1.0, tau)) if tau else 1.0
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                new_i = c * ci - s * np.conj(phase) * cj
                new_j = s * phase * ci + c * cj
                w[:, i] = new_i
                w[:, j] = new_j
        if off < tol:
            break
    return float(np.sqrt(np.max(np.sum(np.abs(w) ** 2, axis=0))))


def permanent_by_permutations(a) -> complex:
    """The permanent as a literal loop over itertools.permutations."""
    rows = [[complex(v) for v in row] for row in np.asarray(a)]
    total = 0j
    for perm in itertools.permutations(range(len(rows))):
        p = 1 + 0j
        for i, j in enumerate(perm):
            p *= rows[i][j]
        total += p
    return total


def permanent_of_spec(spec) -> complex:
    """Per(expand(spec)) by plain loops: s_1!...s_k! times the sum, over the
    distinct assignments of the rows to the column groups that give group j
    s_j rows (n!/(s_1!...s_k!) of them), of prod_i b[i, group of row i].
    The assignments of the rows after the first n - sum(left) share their
    sum for each ``left`` count of free places per group, so it is made
    once for each such count."""
    rows = [[complex(v) for v in row] for row in spec.base]
    n = len(rows)

    @functools.cache
    def assignments(left):
        i = n - sum(left)
        if i == n:
            return 1 + 0j
        total = 0j
        for j, free in enumerate(left):
            if free:
                total += rows[i][j] * assignments(left[:j] + (free - 1,) + left[j + 1 :])
        return total

    return math.prod(math.factorial(s) for s in spec.mults) * assignments(spec.mults)


def gly_plain(a, signs) -> complex:
    """The Glynn estimator by direct loops."""
    n = len(signs)
    total = 1.0
    for s in signs:
        total *= s
    value = complex(total)
    for i in range(n):
        row = 0j
        for j in range(n):
            row += complex(a[i][j]) * signs[j]
        value *= row
    return value


def gly_mean_unhalved(a) -> complex:
    """Average of gly over every one of the 2^n sign vectors."""
    n = np.asarray(a).shape[0]
    total = 0j
    for signs in itertools.product((1.0, -1.0), repeat=n):
        total += gly_plain(a, signs)
    return total / (2**n)


def gengly_plain(spec, phases) -> complex:
    """The generalized estimator by direct loops."""
    mults = spec.mults
    b = spec.base
    n, k = b.shape
    pref = 1.0
    for s in mults:
        pref *= math.factorial(s) / s**s
    y = [
        math.sqrt(s) * np.exp(2j * np.pi * p / (s + 1))
        for s, p in zip(mults, phases)
    ]
    value = complex(pref)
    for s, yi in zip(mults, y):
        value *= np.conj(yi) ** s
    for i in range(n):
        row = 0j
        for j in range(k):
            row += complex(b[i, j]) * y[j]
        value *= row
    return value


def gengly_mean_exhaustive(spec) -> complex:
    """Average of gengly over the whole roots-of-unity grid, plain loops."""
    moduli = [s + 1 for s in spec.mults]
    total = 0j
    count = 0
    for phases in itertools.product(*[range(m) for m in moduli]):
        total += gengly_plain(spec, phases)
        count += 1
    return total / count


def grid_table_by_outer_products(a, values, weights, block_bits: int):
    """The leading-column table of the exact kernels, (table, table_w, low),
    built one new table per column: every entry so far plus each of the
    column's row sums (an outer sum), its weights multiplied in by an outer
    product, while the table has at most 2^block_bits entries."""
    n, k = a.shape
    table = np.zeros((n, 1), dtype=a.dtype)
    table_w = np.ones(1, dtype=a.dtype)
    low = 0
    while low < k and table_w.size * values[low].size <= 1 << block_bits:
        table = (table[:, :, None] + a[:, low, None, None] * values[low]).reshape(n, -1)
        table_w = np.outer(table_w, weights[low]).ravel()
        low += 1
    return table, table_w, low


def index_signs_by_shifts(idx, places) -> np.ndarray:
    """(M, n) float64 signs of flat cell indices with power-of-two place
    values, each index bit shifted straight into the sign bit of a 1.0 in a
    uint64: the decoder the unpacking one must match bit for bit."""
    shifts = np.uint64(63) - np.bitwise_count(places - 1).astype(np.uint64)
    bits = idx.astype(np.uint64)[:, None] << shifts
    bits &= np.uint64(1 << 63)
    bits |= np.uint64(0x3FF0000000000000)
    return bits.view(np.float64)


def walsh_by_stacked_levels(p) -> np.ndarray:
    """The Walsh-Hadamard butterfly with a fresh (sum, difference) stack per
    level: the same adds and subtracts as the in-place one."""
    a = np.array(p, dtype=np.float64)
    size = a.shape[0]
    h = 1
    while h < size:
        a = a.reshape(-1, 2, h)
        a = np.stack((a[:, 0, :] + a[:, 1, :], a[:, 0, :] - a[:, 1, :]), axis=1)
        h *= 2
    return a.reshape(size)


def gf2_mul(x: int, y: int, m: int) -> int:
    """Carry-less product of x and y reduced modulo the degree-m polynomial
    of ``IRREDUCIBLE``, one bit of y at a time in Python ints."""
    poly = IRREDUCIBLE[m]
    r = 0
    while y:
        if y & 1:
            r ^= x
        y >>= 1
        x <<= 1
        if (x >> m) & 1:
            x ^= poly
    return r


def binary_seed_phases(space, seed: int) -> tuple[int, ...]:
    """One seed's phase bits: the seed's own bits in an exhaustive space,
    else bit i = <r, f^i> over GF(2) for seed = f * 2^m + r, with the
    powers f^i from the scalar ``gf2_mul``."""
    if space.exhaustive:
        return tuple((seed >> i) & 1 for i in range(space.n))
    m = space.field_bits
    f, r = seed >> m, seed & ((1 << m) - 1)
    power, bits = 1, []
    for _ in range(space.n):
        bits.append((r & power).bit_count() & 1)
        power = gf2_mul(power, f, m)
    return tuple(bits)


def complex_seed_phases(space, seed: int) -> tuple[int, ...]:
    """One seed's grid point: its C-order digits (last coordinate fastest)
    in an exhaustive space, else the sum mod m_i of the base tuples at the
    walk vertices its selector bits pick out, walking with ``mgg_step``.

    The base tuples come from ``strong_outputs_by_seed``, seed by seed in
    the generator's layout, not from the package's seed map."""
    moduli = space.moduli
    if space.exhaustive:
        digits = []
        for m in reversed(moduli):
            seed, digit = divmod(seed, m)
            digits.append(digit)
        return tuple(reversed(digits))
    amp, base = space.amplifier, space.base
    half = amp.vertex_bits // 2
    size = 1 << half
    x, y = (seed >> half) & (size - 1), seed & (size - 1)
    selectors = seed >> amp.seed_bits
    table = strong_outputs_by_seed(base)
    total = [0] * len(moduli)
    for j in range(amp.walk_length):
        if j:
            x, y = mgg_step(x, y, (seed >> (amp.vertex_bits + 3 * (j - 1))) & 7, size)
        if (selectors >> j) & 1:
            row = table[((x << half) | y) % base.seed_count]
            total = [t + int(v) for t, v in zip(total, row)]
    return tuple(t % m for t, m in zip(total, moduli))


def seed_phases(space, seed: int) -> tuple[int, ...]:
    """One seed's phases by the per-seed oracle of the space's kind."""
    if isinstance(space, SampleSpace):
        return binary_seed_phases(space, seed)
    return complex_seed_phases(space, seed)


def cells_by_seed_loop(space) -> np.ndarray:
    """Every seed's cell in the space's own numbering (bit i is coordinate i
    in a binary space, the C-order grid index in a complex one), in seed
    order, one ``seed_phases`` call per seed."""
    binary = isinstance(space, SampleSpace)
    cells = np.empty(space.seed_count, dtype=np.int64)
    for seed in range(space.seed_count):
        index = 0
        for i, (p, m) in enumerate(zip(seed_phases(space, seed), space.moduli)):
            index = index | (p << i) if binary else index * m + p
        cells[seed] = index
    return cells


def space_mean_by_seed_loop(space, evaluate) -> complex:
    """Average evaluate(phases) over every seed, one at a time, where
    ``phases`` is the seed's tuple of phase indices."""
    total = 0j
    for seed in range(space.seed_count):
        total += evaluate(seed_phases(space, seed))
    return total / space.seed_count


def binary_cells_by_seed(space) -> np.ndarray:
    """Cell index of every seed of a binary space, in seed order: the seed
    itself in an exhaustive space, else (seed = f * 2^m + r) the parity
    map, bit i = parity(r & f^i).

    The powers f^i come from the scalar ``gf2_mul``; none of the package's
    doubled powers, column map or cell doubling is used. Cells are uint32,
    so n <= 32.
    """
    if space.exhaustive:
        return np.arange(space.seed_count, dtype=np.uint32)
    m, n = space.field_bits, space.n
    size = 1 << m
    powers = np.ones((size, n), dtype=np.uint32)
    for f in range(size):
        for i in range(1, n):
            powers[f, i] = gf2_mul(int(powers[f, i - 1]), f, m)
    r = np.arange(size, dtype=np.uint32)
    cells = np.zeros((size, size), dtype=np.uint32)  # [f, r]
    for i in range(n):
        bits = np.bitwise_count(r[None, :] & powers[:, i, None]) & 1
        cells |= bits.astype(np.uint32) << i
    return cells.ravel()


def decode_cells(space, idx) -> np.ndarray:
    """(M, k) int64 phases of flat cell indices in a space's own numbering:
    bit i of the index is coordinate i in a binary space, the C-order grid
    index (last coordinate fastest) in a complex one."""
    idx = np.asarray(idx, dtype=np.int64)
    if isinstance(space, SampleSpace):
        return (idx[:, None] >> np.arange(space.n)) & 1
    return np.stack(np.unravel_index(idx, space.moduli), axis=1).astype(np.int64)


def merged_support(space) -> tuple[np.ndarray, np.ndarray]:
    """A space's ``support_blocks`` merged: the distinct cells, ascending,
    from ``np.unique``, and each one's probability, a ``bincount`` of the
    weights of its occurrences."""
    blocks = list(space.support_blocks())
    cells = np.concatenate([c.ravel() for c, _ in blocks])
    weights = np.concatenate([np.broadcast_to(p, c.shape).ravel() for c, p in blocks])
    idx, inverse = np.unique(cells, return_inverse=True)
    return idx, np.bincount(inverse.ravel(), weights)


def cells_by_seed(space) -> np.ndarray:
    """Every seed's cell in the space's own numbering, in seed order, by the
    vectorized per-seed oracle of its kind."""
    if isinstance(space, SampleSpace):
        return binary_cells_by_seed(space)
    return complex_cells_by_seed(space)


def bias_by_characters(space, cells) -> float:
    """max over nonzero exponent vectors e of |E[x^e]|, one character at a
    time, over the distinct cells of ``cells`` (every seed's) weighted by
    their seed counts and decoded by ``decode_cells``."""
    moduli = space.moduli
    idx, counts = np.unique(cells, return_counts=True)
    phases = decode_cells(space, idx)
    worst = 0.0
    for exps in itertools.product(*[range(m) for m in moduli]):
        if not any(exps):
            continue
        total = 0j
        for cell, count in zip(phases.tolist(), counts.tolist()):
            angle = sum(e * f / m for e, f, m in zip(exps, cell, moduli))
            total += count * cmath.exp(2j * math.pi * angle)
        worst = max(worst, abs(total) / space.seed_count)
    return worst


def bias_by_dft(space) -> float:
    """max over nonzero exponent vectors of |E[x^e]| from the full DFT of
    the support histogram over the grid, for every modulus (2 included), with
    no audit cap: the reference for ``measure_bias``'s Walsh kernel."""
    spectrum = np.abs(np.fft.fftn(space.support_histogram().reshape(space.moduli)))
    spectrum.flat[0] = 0.0
    return float(spectrum.max())


def complex_cells_by_seed(space) -> np.ndarray:
    """Every seed's C-order grid index in a complex space, in seed order: an
    exhaustive seed is its own index; a constructed seed runs its own walk
    and sums the base tuples its selector bits pick out.

    Reuses the package's walk (tested on its own) with the base tuples of
    ``strong_outputs_by_seed``, and none of the package's seed map,
    per-walk doubling or last-step counting.
    """
    from permest.complex_bias import walk_batch

    if space.exhaustive:
        return np.arange(space.seed_count, dtype=np.int64)
    amp = space.amplifier
    table = strong_outputs_by_seed(space.base)
    cells = np.empty(space.seed_count, dtype=np.int64)
    chunk = 1 << 18
    for lo in range(0, space.seed_count, chunk):
        s = np.arange(lo, min(lo + chunk, space.seed_count), dtype=np.int64)
        verts = walk_batch(amp, s & ((1 << amp.seed_bits) - 1)) % space.base.seed_count
        f = table[verts]  # (C, L, k)
        sel = (((s >> amp.seed_bits)[:, None] >> np.arange(space.ell)) & 1)[:, :, None]
        sums = (f * sel).sum(axis=1) % np.array(space.moduli)
        cells[lo : lo + s.size] = np.ravel_multi_index(tuple(sums.T), space.moduli)
    return cells


def complex_histogram_by_seed(space) -> np.ndarray:
    """A complex space's histogram, counted over ``complex_cells_by_seed``."""
    counts = np.bincount(complex_cells_by_seed(space), minlength=math.prod(space.moduli))
    return (counts / float(space.seed_count)).reshape(space.moduli)


def glynn_multiset_fraction(base, mults) -> Fraction:
    """Per of the matrix that repeats column j of the real ``base`` mults[j]
    times, as an exact Fraction: Glynn's sum over sign vectors grouped by
    the number e_j of minus signs among each group's equal columns (weight
    (-1)^e_j C(s_j, e_j), value s_j - 2 e_j), with one copy of the first
    column fixed at +1, in integer arithmetic on the scaled entries."""
    entries = [[Fraction(x) for x in row] for row in np.asarray(base, dtype=np.float64).tolist()]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    ints = [[int(x * scale) for x in row] for row in entries]
    n = sum(mults)
    free = [mults[0] - 1, *mults[1:]]
    total = 0
    for e in itertools.product(*(range(f + 1) for f in free)):
        weight = (-1) ** sum(e) * math.prod(math.comb(f, ej) for f, ej in zip(free, e))
        values = [s - 2 * ej for s, ej in zip(mults, e)]
        total += weight * math.prod(sum(v * x for v, x in zip(values, row)) for row in ints)
    return Fraction(total, scale**n * 2 ** (n - 1))


def strong_product_batch(gen, seeds) -> np.ndarray:
    """The strong-product generator's output at each of ``seeds``, seed by
    seed in its layout: the c-wise tuple of seed mod n_u times each
    coordinate's level count from seed // n_u, mod m_i, as int64.
    One c-wise draw backs every level h; the sparsifier bits only zero
    coordinates, so reducing mod m_i up front is equivalent."""
    from permest.complex_bias import cwise_batch

    seeds = np.asarray(seeds, dtype=np.int64)
    u = cwise_batch(gen.cwise, seeds % gen.n_u)
    return u * gen._level_counts(seeds // gen.n_u) % np.array(gen.moduli)


@functools.lru_cache(maxsize=4)
def strong_outputs_by_seed(gen) -> np.ndarray:
    """Every seed's output, (seed_count, k) int64, from the per-seed batch."""
    return strong_product_batch(gen, np.arange(gen.seed_count))


def strong_cell_counts_by_seed(gen, chunk=1 << 20) -> np.ndarray:
    """Seeds per C-order grid cell, counted over every seed's output,
    ``chunk`` seeds at a time."""
    cells = math.prod(gen.moduli)
    counts = np.zeros(cells, dtype=np.int64)
    for lo in range(0, gen.seed_count, chunk):
        f = strong_product_batch(gen, np.arange(lo, min(lo + chunk, gen.seed_count)))
        index = np.ravel_multi_index(tuple(f.T), gen.moduli)
        counts += np.bincount(index, minlength=cells)
    return counts


def strong_fraction_by_seed(gen, exponent, theta_ratio=(1, 16)) -> float:
    """Mean over every seed of the integer arc test on its character phase."""
    table = strong_outputs_by_seed(gen)
    lcm = math.lcm(*gen.moduli)
    weights = np.array([(e * (lcm // m)) % lcm for e, m in zip(exponent, gen.moduli)])
    num = (table * weights).sum(axis=1) % lcm
    a, b = theta_ratio
    return float(np.mean((b * num >= a * lcm) & (b * (lcm - num) >= a * lcm)))


def theta_strong(lam: complex, theta: float) -> bool:
    """Whether |arg lam| >= theta (boundary inclusive)."""
    return abs(cmath.phase(lam)) >= theta


def walk_failure_fraction(params, good, sample_seeds=None, rng_seed=0) -> float:
    """Fraction of walk seeds visiting ``good`` fewer than walk_length/2
    times: every seed, or ``sample_seeds`` drawn with ``rng_seed``."""
    from permest.complex_bias import walk_batch

    if good.shape[0] != (1 << params.vertex_bits):
        raise ValueError("good-set mask must cover the vertex space")
    if sample_seeds is None:
        seeds = np.arange(1 << params.seed_bits, dtype=np.int64)
    else:
        rng = np.random.default_rng(rng_seed)
        seeds = rng.integers(0, 1 << params.seed_bits, size=sample_seeds, dtype=np.int64)
    hits = good[walk_batch(params, seeds)].sum(axis=1)
    return float(np.mean(hits < params.walk_length / 2.0))


def mgg_step(x, y, choice, size):
    """One step of the 8-regular Margulis-Gabber-Galil walk on Z_size^2."""
    moves = {
        0: (x + 2 * y, y),
        1: (x - 2 * y, y),
        2: (x + 2 * y + 1, y),
        3: (x - 2 * y - 1, y),
        4: (x, y + 2 * x),
        5: (x, y - 2 * x),
        6: (x, y + 2 * x + 1),
        7: (x, y - 2 * x - 1),
    }
    nx, ny = moves[choice]
    return nx % size, ny % size


def cwise_horner(gen, seed) -> tuple[int, ...]:
    """The c-wise tuple of one seed: its base-p digits are the polynomial's
    coefficients, evaluated at 0..k-1 by Horner's rule."""
    coeffs = [(seed // gen.prime**j) % gen.prime for j in range(gen.ncoeffs)]
    out = []
    for point, m in enumerate(gen.moduli):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * point + c) % gen.prime
        out.append(acc % m)
    return tuple(out)


def random_complex(rng, n, k=None):
    k = n if k is None else k
    return (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / 2.0


def near_degenerate(seed: int = 0, n: int = 30) -> np.ndarray:
    """U diag(1, 1 - 1e-7, linspace(0.5, 0.9)) V^T with seeded random
    orthogonal U, V: a norm of 1 whose top two singular values differ by
    1e-7, where power iteration needs about 10^8 steps."""
    rng = np.random.default_rng(seed)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    v = np.linalg.qr(rng.standard_normal((n, n)))[0]
    sigma = np.concatenate([[1.0, 1.0 - 1e-7], np.linspace(0.5, 0.9, n - 2)])
    return (u * sigma) @ v.T


@st.composite
def targets(draw, spec, max_n=8):
    """A square matrix or, with ``spec``, a ``MultiplicitySpec`` over a
    random composition, of n <= ``max_n``, uniform on [0, 1) or [-1, 1), or
    complex Gaussian. The entries come from a drawn seed, so every example is
    well scaled."""
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mults = random_mults(rng, n) if spec else (1,) * n
    k = len(mults)
    low = draw(st.sampled_from((0.0, -1.0, None)))
    a = random_complex(rng, n, k) if low is None else rng.uniform(low, 1.0, (n, k))
    return MultiplicitySpec(a, mults) if spec else a


def magnitude(target):
    """The target with each entry replaced by its magnitude: a nonnegative
    input of the same shape, and a spec of the same multiplicities."""
    if isinstance(target, MultiplicitySpec):
        return MultiplicitySpec(np.abs(target.base), target.mults)
    return np.abs(target)


def close(x, y, target, bound=None) -> bool:
    """|x - y| at most 1e-9 of the larger magnitude plus 1e-12 of min(1,
    prod_i sum_j |a_ij|) over the expanded target, the largest a term of
    Ryser's or Glynn's sum can be; and, given an estimate's bound term, at
    most 1e-12 of it."""
    scale = float(np.prod(np.abs(expand(as_spec(target))).sum(axis=1)))
    tol = 1e-9 * max(abs(x), abs(y)) + 1e-12 * min(1.0, scale)
    return abs(x - y) <= (tol if bound is None else min(tol, 1e-12 * bound))


def random_nonneg(rng, n, k=None):
    k = n if k is None else k
    return rng.random((n, k)).astype(np.complex128)


def random_mults(rng, n, max_part=None):
    """A random composition of n into positive parts."""
    parts = []
    left = n
    while left > 0:
        hi = left if max_part is None else min(left, max_part)
        s = int(rng.integers(1, hi + 1))
        parts.append(s)
        left -= s
    return tuple(parts)


def compositions(n, k):
    """All length-k tuples of nonnegative ints summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def positive_compositions(n):
    """All ordered tuples of positive ints summing to n."""
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in positive_compositions(n - first):
            yield (first,) + rest


def sign_vector(bits, n) -> np.ndarray:
    """The n float signs whose sign i is -1 where bit i of ``bits`` is set."""
    return 1.0 - 2.0 * np.array([(bits >> i) & 1 for i in range(n)], dtype=np.float64)


def python_stdout(script: str, **env: str) -> str:
    """The stdout of ``python -c script`` in a fresh process with ``env``
    added to the environment and the package's source on the path."""
    import permest

    src = str(Path(permest.__file__).resolve().parents[1])
    env = dict(os.environ, **env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return done.stdout


def stdout_per_blas_threads(script: str, threads=("1", "2")) -> list[str]:
    """The stdout of ``python -c script`` in a fresh process per
    ``OPENBLAS_NUM_THREADS`` value."""
    return [python_stdout(script, OPENBLAS_NUM_THREADS=count) for count in threads]

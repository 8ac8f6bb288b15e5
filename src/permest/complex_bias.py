"""Small-bias distributions over products of roots of unity.

The target domain is X = R[m_1] x ... x R[m_k] where R[m] is the m-th roots
of unity and m_i = s_i + 1. A distribution is complex-eps-biased when every
nontrivial monomial test |E[x_1^e_1 ... x_k^e_k]| is at most eps. Samples are
stored as integer exponent tuples f with x_i = exp(2*pi*i*f_i/m_i).

Pipeline, bottom to top:

* ``CwiseGenerator``: c-wise independent nearly-uniform tuples, by evaluating
  a random polynomial over F_p at k fixed points and reducing mod m_i.
* ``StrongProductGenerator``: mixes c-wise independent values, pairwise
  independent sparsifier bits at dyadic densities, and per-level mixing bits
  so that for every nontrivial character the product lands in the pi/8-strong
  arc with probability at least 1/16. Its one seed map, ``cell_index``,
  gives every seed's output as a flat index under any place values.
* ``walk_batch``: walks on an 8-regular Margulis-Gabber-Galil expander turn
  one base seed into many correlated ones while adding only 3 bits per step.
  Its move rule, ``_mgg_move``, is the one the histogram's successor table
  uses; each of the 8 moves is a bijection of the vertices.
* ``ComplexSampleSpace``: combines L amplified exponent tuples with L
  selector bits; sample = sum_j d_j f^(j) mod m, coordinate-wise. A space
  is fixed by the grid and L, the fields of its descriptor: it derives its
  generator and amplifier, and L = 0 is the uniform space. The support
  histogram, which counts every seed exactly, is the space's only seed map.

The constants are the analysis's, not parameters: ``C_WISE`` = 7-wise
independence, the pi/8 arc with its 1/16 ``STRONG_FLOOR``, and one base seed
per walk vertex.

Every guarantee is re-checked by exhaustive audit, in exact integer counts.
The audit is ``binary_bias.measure_bias``, which serves both kinds of space
(``measure_complex_bias`` is the same function): it takes the DFT of a
support histogram that counts the walks where that is cheaper and
enumerates them otherwise, choosing by size alone. Counting advances a
(vertex, widened sum) table of walk counts L - 1 times through every
vertex's 8 successors and its selector; enumeration takes each walk one
vertex short, builds the 2^(L-1) selector sums of its first L - 1 vertices
by doubling, and counts the last step from the successor table.
``strong_fraction`` tests each grid cell once, weighted by the generator's
cached per-cell seed counts, which count the c-wise tuples once per
distinct tuple of level counts; the cells' coordinates are cached with
them, so a character's arc test is one integer matvec over the grid. The
pairwise hash's GF(2^B) tables come from binary_bias's carry-less multiply
and polynomial table, and ``binary_bias.space_from_descriptor`` reads
complex descriptors through this module's half, ``_space_from_fields``.
Full theoretical strength exceeds the 2^24-seed enumeration cap by design,
so ``build_complex_space`` certifies the exhaustive fallback or an assembly
of an explicit L, on any grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binary_bias import IRREDUCIBLE, _gf2_mul_batch, measure_bias
from .errors import CapacityError, DescriptorError
from .estimators import phase_space_size

__all__ = [
    "AmplifierParams",
    "BETA",
    "C_WISE",
    "ComplexSampleSpace",
    "CwiseGenerator",
    "GROUP_SIZE",
    "P_FRACTION",
    "Q_EXPONENT",
    "STRONG_FLOOR",
    "build_complex_space",
    "choose_prime",
    "cwise_batch",
    "exhaustive_complex_space",
    "measure_complex_bias",
    "strong_fraction",
    "theory_ell",
    "theory_seed_bits",
    "walk_batch",
]

C_WISE = 7
STRONG_FLOOR = 1.0 / 16.0
BETA = 0.5 * abs(1.0 + cmath.exp(1j * math.pi / 8))

# smallest group size t with (1 - 1/16)^t <= 1/3, so that a group of t
# independent draws contains a strong element with probability >= 2/3
GROUP_SIZE = math.ceil(math.log(1.0 / 3.0) / math.log(15.0 / 16.0))
P_FRACTION = 1.0 / (2.0 * GROUP_SIZE)
# the tail exponent is not pinned down numerically by the analysis; surfaced
# in descriptors, conservatively matched to the strong fraction
Q_EXPONENT = P_FRACTION

FALLBACK_LIMIT = 1 << 20
AUDIT_SUPPORT_LIMIT = 1 << 24
TABLE_LIMIT = 1 << 26
# selector sums per block of the constructed-space histogram (walks one
# vertex short x their selector patterns)
_SEED_BLOCK = 1 << 18


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def choose_prime(k: int, moduli) -> int:
    """Smallest prime exceeding max(k, max moduli, 2c)."""
    p = max(k, max(moduli), 2 * C_WISE) + 1
    while not _is_prime(p):
        p += 1
    return p


@dataclass(frozen=True)
class CwiseGenerator:
    """c-wise independent tuples: a degree-(ncoeffs-1) polynomial over F_p
    evaluated at points 0..k-1, reduced mod m_i per coordinate.

    Each coordinate is within statistical distance m_i/p of uniform; any
    ``ncoeffs`` of the pre-reduction values are exactly independent.
    """

    prime: int
    moduli: tuple[int, ...]
    ncoeffs: int

    def __post_init__(self):
        moduli = tuple(int(m) for m in self.moduli)
        object.__setattr__(self, "moduli", moduli)
        if not _is_prime(self.prime):
            raise ValueError(f"{self.prime} is not prime")
        if self.prime <= len(moduli) or self.prime <= max(moduli):
            raise ValueError("prime must exceed both k and every modulus")
        if not (1 <= self.ncoeffs):
            raise ValueError("need at least one coefficient")

    @property
    def seed_count(self) -> int:
        return self.prime ** self.ncoeffs


def cwise_batch(gen: CwiseGenerator, seeds: np.ndarray) -> np.ndarray:
    """Vectorized tuple generation; seeds are base-p coefficient encodings.

    The base-p digits of every seed meet one (ncoeffs, k) table of i^j mod p
    in a single product, so f_i = sum_j c_j i^j mod p, reduced mod m_i.
    """
    seeds = np.asarray(seeds, dtype=np.int64)
    if seeds.size and (seeds.min() < 0 or seeds.max() >= gen.seed_count):
        raise ValueError(f"seeds must lie in [0, {gen.seed_count})")
    p = gen.prime
    digits = (seeds[:, None] // p ** np.arange(gen.ncoeffs, dtype=np.int64)) % p
    powers = np.array([[pow(i, j, p) for i in range(len(gen.moduli))] for j in range(gen.ncoeffs)])
    return (digits @ powers) % p % np.array(gen.moduli, dtype=np.int64)


class StrongProductGenerator:
    """Seeded map producing exponent tuples whose induced character products
    are pi/8-strong with probability at least 1/16 for every nontrivial
    character.

    Seed layout (mixed radix): c-wise polynomial coefficients in F_p, then
    an affine pairwise-independent hash over GF(2^B) driving the dyadic
    sparsifier bits (shared across levels h, thresholded per level), then
    one mixing bit per level h = 0..floor(log2 k). Level h >= 2 keeps
    coordinate i when v_i < 2^(B-h+1), for a 2^(1-h) fraction of the hash
    seeds; levels 0 and 1 keep every coordinate.
    """

    def __init__(self, moduli):
        moduli = tuple(int(m) for m in moduli)
        if any(m < 2 for m in moduli):
            raise ValueError("moduli must all be >= 2")
        self.moduli = moduli
        self.k = k = len(moduli)
        self.prime = choose_prime(k, moduli)
        # k <= c makes any-c-wise independence the same as full independence,
        # so k coefficients suffice and keep the seed space enumerable
        self.ncoeffs = min(C_WISE, k)
        self.cwise = CwiseGenerator(self.prime, moduli, self.ncoeffs)
        self.hmax = k.bit_length() - 1
        self.gf_bits = max((k - 1).bit_length(), self.hmax - 1, 1)
        self.n_u = self.cwise.seed_count
        self.n_v = 1 << (2 * self.gf_bits)
        self.n_b = 1 << (self.hmax + 1)
        self.seed_count = self.n_u * self.n_v * self.n_b
        # _tables[i, v] = i * v in GF(2^B): multiplication by each point i < k
        field = np.arange(1 << self.gf_bits, dtype=np.uint32)
        points = np.arange(k, dtype=np.uint32)[:, None]
        self._tables = _gf2_mul_batch(
            field, points, self.gf_bits, IRREDUCIBLE[self.gf_bits]
        ).astype(np.int64)
        self._cell_counts: np.ndarray | None = None
        self._cells: np.ndarray | None = None

    def _level_counts(self, rest: np.ndarray) -> np.ndarray:
        """(N, k) number of levels h whose mixing bit is set and whose
        sparsifier keeps coordinate i, for rest = seed // n_u."""
        v_seed = rest % self.n_v
        b_bits = rest // self.n_v
        # v_i = alpha + beta * i over GF(2^B), one hash shared by every level h
        alpha = v_seed & ((1 << self.gf_bits) - 1)
        v = alpha[:, None] ^ self._tables[:, v_seed >> self.gf_bits].T
        levels = np.zeros(v.shape, dtype=np.int64)
        for h in range(self.hmax + 1):
            bh = ((b_bits >> h) & 1)[:, None]
            levels += bh if h <= 1 else bh * (v < (1 << (self.gf_bits - (h - 1))))
        return levels

    def _residue_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The residues h * u_i mod m_i of every c-wise tuple u, (hmax + 2,
        n_u, k) for level counts h = 0..hmax + 1, and the (rests, k) level
        counts of every rest = seed // n_u. A seed's output is its rest's
        row of residues; raises over the seed-table cap."""
        if self.seed_count > TABLE_LIMIT:
            raise CapacityError(f"{self.seed_count} seeds exceed the seed-table cap")
        u = cwise_batch(self.cwise, np.arange(self.n_u, dtype=np.int64))
        h = np.arange(self.hmax + 2, dtype=np.int64)[:, None, None]
        rests = np.arange(self.seed_count // self.n_u, dtype=np.int64)
        return h * u % np.array(self.moduli), self._level_counts(rests)

    def cell_index(self, places) -> np.ndarray:
        """Every seed's output as one int64 flat index under the place
        values ``places``, in seed order.

        Seeds run c-wise part fastest, so each setting of the hash and
        mixing bits sums, per coordinate, the residue row of its level
        count.
        """
        rows, levels = self._residue_rows()
        rows *= np.asarray(places, dtype=np.int64)
        index = np.zeros((levels.shape[0], self.n_u), dtype=np.int64)
        for i in range(self.k):
            index += rows[levels[:, i], :, i]
        return index.ravel()

    def cell_counts(self) -> np.ndarray:
        """Seeds per grid cell, int64 over the C-order cell index, cached.

        Rests with the same level counts map the c-wise tuples onto the
        same cells, so each distinct tuple of level counts adds its cells
        once, times the number of rests that share it.
        """
        if self._cell_counts is None:
            rows, levels = self._residue_rows()
            rows *= _radix(self.moduli)
            tuples, shares = np.unique(levels, axis=0, return_counts=True)
            counts = np.zeros(math.prod(self.moduli), dtype=np.int64)
            for t, share in zip(tuples, shares):
                index = sum(rows[h, :, i] for i, h in enumerate(t))
                counts += share * np.bincount(index, minlength=counts.size)
            self._cell_counts = counts
        return self._cell_counts

    def _grid_cells(self) -> np.ndarray:
        """(k, cells) int64 coordinates of every grid cell in C-order, the
        order of ``cell_counts``, cached."""
        if self._cells is None:
            self._cells = np.indices(self.moduli, dtype=np.int64).reshape(self.k, -1)
        return self._cells


def _radix(moduli) -> np.ndarray:
    """Place values of the C-order (last coordinate fastest) grid index."""
    return np.cumprod((1,) + tuple(moduli[:0:-1]), dtype=np.int64)[::-1]


@lru_cache(maxsize=None)
def _strong_generator(moduli: tuple[int, ...]) -> StrongProductGenerator:
    return StrongProductGenerator(moduli)


def strong_fraction(moduli, exponent) -> float:
    """Exhaustive fraction of seeds whose character product is pi/8-strong.

    pi/8 is 1/16 of the full turn, so the arc test runs in integer
    arithmetic with no rounding at the boundary.
    """
    moduli = tuple(int(m) for m in moduli)
    entries = tuple(exponent)
    if len(entries) != len(moduli):
        raise ValueError("exponent length must match moduli")
    if not any(e % m for e, m in zip(entries, moduli)):
        raise ValueError("the zero exponent vector indexes the trivial character")
    gen = _strong_generator(moduli)
    lcm = math.lcm(*moduli)
    weights = np.array([(e * (lcm // m)) % lcm for e, m in zip(entries, moduli)], dtype=np.int64)
    # each grid cell is tested once and weighted by its seed count: its
    # angle is (weights . cell mod lcm) / lcm of a turn, strong when that
    # lies in [1/16, 15/16]
    arc = 16 * (weights @ gen._grid_cells() % lcm)
    strong = (arc >= lcm) & (arc <= 15 * lcm)
    return float(gen.cell_counts()[strong].sum() / gen.seed_count)


@dataclass(frozen=True)
class AmplifierParams:
    """Expander-walk parameters: Margulis-Gabber-Galil graph on Z_m x Z_m
    with 2^vertex_bits vertices, 8-regular, 3 bits per step."""

    vertex_bits: int
    walk_length: int

    def __post_init__(self):
        if self.vertex_bits < 2 or self.vertex_bits % 2:
            raise ValueError("vertex_bits must be even and >= 2")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")

    @property
    def seed_bits(self) -> int:
        return self.vertex_bits + 3 * (self.walk_length - 1)


# the eight MGG neighbours: choices 0-3 move x to x + CX*y + DX, choices 4-7
# move y to y + CY*x + DY (x +- 2y, x +- (2y + 1), and the same with x, y
# swapped). int32, so that moves of int32 coordinates stay int32; walks of
# int64 seeds stay int64
_STEP_CX = np.array([2, -2, 2, -2, 0, 0, 0, 0], dtype=np.int32)
_STEP_DX = np.array([0, 0, 1, -1, 0, 0, 0, 0], dtype=np.int32)
_STEP_CY = np.roll(_STEP_CX, 4)
_STEP_DY = np.roll(_STEP_DX, 4)


def _mgg_move(x, y, c, mask: int):
    """The vertices (x, y) one step along move c, coordinates mod mask + 1;
    c is one move for all or one per vertex. Each move is a bijection of
    the vertices."""
    nx = _STEP_CX[c] * y
    nx += x
    nx += _STEP_DX[c]
    nx &= mask
    ny = _STEP_CY[c] * x
    ny += y
    ny += _STEP_DY[c]
    ny &= mask
    return nx, ny


def _mgg_successors(vertex_bits: int):
    """Yields, for each move c in turn, every vertex's neighbour along c:
    a (2^vertex_bits,) int32 row of vertex indices (vertex_bits <= 30)."""
    half = vertex_bits // 2
    mask = (1 << half) - 1
    x = np.arange(1 << vertex_bits, dtype=np.int32)
    y = x & mask
    x >>= half
    for c in range(8):
        nx, ny = _mgg_move(x, y, c, mask)
        nx <<= half
        nx |= ny
        yield nx


def walk_batch(params: AmplifierParams, seeds: np.ndarray) -> np.ndarray:
    """Vectorized walks: (N,) seeds -> (N, walk_length) vertex indices."""
    seeds = np.asarray(seeds, dtype=np.int64)
    r = params.vertex_bits
    half = r // 2
    mask = (1 << half) - 1
    out = np.empty((seeds.shape[0], params.walk_length), dtype=np.int64)
    v = np.bitwise_and(seeds, (1 << r) - 1, out=out[:, 0])
    if params.walk_length > 1:  # a one-vertex walk is its start vertex
        x, y = v >> half, v & mask
    for t in range(1, params.walk_length):
        x, y = _mgg_move(x, y, (seeds >> (r + 3 * (t - 1))) & 7, mask)
        np.bitwise_or(x << half, y, out=out[:, t])
    return out


def theory_ell(epsilon: float) -> int:
    """ceil(max(log_{1/2}(eps/2)/q, log_beta(eps/2)/p))."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    half = math.log(epsilon / 2.0)
    return int(
        math.ceil(
            max(half / math.log(0.5) / Q_EXPONENT, half / math.log(BETA) / P_FRACTION)
        )
    )


def _base_vertex_bits(seed_count: int) -> int:
    bits = max(2, (seed_count - 1).bit_length())
    return bits + (bits & 1)


def theory_seed_bits(moduli, epsilon) -> int:
    """Seed length of the full-strength construction (grows as
    O(log n + log 1/eps); far beyond the enumerability cap for any
    practical epsilon, which is why builds fall back or take an explicit
    walk length)."""
    gen = _strong_generator(tuple(int(m) for m in moduli))
    r0 = _base_vertex_bits(gen.seed_count)
    ell = theory_ell(epsilon)
    groups = math.ceil(ell / GROUP_SIZE)
    vertex_bits = GROUP_SIZE * r0 + (GROUP_SIZE * r0) % 2
    lam_count = groups * GROUP_SIZE
    return vertex_bits + 3 * (groups - 1) + lam_count


def _count_walks(f: np.ndarray, ell: int, size: int) -> np.ndarray:
    """Widened-sum counts of every walk of ell vertices and selector
    pattern, by counting: counts[v, w] is the number of walks of t vertices
    that start at v, with their t selector bits, whose sum is w. A walk of
    t + 1 vertices from v steps along one of the 8 moves to a walk of t
    vertices, and its selector bit at v adds f[v] or nothing, so each round
    gathers the 8 successors' rows and adds them shifted by f[v]. About
    (ell - 1) * 16 * V * size updates."""
    vertices = f.shape[0]
    succ = list(_mgg_successors(vertices.bit_length() - 1))
    rows = np.arange(vertices)
    counts = np.zeros((vertices, size), dtype=np.int64)
    counts[:, 0] = 1
    counts[rows, f] += 1
    # pad[v, size + w] is the successors' count at w and pad[v, :size] stays
    # 0, so pad.flat[shift[v, w]] is their count at w - f[v] (0 below 0)
    pad = np.zeros((vertices, 2 * size), dtype=np.int64)
    ahead = pad[:, size:]
    shift = (rows * 2 * size + size - f)[:, None] + np.arange(size)
    for _ in range(ell - 1):
        ahead[...] = counts[succ[0]]
        for c in range(1, 8):
            ahead += counts[succ[c]]
        counts = ahead + pad.ravel()[shift]
    return counts.sum(axis=0)


def _enumerate_walks(f: np.ndarray, ell: int, size: int) -> np.ndarray:
    """Widened-sum counts of every walk of ell vertices and selector
    pattern, with each walk enumerated one vertex short: the sums of its
    first ell - 1 base tuples over their 2^(ell-1) selector patterns are
    built by doubling (the sums with bit j set are the sums without it plus
    f of vertex j). A sum w whose walk ends at vertex u then counts 8 at w
    (last selector bit off, any of the 8 moves) and 1 at w + f[succ[c, u]]
    for each move c. About 9 * walks * 2^(ell-1) updates for the walks one
    vertex short."""
    vertices = f.shape[0]
    prefix = AmplifierParams(vertices.bit_length() - 1, ell - 1)
    walks = 1 << prefix.seed_bits
    # every move permutes the vertices, so each vertex ends walks/V of the
    # walks one vertex short, and their all-zero patterns add f of each
    # vertex 8 * walks/V times over the 8 last moves
    wide_counts = 8 * (walks // vertices) * np.bincount(f, minlength=size)
    wide_counts[0] += 8 * walks
    # moves[c, u] is f one step along move c from vertex u, less f one step
    # along move c - 1: adding the rows in turn to a walk's sums sets them
    # to each of its 8 last steps. Entries lie within +-size, so int32 holds
    # them in half the pages, each of which a fresh call faults in
    moves = np.empty((8, vertices), dtype=np.int32)
    for c, succ in enumerate(_mgg_successors(prefix.vertex_bits)):
        moves[c] = f[succ]
    for c in range(7, 0, -1):
        moves[c] -= moves[c - 1]
    patterns = 1 << (ell - 1)
    block = min(walks, max(1, _SEED_BLOCK >> (ell - 1)))
    sums = np.empty((patterns, block), dtype=np.int64)
    sums[0] = 0
    last = np.empty(block, dtype=np.int32)
    for lo in range(0, walks, block):
        walk = walk_batch(prefix, np.arange(lo, min(lo + block, walks), dtype=np.int64))
        width = walk.shape[0]
        # the nonzero patterns; the all-zero one is counted above
        lead = sums[1:, :width]
        for j in range(ell - 1):
            np.add(sums[: 1 << j, :width], f[walk[:, j]], out=sums[1 << j : 2 << j, :width])
        wide_counts += 8 * np.bincount(lead.ravel(), minlength=size)
        end, step = walk[:, -1], last[:width]
        for row in moves:
            # every end is a vertex, so clipping changes nothing, and it lets
            # take write to out without a buffer
            np.take(row, end, out=step, mode="clip")
            lead += step
            wide_counts += np.bincount(lead.ravel(), minlength=size)
    return wide_counts


class ComplexSampleSpace:
    """Enumerable distribution over the roots-of-unity grid: ``ell`` = 0 is
    the uniform (``exhaustive``) space, bias exactly zero; any other ``ell``
    combines ``ell`` amplified strong-product tuples with ``ell`` selector
    bits, from a ``base`` and an ``amplifier`` derived from the grid.
    """

    def __init__(self, moduli, declared_epsilon: float, ell: int = 0):
        self.moduli = tuple(int(m) for m in moduli)
        if any(m < 2 for m in self.moduli):
            raise ValueError("moduli must all be >= 2")
        self.declared_epsilon = float(declared_epsilon)
        self.ell = ell
        self.exhaustive = ell == 0
        if self.exhaustive:
            self.base = self.amplifier = None
            self.seed_count = phase_space_size(self.moduli)
            self.seed_bits = (self.seed_count - 1).bit_length()
        else:
            self.base = _strong_generator(self.moduli)
            self.amplifier = AmplifierParams(_base_vertex_bits(self.base.seed_count), ell)
            self.seed_bits = self.amplifier.seed_bits + ell
            self.seed_count = 1 << self.seed_bits
        self._hist: np.ndarray | None = None

    def support_histogram(self) -> np.ndarray:
        """Probability array over the grid, shape = moduli.

        Every seed is counted exactly, as a sum of base tuples over a range
        widened so that sums never wrap, folded onto the grid at the end.
        Each vertex's base tuple is its base seed's ``cell_index`` under the
        widened place values. At ell = 1 the seeds are the vertices and
        their selector bits, so the counts are one ``bincount`` of those
        indices, plus V at 0 for the selector off. Otherwise the sizes
        alone pick the cheaper of two paths over the 8 successors of every
        vertex, taken from the walk's move rule: counting, (ell - 1) * 16 *
        V * size updates for V vertices and size widened sums
        (``_count_walks``), when that is fewer than enumeration's
        9 * walks * 2^(ell-1) for its walks one vertex short
        (``_enumerate_walks``).
        """
        if self._hist is not None:
            return self._hist
        cells = phase_space_size(self.moduli)
        if self.exhaustive:
            hist = np.full(self.moduli, 1.0 / cells)
        else:
            if self.seed_count > AUDIT_SUPPORT_LIMIT:
                raise CapacityError(
                    f"2^{self.seed_bits} seeds exceed the enumeration cap"
                )
            r, ell = self.amplifier.vertex_bits, self.ell
            vertices = 1 << r
            # a coordinate sum of ell tuples stays below ell*(m_i - 1) + 1, so
            # sums add as one index over those wider ranges, reduced mod m_i
            # only when the counts are folded onto the grid
            wide = tuple(ell * (m - 1) + 1 for m in self.moduli)
            size = math.prod(wide)
            # f[v], the widened index of vertex v's base tuple: v's base
            # seed is v mod S, so f repeats the generator's seed order
            f = np.resize(self.base.cell_index(_radix(wide)), vertices)
            if ell == 1:
                # no move: selector off puts every vertex at 0, on at f[v]
                wide_counts = np.bincount(f, minlength=size)
                wide_counts[0] += vertices
            else:
                walks = 1 << AmplifierParams(r, ell - 1).seed_bits
                if (ell - 1) * 16 * vertices * size < 9 * walks << (ell - 1):
                    wide_counts = _count_walks(f, ell, size)
                else:
                    wide_counts = _enumerate_walks(f, ell, size)
            wide_cells = np.indices(wide, dtype=np.int64).reshape(len(wide), -1).T
            counts = np.zeros(cells, dtype=np.int64)
            np.add.at(counts, wide_cells % self.moduli @ _radix(self.moduli), wide_counts)
            hist = (counts / float(self.seed_count)).reshape(self.moduli)
        self._hist = hist
        return hist

    @property
    def places(self) -> np.ndarray:
        """Place values of the C-order cell index (last coordinate fastest)."""
        return _radix(self.moduli)

    def support_blocks(self):
        """The support as one (cells, probs) block: a (1, M) row of the
        occupied cells' ascending flat indices (``places``) and their
        probabilities."""
        hist = self.support_histogram().reshape(-1)
        idx = np.flatnonzero(hist)
        yield idx[None, :], hist[idx][None, :]

    def descriptor(self) -> str:
        s = ",".join(str(m - 1) for m in self.moduli)
        if self.exhaustive:
            p = choose_prime(len(self.moduli), self.moduli)
            return f"complex k={len(self.moduli)} s={s} p={p} c={C_WISE} r=0 l=0 eps=0 mode=exhaustive"
        amp = self.amplifier
        return (
            f"complex k={len(self.moduli)} s={s} p={self.base.prime} c={C_WISE} "
            f"r={amp.vertex_bits} l={self.ell} eps={self.declared_epsilon:.17g} "
            # one base seed per walk vertex: the group size is 1
            f"mode=constructed t=1 pfrac={P_FRACTION:.17g} q={Q_EXPONENT:.17g}"
        )


def exhaustive_complex_space(moduli) -> ComplexSampleSpace:
    """Uniform over the full grid; every nontrivial character sum is zero."""
    space = ComplexSampleSpace(moduli, 0.0)
    if space.seed_count > FALLBACK_LIMIT:
        raise CapacityError(
            f"grid has {space.seed_count} points, exhaustive cap is {FALLBACK_LIMIT}"
        )
    return space


def build_complex_space(
    moduli,
    epsilon: float,
    force_construction: bool = False,
    ell: int | None = None,
) -> ComplexSampleSpace:
    """A complex-eps-biased space over the given grid.

    An explicit ``ell`` builds that assembly and certifies the requested
    bias by exhaustive audit before returning. Without it, an enumerable
    grid gets the exhaustive (0-biased) space unless ``force_construction``
    is set; otherwise it raises: the full-strength walk length needs at
    least 1,653 seed bits for any grid and epsilon, far beyond what an
    audit can enumerate.
    """
    moduli = tuple(int(m) for m in moduli)
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if ell is None and not force_construction and phase_space_size(moduli) <= FALLBACK_LIMIT:
        return exhaustive_complex_space(moduli)
    if ell is None:
        raise CapacityError(
            f"full-strength construction needs {theory_seed_bits(moduli, epsilon)} "
            f"seed bits, past the 2^{AUDIT_SUPPORT_LIMIT.bit_length() - 1}-seed "
            "enumeration cap; pass an explicit ell for a small audited assembly"
        )
    if ell < 1:
        raise ValueError("ell must be >= 1")
    space = ComplexSampleSpace(moduli, epsilon, ell)
    if space.seed_count > AUDIT_SUPPORT_LIMIT:
        raise CapacityError(
            "constructed space cannot be audit-certified: "
            f"2^{space.seed_bits} seeds exceed the enumeration cap"
        )
    measured = measure_complex_bias(space)
    if measured > epsilon:
        raise CapacityError(
            f"largest enumerable assembly has measured bias {measured:.4f} "
            f"> requested {epsilon}"
        )
    return space


# the one audit serves both kinds of space: max over nonzero exponent
# vectors e of |E[x^e]|, from the full DFT of the support histogram
measure_complex_bias = measure_bias


def _space_from_fields(fields: dict[str, str], text: str) -> ComplexSampleSpace:
    """The complex half of ``binary_bias.space_from_descriptor``: the space
    that the grid s, the walk length l (0 when omitted) and eps fix, built
    as ``build_complex_space`` builds it."""
    try:
        moduli = tuple(int(v) + 1 for v in fields["s"].split(","))
        ell = int(fields.get("l", 0))
        eps = float(fields["eps"])
    except (KeyError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor fields in {text!r}: {exc}") from None
    if ell == 0:
        return exhaustive_complex_space(moduli)
    return build_complex_space(moduli, eps, ell=ell)

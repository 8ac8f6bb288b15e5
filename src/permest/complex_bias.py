"""Small-bias distributions over products of roots of unity.

The target domain is X = R[m_1] x ... x R[m_k] where R[m] is the m-th roots
of unity and m_i = s_i + 1. A distribution is complex-eps-biased when every
nontrivial monomial test |E[x_1^e_1 ... x_k^e_k]| is at most eps. Samples are
stored as integer exponent tuples f with x_i = exp(2*pi*i*f_i/m_i).

Pipeline, bottom to top:

* ``CwiseGenerator``: c-wise independent nearly-uniform tuples, by evaluating
  a random polynomial over F_p at k fixed points and reducing mod m_i.
* ``strong_product_sample``: mixes c-wise independent values, pairwise
  independent sparsifier bits at dyadic densities, and per-level mixing bits
  so that for every nontrivial character the product lands in the pi/8-strong
  arc with probability at least 1/16.
* ``amplify``: a walk on an 8-regular Margulis-Gabber-Galil expander turns
  one base seed into many correlated ones while adding only 3 bits per step.
* ``build_complex_space``: combines L amplified exponent tuples with L
  selector bits; sample = sum_j d_j f^(j) mod m, coordinate-wise.

The constants are the analysis's, not parameters: ``C_WISE`` = 7-wise
independence, the pi/8 arc with its 1/16 ``STRONG_FLOOR``, and one base seed
per walk vertex.

Every guarantee is re-checked by exhaustive audit, in exact integer counts.
The audit is ``binary_bias.measure_bias``, which serves both kinds of space
(``measure_complex_bias`` is the same function): it takes the DFT of a
support histogram that enumerates each walk once and builds its 2^L
selector sums by doubling. ``strong_fraction`` tests each grid cell once,
weighted by the generator's cached per-cell seed counts. The pairwise
hash's GF(2^B) tables come from binary_bias's carry-less multiply and
polynomial table, and the descriptor parser applies binary_bias's field
rule.
Full theoretical strength exceeds the enumerability cap by design, so
certified spaces are the exhaustive fallback or explicitly sized assemblies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .binary_bias import (
    IRREDUCIBLE,
    _check_fields,
    _descriptor_fields,
    _gf2_mul_batch,
    measure_bias,
)
from .errors import CapacityError, DescriptorError, DomainError
from .estimators import PhaseVector, phase_space_size

__all__ = [
    "AmplifierParams",
    "BETA",
    "C_WISE",
    "ComplexSampleSpace",
    "CwiseGenerator",
    "ExponentVector",
    "GROUP_SIZE",
    "P_FRACTION",
    "Q_EXPONENT",
    "STRONG_FLOOR",
    "amplify",
    "build_complex_space",
    "choose_prime",
    "complex_space_from_descriptor",
    "cwise_batch",
    "cwise_tuple",
    "exhaustive_complex_space",
    "measure_complex_bias",
    "strong_fraction",
    "strong_product_sample",
    "theory_ell",
    "theory_seed_bits",
    "theta_strong",
    "walk_batch",
    "walk_failure_fraction",
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

MAX_SEED_BITS = 40
FALLBACK_LIMIT = 1 << 20
AUDIT_SUPPORT_LIMIT = 1 << 24
TABLE_LIMIT = 1 << 26
# seeds per block of the constructed-space histogram (walks x selector patterns)
_SEED_BLOCK = 1 << 18


def theta_strong(lam: complex, theta: float) -> bool:
    """Whether |arg lam| >= theta for a unit-norm lam (boundary inclusive)."""
    if abs(abs(lam) - 1.0) > 1e-9:
        raise DomainError(f"theta_strong needs a unit-norm input, got |{lam}|")
    return abs(cmath.phase(lam)) >= theta


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
class ExponentVector:
    """A character index: integers e_i with 0 <= e_i <= s_i."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(int(e) for e in self.entries))

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)


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


def cwise_tuple(gen: CwiseGenerator, seed: int) -> tuple[int, ...]:
    return tuple(int(v) for v in cwise_batch(gen, np.array([seed]))[0])


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
        # exponents lie in [0, m_i); int8 would wrap them above 127
        self.dtype = np.int8 if max(moduli) <= 128 else np.int32
        self._exponents: np.ndarray | None = None
        self._cell_counts: np.ndarray | None = None

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

    def sample_batch(self, seeds: np.ndarray) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.int64)
        if seeds.size and (seeds.min() < 0 or seeds.max() >= self.seed_count):
            raise ValueError(f"seeds must lie in [0, {self.seed_count})")
        # one shared c-wise draw backs every level h; the sparsifier bits only
        # zero coordinates, so reducing mod m_i up front is equivalent
        u = cwise_batch(self.cwise, seeds % self.n_u)
        f = u * self._level_counts(seeds // self.n_u) % np.array(self.moduli)
        return f.astype(self.dtype)

    def sample(self, seed: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.sample_batch(np.array([seed]))[0])

    def exponent_table(self) -> np.ndarray:
        """All seed outputs, (seed_count, k) of ``dtype``, cached.

        Seeds run c-wise part fastest, so the table is the n_u c-wise tuples
        times each setting of the hash and mixing bits, in blocks.
        """
        if self._exponents is None:
            if self.seed_count > TABLE_LIMIT:
                raise CapacityError(
                    f"{self.seed_count} seeds exceed the exponent-table cap"
                )
            u = cwise_batch(self.cwise, np.arange(self.n_u, dtype=np.int64))
            rests = self.seed_count // self.n_u
            block = max(1, (1 << 16) // self.n_u)
            chunks = []
            for lo in range(0, rests, block):
                levels = self._level_counts(np.arange(lo, min(lo + block, rests)))
                f = levels[:, None, :] * u % np.array(self.moduli)
                chunks.append(f.astype(self.dtype).reshape(-1, self.k))
            self._exponents = np.concatenate(chunks, axis=0)
        return self._exponents

    def cell_counts(self) -> np.ndarray:
        """Seeds per grid cell, int64 over the C-order cell index, cached."""
        if self._cell_counts is None:
            index = self.exponent_table().astype(np.int64) @ _radix(self.moduli)
            self._cell_counts = np.bincount(index, minlength=math.prod(self.moduli))
        return self._cell_counts


def _radix(moduli) -> np.ndarray:
    """Place values of the C-order (last coordinate fastest) grid index."""
    return np.cumprod((1,) + tuple(moduli[:0:-1]), dtype=np.int64)[::-1]


@lru_cache(maxsize=None)
def _strong_generator(moduli: tuple[int, ...]) -> StrongProductGenerator:
    return StrongProductGenerator(moduli)


def strong_product_sample(moduli, seed: int) -> tuple[int, ...]:
    """One exponent tuple from the strong-product generator."""
    return _strong_generator(tuple(int(m) for m in moduli)).sample(seed)


def strong_fraction(moduli, exponent) -> float:
    """Exhaustive fraction of seeds whose character product is pi/8-strong.

    pi/8 is 1/16 of the full turn, so the arc test runs in integer
    arithmetic with no rounding at the boundary.
    """
    moduli = tuple(int(m) for m in moduli)
    entries = exponent.entries if isinstance(exponent, ExponentVector) else tuple(exponent)
    if len(entries) != len(moduli):
        raise ValueError("exponent length must match moduli")
    if not any(e % m for e, m in zip(entries, moduli)):
        raise ValueError("the zero exponent vector indexes the trivial character")
    gen = _strong_generator(moduli)
    counts = gen.cell_counts()
    cells = np.indices(moduli, dtype=np.int64).reshape(len(moduli), -1)
    lcm = math.lcm(*moduli)
    weights = [(e * (lcm // m)) % lcm for e, m in zip(entries, moduli)]
    # each grid cell is tested once and weighted by its seed count
    num = sum(cells[i] * w for i, w in enumerate(weights)) % lcm
    strong = (16 * num >= lcm) & (16 * (lcm - num) >= lcm)
    return float(counts[strong].sum() / gen.seed_count)


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
# move y to y + CY*x + DY (x +- 2y, x +- (2y + 1), and the same with x, y swapped)
_STEP_CX = np.array([2, -2, 2, -2, 0, 0, 0, 0], dtype=np.int64)
_STEP_DX = np.array([0, 0, 1, -1, 0, 0, 0, 0], dtype=np.int64)
_STEP_CY = np.roll(_STEP_CX, 4)
_STEP_DY = np.roll(_STEP_DX, 4)


def walk_batch(params: AmplifierParams, seeds: np.ndarray) -> np.ndarray:
    """Vectorized walks: (N,) seeds -> (N, walk_length) vertex indices."""
    seeds = np.asarray(seeds, dtype=np.int64)
    r = params.vertex_bits
    half = r // 2
    mask = (1 << half) - 1
    v0 = seeds & ((1 << r) - 1)
    x = (v0 >> half) & mask
    y = v0 & mask
    out = np.empty((seeds.shape[0], params.walk_length), dtype=np.int64)
    out[:, 0] = (x << half) | y
    steps = seeds >> r
    for t in range(1, params.walk_length):
        c = (steps >> (3 * (t - 1))) & 7
        nx = (x + _STEP_CX[c] * y + _STEP_DX[c]) & mask
        y = (y + _STEP_CY[c] * x + _STEP_DY[c]) & mask  # the old x
        x = nx
        out[:, t] = (x << half) | y
    return out


def amplify(params: AmplifierParams, walk_seed: int) -> list[int]:
    """The walk's vertex sequence for one seed (start vertex, then one
    8-way choice per step)."""
    if not (0 <= walk_seed < (1 << params.seed_bits)):
        raise ValueError(f"walk seed must lie in [0, 2^{params.seed_bits})")
    return [int(v) for v in walk_batch(params, np.array([walk_seed]))[0]]


def walk_failure_fraction(
    params: AmplifierParams,
    good: np.ndarray,
    sample_seeds: int | None = None,
    rng_seed: int = 0,
) -> float:
    """Fraction of walk seeds visiting ``good`` fewer than walk_length/2
    times. Exhaustive when the seed space fits, else seeded sampling."""
    if good.shape[0] != (1 << params.vertex_bits):
        raise ValueError("good-set mask must cover the vertex space")
    total_bits = params.seed_bits
    if sample_seeds is None:
        if total_bits > 26:
            raise CapacityError(
                f"2^{total_bits} walk seeds cannot be enumerated; pass sample_seeds"
            )
        seeds = np.arange(1 << total_bits, dtype=np.int64)
    else:
        rng = np.random.default_rng(rng_seed)
        seeds = rng.integers(0, 1 << total_bits, size=sample_seeds, dtype=np.int64)
    hits = good[walk_batch(params, seeds)].sum(axis=1)
    return float(np.mean(hits < params.walk_length / 2.0))


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


class ComplexSampleSpace:
    """Enumerable distribution over the roots-of-unity grid.

    ``exhaustive`` spaces cover the grid uniformly (bias exactly zero).
    Constructed spaces combine ``ell`` amplified strong-product tuples with
    ``ell`` selector bits; their declared bias is certified by exhaustive
    audit at build time.
    """

    def __init__(
        self,
        moduli,
        declared_epsilon: float,
        exhaustive: bool,
        base: StrongProductGenerator | None = None,
        amplifier: AmplifierParams | None = None,
    ):
        self.moduli = tuple(int(m) for m in moduli)
        self.declared_epsilon = float(declared_epsilon)
        self.exhaustive = exhaustive
        self.base = base
        self.amplifier = amplifier
        if exhaustive:
            self.ell = 0
            self.seed_count = phase_space_size(self.moduli)
            self.seed_bits = (self.seed_count - 1).bit_length()
        else:
            assert base is not None and amplifier is not None
            self.ell = amplifier.walk_length
            self.seed_bits = amplifier.seed_bits + self.ell
            self.seed_count = 1 << self.seed_bits
        self._hist: np.ndarray | None = None

    @property
    def construction_bound(self) -> None:
        """None: a complex space's bias is certified by audit, not by its
        construction (binary spaces give (n-1)/2^m here)."""
        return None

    def generator(self, seed: int) -> PhaseVector:
        if not (0 <= seed < self.seed_count):
            raise ValueError(f"seed must lie in [0, {self.seed_count})")
        if self.exhaustive:
            phases = []
            for m in reversed(self.moduli):
                phases.append(seed % m)
                seed //= m
            return PhaseVector(self.moduli, tuple(reversed(phases)))
        amp = self.amplifier
        d_bits = seed >> amp.seed_bits
        table = self.base.exponent_table()
        total = np.zeros(len(self.moduli), dtype=np.int64)
        for j, vertex in enumerate(amplify(amp, seed & ((1 << amp.seed_bits) - 1))):
            if (d_bits >> j) & 1:
                total += table[vertex % self.base.seed_count]
        phases = tuple(int(t) % m for t, m in zip(total, self.moduli))
        return PhaseVector(self.moduli, phases)

    def support_histogram(self) -> np.ndarray:
        """Probability array over the grid, shape = moduli.

        Each walk is enumerated once; the sums of its ell base tuples over
        all 2^ell selector patterns are built by doubling (the sums with
        bit j set are the sums without it plus f^(j)).
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
            amp = self.amplifier
            # a coordinate sum of ell tuples stays below ell*(m_i - 1) + 1, so
            # sums add as one index over those wider ranges, reduced mod m_i
            # only when the counts are folded onto the grid
            wide = tuple(self.ell * (m - 1) + 1 for m in self.moduli)
            f_index = self.base.exponent_table().astype(np.int64) @ _radix(wide)
            wide_counts = np.zeros(math.prod(wide), dtype=np.int64)
            walks = 1 << amp.seed_bits
            block = max(1, _SEED_BLOCK >> self.ell)
            for lo in range(0, walks, block):
                walk = np.arange(lo, min(lo + block, walks), dtype=np.int64)
                f = f_index[walk_batch(amp, walk) % self.base.seed_count]  # (W, L)
                sums = np.zeros((1 << self.ell, walk.shape[0]), dtype=np.int64)
                for j in range(self.ell):
                    np.add(sums[: 1 << j], f[:, j], out=sums[1 << j : 2 << j])
                wide_counts += np.bincount(sums.ravel(), minlength=wide_counts.size)
            wide_cells = np.indices(wide, dtype=np.int64).reshape(len(wide), -1).T
            counts = np.zeros(cells, dtype=np.int64)
            np.add.at(counts, wide_cells % self.moduli @ _radix(self.moduli), wide_counts)
            hist = (counts / float(self.seed_count)).reshape(self.moduli)
        self._hist = hist
        return hist

    def support_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """Occupied grid cells as an (M, k) phase array plus probabilities."""
        hist = self.support_histogram().reshape(-1)
        idx = np.nonzero(hist)[0]
        cells = (idx[:, None] // _radix(self.moduli)) % np.array(self.moduli, dtype=np.int64)
        return cells, hist[idx]

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
    moduli = tuple(int(m) for m in moduli)
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must all be >= 2")
    if phase_space_size(moduli) > FALLBACK_LIMIT:
        raise CapacityError(
            f"grid has {phase_space_size(moduli)} points, exhaustive cap is "
            f"{FALLBACK_LIMIT}"
        )
    return ComplexSampleSpace(moduli, 0.0, exhaustive=True)


def build_complex_space(
    moduli,
    epsilon: float,
    force_construction: bool = False,
    ell: int | None = None,
) -> ComplexSampleSpace:
    """A complex-eps-biased space over the given grid.

    When the grid itself is enumerable the exhaustive (0-biased) space is
    returned; ``force_construction`` disables that fallback to exercise the
    pipeline. The constructed path uses ``ell`` selector bits and certifies
    the requested bias by exhaustive audit before returning. Without ``ell``
    it raises: the full-strength walk length needs at least 1,653 seed bits
    for any grid and epsilon, far beyond what an audit can enumerate.
    """
    moduli = tuple(int(m) for m in moduli)
    if any(m < 2 for m in moduli):
        raise ValueError("moduli must all be >= 2")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    if not force_construction and phase_space_size(moduli) <= FALLBACK_LIMIT:
        return exhaustive_complex_space(moduli)
    if ell is None:
        raise CapacityError(
            f"full-strength construction needs {theory_seed_bits(moduli, epsilon)} "
            f"seed bits (cap {MAX_SEED_BITS}); pass an explicit ell for a small "
            "audited assembly"
        )
    if ell < 1:
        raise ValueError("ell must be >= 1")
    gen = _strong_generator(moduli)
    amp = AmplifierParams(_base_vertex_bits(gen.seed_count), ell)
    bits = amp.seed_bits + ell
    if bits > MAX_SEED_BITS:
        raise CapacityError(f"ell={ell} needs {bits} seed bits (cap {MAX_SEED_BITS})")
    space = ComplexSampleSpace(moduli, epsilon, exhaustive=False, base=gen, amplifier=amp)
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


def complex_space_from_descriptor(text: str) -> ComplexSampleSpace:
    """Rebuild a complex space from its descriptor line.

    Every field given must be a field of the rebuilt space's own descriptor,
    with the same value; omitted fields are derived as
    ``build_complex_space`` derives them.
    """
    fields = _descriptor_fields(text, "complex")
    try:
        mults = tuple(int(v) for v in fields["s"].split(","))
        mode = fields.get("mode", "constructed")
        eps = float(fields["eps"])
    except (KeyError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor fields in {text!r}: {exc}") from None
    moduli = tuple(s + 1 for s in mults)
    if mode == "exhaustive":
        space = exhaustive_complex_space(moduli)
    elif mode == "constructed":
        try:
            ell = int(fields["l"])
        except (KeyError, ValueError):
            raise DescriptorError(f"constructed descriptor needs l=<ell>: {text!r}") from None
        space = build_complex_space(moduli, eps, force_construction=True, ell=ell)
    else:
        raise DescriptorError(f"unknown complex space mode {mode!r}")
    return _check_fields(space, fields, text)

"""Small-bias sample spaces over {0,1}^n, exposed as enumerable seed maps.

Construction: field powering. A seed is a pair (r, f) of GF(2^m) elements
with m chosen so that 2^m * eps >= n; output bit i is the GF(2) inner
product of the bit vectors of r and f^i. For any nonzero test vector a the
character sum collapses to Pr_f[p_a(f) = 0] where p_a(x) = XOR_i a_i x^i is
a nonzero polynomial of degree < n, so the bias is at most (n-1)/2^m <= eps
while the seed is only 2m bits. A space is fixed by (n, m), the fields of
its descriptor: m = 0 is the uniform space, with n seed bits.

For a fixed f the seed -> cell map is GF(2)-linear in r: the cell of
(f, r) is the XOR of the columns of f's map over the set bits j of r, where
column j is the n-bit word whose bit i is bit j of f^i. Squaring (the
Frobenius map) is a GF(2)-linear bijection S of the field, and
(f^2)^i = S f^i, so <r, (f^2)^i> = <S^T r, f^i>: the cell of (f^2, r) is the
cell of (f, S^T r), and as r runs over the field, f and its conjugates f^2,
f^4, ... give the same multiset of cells. So the map is enumerated for one
element per orbit, the least one (from a squaring table and m gathers), and
each of its cells counts for d seeds, where d, the orbit size, is the least
d >= 1 with f^(2^d) = f and divides m. That is about 2^m / m elements
instead of 2^m: 60 of 512 at m = 9, 352 of 4,096 at m = 12.

A block of representatives is raised to the powers f^0..f^(n-1) together
(uint32 shift/xor carry-less multiplication, by doubling), which gives the m
columns; the cells of all 2^m values of r then follow by doubling over the
bits of r, one XOR pass per bit (cells[:, 2^j + r'] = cells[:, r'] ^
column j). The rows come in blocks of about 2^20 cells, each cell of
probability d / seed_count, and are counted, exactly, into the dense 2^n
histogram that the audit's Walsh-Hadamard transform reads, one weighted
``np.bincount`` per block: about 2^(2m) / m word operations, with no factor
n, capped at n <= 24. This enumeration is the space's only seed map.

``support_blocks``, which the estimator streams through its kernel, yields
these rows as they are, equal cells unmerged, while they hold at most 2^n
cells. As eps shrinks they outgrow the grid (at n = 16, eps = 0.01, 385,024
row cells against 65,536 grid cells), and it yields the histogram's occupied
cells instead, each once.

A binary space is the complex grid with every modulus 2, and this module
holds what the two kinds share: the contract both answer to (below);
``measure_bias``, which audits either kind
(``complex_bias.measure_complex_bias`` is the same function);
``space_from_descriptor``, which reads either kind's descriptor (a complex
line loads ``complex_bias`` for its half) under one field rule; and
``_gf2_mul_batch`` with ``IRREDUCIBLE``, the GF(2^m) arithmetic of the
complex pipeline's pairwise hash as well.

The contract is the nine members that ``measure_bias``, the derandomized
estimator and ``space_from_descriptor`` read of a space. A space is a
distribution on the grid Z_m1 x ... x Z_mk (``moduli``), the
image of ``seed_count`` equally likely seeds (``seed_bits`` =
ceil(log2 seed_count)); an ``exhaustive`` one is the uniform distribution,
each cell one seed. A cell is a flat index in a mixed-radix numbering with
place values ``places``: coordinate i is ``index // places[i] % moduli[i]``,
and each place is the product of the moduli of the faster places, so the
cells are exactly 0 .. prod(moduli) - 1. ``support_blocks()`` yields the
support as (cells, probs) pairs: 2-D cell indices, and probabilities that
broadcast against them, each a whole number of seeds over ``seed_count``,
summing to 1 over all blocks; a cell may recur. ``support_histogram()`` is
the probabilities summed per cell, in cell-index order once flattened. Its
bias, ``measure_bias``, is at most ``declared_epsilon`` (0 for an exhaustive
space, up to the DFT's rounding). ``space_from_descriptor`` reads
``descriptor()`` back to the same space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CapacityError, DescriptorError
from .matrices import phase_space_size

__all__ = [
    "SampleSpace",
    "build_binary_space",
    "exhaustive_binary_space",
    "measure_bias",
    "space_from_descriptor",
]

MAX_EXHAUSTIVE_N = 24
AUDIT_OP_LIMIT = 1 << 32

# Irreducible polynomials over GF(2), degree m plus the x^m term, m = 1..20.
# Verified by brute-force trial division in the test suite.
IRREDUCIBLE = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
    13: 0x201B,
    14: 0x4443,
    15: 0x8003,
    16: 0x1100B,
    17: 0x20009,
    18: 0x40081,
    19: 0x80027,
    20: 0x100009,
}
MAX_FIELD_BITS = max(IRREDUCIBLE)

# cells per block of the vectorized seed -> cell map: 4 MiB of uint32, and
# 16 MiB of complex128 values when the estimator evaluates the block
_SEED_CHUNK = 1 << 20


def _gf2_mul_batch(x: np.ndarray, y: np.ndarray, m: int, poly: int) -> np.ndarray:
    """Elementwise GF(2^m) product of broadcastable uint32 arrays of field
    elements: the carry-less product reduced modulo the degree-m ``poly``."""
    acc = np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=np.uint32)
    for j in range(m):
        acc ^= x * ((y >> j) & 1)
        x = x << 1
        x ^= poly * (x >> m)  # x < 2^(m+1), so x >> m is the overflow bit
    return acc


def _frobenius_orbits(m: int, poly: int) -> tuple[np.ndarray, np.ndarray]:
    """The least element of every orbit of x -> x^2 on GF(2^m), ascending as
    uint32, and the orbit sizes: the least d >= 1 with x^(2^d) = x, which
    divides m."""
    field = np.arange(1 << m, dtype=np.uint32)
    square = _gf2_mul_batch(field, field, m, poly)
    least = field.copy()
    orbit = np.zeros(field.shape, dtype=np.uint32)
    conjugate = field
    for d in range(1, m + 1):
        conjugate = square[conjugate]
        np.minimum(least, conjugate, out=least)
        orbit[(orbit == 0) & (conjugate == field)] = d
    reps = np.flatnonzero(least == field)
    return reps.astype(np.uint32), orbit[reps]


def _orbit_count(m: int) -> int:
    """The number of orbits of x -> x^2 on GF(2^m), by Burnside: squaring
    k times fixes the subfield GF(2^gcd(k, m))."""
    return sum(1 << math.gcd(k, m) for k in range(m)) // m


def _butterfly_levels(a: np.ndarray, diff: np.ndarray, h: int, stop: int) -> None:
    """The in-place Walsh-Hadamard levels that pair the entries of the flat
    array a at distance h, 2h, ... below stop: each level writes its
    differences to diff (at least half of a's size), adds in place, then
    copies the differences back."""
    while h < stop:
        pairs = a.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :], pairs[:, 1, :]
        d = diff[: a.shape[0] // 2].reshape(-1, h)
        np.subtract(top, bot, out=d)
        top += bot
        bot[...] = d
        h *= 2


def _walsh_spectrum(p: np.ndarray) -> np.ndarray:
    """All 2^n character sums sum_x p[x] (-1)^{popcount(a & x)}, by an
    in-place butterfly, level by level from the lowest bit.

    The four lowest levels pair entries within runs of 16, so they run on
    the (16, 2^(n-4)) transpose t[j, i] = p[16 i + j], where each pairs
    whole rows; the higher levels run on the array transposed back, where
    the runs they pair are at least 16 entries long. Each level does the
    same adds and subtracts as on p's own layout, so every output bit is
    the same. The two full-size buffers take turns as the other's
    difference buffer."""
    p = np.asarray(p, dtype=np.float64)
    size = p.shape[0]
    rows = min(16, size)
    cols = size // rows
    t = np.empty(size)
    a = np.empty(size)
    t.reshape(rows, cols)[...] = p.reshape(cols, rows).T
    _butterfly_levels(t, a, cols, size)
    a.reshape(cols, rows)[...] = t.reshape(rows, cols).T
    _butterfly_levels(a, t, rows, size)
    return a


class SampleSpace:
    """A finite distribution over {0,1}^n given by a seed -> vector map.

    ``field_bits`` = 0 is the uniform (``exhaustive``) space. Enumerating
    all ``2**seed_bits`` seeds yields the full support. The declared bias
    bound is certified by construction (or zero for the uniform space) and
    can be re-measured exhaustively with :func:`measure_bias`.
    """

    def __init__(self, n: int, field_bits: int, epsilon: float):
        if n < 1:
            raise ValueError("n must be >= 1")
        if field_bits and field_bits not in IRREDUCIBLE:
            raise ValueError(f"field_bits must be 0 or in [1, {MAX_FIELD_BITS}], got {field_bits}")
        self.n = n
        self.moduli = (2,) * n
        self.field_bits = field_bits
        self.poly = IRREDUCIBLE[field_bits] if field_bits else 0
        self.declared_epsilon = float(epsilon)
        self.exhaustive = field_bits == 0
        self.seed_bits = 2 * field_bits if field_bits else n
        self._hist: np.ndarray | None = None

    @property
    def seed_count(self) -> int:
        return 1 << self.seed_bits

    @property
    def construction_bound(self) -> float:
        """The bias bound the powering argument certifies: (n-1)/2^m."""
        if self.exhaustive:
            return 0.0
        return (self.n - 1) / (1 << self.field_bits)

    def _powers(self, f: np.ndarray) -> np.ndarray:
        """powers[k, i] = f[k]^i for a 1-D uint32 block of field elements, i < n."""
        # by doubling: one product gives f^(L..L+k-1) from f^(0..k-1) and
        # f^L, and also f^(2L) for the next round
        n = self.n
        powers = np.ones((f.shape[0], n), dtype=np.uint32)
        step = f[:, None]
        length = 1
        while length < n:
            k = min(length, n - length)
            both = np.concatenate((powers[:, :k], step), axis=1)
            prod = _gf2_mul_batch(both, step, self.field_bits, self.poly)
            powers[:, length : length + k] = prod[:, :k]
            step = prod[:, k:]
            length += k
        return powers

    def _column_bits(self, f: np.ndarray) -> np.ndarray:
        """bits[k, j, i] = bit j of f[k]^i, shape (len(f), m, n): column j of
        f[k]'s linear map r -> cell, unpacked into its n phase bits."""
        shifts = np.arange(self.field_bits, dtype=np.uint32)[:, None]
        return (self._powers(f)[:, None, :] >> shifts) & 1

    def _rows(self):
        """A constructed space's support as (cells, probs) blocks, one entry
        per occurrence of a cell: one row per Frobenius orbit representative
        f_k, in blocks of about ``_SEED_CHUNK`` cells, where cells[k, r] is
        the uint32 cell of seed (f_k, r) and probs[k, 0] is f_k's orbit size
        over seed_count."""
        if self.n > MAX_EXHAUSTIVE_N:
            raise CapacityError(f"support capped at n <= {MAX_EXHAUSTIVE_N}")
        # a block is `rows` representatives times every r value:
        # _SEED_CHUNK cells, or 2^m when that is larger
        m = self.field_bits
        size = 1 << m
        rows = max(1, _SEED_CHUNK // size)
        reps, orbit = _frobenius_orbits(m, self.poly)
        probs = (orbit / float(self.seed_count))[:, None]
        place = np.arange(self.n, dtype=np.uint32)
        for lo in range(0, reps.size, rows):
            f = reps[lo : lo + rows]
            cols = (self._column_bits(f) << place).sum(axis=2, dtype=np.uint32)
            # cells[:, r] for r in [2^j, 2^(j+1)) is cells[:, r - 2^j]
            # XOR column j
            cells = np.empty((f.shape[0], size), dtype=np.uint32)
            cells[:, 0] = 0
            for j in range(m):
                w = 1 << j
                np.bitwise_xor(cells[:, :w], cols[:, j, None], out=cells[:, w : 2 * w])
            yield cells, probs[lo : lo + rows]

    def support_blocks(self):
        """The support as (cells, probs) blocks: 2-D uint32 cell indices
        (``places``) and probabilities that broadcast against them. These
        are a constructed space's ``_rows`` while they hold at most 2^n
        cells. The rows outgrow the grid as eps shrinks, about 2^(2m) / m
        cells against at most 2^n distinct ones; past that, and for the
        uniform space, the support is one row of the histogram's occupied
        cells, each cell once."""
        m = self.field_bits
        if not self.exhaustive and _orbit_count(m) << m <= 1 << self.n:
            yield from self._rows()
            return
        hist = self.support_histogram()
        idx = np.flatnonzero(hist).astype(np.uint32)
        yield idx[None, :], hist[idx][None, :]

    @property
    def places(self) -> np.ndarray:
        """Place values of the cell index: bit i is coordinate i."""
        return 1 << np.arange(self.n, dtype=np.int64)

    def support_histogram(self) -> np.ndarray:
        """Probability of each of the 2^n cells, cell index = phase bits."""
        if self._hist is None and self.exhaustive:
            self._hist = np.full(1 << self.n, 0.5**self.n)
        elif self._hist is None:
            hist = None
            for cells, probs in self._rows():
                weights = np.broadcast_to(probs, cells.shape).ravel()
                block = np.bincount(cells.ravel(), weights, minlength=1 << self.n)
                # the weights are dyadic, so every count and sum is exact
                hist = block if hist is None else np.add(hist, block, out=hist)
            self._hist = hist
        return self._hist

    def descriptor(self) -> str:
        text = (
            f"binary n={self.n} m={self.field_bits} poly={self.poly:#x} "
            f"eps={self.declared_epsilon:.17g}"
        )
        if self.exhaustive:
            text += " mode=exhaustive"
        return text


def build_binary_space(n: int, epsilon: float) -> SampleSpace:
    """An eps-biased space over {0,1}^n with 2*ceil(log2(n/eps)) seed bits."""
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    m = 1
    while (1 << m) * epsilon < n:
        m += 1
        if m > MAX_FIELD_BITS:
            raise CapacityError(
                f"n={n}, eps={epsilon} needs more than {2 * MAX_FIELD_BITS} seed bits"
            )
    return SampleSpace(n, m, epsilon)


def exhaustive_binary_space(n: int) -> SampleSpace:
    """The uniform (0-biased) space, n seed bits."""
    if n > MAX_EXHAUSTIVE_N:
        raise CapacityError(f"exhaustive space capped at n <= {MAX_EXHAUSTIVE_N}")
    return SampleSpace(n, 0, 0.0)


def measure_bias(space) -> float:
    """max over nontrivial characters of |E[chi(x)]|, every one enumerated.

    Serves binary and complex spaces alike through their ``moduli`` and
    ``support_histogram``: the Walsh-Hadamard butterfly when every modulus
    is 2 (the same maxima as the DFT, several times faster), else the full
    DFT of the histogram over the grid.
    """
    if space.seed_count * phase_space_size(space.moduli) > AUDIT_OP_LIMIT:
        raise CapacityError("audit cost exceeds the 2^32 operation cap")
    hist = space.support_histogram()
    if all(m == 2 for m in space.moduli):
        spectrum = _walsh_spectrum(hist.reshape(-1))
        np.abs(spectrum, out=spectrum)
    else:
        spectrum = np.abs(np.fft.fftn(hist))
    spectrum.flat[0] = 0.0
    return float(spectrum.max())


def _descriptor_fields(text: str) -> dict[str, str]:
    """The key=value fields of a descriptor line, after its kind."""
    fields = {}
    for tok in text.split()[1:]:
        if "=" not in tok:
            raise DescriptorError(f"malformed descriptor token {tok!r}")
        key, val = tok.split("=", 1)
        fields[key] = val
    return fields


def _same_field(key: str, given: str, built: str) -> bool:
    """poly compares as a base-16 integer, other numeric fields (comma lists
    included) by value, the rest as text."""
    try:
        if key == "poly":
            return int(given, 16) == int(built, 16)
        return [float(v) for v in given.split(",")] == [float(v) for v in built.split(",")]
    except ValueError:
        return given == built


def _check_fields(space, fields: dict[str, str], text: str):
    """The rebuilt space, once every given field is a field of its own
    descriptor, or its mode, with the same value; omitted fields are
    derived."""
    built = _descriptor_fields(space.descriptor())
    # derived from the kind for every space, though a constructed binary
    # descriptor prints no mode
    mode = built["mode"] = "exhaustive" if space.exhaustive else "constructed"
    for key, val in fields.items():
        if key not in built:
            raise DescriptorError(f"unknown field {key!r} for a {mode} space: {text!r}")
        if not _same_field(key, val, built[key]):
            raise DescriptorError(
                f"descriptor field {key}={val} does not match the rebuilt "
                f"space's {key}={built[key]}"
            )
    return space


def space_from_descriptor(text: str):
    """Rebuild a space of either kind from its descriptor line.

    Each kind is rebuilt from the fields it cannot derive, as its
    constructor is: a binary space from n, m and eps (m = 0 is the uniform
    space), a complex one from s, l and eps (l = 0, or omitted, is the
    uniform space). Every other field given, ``mode`` included, must match
    the rebuilt space's own descriptor. A complex line alone loads
    ``complex_bias``.
    """
    kind = (text.split() or [""])[0]
    if kind not in ("binary", "complex"):
        raise DescriptorError(f"unknown space descriptor kind {kind!r}")
    fields = _descriptor_fields(text)
    if kind == "complex":
        from .complex_bias import _space_from_fields

        return _check_fields(_space_from_fields(fields, text), fields, text)
    try:
        n = int(fields["n"])
        m = int(fields["m"])
        eps = float(fields["eps"])
        space = SampleSpace(n, m, eps) if m else exhaustive_binary_space(n)
    except (KeyError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor fields in {text!r}: {exc}") from None
    if not np.isfinite(eps):
        raise DescriptorError(f"declared eps={eps} is not finite")
    # the declared eps becomes the reported guarantee, so it may not claim
    # less bias than the powering argument certifies
    if not eps >= space.construction_bound:
        raise DescriptorError(
            f"declared eps={eps:.17g} is below the certified bias bound "
            f"(n-1)/2^m = {space.construction_bound:.17g}"
        )
    return _check_fields(space, fields, text)

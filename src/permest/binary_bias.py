"""Small-bias sample spaces over {0,1}^n, exposed as enumerable seed maps.

Construction: field powering. A seed is a pair (r, f) of GF(2^m) elements
with m chosen so that 2^m * eps >= n; output bit i is the GF(2) inner
product of the bit vectors of r and f^i. For any nonzero test vector a the
character sum collapses to Pr_f[p_a(f) = 0] where p_a(x) = XOR_i a_i x^i is
a nonzero polynomial of degree < n, so the bias is at most (n-1)/2^m <= eps
while the seed is only 2m bits.

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
column j). The estimator groups equal sample points by sorting each block of
about 2^22 cells, with each cell's weight in the low bits of its sort key,
and merging the blocks' (cell, count) lists, so it holds the distinct cells
plus one block and never a 2^n array. Only the audit scatters those counts
into the dense 2^n histogram its Walsh-Hadamard transform reads. Both cost
about 2^(2m) / m word operations plus the sorts, with no factor n, and are
capped at n <= 24. This enumeration is the space's only seed map.

A binary space is the complex grid with every modulus 2, and this module
holds what the two kinds share: ``measure_bias`` audits either kind
(``complex_bias.measure_complex_bias`` is the same function), the
descriptor field rule backs both descriptor parsers, and
``_gf2_mul_batch`` with ``IRREDUCIBLE`` is the GF(2^m) arithmetic of the
complex pipeline's pairwise hash as well.
"""

from __future__ import annotations

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

MAX_SEED_BITS = 40
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

# cells per block of the vectorized seed -> cell map: 16 MiB of uint32;
# each further block costs a merge pass over the distinct cells
_SEED_CHUNK = 1 << 22
# low bits of a support sort key that hold a cell's weight, an orbit size
# <= m <= 20, above which an n <= 24 bit cell fits in a uint32
_WEIGHT_BITS = 5
_WEIGHT_MASK = np.uint32((1 << _WEIGHT_BITS) - 1)


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


def _run_starts(values: np.ndarray) -> np.ndarray:
    """Offsets where each run of equal values in a sorted 1-D array starts."""
    return np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))


def _walsh_spectrum(p: np.ndarray) -> np.ndarray:
    """All 2^n character sums sum_x p[x] (-1)^{popcount(a & x)}, by an
    in-place butterfly: each level writes its differences to one half-size
    buffer, adds in place, then copies the differences back."""
    a = np.array(p, dtype=np.float64)
    size = a.shape[0]
    diff = np.empty(size // 2)
    h = 1
    while h < size:
        pairs = a.reshape(-1, 2, h)
        top, bot = pairs[:, 0, :], pairs[:, 1, :]
        d = diff.reshape(-1, h)
        np.subtract(top, bot, out=d)
        top += bot
        bot[...] = d
        h *= 2
    return a


class SampleSpace:
    """A finite distribution over {0,1}^n given by a seed -> vector map.

    Enumerating all ``2**seed_bits`` seeds yields the full support. The
    declared bias bound is certified by construction (or zero for the
    uniform space) and can be re-measured exhaustively with
    :func:`measure_bias`.
    """

    def __init__(
        self, n: int, field_bits: int, epsilon: float, exhaustive: bool = False
    ):
        if n < 1:
            raise ValueError("n must be >= 1")
        if field_bits not in ((0,) if exhaustive else IRREDUCIBLE):
            raise ValueError(
                f"field_bits must be 0 for an exhaustive space and lie in "
                f"[1, {MAX_FIELD_BITS}] otherwise, got {field_bits}"
            )
        self.n = n
        self.moduli = (2,) * n
        self.field_bits = field_bits
        self.poly = IRREDUCIBLE[field_bits] if field_bits else 0
        self.declared_epsilon = float(epsilon)
        self.exhaustive = exhaustive
        self.seed_bits = n if exhaustive else 2 * field_bits
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

    def _cell_blocks(self):
        """The cells of one field element per Frobenius orbit, in blocks of
        about ``_SEED_CHUNK`` cells: (cells, weights), where cells[k, r] is
        the uint32 cell of seed (f_k, r) for representative f_k and
        weights[k] is the size of f_k's orbit."""
        # a block is `rows` representatives times every r value:
        # _SEED_CHUNK cells, or 2^m when that is larger
        m = self.field_bits
        size = 1 << m
        rows = max(1, _SEED_CHUNK // size)
        reps, orbit = _frobenius_orbits(m, self.poly)
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
            yield cells, orbit[lo : lo + rows]

    @property
    def places(self) -> np.ndarray:
        """Place values of the cell index: bit i is coordinate i."""
        return 1 << np.arange(self.n, dtype=np.int64)

    def support_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The occupied cells as ascending uint32 indices (``places``) and
        their probabilities, count / seed_count."""
        if self.n > MAX_EXHAUSTIVE_N:
            raise CapacityError(f"histogram capped at n <= {MAX_EXHAUSTIVE_N}")
        if self.exhaustive:
            size = 1 << self.n
            return np.arange(size, dtype=np.uint32), np.full(size, 1.0 / size)
        # each block is sorted and grouped by runs, then merged into the
        # (cell, count) lists of the blocks before it: memory stays at the
        # distinct cells plus one block
        idx = np.empty(0, dtype=np.uint32)
        counts = np.empty(0, dtype=np.int64)
        for cells, weights in self._cell_blocks():
            # one sort key per cell, with its row's weight in the low bits
            cells <<= _WEIGHT_BITS
            cells |= weights[:, None]
            keys = cells.ravel()
            keys.sort()
            block_weights = keys & _WEIGHT_MASK
            keys >>= _WEIGHT_BITS
            starts = _run_starts(keys)
            block_counts = np.add.reduceat(block_weights, starts, dtype=np.int64)
            if idx.size:
                both = np.concatenate((idx, keys[starts]))
                # a stable sort of two sorted runs is one merge pass
                order = np.argsort(both, kind="stable")
                both = both[order]
                starts = _run_starts(both)
                counts = np.add.reduceat(np.concatenate((counts, block_counts))[order], starts)
                idx = both[starts]
            else:
                idx, counts = keys[starts], block_counts
        return idx, counts / float(self.seed_count)

    def support_histogram(self) -> np.ndarray:
        """Probability of each of the 2^n cells, cell index = phase bits."""
        if self._hist is None:
            idx, probs = self.support_cells()
            hist = np.zeros(1 << self.n)
            hist[idx] = probs
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 < epsilon < 1.0):
        raise ValueError("epsilon must lie in (0, 1)")
    m = 1
    while (1 << m) * epsilon < n:
        m += 1
        if m > MAX_FIELD_BITS or 2 * m > MAX_SEED_BITS:
            raise CapacityError(
                f"n={n}, eps={epsilon} needs more than {MAX_SEED_BITS} seed bits"
            )
    return SampleSpace(n, m, epsilon)


def exhaustive_binary_space(n: int) -> SampleSpace:
    """The uniform (0-biased) space, n seed bits."""
    if not (1 <= n <= MAX_EXHAUSTIVE_N):
        raise CapacityError(f"exhaustive space capped at n <= {MAX_EXHAUSTIVE_N}")
    return SampleSpace(n, 0, 0.0, exhaustive=True)


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
        spectrum = np.abs(_walsh_spectrum(hist.reshape(-1)))
    else:
        spectrum = np.abs(np.fft.fftn(hist))
    spectrum.flat[0] = 0.0
    return float(spectrum.max())


def _descriptor_fields(text: str, kind: str) -> dict[str, str]:
    """The key=value fields of a descriptor line whose first token is kind."""
    tokens = text.split()
    if not tokens or tokens[0] != kind:
        raise DescriptorError(f"not a {kind} space descriptor: {text!r}")
    fields = {}
    for tok in tokens[1:]:
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
    descriptor with the same value; omitted fields are derived."""
    descriptor = space.descriptor()
    built = _descriptor_fields(descriptor, descriptor.split()[0])
    mode = "exhaustive" if space.exhaustive else "constructed"
    for key, val in fields.items():
        if key not in built:
            raise DescriptorError(f"unknown field {key!r} for a {mode} space: {text!r}")
        if not _same_field(key, val, built[key]):
            raise DescriptorError(
                f"descriptor field {key}={val} does not match the rebuilt "
                f"space's {key}={built[key]}"
            )
    return space


def space_from_descriptor(text: str) -> SampleSpace:
    """Rebuild a binary space from its descriptor line.

    n, m and eps are required; every field given must match the rebuilt
    space's own descriptor.
    """
    fields = _descriptor_fields(text, "binary")
    try:
        n = int(fields["n"])
        m = int(fields["m"])
        eps = float(fields["eps"])
    except (KeyError, ValueError) as exc:
        raise DescriptorError(f"bad descriptor fields in {text!r}: {exc}") from None
    if n < 1:
        raise DescriptorError(f"descriptor needs n >= 1, got n={n}")
    if fields.get("mode") == "exhaustive":
        return _check_fields(exhaustive_binary_space(n), fields, text)
    if m not in IRREDUCIBLE:
        raise DescriptorError(f"unsupported field size m={m}")
    space = SampleSpace(n, m, eps)
    # the declared eps becomes the reported guarantee, so it may not claim
    # less bias than the powering argument certifies (NaN fails too)
    if not eps >= space.construction_bound:
        raise DescriptorError(
            f"declared eps={eps:.17g} is below the certified bias bound "
            f"(n-1)/2^m = {space.construction_bound:.17g}"
        )
    return _check_fields(space, fields, text)

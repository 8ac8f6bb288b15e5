import tracemalloc

import numpy as np
import pytest

from permest import binary_bias, estimators
from permest.binary_bias import (
    IRREDUCIBLE,
    SampleSpace,
    _gf2_mul_batch,
    _walsh_spectrum,
    build_binary_space,
    exhaustive_binary_space,
    measure_bias,
    space_from_descriptor,
)
from permest.errors import CapacityError, DescriptorError
from permest.estimators import estimate_derandomized, gly

from oracles import (
    binary_bias_brute,
    binary_cells_by_seed,
    cells_by_seed_loop,
    decode_cells,
    gf2_mul,
    random_nonneg,
    space_mean_by_seed_loop,
)


def _poly_divides(p, q):
    """q mod p == 0 over GF(2)."""
    dp = p.bit_length() - 1
    while q.bit_length() - 1 >= dp and q:
        q ^= p << (q.bit_length() - 1 - dp)
    return q == 0


class TestFieldTable:
    def test_table_is_irreducible(self):
        for m, poly in IRREDUCIBLE.items():
            assert poly.bit_length() - 1 == m
            for d in range(1, m // 2 + 1):
                for f in range(1 << d, 1 << (d + 1)):
                    assert not _poly_divides(f, poly), (m, hex(f))

    # the multiply the seed map and the complex pairwise hash run, on every
    # pair (x, y) of GF(2^m): table[x, y] = x * y
    @staticmethod
    def _table(m):
        field = np.arange(1 << m, dtype=np.uint32)
        return _gf2_mul_batch(field[:, None], field, m, IRREDUCIBLE[m])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_batch_multiply_matches_scalar_oracle(self, m):
        table = self._table(m)
        for x in range(1 << m):
            assert table[x].tolist() == [gf2_mul(x, y, m) for y in range(1 << m)], x

    @pytest.mark.parametrize("m", [1, 2, 5, 8])
    def test_field_axioms_spot(self, m):
        table = self._table(m).astype(np.int64)
        field = np.arange(1 << m)
        assert np.array_equal(table, table.T)
        assert np.array_equal(table[1], field)
        assert not table[0].any()
        rng = np.random.default_rng(m)
        x, y, z = rng.integers(0, 1 << m, size=(3, 500))
        assert np.array_equal(table[table[x, y], z], table[x, table[y, z]])
        assert np.array_equal(table[x, y ^ z], table[x, y] ^ table[x, z])

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_nonzero_elements_invertible(self, m):
        # multiplication by each nonzero x permutes the field
        rows = np.sort(self._table(m)[1:], axis=1)
        assert np.array_equal(rows, np.broadcast_to(np.arange(1 << m), rows.shape))


def _histogram_by_seed_loop(space):
    """Cell probabilities from every seed, bits by scalar gf2_mul powering."""
    counts = np.bincount(cells_by_seed_loop(space), minlength=1 << space.n)
    return counts / space.seed_count


class TestWalsh:
    def test_matches_direct_character_sums(self):
        rng = np.random.default_rng(1)
        n = 6
        p = rng.random(1 << n)
        p /= p.sum()
        spectrum = _walsh_spectrum(p)
        for a in range(1 << n):
            direct = sum(
                p[x] * (-1.0) ** (bin(a & x).count("1")) for x in range(1 << n)
            )
            assert spectrum[a] == pytest.approx(direct, abs=1e-12)


class TestBuild:
    def test_small_space_spec_example(self):
        space = build_binary_space(4, 0.5)
        assert measure_bias(space) <= 0.5

    def test_single_coordinate_unbiased(self):
        space = build_binary_space(1, 0.3)
        assert measure_bias(space) == pytest.approx(0.0, abs=1e-12)

    def test_n10_eps01(self):
        space = build_binary_space(10, 0.1)
        assert measure_bias(space) <= 0.1
        assert space.seed_count <= 1 << 20

    def test_declared_epsilon_sound_over_grid(self):
        for n in (2, 5, 8, 12):
            for eps in (0.5, 0.25, 0.1):
                space = build_binary_space(n, eps)
                assert measure_bias(space) <= space.declared_epsilon

    def test_construction_bound_over_grid(self):
        # the powering argument promises bias <= (n-1)/2^m, stronger than
        # the requested epsilon
        for n in (2, 5, 8, 12):
            for eps in (0.5, 0.25, 0.1):
                space = build_binary_space(n, eps)
                assert measure_bias(space) <= (n - 1) / 2**space.field_bits + 1e-12

    def test_seed_bits_grow_logarithmically(self):
        for n in (4, 8, 16):
            for eps in (0.5, 0.1, 0.02):
                space = build_binary_space(n, eps)
                assert space.seed_bits <= 2 * (np.log2(n) + np.log2(1 / eps)) + 4

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            build_binary_space(1000, 1e-9)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            build_binary_space(0, 0.5)
        with pytest.raises(ValueError):
            build_binary_space(4, 1.5)

    @pytest.mark.parametrize(
        "args",
        # no field of 21 or 0 bits for a constructed space, a field for an
        # exhaustive one, no coordinates
        [(5, 21, 0.1), (5, 0, 0.1), (5, 3, 0.0, True), (0, 3, 0.5)],
    )
    def test_constructor_rejects_bad_arguments(self, args):
        with pytest.raises(ValueError):
            SampleSpace(*args)


class TestExhaustive:
    def test_bias_zero(self):
        for n in (1, 6, 12):
            assert measure_bias(exhaustive_binary_space(n)) <= 1e-12

    def test_fields(self):
        space = exhaustive_binary_space(6)
        assert space.seed_bits == 6
        assert space.declared_epsilon == 0.0
        assert space.exhaustive

    def test_capacity(self):
        with pytest.raises(CapacityError):
            exhaustive_binary_space(25)


class TestChunkedHistogram:
    # 64 seeds is below 2^m = 128 at m = 7, so a block is one f value; 100
    # and 1000 leave a short last block of f values
    CHUNKS = (1 << 6, 100, 1000)

    @pytest.mark.parametrize(
        "n, eps",
        [(10, 0.1), (2, 0.1), (1, 0.1)],  # m = 7; n < m; n = 1
    )
    def test_matches_seed_loop_across_chunk_sizes(self, monkeypatch, n, eps):
        expected = _histogram_by_seed_loop(build_binary_space(n, eps))
        for chunk in self.CHUNKS:
            monkeypatch.setattr(binary_bias, "_SEED_CHUNK", chunk)
            hist = build_binary_space(n, eps).support_histogram()
            assert np.array_equal(hist, expected), chunk

    def test_estimate_matches_seed_loop_with_small_blocks(self, monkeypatch):
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", 1 << 6)
        monkeypatch.setattr(estimators, "_BLOCK", 3)  # 4 cells padded to 8: blocks of 3, 3, 2
        a = random_nonneg(np.random.default_rng(21), 2)
        space = build_binary_space(2, 0.1)
        est = estimate_derandomized(a, space)
        brute = space_mean_by_seed_loop(space, lambda x: gly(a, x))
        assert est.value == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_estimate_blocks_do_not_change_value(self, monkeypatch):
        a = random_nonneg(np.random.default_rng(22), 10)
        space = build_binary_space(10, 0.1)
        whole = estimate_derandomized(a, space).value
        monkeypatch.setattr(estimators, "_BLOCK", 7)
        assert estimate_derandomized(a, space).value == whole


def _assert_support_is_parity_map(space, cells):
    """support_cells and support_histogram equal the per-seed cells counted
    per cell: ascending uint32 cell indices, which the space's place values
    decode into the index bits, and count / seed_count floats."""
    idx, counts = np.unique(cells, return_counts=True)
    probs = counts / float(space.seed_count)
    got_idx, got_probs = space.support_cells()
    assert got_idx.dtype == np.uint32
    assert np.array_equal(got_idx, idx)
    assert np.array_equal((got_idx[:, None] // space.places) % 2, decode_cells(space, idx))
    assert np.array_equal(got_probs, probs)
    hist = space.support_histogram()
    assert hist.shape == (1 << space.n,) and hist.dtype == np.float64
    assert np.array_equal(np.flatnonzero(hist), idx)
    assert np.array_equal(hist[idx], probs)


class TestColumnMap:
    # f values per block: one, several (dividing 2^m), and 3, which leaves a
    # short final block because 2^m is a power of two; None is the default
    ROWS = (1, 4, 3, None)

    @pytest.mark.parametrize(
        "n, eps",
        # (m = 5, n < m), (m = 4, n = 1), (m = 7, n = m), (m = 10, n = m)
        [(2, 0.1), (1, 0.1), (7, 0.1), (10, 0.01)],
    )
    def test_histogram_matches_parity_map_across_blocks(self, monkeypatch, n, eps):
        cells = binary_cells_by_seed(build_binary_space(n, eps))
        for rows in self.ROWS:
            space = build_binary_space(n, eps)
            if rows is not None:
                monkeypatch.setattr(binary_bias, "_SEED_CHUNK", rows << space.field_bits)
            _assert_support_is_parity_map(space, cells)

    def test_histogram_matches_parity_map_at_n24(self, monkeypatch):
        space = build_binary_space(24, 0.05)  # m = 9
        cells = binary_cells_by_seed(space)
        _assert_support_is_parity_map(space, cells)
        # blocks of 200, 200 and 112 f values
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", 200 << space.field_bits)
        _assert_support_is_parity_map(build_binary_space(24, 0.05), cells)

    @pytest.mark.parametrize("n", [1, 8, 9, 16, 20, 24])
    def test_support_cells_are_the_index_bits(self, n):
        space = build_binary_space(n, 0.05)
        _assert_support_is_parity_map(space, binary_cells_by_seed(space))

    @pytest.mark.parametrize(
        "n, eps, rows, last_rows",
        # f values per block and in the last block: m = 10 gives 1,024
        # blocks of one, or 341 of three and a last of one; m = 11, n = 16
        # gives 700, 700 and 648
        [(10, 0.01, 1, 1), (10, 0.01, 3, 1), (16, 0.01, 700, 648)],
    )
    def test_support_merges_blocks(self, monkeypatch, n, eps, rows, last_rows):
        space = build_binary_space(n, eps)
        cells = binary_cells_by_seed(space)
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", rows << space.field_bits)
        blocks = list(space._cell_blocks())
        assert len(blocks) == -(-(1 << space.field_bits) // rows)
        assert blocks[-1].size == last_rows << space.field_bits
        # the blocks are the seed-order cells, cut; a nonzero cell recurs
        # in a later block, so the merge adds counts, not only new cells
        assert np.array_equal(np.concatenate(blocks), cells)
        later = np.concatenate(blocks[1:])
        assert np.intersect1d(blocks[0][blocks[0] != 0], later).size > 0
        _assert_support_is_parity_map(space, cells)

    def test_support_cells_memory_at_n24(self):
        # 2^18 seeds on 28,633 cells: the support holds one block and the
        # distinct cells, never the 2^24-cell grid (128 MiB as float64)
        space = build_binary_space(24, 0.05)
        tracemalloc.start()
        try:
            idx, _ = space.support_cells()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decode_cells(space, idx).shape == (28633, 24)
        assert peak < 32 << 20

    # (n, eps, estimate_derandomized(...).value.real.hex()): grouping the
    # support must not move a bit of the mean
    PINNED = [
        (12, 0.1, "0x1.a5cd41023f6afp+25"),
        (12, 0.02, "0x1.3673cd23242c0p+23"),
        (16, 0.05, "0x1.42a7721811aaep+40"),
        (16, 0.01, "0x1.ef92c6869a036p+37"),
        (20, 0.05, "0x1.69c8a1ddce08ep+59"),
        (20, 0.02, "0x1.b5a5aebc515bbp+58"),
    ]

    @pytest.mark.parametrize("n, eps, value", PINNED, ids=[f"n{n}-eps{e}" for n, e, _ in PINNED])
    def test_estimate_bits_are_pinned(self, n, eps, value):
        a = random_nonneg(np.random.default_rng(1000 + n), n)
        est = estimate_derandomized(a, build_binary_space(n, eps))
        assert est.value.real.hex() == value
        assert est.value.imag == 0.0


class TestMeasureBias:
    def test_uniform_is_zero(self):
        assert measure_bias(exhaustive_binary_space(6)) <= 1e-12

    def test_constant_distribution_is_one(self):
        space = SampleSpace(4, 0, 0.0, exhaustive=True)
        hist = np.zeros(16)
        hist[0b0110] = 1.0  # single support point
        space._hist = hist
        space.seed_bits = 0
        assert measure_bias(space) == pytest.approx(1.0, abs=1e-12)

    def test_built_space_meets_declaration(self):
        space = build_binary_space(8, 0.25)
        assert measure_bias(space) <= 0.25

    def test_matches_brute_force(self):
        space = build_binary_space(4, 0.5)
        assert measure_bias(space) == pytest.approx(binary_bias_brute(space), abs=1e-12)

    def test_audit_cost_guard(self):
        with pytest.raises(CapacityError):
            measure_bias(exhaustive_binary_space(20))  # 2^20 * 2^20 > 2^32


class TestDescriptor:
    def test_round_trip_constructed(self):
        space = build_binary_space(8, 0.25)
        again = space_from_descriptor(space.descriptor())
        assert again.n == 8 and again.field_bits == space.field_bits
        assert measure_bias(again) == measure_bias(space)

    def test_round_trip_exhaustive(self):
        space = exhaustive_binary_space(6)
        again = space_from_descriptor(space.descriptor())
        assert again.exhaustive and again.n == 6

    def test_built_descriptors_round_trip(self):
        for n in (1, 2, 5, 8, 12, 20, 40):
            for eps in (0.5, 0.25, 0.1, 0.02):
                space = build_binary_space(n, eps)
                again = space_from_descriptor(space.descriptor())
                assert again.descriptor() == space.descriptor()
                assert again.declared_epsilon == space.declared_epsilon

    def test_rejects_eps_below_construction_bound(self):
        # m=1 certifies only (4-1)/2 = 1.5; eps=0.0001 would be reported as
        # a guarantee the space does not give
        with pytest.raises(DescriptorError):
            space_from_descriptor("binary n=4 m=1 eps=0.0001")
        with pytest.raises(DescriptorError):
            space_from_descriptor("binary n=4 m=3 poly=0xb eps=0.37")
        with pytest.raises(DescriptorError):
            space_from_descriptor("binary n=4 m=3 poly=0xb eps=nan")
        at_bound = space_from_descriptor("binary n=4 m=3 poly=0xb eps=0.375")
        assert at_bound.construction_bound == 0.375

    def test_rejects_n_below_one(self):
        for text in (
            "binary n=0 m=3 eps=0.5",
            "binary n=-2 m=3 eps=0.5",
            "binary n=0 m=0 poly=0x0 eps=0 mode=exhaustive",
        ):
            with pytest.raises(DescriptorError):
                space_from_descriptor(text)

    def test_rejects_garbage(self):
        with pytest.raises(DescriptorError):
            space_from_descriptor("complex k=1 s=1")
        with pytest.raises(DescriptorError):
            space_from_descriptor("binary n=4")
        with pytest.raises(DescriptorError):
            space_from_descriptor("binary n=4 m=5 poly=0x99 eps=0.5")

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permest import binary_bias, estimators
from permest.binary_bias import (
    IRREDUCIBLE,
    SampleSpace,
    _frobenius_orbits,
    _gf2_mul_batch,
    _orbit_count,
    _walsh_spectrum,
    build_binary_space,
    exhaustive_binary_space,
    measure_bias,
    space_from_descriptor,
)
from permest.errors import CapacityError, DescriptorError
from permest.estimators import estimate_derandomized, gly_batch

from oracles import (
    binary_cells_by_seed,
    cells_by_seed_loop,
    decode_cells,
    gf2_mul,
    index_signs_by_shifts,
    merged_support,
    random_nonneg,
    space_mean_by_seed_loop,
    walsh_by_stacked_levels,
)


def _poly_divides(p, q):
    """q mod p == 0 over GF(2)."""
    dp = p.bit_length() - 1
    while q.bit_length() - 1 >= dp and q:
        q ^= p << (q.bit_length() - 1 - dp)
    return q == 0


def _pairwise_depth(count: int) -> int:
    """The most roundings any term goes through in NumPy's pairwise sum of
    ``count`` complex128 values: each part of a run of at most 64 values is
    summed on four accumulators of count // 4 terms, combined in two levels,
    and followed by the count % 4 left-over terms; a longer run is split
    after the largest multiple of four values at most half of it."""
    if count < 4:
        return max(count - 1, 0)
    if count <= 64:
        return count // 4 + 1 + count % 4
    half = (count - count % 8) // 2
    return 1 + max(_pairwise_depth(half), _pairwise_depth(count - half))


def _sum_depth(count: int) -> int:
    """The most roundings any term goes through in ``np.sum`` over
    ``count`` complex128 values, which may add the pairwise sum of all but
    the first value to the first."""
    return 1 + max(_pairwise_depth(count), _pairwise_depth(count - 1))


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


def _orbits_by_scalar_squaring(m):
    """Every orbit of x -> x^2 on GF(2^m), as lists from the least element,
    squared one element at a time with the scalar ``gf2_mul``."""
    orbits, seen = [], set()
    for x in range(1 << m):
        if x in seen:
            continue
        orbit = [x]
        while (y := gf2_mul(orbit[-1], orbit[-1], m)) != x:
            orbit.append(y)
        orbits.append(orbit)
        seen.update(orbit)
    return orbits


class TestFrobeniusOrbits:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_matches_scalar_squaring(self, m):
        reps, sizes = _frobenius_orbits(m, IRREDUCIBLE[m])
        orbits = _orbits_by_scalar_squaring(m)
        assert reps.dtype == np.uint32
        # each representative is the least element of its own orbit
        assert reps.tolist() == [min(orbit) for orbit in orbits]
        assert sizes.tolist() == [len(orbit) for orbit in orbits]
        for f, d in zip(reps.tolist(), sizes.tolist()):
            x = f
            for _ in range(d):
                x = gf2_mul(x, x, m)
            assert x == f and m % d == 0

    @pytest.mark.parametrize("m", sorted(IRREDUCIBLE))
    def test_orbit_sizes_cover_the_field(self, m):
        reps, sizes = _frobenius_orbits(m, IRREDUCIBLE[m])
        assert int(sizes.sum()) == 1 << m
        assert reps.size == _orbit_count(m)
        assert not (m % sizes).any()
        assert np.all(np.diff(reps.astype(np.int64)) > 0)
        # 0 and 1 are fixed; the 2^d elements of the subfield GF(2^d), for
        # each d dividing m, are those whose orbit size divides d
        assert reps[:2].tolist() == [0, 1] and sizes[:2].tolist() == [1, 1]
        for d in (d for d in range(1, m + 1) if m % d == 0):
            assert int(sizes[d % sizes == 0].sum()) == 1 << d

    def test_orbit_counts(self):
        # m = 9 has orbit sizes 1, 3 and 9; m = 12 has 1, 2, 3, 4, 6 and 12
        sizes = _frobenius_orbits(9, IRREDUCIBLE[9])[1]
        assert sizes.size == 60
        assert dict(zip(*np.unique(sizes, return_counts=True))) == {1: 2, 3: 2, 9: 56}
        sizes = _frobenius_orbits(12, IRREDUCIBLE[12])[1]
        assert sizes.size == 352
        assert dict(zip(*np.unique(sizes, return_counts=True))) == {
            1: 2, 2: 1, 3: 2, 4: 3, 6: 9, 12: 335
        }


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

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 12, 16, 20])
    def test_in_place_butterfly_keeps_every_bit(self, n):
        # the same adds and subtracts as a fresh (sum, difference) stack per
        # level, so the same bits, on a histogram and on signed input; the
        # four lowest levels run on a 16-row transpose, which n = 3 leaves
        # short of rows, n = 4 fills with one column, and n = 20 runs with
        # 2^16 columns
        rng = np.random.default_rng(40 + n)
        for p in (rng.random(1 << n) / (1 << n), rng.standard_normal(1 << n) * 1e3):
            got = _walsh_spectrum(p)
            assert got.shape == p.shape and got.dtype == np.float64
            assert got.tobytes() == walsh_by_stacked_levels(p).tobytes()


class TestBuild:
    def test_single_coordinate_unbiased(self):
        space = build_binary_space(1, 0.3)
        assert measure_bias(space) == pytest.approx(0.0, abs=1e-12)

    def test_declared_epsilon_and_construction_bound_over_grid(self):
        # the powering argument promises bias <= (n-1)/2^m, stronger than
        # the requested epsilon
        for n in (2, 5, 8, 12):
            for eps in (0.5, 0.25, 0.1):
                space = build_binary_space(n, eps)
                measured = measure_bias(space)
                assert measured <= space.declared_epsilon
                assert measured <= (n - 1) / 2**space.field_bits + 1e-12

    def test_seed_bits_grow_logarithmically(self):
        for n in (4, 8, 10, 16):
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
        # no field of 21 bits, no coordinates
        [(5, 21, 0.1), (0, 3, 0.5)],
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

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_coordinates_is_a_value_error(self, n):
        # a bad n, not a capacity limit: exit 2 at the command line, not 3
        with pytest.raises(ValueError, match="n must be >= 1"):
            exhaustive_binary_space(n)


class TestChunkedHistogram:
    # 64 seeds is below 2^m = 128 at m = 7, so a block is one f value; 100
    # and 1000 leave a short last block of f values
    CHUNKS = (1 << 6, 100, 1000)

    @pytest.mark.parametrize(
        "n, eps",
        [(10, 0.1), (2, 0.1), (1, 0.1)],  # m = 7; n < m; n = 1
    )
    def test_matches_seed_loop_across_chunk_sizes(self, monkeypatch, n, eps):
        # every seed's bits by scalar gf2_mul powering, counted per cell
        space = build_binary_space(n, eps)
        expected = np.bincount(cells_by_seed_loop(space), minlength=1 << n) / space.seed_count
        for chunk in self.CHUNKS:
            monkeypatch.setattr(binary_bias, "_SEED_CHUNK", chunk)
            hist = build_binary_space(n, eps).support_histogram()
            assert np.array_equal(hist, expected), chunk

    def test_estimate_matches_seed_loop_with_small_blocks(self, monkeypatch):
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", 1 << 6)
        monkeypatch.setattr(estimators, "_BLOCK", 3)  # 4 cells: blocks of 3 and 1, each padded to 8
        a = random_nonneg(np.random.default_rng(21), 2)
        space = build_binary_space(2, 0.1)
        est = estimate_derandomized(a, space)
        brute = space_mean_by_seed_loop(space, lambda p: gly_batch(a, 1 - 2 * np.array([p]))[0])
        assert est.value == pytest.approx(brute, rel=1e-12, abs=1e-12)

    def test_estimate_blocks_do_not_change_value(self, monkeypatch):
        a = random_nonneg(np.random.default_rng(22), 10)
        space = build_binary_space(10, 0.1)
        whole = estimate_derandomized(a, space).value
        monkeypatch.setattr(estimators, "_BLOCK", 7)
        assert estimate_derandomized(a, space).value == whole


def _assert_support_is_parity_map(space, cells):
    """The merged support blocks and support_histogram equal the per-seed
    cells counted per cell: uint32 cell indices, which the space's place
    values decode into the index bits, and count / seed_count floats."""
    idx, counts = np.unique(cells, return_counts=True)
    probs = counts / float(space.seed_count)
    got_idx, got_probs = merged_support(space)
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
        "n, eps, rows",
        # representatives per block: m = 7 has 20 orbits, in 7 blocks of
        # three (the last of two); m = 9 has 60, in 9 blocks of seven (the
        # last of four) or 25, 25 and 10. Their 2,560 and 30,720 cells fit
        # in the 2^12 and 2^16 grid cells
        [(12, 0.1, 3), (16, 0.05, 7), (16, 0.05, 25)],
    )
    def test_support_merges_blocks(self, monkeypatch, n, eps, rows):
        space = build_binary_space(n, eps)
        m = space.field_bits
        by_f = binary_cells_by_seed(space).reshape(1 << m, 1 << m)  # [f, r]
        reps, sizes = _frobenius_orbits(m, space.poly)
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", rows << m)
        blocks = list(space.support_blocks())
        assert [c.shape[0] for c, _ in blocks] == [
            min(rows, reps.size - lo) for lo in range(0, reps.size, rows)
        ]
        # the blocks are the representatives' seed-order cells, cut, each
        # row weighted by its orbit size over the seed count
        assert np.array_equal(np.concatenate([c for c, _ in blocks]), by_f[reps])
        probs = np.concatenate([p for _, p in blocks])
        assert probs.shape == (reps.size, 1)
        assert np.array_equal(probs[:, 0] * space.seed_count, sizes)
        # a nonzero cell recurs in a later block, so merging adds counts,
        # not only new cells
        first = blocks[0][0][blocks[0][0] != 0]
        later = np.concatenate([c.ravel() for c, _ in blocks[1:]])
        assert np.intersect1d(first, later).size > 0
        _assert_support_is_parity_map(space, by_f.ravel())

    @pytest.mark.parametrize(
        "space",
        # m = 7: 20 representatives, 2,560 cells; m = 10: 108, 110,592
        # cells; m = 11: 188, 385,024 cells
        [SampleSpace(11, 7, 1.0), build_binary_space(12, 0.02), build_binary_space(16, 0.01)],
        ids=["n11-m7", "n12-m10", "n16-m11"],
    )
    def test_support_is_one_histogram_row_past_the_grid(self, space):
        # the representatives' rows hold more cells than the 2^n grid, so
        # the support is the histogram's occupied cells, each once
        assert _orbit_count(space.field_bits) << space.field_bits > 1 << space.n
        [(cells, probs)] = space.support_blocks()
        hist = space.support_histogram()
        assert cells.shape == probs.shape == (1, np.count_nonzero(hist))
        assert np.array_equal(cells[0], np.flatnonzero(hist))
        assert np.array_equal(probs[0], hist[cells[0]])
        _assert_support_is_parity_map(space, binary_cells_by_seed(space))

    def test_support_is_orbit_rows_up_to_the_grid(self):
        # m = 7: 20 representatives times 128 r values are the 4,096 cells
        # of the n = 12 grid, one row per representative
        space = SampleSpace(12, 7, 1.0)
        assert [c.shape for c, _ in space.support_blocks()] == [(20, 128)]

    # m <= 10 keeps the per-seed oracle at most 2^20 seeds. Representatives
    # come in ascending order, in which the orbit sizes interleave, so every
    # block of fewer rows than representatives cuts an orbit class; rows is
    # capped at the representative count (108 at m = 10)
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 24), st.integers(1, 120))
    @example(10, 24, 7)
    @example(9, 20, 4)
    @example(6, 3, 1)
    def test_orbit_support_matches_seed_map(self, m, n, rows):
        space = SampleSpace(n, m, 1.0)
        rows = min(rows, _frobenius_orbits(m, space.poly)[0].size)
        want_idx, want_counts = np.unique(binary_cells_by_seed(space), return_counts=True)
        with mock.patch.object(binary_bias, "_SEED_CHUNK", rows << m):
            idx, probs = merged_support(space)
        assert idx.dtype == np.uint32 and probs.dtype == np.float64
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(probs, want_counts / float(space.seed_count))

    def test_column_map_sees_one_element_per_orbit(self, monkeypatch):
        # n = 20, eps = 0.05: m = 9, whose 512 elements fall in 60 orbits;
        # enumerating every f would show the column map all 512
        seen = []
        column_bits = SampleSpace._column_bits

        def spy(self, f):
            seen.append(f.copy())
            return column_bits(self, f)

        monkeypatch.setattr(SampleSpace, "_column_bits", spy)
        space = build_binary_space(20, 0.05)
        assert space.field_bits == 9
        list(space.support_blocks())
        f = np.concatenate(seen)
        assert f.size == 60
        assert sorted(f.tolist()) == [min(o) for o in _orbits_by_scalar_squaring(9)]

    @pytest.mark.slow
    def test_support_matches_parity_map_at_m12(self):
        # n = 24, eps = 0.01: m = 12, orbit sizes 1, 2, 3, 4, 6 and 12,
        # 2^24 seeds on 1,372,457 cells
        space = build_binary_space(24, 0.01)
        assert space.field_bits == 12
        want_idx, want_counts = np.unique(binary_cells_by_seed(space), return_counts=True)
        idx, probs = merged_support(space)
        assert idx.dtype == np.uint32 and idx.size == 1372457
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(probs, want_counts / float(space.seed_count))

    def test_estimate_memory_at_n24(self):
        # 2^18 seeds in one block of 60 x 512 cells: the estimate streams the
        # block through the kernel, never the 2^24-cell grid (128 MiB as
        # float64)
        a = random_nonneg(np.random.default_rng(1024), 24)
        space = build_binary_space(24, 0.05)
        tracemalloc.start()
        try:
            estimate_derandomized(a, space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 << 20

    # (n, eps, estimate_derandomized(...).value.real.hex()): each is within
    # 1.5 ulp of a longdouble sum over every seed. The mean sums one row per
    # orbit representative, or at (12, 0.02) and (16, 0.01), whose rows
    # outnumber the 2^n grid cells, one row of the histogram's occupied
    # cells; so how the rows are cut into blocks must not move a bit of it
    PINNED = [
        (12, 0.1, "0x1.a5cd41023f6b2p+25"),
        (12, 0.02, "0x1.3673cd23242c0p+23"),
        (16, 0.05, "0x1.42a7721811ab0p+40"),
        (16, 0.01, "0x1.ef92c6869a036p+37"),
        (20, 0.05, "0x1.69c8a1ddce090p+59"),
        (20, 0.02, "0x1.b5a5aebc515bap+58"),
    ]

    @pytest.mark.blas_pinned
    @pytest.mark.parametrize("n, eps, value", PINNED, ids=[f"n{n}-eps{e}" for n, e, _ in PINNED])
    def test_estimate_bits_are_pinned(self, n, eps, value):
        a = random_nonneg(np.random.default_rng(1000 + n), n)
        est = estimate_derandomized(a, build_binary_space(n, eps))
        assert est.value.real.hex() == value
        assert est.value.imag == 0.0

    @pytest.mark.blas_pinned
    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("n, eps, value", PINNED, ids=[f"n{n}-eps{e}" for n, e, _ in PINNED])
    def test_estimate_bits_do_not_depend_on_seed_chunk(self, monkeypatch, n, eps, value, rows):
        # one or three representatives per block, where the default puts
        # them all in one block; a histogram row counts the same blocks
        a = random_nonneg(np.random.default_rng(1000 + n), n)
        space = build_binary_space(n, eps)
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", rows << space.field_bits)
        assert len(list(space._rows())) > 1
        assert estimate_derandomized(a, space).value.real.hex() == value

    # m <= 10 keeps the per-seed oracle at most 2^20 seeds
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.integers(1, 10), st.integers(1, 12), st.integers(0, 2**32 - 1))
    @example(10, 12, 0)
    @example(1, 1, 0)
    def test_streamed_mean_within_summation_bound(self, m, n, seed):
        # the kernel's value at every cell, counted once per seed and summed
        # in longdouble, against the streamed mean: no term of it goes
        # through more than D roundings (its weighting, the sum of its row,
        # the sum of the row sums, one more for the longdouble sum), so
        # the error is at most gamma_D sum p |v|, gamma_D = D u / (1 - D u)
        space = SampleSpace(n, m, 1.0)
        a = random_nonneg(np.random.default_rng(seed), n)
        grid = gly_batch(a, index_signs_by_shifts(np.arange(1 << n), space.places)).real
        per_seed = grid[binary_cells_by_seed(space)].astype(np.longdouble)
        want = np.sum(per_seed) / space.seed_count
        blocks = list(space.support_blocks())
        rows = sum(c.shape[0] for c, _ in blocks)
        depth = 1 + _sum_depth(max(c.shape[1] for c, _ in blocks)) + _sum_depth(rows) + 1
        scale = sum(float(np.sum(p * np.abs(grid[c]))) for c, p in blocks)
        est = estimate_derandomized(a, space)
        assert est.value.imag == 0.0
        u = 2.0**-53
        bound = depth * u / (1 - depth * u) * scale
        assert abs(np.longdouble(est.value.real) - want) <= bound


class TestDescriptor:
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

    def test_rejects_malformed_lines(self):
        for text in (
            # no coordinates
            "binary n=0 m=3 eps=0.5",
            "binary n=-2 m=3 eps=0.5",
            "binary n=0 m=0 poly=0x0 eps=0 mode=exhaustive",
            # fields missing, or a poly that is not the field's
            "complex k=1 s=1",
            "binary n=4",
            "binary n=4 m=5 poly=0x99 eps=0.5",
        ):
            with pytest.raises(DescriptorError):
                space_from_descriptor(text)

    def test_uniform_space_from_the_fields_it_cannot_derive(self):
        # m = 0 is the uniform space; poly and mode are derived
        space = space_from_descriptor("binary n=8 m=0 eps=0")
        assert space.exhaustive and space.n == 8
        assert space.descriptor() == exhaustive_binary_space(8).descriptor()
        for text in ("binary n=8 m=0 eps=0.5", "binary n=8 m=21 eps=0.25"):
            with pytest.raises(DescriptorError):
                space_from_descriptor(text)
        with pytest.raises(CapacityError):
            space_from_descriptor("binary n=25 m=0 eps=0")

    def test_reads_either_kind(self):
        assert space_from_descriptor("complex s=1,2 eps=0").moduli == (2, 3)
        for text in ("martian x=1", "", "binary-ish n=4 m=3 eps=0.5"):
            with pytest.raises(DescriptorError, match="unknown space descriptor kind"):
                space_from_descriptor(text)

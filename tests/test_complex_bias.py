import cmath
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permest import complex_bias
from permest.binary_bias import (
    SampleSpace,
    build_binary_space,
    exhaustive_binary_space,
    measure_bias,
    space_from_descriptor,
)
from permest.complex_bias import (
    BETA,
    GROUP_SIZE,
    P_FRACTION,
    Q_EXPONENT,
    AmplifierParams,
    ComplexSampleSpace,
    CwiseGenerator,
    StrongProductGenerator,
    build_complex_space,
    choose_prime,
    cwise_batch,
    exhaustive_complex_space,
    measure_complex_bias,
    strong_fraction,
    theory_ell,
    theory_seed_bits,
    walk_batch,
    _base_vertex_bits,
    _radix,
    _strong_generator,
)
from permest.errors import CapacityError, DescriptorError

from oracles import (
    complex_histogram_by_seed,
    cwise_horner,
    mgg_step,
    strong_cell_counts_by_seed,
    strong_fraction_by_seed,
    strong_product_batch,
    theta_strong,
    walk_failure_fraction,
)


class TestThetaStrong:
    def test_minus_one(self):
        assert theta_strong(-1 + 0j, math.pi / 8)

    def test_plus_one(self):
        assert not theta_strong(1 + 0j, 0.1)

    def test_boundary_inclusive(self):
        lam = cmath.exp(1j * math.pi / 8)
        assert theta_strong(lam, math.pi / 8)


class TestConstants:
    def test_beta_identity(self):
        assert abs(BETA - 0.5 * abs(1 + cmath.exp(1j * math.pi / 8))) <= 1e-15
        assert BETA == pytest.approx(math.cos(math.pi / 16), abs=1e-15)

    def test_group_size_floor(self):
        assert (15 / 16) ** GROUP_SIZE <= 1 / 3 < (15 / 16) ** (GROUP_SIZE - 1)
        assert P_FRACTION == 1.0 / (2 * GROUP_SIZE)

    def test_theory_ell_meets_targets(self):
        for eps in (0.5, 0.25, 0.1, 0.01):
            ell = theory_ell(eps)
            assert BETA ** (P_FRACTION * ell) <= eps / 2
            assert 0.5 ** (Q_EXPONENT * ell) <= eps / 2

    def test_theory_seed_bits_logarithmic(self):
        # linear in log(1/eps) at fixed moduli, with explicit slack constants
        for k, mods in [(1, (2,)), (3, (2, 3, 2))]:
            bits = [theory_seed_bits(mods, eps) for eps in (0.5, 0.05, 0.005)]
            assert bits[0] < bits[1] < bits[2]
            for eps, b in zip((0.5, 0.05, 0.005), bits):
                assert b <= 8000 * (1 + math.log2(1 / eps)) + 8000 * len(mods)


class TestChoosePrime:
    def test_floor_is_two_c(self):
        assert choose_prime(2, (2, 2)) == 17
        assert choose_prime(1, (4,)) == 17

    def test_large_k_dominates(self):
        assert choose_prime(20, (2,)) == 23

    def test_large_modulus_dominates(self):
        assert choose_prime(2, (30, 2)) == 31


class TestCwise:
    def test_constant_polynomial(self):
        gen = CwiseGenerator(17, (2, 3, 4), 1)
        for seed in range(17):
            assert cwise_batch(gen, np.array([seed]))[0].tolist() == [seed % 2, seed % 3, seed % 4]

    def test_seed_range(self):
        gen = CwiseGenerator(17, (2, 2), 2)
        with pytest.raises(ValueError):
            cwise_batch(gen, np.array([17 * 17]))

    def test_validation(self):
        with pytest.raises(ValueError):
            CwiseGenerator(15, (2, 2), 2)  # not prime
        with pytest.raises(ValueError):
            CwiseGenerator(3, (2, 2, 2, 2), 2)  # prime <= k
        with pytest.raises(ValueError):
            CwiseGenerator(3, (5,), 2)  # prime <= modulus

    def test_marginal_statistical_distance(self):
        gen = CwiseGenerator(11, (2, 3, 4), 2)
        f = cwise_batch(gen, np.arange(gen.seed_count))
        for i, m in enumerate(gen.moduli):
            counts = np.bincount(f[:, i], minlength=m) / gen.seed_count
            sd = 0.5 * np.abs(counts - 1.0 / m).sum()
            assert sd <= (m) / gen.prime

    def test_pairwise_joint_near_uniform(self):
        # exhaustive seed enumeration, pairwise joint vs product-uniform
        gen = CwiseGenerator(11, (2, 3, 4), 2)
        f = cwise_batch(gen, np.arange(gen.seed_count))
        for i, j in itertools.combinations(range(3), 2):
            mi, mj = gen.moduli[i], gen.moduli[j]
            joint = np.zeros((mi, mj))
            for a, b in zip(f[:, i], f[:, j]):
                joint[a, b] += 1
            joint /= gen.seed_count
            linf = np.abs(joint - 1.0 / (mi * mj)).max()
            assert linf <= 2.0 * mi * mj / gen.prime

    def test_seven_wise_exact_counting(self):
        # full seed space of the degree-6 generator at the smallest legal
        # prime: the joint counts of (f_1..f_7) must factor exactly into the
        # per-coordinate residue counts, with no chi-square approximation
        gen = CwiseGenerator(11, (2,) * 7, 7)
        total = gen.seed_count
        counts = np.zeros(1 << 7, dtype=np.int64)
        chunk = 1 << 21
        for lo in range(0, total, chunk):
            hi = min(lo + chunk, total)
            f = cwise_batch(gen, np.arange(lo, hi, dtype=np.int64))
            idx = np.zeros(hi - lo, dtype=np.int64)
            for i in range(7):
                idx = (idx << 1) | f[:, i]
            counts += np.bincount(idx, minlength=1 << 7)
        marg = {0: 6, 1: 5}  # residue counts of t mod 2 for t in [0, 11)
        for cell in range(1 << 7):
            expected = 1
            for i in range(7):
                expected *= marg[(cell >> (6 - i)) & 1]
            assert counts[cell] == expected


class TestCwiseBatch:
    @pytest.mark.parametrize(
        "prime, moduli, ncoeffs",
        [(17, (5,), 1), (13, (7,), 7), (17, (2, 3, 4), 1), (11, (2, 3, 4, 5, 6), 7)],
    )
    def test_matches_horner_reference(self, prime, moduli, ncoeffs):
        gen = CwiseGenerator(prime, moduli, ncoeffs)
        rng = np.random.default_rng(ncoeffs)
        seeds = np.concatenate(
            ([0, gen.seed_count - 1], rng.integers(0, gen.seed_count, size=300))
        )
        got = cwise_batch(gen, seeds)
        assert got.dtype == np.int64 and got.shape == (seeds.shape[0], len(moduli))
        for seed, row in zip(seeds.tolist(), got.tolist()):
            assert tuple(row) == cwise_horner(gen, seed)

    def test_empty_batch_and_range(self):
        gen = CwiseGenerator(11, (2, 3), 2)
        assert cwise_batch(gen, np.array([], dtype=np.int64)).shape == (0, 2)
        for bad in ([-1], [0, gen.seed_count]):
            with pytest.raises(ValueError):
                cwise_batch(gen, np.array(bad))


class TestStrongProduct:
    @pytest.mark.parametrize("k", [4, 5, 8, 16])
    def test_sparsifier_densities(self, k):
        # with only mixing bit h set, the generator's level count of
        # coordinate i is 1 where its hash value v_i is below 2^(B-h+1):
        # over every (alpha, beta) seed of the hash, exactly a 2^(1-h)
        # fraction for h >= 2, and every seed at levels 0 and 1
        gen = StrongProductGenerator((2,) * k)
        hash_seeds = np.arange(gen.n_v, dtype=np.int64)
        for h in range(gen.hmax + 1):
            kept = gen._level_counts(hash_seeds + gen.n_v * (1 << h)).sum(axis=0)
            assert np.all(kept == gen.n_v >> max(h - 1, 0))

    def test_floor_single_binary_coordinate(self):
        assert strong_fraction((2,), (1,)) >= 1.0 / 16.0

    def test_floor_spec_moduli(self):
        moduli = (2, 3, 2)
        for e in itertools.product(range(2), range(3), range(2)):
            if not any(e):
                continue
            assert strong_fraction(moduli, e) >= 1.0 / 16.0

    def test_zero_exponent_rejected(self):
        with pytest.raises(ValueError):
            strong_fraction((2, 3), (0, 0))
        # exponents that vanish mod the moduli index the trivial character too
        with pytest.raises(ValueError):
            strong_fraction((2, 3), (2, 3))

    def test_frozen_fraction_values(self):
        # regression anchors from exhaustive enumeration
        assert strong_fraction((2,), (1,)) == pytest.approx(4.0 / 17.0, abs=1e-12)
        assert strong_fraction((2, 3, 2), (0, 1, 0)) == pytest.approx(
            0.4852941176470588, abs=1e-12
        )

    @pytest.mark.parametrize("moduli", [(3,), (4, 3), (2, 3, 2), (40, 2, 2), (200,), (2, 2, 2, 2)])
    def test_cell_index_matches_sample_batch(self, moduli):
        # the index sums residue rows per hash/mixing setting; (40, 2, 2)
        # has 68,921 c-wise seeds, exponents of (200,) do not fit in int8,
        # and k = 4 reaches level 2, where coordinates get different level
        # counts. Under the C-order place values and under those of sums of
        # three outputs, whose coordinates are widened to 3 * (m_i - 1) + 1
        gen = StrongProductGenerator(moduli)
        rng = np.random.default_rng(len(moduli))
        seeds = np.concatenate(([0, gen.seed_count - 1], rng.integers(0, gen.seed_count, 5000)))
        outputs = strong_product_batch(gen, seeds)
        for places in (_radix([3 * (m - 1) + 1 for m in moduli]), _radix(moduli)):
            index = gen.cell_index(places)
            assert index.dtype == np.int64 and index.shape == (gen.seed_count,)
            assert np.array_equal(index[seeds], outputs @ places)
        # every residue of every coordinate is some seed's output
        cells = np.bincount(index, minlength=math.prod(moduli)).reshape(moduli)
        for i, m in enumerate(moduli):
            assert np.all(np.moveaxis(cells, i, 0).reshape(m, -1).any(axis=1))

    @pytest.mark.parametrize("moduli", [(2, 3, 2), (4, 3), (3,), (4, 4, 4), (3, 3, 2)])
    def test_cell_counts_match_per_seed_mean(self, moduli):
        # the cached per-cell counts weight each grid cell's arc test; the
        # result is the same float as the mean over every seed
        gen = _strong_generator(moduli)
        assert np.array_equal(gen.cell_counts(), strong_cell_counts_by_seed(gen))
        for e in itertools.product(*(range(m) for m in moduli)):
            if any(e):
                assert strong_fraction(moduli, e) == strong_fraction_by_seed(gen, e)

    def test_tables_refused_over_the_cap(self, monkeypatch):
        # neither table is built past TABLE_LIMIT seeds; (3,) has 136
        monkeypatch.setattr("permest.complex_bias.TABLE_LIMIT", 135)
        gen = StrongProductGenerator((3,))
        assert gen.seed_count == 136
        for table in (lambda: gen.cell_index(_radix((3,))), gen.cell_counts):
            with pytest.raises(CapacityError, match="exceed the seed-table cap"):
                table()

    def test_mixing_bit_case_analysis(self):
        # lambda pi/4-strong: if the fixed cofactor is pi/8-strong, selecting
        # it off keeps the product strong; otherwise selecting lambda on
        # makes it strong
        for lam_arg in np.linspace(-math.pi, math.pi, 97):
            if abs(lam_arg) < math.pi / 4:
                continue
            lam = cmath.exp(1j * lam_arg)
            for cof_arg in np.linspace(-math.pi, math.pi, 89):
                cof = cmath.exp(1j * cof_arg)
                if theta_strong(cof, math.pi / 8):
                    assert theta_strong(cof * lam**0, math.pi / 8)
                else:
                    assert theta_strong(cof * lam, math.pi / 8)


class TestCharacterOrthogonality:
    def test_roots_sum_to_zero(self):
        for m in range(2, 9):
            roots = np.exp(2j * np.pi * np.arange(m) / m)
            for e in range(1, m):
                assert abs(np.mean(roots**e)) <= 1e-12
            assert np.mean(roots**0) == pytest.approx(1.0)
            assert abs(np.mean(roots**m) - 1.0) <= 1e-12


class TestAmplify:
    def test_walk_length_one_uniform(self):
        amp = AmplifierParams(6, 1)
        verts = walk_batch(amp, np.arange(64))
        assert sorted(verts[:, 0].tolist()) == list(range(64))

    @pytest.mark.parametrize("vertex_bits", [2, 6])
    def test_each_choice_matches_scalar_step_rule(self, vertex_bits):
        # every vertex under every choice, so x +- 2y etc. wrap at the mask
        half = vertex_bits // 2
        size = 1 << half
        amp = AmplifierParams(vertex_bits, 2)
        vertices = np.arange(1 << vertex_bits, dtype=np.int64)
        for c in range(8):
            nxt = walk_batch(amp, vertices | (c << vertex_bits))[:, 1]
            for v, w in zip(vertices.tolist(), nxt.tolist()):
                x, y = mgg_step(v >> half, v & (size - 1), c, size)
                assert w == (x << half) | y

    def test_long_walk_matches_scalar_steps(self):
        amp = AmplifierParams(6, 5)
        rng = np.random.default_rng(11)
        seeds = rng.integers(0, 1 << amp.seed_bits, size=200)
        for seed, walk in zip(seeds.tolist(), walk_batch(amp, seeds).tolist()):
            x, y = (seed >> 3) & 7, seed & 7
            expected = [(x << 3) | y]
            for t in range(1, amp.walk_length):
                x, y = mgg_step(x, y, (seed >> (6 + 3 * (t - 1))) & 7, 8)
                expected.append((x << 3) | y)
            assert walk == expected

    def test_density_one_always_hits(self):
        amp = AmplifierParams(6, 4)
        good = np.ones(64, dtype=bool)
        assert walk_failure_fraction(amp, good) == 0.0

    def test_exhaustive_small_case(self):
        amp = AmplifierParams(6, 4)
        rng = np.random.default_rng(2026)
        for _ in range(5):
            good = np.zeros(64, dtype=bool)
            good[rng.permutation(64)[:42]] = True
            frac = walk_failure_fraction(amp, good)
            # enumerated range for density-2/3 sets at this scale: 0.15-0.19
            assert frac < 0.25

    def test_sampled_medium_case(self):
        amp = AmplifierParams(10, 16)
        rng = np.random.default_rng(7)
        good = np.zeros(1024, dtype=bool)
        good[rng.permutation(1024)[:683]] = True
        frac = walk_failure_fraction(amp, good, sample_seeds=20000, rng_seed=1)
        assert frac < 0.1

    def test_size_mismatch(self):
        amp = AmplifierParams(6, 4)
        with pytest.raises(ValueError):
            walk_failure_fraction(amp, np.ones(32, dtype=bool))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AmplifierParams(5, 4)  # odd vertex bits
        with pytest.raises(ValueError):
            AmplifierParams(6, 0)


class TestBuild:
    def test_fallback_small_grids(self):
        for moduli, eps in [((2, 2), 0.5), ((3,), 0.3)]:
            space = build_complex_space(moduli, eps)
            assert space.exhaustive
            assert measure_complex_bias(space) <= max(eps, 1e-12)

    def test_forced_without_ell_capacity_error(self):
        # the full-strength plan is never enumerable
        with pytest.raises(CapacityError, match="seed bits"):
            build_complex_space((2, 2), 0.25, force_construction=True)

    def test_forced_small_assembly_certified(self):
        space = build_complex_space((3,), 0.55, force_construction=True, ell=3)
        assert not space.exhaustive
        # frozen from exhaustive enumeration of all 2^17 seeds
        assert measure_complex_bias(space) == pytest.approx(0.5182967110569197, abs=1e-9)

    def test_forced_assembly_too_weak(self):
        with pytest.raises(CapacityError, match="measured bias"):
            build_complex_space((3,), 0.1, force_construction=True, ell=2)

    def test_forced_assembly_over_budget(self):
        with pytest.raises(CapacityError):
            build_complex_space((2, 2), 0.5, force_construction=True, ell=12)

    @pytest.mark.parametrize("ell", [7, 9])
    def test_walks_past_the_enumeration_cap_name_it(self, ell):
        # 2^33 and 2^41 seeds: both are refused by the 2^24-seed cap the
        # audit enumerates, not by a seed-bit cap of their own
        with pytest.raises(CapacityError, match="exceed the enumeration cap"):
            build_complex_space((3,), 0.1, ell=ell)

    def test_full_strength_refusal_names_the_enumeration_cap(self):
        with pytest.raises(CapacityError, match=r"7242 seed bits, past the 2\^24-seed"):
            build_complex_space((3,) * 13, 0.1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            build_complex_space((1, 2), 0.5)
        with pytest.raises(ValueError):
            build_complex_space((2, 2), 0.0)
        # ell = 0 is the uniform space, which exhaustive_complex_space builds
        with pytest.raises(ValueError, match="ell must be >= 1"):
            build_complex_space((3,), 0.5, ell=0)

    def test_space_derives_what_the_build_assembled(self):
        gen = _strong_generator((3,))
        amp = AmplifierParams(_base_vertex_bits(gen.seed_count), 2)
        space = ComplexSampleSpace((3,), 0.7, 2)
        assert space.base is gen
        assert space.amplifier == amp
        assert space.seed_bits == amp.seed_bits + 2
        assert space.descriptor() == (
            "complex k=1 s=2 p=17 c=7 r=8 l=2 eps=0.69999999999999996 mode=constructed "
            "t=1 pfrac=0.027777777777777776 q=0.027777777777777776"
        )
        assert space.descriptor() == build_complex_space((3,), 0.7, ell=2).descriptor()
        # the space of c07 and c08
        assert build_complex_space((2, 2), 0.55, ell=3).seed_bits == 23
        assert SampleSpace(5, 0, 0.0).descriptor() == exhaustive_binary_space(5).descriptor()

    def test_explicit_ell_builds_without_force(self):
        # a grid of at most 2^20 cells gets the walk length it is given
        forced = build_complex_space((4,), 0.5, force_construction=True, ell=4)
        space = build_complex_space((4,), 0.5, ell=4)
        assert not space.exhaustive
        assert space.descriptor() == forced.descriptor()
        assert space.support_histogram().tobytes() == forced.support_histogram().tobytes()

    @pytest.mark.parametrize("moduli", [(0,), (1, 2)])
    def test_space_rejects_moduli_below_two(self, moduli):
        # (0,) divided by zero and (1, 2) built a space
        with pytest.raises(ValueError):
            ComplexSampleSpace(moduli, 0.5)
        with pytest.raises(ValueError):
            exhaustive_complex_space(moduli)
        with pytest.raises(ValueError):
            build_complex_space(moduli, 0.5, ell=1)

    def test_oversized_grid_without_force_still_capacity_error(self):
        # too many grid points for the exhaustive fallback, and the
        # full-strength pipeline is far over the seed cap
        with pytest.raises(CapacityError):
            build_complex_space((3,) * 13, 0.5)


class TestMeasure:
    def test_agrees_with_binary_audit_on_shared_distribution(self):
        # all-binary moduli: the roots-of-unity character sums and the
        # parity character sums are the same set of numbers
        binary = build_binary_space(4, 0.5)
        lifted = exhaustive_complex_space((2, 2, 2, 2))
        hist = binary.support_histogram()
        # the binary cell index uses bit i for coordinate i (little-endian),
        # the grid layout is C-order (last coordinate fastest): transpose
        lifted._hist = hist.reshape((2, 2, 2, 2), order="F")
        lifted.seed_count = binary.seed_count
        assert measure_complex_bias(lifted) == pytest.approx(
            measure_bias(binary), abs=1e-12
        )


def _unaudited(moduli, ell):
    """A constructed space without the audit that would reject it above its
    declared eps."""
    return ComplexSampleSpace(moduli, 0.9, ell)


def _paths_taken(space) -> list[str]:
    """Builds the space's histogram; the walk paths it ran, in call order."""
    ran = []

    def recorder(name):
        real = getattr(complex_bias, f"_{name}_walks")
        return lambda *args: ran.append(name) or real(*args)

    with mock.patch.object(complex_bias, "_count_walks", recorder("count")), mock.patch.object(
        complex_bias, "_enumerate_walks", recorder("enumerate")
    ):
        space.support_histogram()
    return ran


def _expected_path(space) -> list[str]:
    """The size rule: count the walks when (ell - 1) * 16 * V * size updates
    are fewer than enumeration's 9 * walks * 2^(ell-1), walks one vertex
    short; no walk path at ell = 1."""
    ell = space.ell
    if ell == 1:
        return []
    vertices = 1 << space.amplifier.vertex_bits
    size = math.prod(ell * (m - 1) + 1 for m in space.moduli)
    walks = 1 << (space.amplifier.seed_bits - 3)
    return ["count"] if (ell - 1) * 16 * vertices * size < 9 * walks << (ell - 1) else ["enumerate"]


class TestGeneratorConsistency:
    @pytest.mark.parametrize(
        "moduli, ell", [((3,), 1), ((3,), 2), ((3,), 3), ((4,), 2), ((2, 2), 1)]
    )
    @pytest.mark.parametrize("walks_per_block", [1, 3, None])
    def test_histogram_matches_per_seed_enumeration(
        self, monkeypatch, moduli, ell, walks_per_block
    ):
        # one or three walks (enumerated one vertex short) per block put
        # block edges (and, for three, a partial last block) between every
        # few walks
        if walks_per_block is not None:
            monkeypatch.setattr(
                "permest.complex_bias._SEED_BLOCK", walks_per_block << (ell - 1)
            )
        space = _unaudited(moduli, ell)
        assert np.array_equal(space.support_histogram(), complex_histogram_by_seed(space))

    # every modulus below 17 keeps p = 17, so k fixes the base seed count
    # (136, 4,624 or 314,432) and the vertex bits (8, 14 or 20): these are
    # the (k, ell) with at most 2^21 seeds, where the oracle stays fast. At
    # k = 1 the walks are counted at ell = 4, counted or enumerated at
    # ell = 3 by the drawn modulus (m <= 3 counts), and enumerated at ell = 2;
    # at k = 2, ell = 2 they are enumerated
    @pytest.mark.parametrize("k, ell", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2), (3, 1)])
    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(data=st.data())
    def test_histogram_matches_per_seed_enumeration_anywhere(self, k, ell, data):
        # enumerated walks (one vertex short) fall into 1 to 64 blocks, the
        # last one partial
        moduli = tuple(data.draw(st.lists(st.integers(2, 7), min_size=k, max_size=k)))
        space = _unaudited(moduli, ell)
        walks = 1 << (space.amplifier.seed_bits - 3)
        per_block = data.draw(st.integers(-(-walks // 64), walks))
        with mock.patch("permest.complex_bias._SEED_BLOCK", per_block << (ell - 1)):
            ran = _paths_taken(space)
        assert ran == _expected_path(space)
        assert np.array_equal(space.support_histogram(), complex_histogram_by_seed(space))

    @pytest.mark.parametrize(
        "moduli, ell, path",
        [
            ((4,), 4, ["count"]),
            ((3,), 3, ["count"]),
            ((3, 3), 2, ["enumerate"]),
            ((4,), 2, ["enumerate"]),
            ((2, 2), 3, ["enumerate"]),
            ((3, 2), 1, []),
        ],
    )
    def test_size_rule_picks_the_path(self, monkeypatch, moduli, ell, path):
        # counting costs (ell - 1) * 16 * V * size updates, enumeration
        # 9 * walks * 2^(ell-1) for its walks one vertex short: (4,) ell = 4
        # counts 159,744 against 1,179,648 and (3, 3) ell = 2 enumerates
        # 294,912 against 6,553,600. (2, 2) ell = 3 is the space of c07
        ran = []
        for name in ("count", "enumerate"):
            monkeypatch.setattr(
                f"permest.complex_bias._{name}_walks",
                lambda f, ell, size, name=name: ran.append(name) or np.zeros(size, dtype=np.int64),
            )
        _unaudited(moduli, ell).support_histogram()
        assert ran == path

    @pytest.mark.parametrize("moduli, ell", [((3,), 1), ((4,), 2), ((4,), 4), ((3, 3), 2), ((2, 2), 3)])
    def test_histogram_walks_one_vertex_short(self, monkeypatch, moduli, ell):
        # enumeration sends its walks through walk_batch one vertex short,
        # exactly walks/8 rows, and takes every vertex's 8 successors from
        # the move rule itself: no walk_batch call is longer than ell - 1
        # vertices. Counting, and ell = 1, send no rows at all
        calls = []

        def spy(params, seeds):
            calls.append((params.walk_length, len(seeds)))
            return walk_batch(params, seeds)

        monkeypatch.setattr("permest.complex_bias.walk_batch", spy)
        space = _unaudited(moduli, ell)
        ran = _paths_taken(space)
        walks = 1 << space.amplifier.seed_bits
        if ran == ["enumerate"]:
            assert {length for length, _ in calls} == {ell - 1}
            assert sum(rows for _, rows in calls) == walks // 8
        else:
            assert calls == []

    @pytest.mark.slow
    def test_widest_counted_space_matches_per_seed_enumeration(self):
        # (24,) ell = 4, p = 29: 2^21 seeds whose sums span 93 widened
        # values, the widest k = 1 range the size rule still counts
        # (48 * size < 4,608 needs size < 96), folded mod 24
        space = _unaudited((24,), 4)
        assert space.seed_bits == 21 and space.base.prime == 29
        assert _paths_taken(space) == ["count"]
        assert np.array_equal(space.support_histogram(), complex_histogram_by_seed(space))

    @pytest.mark.slow
    def test_cell_counts_match_per_seed_cells_at_four_levels(self):
        # k = 4 reaches level 2, whose sparsifier keeps half of the hash
        # seeds: 10,690,688 seeds
        gen = StrongProductGenerator((2, 2, 2, 2))
        assert gen.hmax == 2 and gen.seed_count == 10690688
        assert np.array_equal(gen.cell_counts(), strong_cell_counts_by_seed(gen))


class TestDescriptor:
    def test_walk_length_and_mode_are_read_as_fields(self):
        # the grid, l (0 when omitted) and eps fix the space; mode is derived
        # from l and compared like any other field
        space = space_from_descriptor("complex s=2 eps=0")
        assert space.exhaustive and space.moduli == (3,)
        assert space.descriptor() == exhaustive_complex_space((3,)).descriptor()
        for text in (
            # l is omitted, so 0: the uniform space, whose mode is exhaustive
            "complex k=1 s=2 mode=constructed eps=0.5",
            "complex s=2 eps=0 mode=walk",
            "complex s=2 l=x eps=0",
            "complex l=0 eps=0",
        ):
            with pytest.raises(DescriptorError):
                space_from_descriptor(text)

    def test_complex_module_is_not_public_reader(self):
        assert "complex_space_from_descriptor" not in complex_bias.__all__
        assert not hasattr(complex_bias, "complex_space_from_descriptor")

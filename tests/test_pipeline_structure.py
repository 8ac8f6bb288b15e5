"""Cross-layer structural checks: the assembled sample spaces must equal the
composition of their public building blocks, the deterministic error bound
must hold in its sharper intermediate form, and the package must export its
public names from their defining modules."""

import importlib

import numpy as np
import pytest

import permest
from permest import binary_bias
from permest.binary_bias import (
    IRREDUCIBLE,
    _gf2_mul_batch,
    build_binary_space,
    exhaustive_binary_space,
    measure_bias,
)
from permest.complex_bias import (
    AmplifierParams,
    StrongProductGenerator,
    build_complex_space,
    exhaustive_complex_space,
    walk_batch,
)
from permest.estimators import estimate_derandomized, gly_batch
from permest.exact import permanent_gengly_exact, permanent_ryser
from permest.matrices import MultiplicitySpec, expand

from oracles import (
    binary_seed_phases,
    complex_seed_phases,
    decode_cells,
    merged_support,
    random_nonneg,
    strong_product_batch,
)


class TestGeneratorRecomposition:
    def test_assembled_space_equals_component_composition(self):
        # the per-seed oracle is the package's walk and the strong-product
        # seed map, each run as a batch of one, summed under the selector bits
        moduli = (3, 2)
        space = build_complex_space(moduli, 0.7, force_construction=True, ell=2)
        amp, base = space.amplifier, space.base
        rng = np.random.default_rng(0)
        for _ in range(200):
            seed = int(rng.integers(0, space.seed_count))
            walk = walk_batch(amp, np.array([seed & ((1 << amp.seed_bits) - 1)]))[0]
            d_bits = seed >> amp.seed_bits
            total = np.zeros(len(moduli), dtype=np.int64)
            for j, vertex in enumerate(walk.tolist()):
                if (d_bits >> j) & 1:
                    total += strong_product_batch(base, [vertex % base.seed_count])[0]
            expected = tuple((total % moduli).tolist())
            assert complex_seed_phases(space, seed) == expected

    def test_binary_space_generator_matches_powering_definition(self):
        # the package's doubled powers of f, as a batch of one, give the
        # per-seed oracle's bits, whose powers come from the scalar multiply
        space = build_binary_space(40, 0.1)  # m = 9, past the 32-bit cells
        m = space.field_bits
        rng = np.random.default_rng(2)
        for _ in range(200):
            seed = int(rng.integers(0, space.seed_count))
            r, f = seed & ((1 << m) - 1), seed >> m
            powers = space._powers(np.array([f], dtype=np.uint32))[0]
            expected = tuple(int(power & r).bit_count() & 1 for power in powers)
            assert binary_seed_phases(space, seed) == expected


class TestSharperDerandomizedBound:
    def test_error_below_bias_times_all_ones_estimator(self):
        # the deterministic error is at most the measured bias times the
        # all-plus-ones estimator value, a tighter cap than eps * |A|^n
        rng = np.random.default_rng(3)
        space = build_binary_space(7, 0.25)
        eps_hat = measure_bias(space)
        for _ in range(50):
            a = random_nonneg(rng, 7)
            est = estimate_derandomized(a, space)
            exact = permanent_ryser(a)
            cap = eps_hat * abs(gly_batch(a, np.ones((1, 7)))[0])
            assert abs(est.value - exact) <= cap + 1e-9 * max(1.0, cap)


class TestWalkStepsAreBijections:
    def test_every_neighbor_rule_permutes_vertices(self):
        r = 6
        vertices = np.arange(1 << r, dtype=np.int64)
        for c in range(8):
            amp = AmplifierParams(r, 2)
            seeds = vertices | (c << r)
            nxt = walk_batch(amp, seeds)[:, 1]
            assert sorted(nxt.tolist()) == list(range(1 << r))


class TestPairwiseHashTables:
    def test_constant_multiplication_tables_are_linear_bijections(self):
        bits = 3
        field = np.arange(1 << bits, dtype=np.uint32)
        tables = _gf2_mul_batch(field, field[:, None], bits, IRREDUCIBLE[bits])
        # eight coordinates need B = 3 bits: the generator's hash multiplies
        # by every point of GF(8), through the same shared multiply
        gen = StrongProductGenerator((2,) * 8)
        assert gen.gf_bits == bits
        assert np.array_equal(gen._tables, tables)
        for p in range(1, 1 << bits):
            assert sorted(tables[p].tolist()) == list(range(1 << bits))
        # linearity: tab_i XOR tab_j is the table of point i XOR j, so the
        # joint map (alpha, beta) -> (v_i, v_j) is bijective for i != j
        for i in range(1 << bits):
            for j in range(1 << bits):
                assert np.array_equal(tables[i] ^ tables[j], tables[i ^ j])


class TestChunkedExhaustiveMean:
    def test_grid_larger_than_one_chunk(self):
        # 2^17 grid points spans multiple 2^16 enumeration chunks
        rng = np.random.default_rng(4)
        n = 17
        b = (rng.random((n, n)) / n).astype(complex)
        spec = MultiplicitySpec(b, (1,) * n)
        got = permanent_gengly_exact(spec)
        ref = permanent_ryser(expand(spec))
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


SUPPORT_SPACES = {
    "binary built": lambda: build_binary_space(10, 0.1),
    "binary exhaustive": lambda: exhaustive_binary_space(6),
    "complex exhaustive": lambda: exhaustive_complex_space((3, 2, 4)),
    "complex fallback": lambda: build_complex_space((3, 3), 0.2),
    "complex forced ell=2": lambda: build_complex_space((3,), 0.7, force_construction=True, ell=2),
    "complex forced ell=3": lambda: build_complex_space(
        (2, 2), 0.55, force_construction=True, ell=3
    ),
}


class TestSupportProtocol:
    """Every kind of space yields its support as (cells, probs) blocks: 2-D
    flat cell indices (coordinate 0 fastest for binary spaces, the C-order
    grid index for complex ones) that its ``places`` decode, with
    probabilities that broadcast against them and are whole seed counts
    over seed_count."""

    @pytest.mark.parametrize("kind", sorted(SUPPORT_SPACES))
    def test_ascending_cells_with_whole_counts(self, kind):
        self._check(SUPPORT_SPACES[kind]())

    def test_binary_blocks_merged(self, monkeypatch):
        # m = 9: 60 orbit representatives of 512 cells each, fewer cells
        # than the 2^16 grid, so the support is their rows
        space = build_binary_space(16, 0.05)
        monkeypatch.setattr(binary_bias, "_SEED_CHUNK", 16 << space.field_bits)
        assert len(list(space.support_blocks())) == 4
        self._check(space)

    @staticmethod
    def _check(space):
        binary = isinstance(space, binary_bias.SampleSpace)
        for cells, probs in space.support_blocks():
            assert cells.ndim == 2
            assert np.broadcast_shapes(cells.shape, probs.shape) == cells.shape
        idx, probs = merged_support(space)
        cells = decode_cells(space, idx)
        assert cells.shape == (probs.shape[0], len(space.moduli))
        # the estimators decode the indices with the space's place values
        assert np.array_equal((idx[:, None] // space.places) % space.moduli, cells)
        coords = cells.T[::-1] if binary else cells.T
        moduli = space.moduli[::-1] if binary else space.moduli
        index = np.ravel_multi_index(tuple(coords.astype(np.intp)), moduli)
        assert np.array_equal(index, idx)
        assert np.all(np.diff(index) > 0)
        counts = probs * space.seed_count
        assert np.all(counts >= 1.0)
        assert np.array_equal(counts, np.round(counts))
        assert counts.sum() == space.seed_count


class TestPublicApi:
    # every public name of the package
    NAMES = [
        "AmplifierParams", "AmplitudeResult", "BETA", "CapacityError",
        "ComplexSampleSpace", "ConvergenceError", "CwiseGenerator",
        "DescriptorError", "DomainError", "Estimate",
        "GuaranteeReport", "MatrixParseError", "MultiplicitySpec",
        "PermestError", "SampleSpace", "SizeLimitError",
        "SpectralNormResult",
        "amplitude_estimate", "amplitude_exact", "build_binary_space",
        "build_complex_space", "bunching_bound",
        "estimate_derandomized", "estimate_derandomized_multi",
        "estimate_random", "estimate_random_multi", "exhaustive_binary_space",
        "exhaustive_complex_space", "expand", "measure_bias",
        "measure_complex_bias", "parse_matrix", "permanent_gengly_exact",
        "permanent_glynn_exact", "permanent_naive", "permanent_ryser",
        "permanent_upper_bound", "saturating_outcome", "saturating_unitary",
        "serialize_matrix", "spectral_norm", "strong_fraction",
        "transition_matrix",
    ]
    SUBMODULES = [
        "binary_bias", "complex_bias", "errors", "estimators", "exact",
        "matrices", "optics",
    ]

    def test_all_is_unchanged(self):
        assert permest.__all__ == self.NAMES

    def test_names_are_their_defining_modules_objects(self):
        for name in permest.__all__:
            module = importlib.import_module(f"permest.{permest._SOURCE[name]}")
            value = getattr(permest, name)
            assert value is getattr(module, name), name
            # resolved once, then held by the package
            assert vars(permest)[name] is value

    def test_submodules_resolve(self):
        for name in self.SUBMODULES:
            assert getattr(permest, name) is importlib.import_module(f"permest.{name}")

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from permest import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == permest.__all__
        # every name a submodule's __all__ lists resolves, or a star import
        # of that submodule raises
        for name in self.SUBMODULES:
            module = importlib.import_module(f"permest.{name}")
            missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
            assert not missing, (name, missing)

    def test_dir_lists_the_public_names(self):
        assert set(permest.__all__ + self.SUBMODULES) <= set(dir(permest))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="module 'permest' has no attribute 'nonesuch'"):
            permest.nonesuch

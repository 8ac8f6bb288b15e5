import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from permest import estimators
from permest.binary_bias import build_binary_space, exhaustive_binary_space
from permest.complex_bias import build_complex_space, exhaustive_complex_space
from permest.errors import DomainError
from permest.estimators import (
    Estimate,
    estimate_derandomized,
    estimate_derandomized_multi,
    estimate_random,
    estimate_random_multi,
    gengly_batch,
    gly_batch,
    permanent_upper_bound,
    sample_count,
)
from permest.exact import (
    permanent_gengly_exact,
    permanent_glynn_exact,
    permanent_naive,
    permanent_ryser,
)
from permest.matrices import MultiplicitySpec, as_spec, expand, gengly_scale, spectral_norm
from permest.optics import saturating_unitary

from oracles import (
    complex_histogram_by_seed,
    gengly_plain,
    gly_plain,
    index_signs_by_shifts,
    random_complex,
    random_mults,
    random_nonneg,
    sign_vector,
    space_mean_by_seed_loop,
    stdout_per_blas_threads,
)


def _hex(est) -> tuple[str, str]:
    """An estimate's value, bit for bit."""
    return est.value.real.hex(), est.value.imag.hex()


def direct_chunk_mean(x, m, seed):
    """The random-mode mean without a table: one kernel call and one
    pairwise sum per 2^16-sample chunk, on the estimators' sample streams.
    ``x`` is a matrix (gly) or a MultiplicitySpec (gengly)."""
    chunk = estimators._CHUNK
    total = 0j
    if isinstance(x, MultiplicitySpec):
        rng = np.random.default_rng(seed)
        for lo in range(0, m, chunk):
            c = min(chunk, m - lo)
            phases = np.column_stack([rng.integers(0, s + 1, size=c) for s in x.mults])
            total += complex(np.sum(gengly_batch(x, phases)))
    else:
        bitgen = np.random.default_rng(seed).bit_generator
        for lo in range(0, m, chunk):
            signs = estimators._random_signs(bitgen, min(chunk, m - lo), x.shape[0])
            total += complex(np.sum(gly_batch(x, signs)))
    return total / m


class TestGly:
    def test_identity(self):
        assert gly_batch(np.eye(2), np.ones((1, 2)))[0] == 1

    def test_ones_cancellation(self):
        assert gly_batch(np.ones((2, 2)), [[1, -1]])[0] == 0

    def test_mean_over_all_vectors(self):
        rng = np.random.default_rng(0)
        a = random_complex(rng, 5)
        vals = gly_batch(a, np.array([sign_vector(bits, 5) for bits in range(32)]))
        assert abs(vals.sum() / 32 - permanent_naive(a)) <= 1e-10

    def test_matches_plain_oracle(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 4)
        for bits in range(16):
            signs = sign_vector(bits, 4)
            assert gly_batch(a, signs[None])[0] == pytest.approx(gly_plain(a, signs), rel=1e-12)

    def test_batch_matches_scalar(self):
        # each row of a batch has the value of its batch of one
        rng = np.random.default_rng(2)
        a = random_complex(rng, 6)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(50, 6)).astype(float)
        vals = gly_batch(a, signs)
        for row, v in zip(signs, vals):
            assert v == pytest.approx(gly_batch(a, row[None])[0], rel=1e-12)

    @pytest.mark.parametrize("signs", [[[1, 1]], [1, 1, 1], [[[1, 1, 1]]]])
    def test_dimension_mismatch(self, signs):
        # a 1-D sign row, the shape of one point, is refused too
        with pytest.raises(ValueError, match=r"^sign array must be \(M, 3\)$"):
            gly_batch(np.eye(3), signs)

    def test_scaling(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 5)
        c = 1.5 - 0.5j
        x = sign_vector(rng.integers(0, 32), 5)[None]
        assert gly_batch(c * a, x)[0] == pytest.approx(c**5 * gly_batch(a, x)[0], rel=1e-9)

    def test_bounded_by_norm_power(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            a = random_complex(rng, n)
            bound = spectral_norm(a).value ** n
            x = sign_vector(int(rng.integers(0, 1 << n)), n)
            assert abs(gly_batch(a, x[None])[0]) <= bound * (1 + 1e-9)


class TestGenGly:
    def test_all_ones_collapses_to_gly(self):
        rng = np.random.default_rng(5)
        b = random_complex(rng, 4)
        spec = MultiplicitySpec(b, (1,) * 4)
        phases = np.array([[(bits >> i) & 1 for i in range(4)] for bits in range(16)])
        np.testing.assert_allclose(
            gengly_batch(spec, phases), gly_batch(b, 1 - 2 * phases), rtol=0, atol=1e-12
        )

    def test_doubled_column_constant(self):
        # every sample equals the permanent here: 0.5 * |y|^4 = 2
        spec = MultiplicitySpec(np.array([[1.0], [1.0]]), (2,))
        for value in gengly_batch(spec, [[0], [1], [2]]):
            assert value == pytest.approx(2.0, rel=1e-12)

    def test_zero_row(self):
        b = np.array([[0.0, 0.0], [1.0, 2.0], [3.0, 4.0]])
        spec = MultiplicitySpec(b, (2, 1))
        assert gengly_batch(spec, [[1, 0]])[0] == 0

    @pytest.mark.parametrize("phases", [[[0, 0, 0]], [0, 0], [[[0, 0]]]])
    def test_dimension_mismatch(self, phases):
        spec = MultiplicitySpec(np.ones((3, 2)), (2, 1))
        with pytest.raises(ValueError, match=r"^phase array must be \(M, 2\)$"):
            gengly_batch(spec, phases)

    @pytest.mark.parametrize(
        "phases, match",
        [
            ([[-1, 0]], "must lie in"),
            ([[0, -1]], "must lie in"),
            ([[3, 0]], "must lie in"),
            ([[0, 2]], "must lie in"),
            # a cast would truncate phase 0.5 to the valid phase 0
            ([[0.5, 1]], "must be integers"),
        ],
    )
    def test_phase_out_of_range_rejected(self, phases, match):
        # phase -1 used to wrap to phase s; the gathers rely on this check
        spec = MultiplicitySpec(random_complex(np.random.default_rng(4), 3, 2), (2, 1))
        with pytest.raises(ValueError, match=match):
            gengly_batch(spec, np.array([[0, 0], *phases]))

    def test_matches_plain_oracle(self):
        rng = np.random.default_rng(6)
        b = random_complex(rng, 5, 3)
        spec = MultiplicitySpec(b, (2, 2, 1))
        for phases in [(0, 0, 0), (1, 2, 1), (2, 1, 0)]:
            value = gengly_batch(spec, [phases])[0]
            assert value == pytest.approx(gengly_plain(spec, phases), rel=1e-10)

    def test_transposed_phase_view_is_bit_identical(self):
        # estimate_random_multi passes the transpose of a (k, M) draw
        rng = np.random.default_rng(8)
        spec = MultiplicitySpec(random_complex(rng, 6, 3), (3, 2, 1))
        cols = np.stack([rng.integers(0, s + 1, size=5000) for s in spec.mults])
        view = gengly_batch(spec, cols.T)
        c_order = gengly_batch(spec, np.ascontiguousarray(cols.T))
        assert np.array_equal(view.view(np.uint64), c_order.view(np.uint64))

    def test_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            mults = random_mults(rng, n)
            spec = MultiplicitySpec(random_complex(rng, n, len(mults)), mults)
            bound = permanent_upper_bound(spec)
            phases = [int(rng.integers(0, s + 1)) for s in mults]
            assert abs(gengly_batch(spec, [phases])[0]) <= bound * (1 + 1e-9)


# Property tests of the shared batch kernel: every example is checked row by
# row against the plain-loop oracles, with the kernel's block size drawn from
# 1, 3, 7 (ragged last blocks) and the default. Matrices come from a drawn
# seed; derandomize keeps the examples fixed from run to run.
property_settings = settings(derandomize=True, max_examples=100, deadline=None)
block_sizes = st.sampled_from((1, 3, 7, estimators._BLOCK))


def row_close(got, ref, scale):
    """1e-12 relative to the row's largest possible magnitude ``scale``."""
    return abs(got - ref) <= 1e-12 * scale


@st.composite
def gly_inputs(draw, max_n=7, max_rows=40):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        a = rng.uniform(-1.0, 1.0, (n, n))
    else:
        a = random_complex(rng, n)
    rows = draw(st.integers(1, max_rows))
    signs = 1.0 - 2.0 * rng.integers(0, 2, size=(rows, n)).astype(np.float64)
    return a, signs


@st.composite
def gengly_inputs(draw, max_n=7, max_rows=40):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mults = random_mults(rng, n)
    k = len(mults)
    if draw(st.booleans()):
        base = rng.uniform(-1.0, 1.0, (n, k))
    else:
        base = random_complex(rng, n, k)
    rows = draw(st.integers(1, max_rows))
    phases = np.column_stack([rng.integers(0, s + 1, size=rows) for s in mults])
    return MultiplicitySpec(base, mults), phases


def gengly_row_scale(spec):
    """|gengly| <= gengly_scale * prod_i sum_j |b_ij| sqrt(s_j)."""
    root = np.sqrt(np.array(spec.mults, dtype=np.float64))
    return gengly_scale(spec.mults) * float(np.prod(np.abs(spec.base) @ root))


class TestKernelProperties:
    @property_settings
    @given(gly_inputs(), block_sizes)
    def test_gly_batch_matches_plain(self, inputs, block):
        a, signs = inputs
        with mock.patch.object(estimators, "_BLOCK", block):
            vals = gly_batch(a, signs)
        scale = float(np.prod(np.abs(a).sum(axis=1)))
        assert vals.shape == (signs.shape[0],) and vals.dtype == np.complex128
        for row, v in zip(signs, vals):
            assert row_close(v, gly_plain(a, row), scale)

    @property_settings
    @given(gengly_inputs(), block_sizes)
    def test_gengly_batch_matches_plain(self, inputs, block):
        spec, phases = inputs
        with mock.patch.object(estimators, "_BLOCK", block):
            vals = gengly_batch(spec, phases)
        scale = gengly_row_scale(spec)
        assert vals.shape == (phases.shape[0],) and vals.dtype == np.complex128
        for row, v in zip(phases, vals):
            assert row_close(v, gengly_plain(spec, row), scale)

    @property_settings
    @given(gly_inputs(), block_sizes)
    def test_real_input_has_exactly_zero_imaginary_part(self, inputs, block):
        a, signs = inputs
        with mock.patch.object(estimators, "_BLOCK", block):
            for matrix in (a.real, a.real.astype(np.complex128)):
                vals = gly_batch(matrix, signs)
                assert np.all(vals.imag == 0.0)
                assert not np.any(np.signbit(vals.imag))

    @property_settings
    @given(gly_inputs(), block_sizes)
    def test_gly_batch_bounded_by_norm_power(self, inputs, block):
        a, signs = inputs
        with mock.patch.object(estimators, "_BLOCK", block):
            vals = gly_batch(a, signs)
        bound = spectral_norm(a).value ** a.shape[0]
        assert np.all(np.abs(vals) <= bound * (1 + 1e-9))

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_real_rowsum_products_match_plain(self, n):
        # real input takes the (n, B) row-sum layout; ragged last block
        rng = np.random.default_rng(60 + n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(estimators._BLOCK + 9, n))
        vals = estimators._rowsum_products(signs, a.T.copy(), np.prod(signs, axis=1))
        assert not np.any(vals.imag) and not np.any(np.signbit(vals.imag))
        for row, v in zip(signs[::7], vals[::7]):
            ref = gly_plain(a, row)
            assert abs(v - ref) <= 1e-12 * abs(ref)

    def test_default_block_with_ragged_tail(self):
        # more than two default blocks, the last one partial
        rng = np.random.default_rng(23)
        rows = 2 * estimators._BLOCK + 5
        a = random_complex(rng, 3)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(rows, 3)).astype(np.float64)
        vals = gly_batch(a, signs)
        scale = float(np.prod(np.abs(a).sum(axis=1)))
        for row, v in zip(signs, vals):
            assert row_close(v, gly_plain(a, row), scale)
        spec = MultiplicitySpec(random_complex(rng, 3, 2), (2, 1))
        phases = np.column_stack([rng.integers(0, m, size=rows) for m in (3, 2)])
        vals = gengly_batch(spec, phases)
        scale = gengly_row_scale(spec)
        for row, v in zip(phases, vals):
            assert row_close(v, gengly_plain(spec, row), scale)


class TestSampleCount:
    def test_formula(self):
        for eps, delta in [(0.05, 0.01), (0.1, 0.05), (0.3, 0.2)]:
            assert sample_count(eps, delta) == math.ceil(
                4.0 * math.log(4.0 / delta) / eps**2
            )


class TestEstimateRandom:
    def test_zero_matrix(self):
        est = estimate_random(np.zeros((4, 4)), 0.2, 0.1, rng_seed=1)
        assert est.value == 0
        assert est.bound_term == 0.0

    def test_identity_every_sample_is_one(self):
        # Gly on the identity is (prod x)^2 = 1 pointwise
        for seed in (0, 1, 2):
            est = estimate_random(np.eye(12), 0.05, 0.01, rng_seed=seed)
            assert est.value == pytest.approx(1.0, abs=1e-12)
            assert est.bound_term == pytest.approx(1.0, abs=1e-12)

    def test_reproducible(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 6)
        e1 = estimate_random(a, 0.1, 0.05, rng_seed=123)
        e2 = estimate_random(a, 0.1, 0.05, rng_seed=123)
        assert e1.value == e2.value
        assert e1.samples_used == e2.samples_used == sample_count(0.1, 0.05)

    def test_nonneg_hits_guarantee(self):
        rng = np.random.default_rng(9)
        a = random_nonneg(rng, 8)
        exact = permanent_ryser(a)
        est = estimate_random(a, 0.1, 0.01, rng_seed=7)
        assert abs(est.value - exact) <= est.guarantee().additive_error_bound
        assert est.guarantee().confidence == pytest.approx(0.99)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            estimate_random(np.eye(2), 1.5, 0.01)
        with pytest.raises(ValueError):
            estimate_random(np.eye(2), 0.1, 0.0)

    def test_spec_with_repeated_columns_names_the_multi_entry(self):
        rng = np.random.default_rng(24)
        with pytest.raises(ValueError, match="use estimate_random_multi"):
            estimate_random(MultiplicitySpec(random_nonneg(rng, 3, 2), (2, 1)), 0.1)
        # an all-ones spec is its matrix
        a = random_nonneg(rng, 3)
        est = estimate_random(MultiplicitySpec(a, (1, 1, 1)), 0.2, rng_seed=5)
        assert est.value == estimate_random(a, 0.2, rng_seed=5).value

    def test_multi_chunk_sampling(self):
        # eps small enough to need several sampling chunks
        rng = np.random.default_rng(22)
        a = random_nonneg(rng, 4)
        est = estimate_random(a, 0.01, 0.5, rng_seed=2)
        assert est.samples_used == sample_count(0.01, 0.5) > (1 << 16)
        exact = permanent_ryser(a)
        assert abs(est.value - exact) <= est.guarantee().additive_error_bound
        assert est.value == estimate_random(a, 0.01, 0.5, rng_seed=2).value

    def test_nonneg_ten_by_ten_multiple_seeds(self):
        rng = np.random.default_rng(20)
        a = random_nonneg(rng, 10)
        exact = permanent_ryser(a)
        bound = 0.1 * spectral_norm(a).value ** 10
        for seed in range(20):
            est = estimate_random(a, 0.1, 0.01, rng_seed=seed)
            assert abs(est.value - exact) <= bound


class TestEstimateRandomMulti:
    def test_doubled_ones_column(self):
        spec = MultiplicitySpec(np.array([[1.0], [1.0]]), (2,))
        est = estimate_random_multi(spec, 0.1, 0.01, rng_seed=0)
        # every sample equals 2, and the bound term is (2/sqrt(4)) * sqrt(2)^2
        assert est.value == pytest.approx(2.0, rel=1e-12)
        assert est.bound_term == pytest.approx(2.0, rel=1e-9)

    def test_zero_column(self):
        b = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        spec = MultiplicitySpec(b, (2, 1))
        est = estimate_random_multi(spec, 0.2, 0.1, rng_seed=3)
        assert abs(est.value) <= est.guarantee().additive_error_bound + 1e-12

    def test_within_guarantee(self):
        rng = np.random.default_rng(10)
        b = random_nonneg(rng, 6, 3)
        spec = MultiplicitySpec(b, (2, 2, 2))
        exact = permanent_gengly_exact(spec)
        est = estimate_random_multi(spec, 0.1, 0.01, rng_seed=11)
        assert abs(est.value - exact) <= est.guarantee().additive_error_bound

    @pytest.mark.parametrize("a", [np.eye(3), random_nonneg(np.random.default_rng(18), 4)])
    def test_matrix_is_its_all_ones_spec(self, a):
        got = estimate_random_multi(a, 0.2, rng_seed=5)
        want = estimate_random_multi(as_spec(a), 0.2, rng_seed=5)
        assert _hex(got) == _hex(want)


class TestSampleStream:
    """The samples a seed draws are pinned: n=3, eps=0.015 takes more than
    one 2^16-sample chunk. Equal sample rows are grouped before the oracle
    runs, which leaves the mean unchanged."""

    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("real", [True, False])
    def test_random_is_mean_over_one_binary_draw(self, seed, real):
        rng = np.random.default_rng(30 + seed)
        a = rng.uniform(-1.0, 1.0, (3, 3)) if real else random_complex(rng, 3)
        est = estimate_random(a, 0.015, 0.01, rng_seed=seed)
        m = sample_count(0.015, 0.01)
        assert est.samples_used == m > (1 << 16)
        bits = np.random.default_rng(seed).integers(0, 2, size=(m, 3))
        cells, counts = np.unique(bits, axis=0, return_counts=True)
        ref = sum(
            c * gly_plain(a, 1.0 - 2.0 * cell) for cell, c in zip(cells, counts)
        ) / m
        assert abs(est.value - ref) <= 1e-12 * est.bound_term

    @pytest.mark.parametrize("shape", [5, 6, pytest.param((3, 2, 1), id="mults321")])
    @pytest.mark.parametrize("real", [True, False])
    def test_random_sums_gly_batch_per_chunk(self, shape, real):
        # the blockwise draw, evaluation and table lookup must give one
        # pairwise sum per 2^16-sample chunk of the kernel's own values:
        # non-dyadic entries make another order or a wrong cell show. An int
        # shape is gly's n (grid 2^n), a tuple a spec's mults (grid 24);
        # 106,515 samples end in a ragged chunk and a 19-row ragged block
        n = shape if isinstance(shape, int) else sum(shape)
        k = n if isinstance(shape, int) else len(shape)
        rng = np.random.default_rng(50 + n)
        a = rng.uniform(-1.0, 1.0, (n, k)) if real else random_complex(rng, n, k)
        m = sample_count(0.015, 0.01)
        assert (1 << 16) < m < (1 << 17)
        if isinstance(shape, int):
            est = estimate_random(a, 0.015, 0.01, rng_seed=n)
            ref = direct_chunk_mean(a, m, n)
        else:
            spec = MultiplicitySpec(a, shape)
            est = estimate_random_multi(spec, 0.015, 0.01, rng_seed=n)
            ref = direct_chunk_mean(spec, m, n)
        assert est.value == ref

    @pytest.mark.parametrize("seed", [0, 5])
    def test_random_multi_is_mean_over_chunked_column_draws(self, seed):
        rng = np.random.default_rng(40 + seed)
        spec = MultiplicitySpec(random_complex(rng, 3, 2), (2, 1))
        est = estimate_random_multi(spec, 0.015, 0.01, rng_seed=seed)
        m = sample_count(0.015, 0.01)
        assert est.samples_used == m > (1 << 16)
        draw = np.random.default_rng(seed)
        phases = np.concatenate(
            [
                np.column_stack([draw.integers(0, mod, size=c) for mod in (3, 2)])
                for c in [min(1 << 16, m - lo) for lo in range(0, m, 1 << 16)]
            ]
        )
        cells, counts = np.unique(phases, axis=0, return_counts=True)
        ref = sum(
            c * gengly_plain(spec, cell) for cell, c in zip(cells, counts)
        ) / m
        assert abs(est.value - ref) <= 1e-12 * est.bound_term


class TestRandomLookup:
    """When the grid has at most as many cells as the full blocks have
    samples, and at most 2^16, random mode runs the kernel once per cell and
    once over the final ragged block, and gathers every other value."""

    @staticmethod
    def kernel_rows(kernel, estimate, m):
        # m samples, whatever epsilon asks for; a spy counts the kernel rows
        with mock.patch.object(estimators, "sample_count", return_value=m), mock.patch.object(
            estimators, kernel, wraps=getattr(estimators, kernel)
        ) as spy:
            estimate()
        return sum(len(call.args[1]) for call in spy.call_args_list)

    @pytest.mark.parametrize(
        "n, m, rows",
        [
            # a table holds the kernel's values of the 2^(n-1) cells with
            # sign n-1 = +1, and the mirror gives the rest
            (4, 2 * 4096 + 5, 8 + 5),  # small grid, 5-row ragged block
            (12, 4096 + 1, 2048 + 1),  # grid = full-block samples, one-row block
            (12, 4095, 4095),  # no full block
            (13, 8192 + 4095, 4096 + 4095),
            (13, 8191, 8191),  # grid > the 4096 samples in full blocks
            (16, 1 << 16, 1 << 15),  # grid = _CHUNK
            (17, (1 << 17) + 4096, (1 << 17) + 4096),  # _CHUNK < grid <= samples
        ],
    )
    def test_gly_kernel_rows(self, n, m, rows):
        a = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        assert self.kernel_rows("gly_batch", lambda: estimate_random(a, 0.5), m) == rows

    @pytest.mark.parametrize(
        "mults, block, m, rows",
        [
            ((2, 2, 1), 4096, 4096 + 1, 18 + 1),  # one-row final block
            ((2, 2, 1), 4096, 4095, 4095),
            ((2,) * 10, 4096, 1 << 16, 3**10),  # grid 59,049 <= _CHUNK
            ((2,) * 11, 4096, 3 << 16, 3 << 16),  # _CHUNK < grid 177,147 <= samples
            ((2, 2, 1), 8, 16 + 7, 16 + 7),  # grid 18 > 16 full-block samples
            ((2, 2, 1), 8, 24 + 3, 18 + 3),
            ((16,), 8, 16 + 7, 16 + 7),  # grid 17 = full-block samples + 1
            # grid 17 at 8-row blocks: the last table block starts a row
            # early rather than hold one row
            ((16,), 8, 24, 17 + 1),
        ],
    )
    def test_gengly_kernel_rows(self, mults, block, m, rows):
        rng = np.random.default_rng(len(mults))
        spec = MultiplicitySpec(random_complex(rng, sum(mults), len(mults)) / 4, mults)
        with mock.patch.object(estimators, "_BLOCK", block):
            got = self.kernel_rows("gengly_batch", lambda: estimate_random_multi(spec, 0.5), m)
        assert got == rows

    @pytest.mark.parametrize("mults", [(2, 2, 1), (16,), (3, 4, 2)])
    @pytest.mark.parametrize("real", [True, False])
    def test_small_blocks_match_the_direct_mean(self, mults, real):
        # 8-row blocks split the table into several blocks, the last of
        # them ragged or started early, and leave a 5-row final block
        rng = np.random.default_rng(sum(mults))
        n, k = sum(mults), len(mults)
        base = rng.uniform(-1.0, 1.0, (n, k)) if real else random_complex(rng, n, k)
        spec = MultiplicitySpec(base / 2, mults)
        m = 40 * 8 + 5
        with mock.patch.object(estimators, "_BLOCK", 8), mock.patch.object(
            estimators, "sample_count", return_value=m
        ):
            est = estimate_random_multi(spec, 0.5, rng_seed=k)
            ref = direct_chunk_mean(spec, m, k)
        assert est.value == ref

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.integers(1, 16),
        st.sampled_from(("real", "signed", "complex")),
        st.sampled_from((8, estimators._BLOCK)),
        st.integers(0, 2**32 - 1),
    )
    @example(16, "signed", 8, 0)
    @example(16, "complex", estimators._BLOCK, 1)
    def test_mirrored_table_is_gly_batch_over_every_cell(self, n, kind, block, seed):
        # the table random mode builds, half of it mirrored, against the
        # kernel over all 2^n cells; 8-row blocks split the table blocks
        # mid-half and start the last one early
        rng = np.random.default_rng(seed)
        a = {
            "real": rng.uniform(0.0, 1.0, (n, n)),
            "signed": rng.uniform(-1.0, 1.0, (n, n)),
            "complex": random_complex(rng, n),
        }[kind]
        grid = 1 << n
        build, tables = estimators._lookup_table, []

        def keep(*args):
            tables.append(build(*args))
            return tables[-1]

        with mock.patch.object(estimators, "_BLOCK", block), mock.patch.object(
            estimators, "sample_count", return_value=-(-grid // block) * block
        ), mock.patch.object(estimators, "_lookup_table", side_effect=keep):
            estimate_random(a, 0.5)
        want = gly_batch(a, estimators._index_signs(np.arange(grid), 1 << np.arange(n)))
        assert len(tables) == 1
        assert np.array_equal(tables[0].view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_small_gly_grids_match_the_direct_mean(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1.0, 1.0, (n, n))
        m = sample_count(0.05, 0.01)
        assert estimate_random(a, 0.05, 0.01, rng_seed=n).value == direct_chunk_mean(a, m, n)

    def test_ragged_final_block_is_evaluated(self):
        # 9,587 samples end in a 1,395-row block. The real kernel rounds some
        # of the last rows of such a block differently from a full block
        # (measured with OpenBLAS), and for this input a lookup of them
        # changed the mean
        rng = np.random.default_rng(73)
        a = rng.uniform(-1.0, 1.0, (13, 13))
        m = sample_count(0.05, 0.01)
        assert m % estimators._BLOCK == 1395
        assert estimate_random(a, 0.05, 0.01, rng_seed=3).value == direct_chunk_mean(a, m, 3)


class TestRandomMultiBits:
    """The bits of roots-of-unity random means: narrowing the drawn phases
    and reading the lookup cells from them as integers must not move one."""

    def test_direct_grid_bits_are_pinned(self):
        # grid 3^11 = 177,147 > 2^16: every block is evaluated as drawn
        spec = MultiplicitySpec(
            random_complex(np.random.default_rng(1901), 22, 11) / 4, (2,) * 11
        )
        est = estimate_random_multi(spec, 0.015, rng_seed=19)
        assert est.samples_used == 106_515
        assert (est.value.real.hex(), est.value.imag.hex()) == (
            "0x1.09fe09c66f9fcp-14",
            "-0x1.23821c6e1204dp-13",
        )

    @pytest.mark.parametrize(
        "mults, real, imag",
        [
            # modulus 256, the largest phase column that fits one byte
            ((255, 1), "0x1.1e25de4f8c682p+412", "0x1.b16f9c920e3bdp+412"),
            # modulus 257 needs two
            ((256, 1), "0x1.5dcd385092629p+417", "0x1.0f15e5e62d0a3p+427"),
        ],
    )
    def test_narrow_dtype_boundary_bits_are_pinned(self, mults, real, imag):
        # 9,587 samples: two looked-up blocks of the 512- or 514-cell grid
        # and a ragged final block evaluated as drawn
        rng = np.random.default_rng(mults[0])
        spec = MultiplicitySpec(random_complex(rng, sum(mults), 2) / 16, mults)
        est = estimate_random_multi(spec, 0.05, rng_seed=mults[0])
        assert math.isfinite(est.bound_term)
        assert (est.value.real.hex(), est.value.imag.hex()) == (real, imag)


class TestRandomSigns:
    """estimate_random builds its signs from raw generator words. They must
    stay the stream of ``integers(0, 2)`` mapped to 1 - 2 * bit."""

    @pytest.mark.parametrize(
        "shapes",
        [
            [(4096, 30), (4096, 30), (1235, 3)],  # even chunks, odd final count
            [(4, 1), (2, 1), (3, 1)],  # n = 1
            [(1, 2), (1, 4), (1, 7)],  # rows = 1
        ],
    )
    def test_matches_integer_draw(self, shapes):
        bitgen = np.random.default_rng(3).bit_generator
        ref = np.random.default_rng(3)
        for rows, n in shapes:
            signs = estimators._random_signs(bitgen, rows, n)
            assert signs.shape == (rows, n) and signs.dtype == np.float64
            assert np.array_equal(signs, 1.0 - 2.0 * ref.integers(0, 2, size=(rows, n)))

    @pytest.mark.parametrize("n", [1, 3, 30])
    def test_block_draws_continue_one_stream(self, n):
        # random mode draws _BLOCK rows at a time into one reused buffer; the
        # final block of 5 rows is odd for odd n
        rows = 2 * estimators._BLOCK + 5
        whole = estimators._random_signs(np.random.default_rng(9).bit_generator, rows, n)
        bitgen = np.random.default_rng(9).bit_generator
        buf = np.empty(estimators._BLOCK * n, dtype=np.float64)
        for lo in range(0, rows, estimators._BLOCK):
            count = min(estimators._BLOCK, rows - lo)
            block = estimators._random_signs(bitgen, count, n, out=buf)
            assert np.array_equal(block, whole[lo : lo + count])

    @pytest.mark.parametrize("n", [1, 3, 5, 16, 29])
    @pytest.mark.parametrize("reuse", [False, True])
    def test_odd_final_draw_after_blocks(self, n, reuse):
        # even blocks and then an odd rows * n, each drawn into a fresh array
        # or into one reused float64 buffer
        shapes = [(64, n), (2, n), (7, n)]
        bitgen = np.random.default_rng(17).bit_generator
        ref = np.random.default_rng(17)
        buf = np.empty(64 * n, dtype=np.float64) if reuse else None
        for rows, cols in shapes:
            signs = estimators._random_signs(bitgen, rows, cols, out=buf)
            assert signs.shape == (rows, cols) and signs.dtype == np.float64
            assert not reuse or np.shares_memory(signs, buf)
            assert np.array_equal(signs, 1.0 - 2.0 * ref.integers(0, 2, size=(rows, cols)))

    @pytest.mark.parametrize("n", range(1, 17))
    def test_cells_match_the_float64_cells(self, n):
        # the float32 cell decoder against sum_j 2^j x_j = (2^n - 1) - 2 *
        # cell on the float64 signs of the same stream; the last draw has an
        # odd length for odd n
        cells = np.random.default_rng(n).bit_generator
        signs = np.random.default_rng(n).bit_generator
        for rows in (estimators._BLOCK, estimators._BLOCK, 5):
            got = estimators._random_cells(cells, rows, n)
            x = estimators._random_signs(signs, rows, n)
            want = ((2.0**n - 1.0 - x @ 2.0 ** np.arange(n)) / 2.0).astype(np.intp)
            assert got.dtype == np.intp and np.array_equal(got, want)

    def test_first_signs_of_seed_zero(self):
        # a literal pin: holds the stream even if numpy's integers() changes
        bits = "1110000001111111111101100110111001010000000001110110011101111110"
        signs = estimators._random_signs(np.random.default_rng(0).bit_generator, 8, 8)
        assert signs.ravel().tolist() == [1.0 - 2.0 * int(b) for b in bits]


class TestIndexSigns:
    """Cell indices decode into float signs by unpacking their bits; the
    signs are the bits of shifting each index bit into a sign bit."""

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 20, 24, 31, 32])
    def test_matches_shift_decoder(self, n):
        rng = np.random.default_rng(700 + n)
        idx = rng.integers(0, 1 << n, 1000, dtype=np.int64)
        ascending = 1 << np.arange(n, dtype=np.int64)
        # binary places, the C order of a complex space over moduli 2, and
        # a shuffled order
        for places in (ascending, ascending[::-1].copy(), ascending[rng.permutation(n)]):
            want = index_signs_by_shifts(idx, places)
            for cells in (idx, idx.astype(np.uint32)):
                got = estimators._index_signs(cells, places)
                assert got.shape == (1000, n) and got.flags.c_contiguous
                assert got.tobytes() == want.tobytes()

    def test_blocks_reuse_one_buffer(self):
        idx = np.arange(1 << 12, dtype=np.uint32)
        places = 1 << np.arange(12, dtype=np.int64)
        buf = np.empty(idx.size * 12, dtype=np.uint64)
        for lo, hi in ((0, 4096), (5, 9), (4000, 4096)):
            got = estimators._index_signs(idx[lo:hi], places, out=buf)
            assert np.shares_memory(got, buf)
            assert got.tobytes() == index_signs_by_shifts(idx[lo:hi], places).tobytes()


class TestEstimateDerandomized:
    @staticmethod
    def _exhaustive(x):
        """The exhaustive estimate: Glynn's exact grid sum, zero epsilon, one
        sample per grid point."""
        n = x.shape[0]
        bound = permanent_upper_bound(MultiplicitySpec(x, (1,) * n))
        return Estimate(permanent_glynn_exact(x), bound, 0.0, 1 << n, "exhaustive")

    @pytest.mark.parametrize("kind", ["binary", "complex-moduli-two", "binary-n20"])
    def test_uniform_space_mean_is_the_exhaustive_estimate(self, kind):
        # the mean over a uniform space is the exact grid sum, bit for bit;
        # at n = 20 the grid sum splits its batches across the CPUs
        rng = np.random.default_rng(1720)
        n = 20 if kind == "binary-n20" else 6
        x = random_nonneg(rng, n)
        space = exhaustive_complex_space((2,) * n) if kind == "complex-moduli-two" else exhaustive_binary_space(n)
        est = estimate_derandomized(x, space)
        want = self._exhaustive(x)
        assert est == want
        assert est.value.real.hex() == want.value.real.hex()
        assert est.value.imag.hex() == want.value.imag.hex() == "0x0.0p+0"
        assert estimators._exhaustive_estimate(x) == want

    def test_exhaustive_space_identity(self):
        est = estimate_derandomized(np.eye(4), exhaustive_binary_space(4))
        assert est.value == pytest.approx(1.0, abs=1e-14)
        assert est.mode == "exhaustive"
        assert est.guarantee().additive_error_bound == 0.0

    def test_negative_entry_rejected(self):
        a = np.eye(3)
        a[0, 0] = -1.0
        with pytest.raises(DomainError):
            estimate_derandomized(a, exhaustive_binary_space(3))

    def test_complex_entry_rejected(self):
        a = np.eye(3).astype(complex)
        a[0, 1] = 1e-30j
        with pytest.raises(DomainError):
            estimate_derandomized(a, exhaustive_binary_space(3))

    def test_built_space_within_bound(self):
        rng = np.random.default_rng(11)
        a = random_nonneg(rng, 8)
        space = build_binary_space(8, 0.1)
        est = estimate_derandomized(a, space)
        exact = permanent_ryser(a)
        assert abs(est.value - exact) <= 0.1 * spectral_norm(a).value ** 8
        assert est.mode == "derandomized"
        assert est.samples_used == space.seed_count

    def test_histogram_route_equals_seed_loop(self):
        rng = np.random.default_rng(12)
        a = random_nonneg(rng, 5)
        space = build_binary_space(5, 0.4)
        est = estimate_derandomized(a, space)
        brute = space_mean_by_seed_loop(space, lambda p: gly_batch(a, 1 - 2 * np.array([p]))[0])
        assert abs(est.value - brute) <= 1e-11 * max(1.0, abs(brute))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a = random_nonneg(rng, 6)
        space = build_binary_space(6, 0.25)
        assert estimate_derandomized(a, space).value == estimate_derandomized(a, space).value

    def test_spec_with_repeated_columns_names_the_multi_entry(self):
        # the space is on the spec's grid, but the sign kernel is not
        spec = MultiplicitySpec(random_nonneg(np.random.default_rng(25), 3, 2), (2, 1))
        space = build_complex_space((3, 2), 0.9, force_construction=True, ell=1)
        with pytest.raises(ValueError, match="use estimate_derandomized_multi"):
            estimate_derandomized(spec, space)

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            estimate_derandomized(np.eye(4), exhaustive_binary_space(3))
        # a complex space with a modulus other than 2
        with pytest.raises(ValueError):
            estimate_derandomized(np.eye(3), exhaustive_complex_space((2, 3, 2)))

    def test_order_of_refusals(self):
        # the space first, then the entries, then the bound, then the sum
        a = np.full((3, 3), 1e300)
        a[0, 0] = -1.0
        with pytest.raises(ValueError, match="space moduli"):
            estimate_derandomized(a, exhaustive_binary_space(4))
        with pytest.raises(DomainError):
            estimate_derandomized(a, exhaustive_binary_space(3))
        with pytest.raises(OverflowError):
            estimate_derandomized(np.abs(a), exhaustive_binary_space(3))

    def test_same_under_one_and_two_blas_threads(self):
        # the support mean is a pairwise sum: a BLAS dot splits across
        # threads and changed the last bits with the thread count
        script = (
            "import numpy as np\n"
            "from permest.binary_bias import build_binary_space\n"
            "from permest.complex_bias import build_complex_space, exhaustive_complex_space\n"
            "from permest.estimators import estimate_derandomized, estimate_derandomized_multi\n"
            "from permest.matrices import MultiplicitySpec\n"
            "rng = np.random.default_rng(16)\n"
            "a = rng.uniform(0.0, 1.0, (16, 16))\n"
            "spec = MultiplicitySpec(rng.uniform(0.0, 1.0, (20, 10)), (2,) * 10)\n"
            # a support of 24,503 cells ends in a ragged block of 4,023 rows,
            # whose last 7 the real matmul rounded differently on one thread
            "b = np.random.default_rng(1016).random((16, 16))\n"
            "for est in (estimate_derandomized(a, build_binary_space(16, 0.05)),\n"
            "            estimate_derandomized(b, build_binary_space(16, 0.05)),\n"
            "            estimate_derandomized_multi(spec, exhaustive_complex_space((3,) * 10)),\n"
            "            estimate_derandomized_multi(MultiplicitySpec(rng.uniform(0.0, 1.0, (5, 3)), (2, 2, 1)),\n"
            "                build_complex_space((3, 3, 2), 0.8, force_construction=True, ell=1))):\n"
            "    print(est.value.real.hex(), est.value.imag.hex())\n"
        )
        outputs = stdout_per_blas_threads(script)
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]

    def test_certainty_at_measured_bias(self):
        # the deterministic error never exceeds measured-bias * bound_term
        from permest.binary_bias import measure_bias

        rng = np.random.default_rng(21)
        spaces = {n: build_binary_space(n, 0.25) for n in (4, 6, 8)}
        measured = {n: measure_bias(sp) for n, sp in spaces.items()}
        for _ in range(100):
            n = int(rng.choice([4, 6, 8]))
            a = random_nonneg(rng, n)
            est = estimate_derandomized(a, spaces[n])
            exact = permanent_ryser(a)
            assert abs(est.value - exact) <= measured[n] * est.bound_term + 1e-12


class TestEstimateDerandomizedMulti:
    def test_exhaustive_equals_gengly_exact(self):
        rng = np.random.default_rng(14)
        b = random_nonneg(rng, 5, 2)
        spec = MultiplicitySpec(b, (3, 2))
        space = exhaustive_complex_space((4, 3))
        est = estimate_derandomized_multi(spec, space)
        assert abs(est.value - permanent_gengly_exact(spec)) <= 1e-12
        assert est.mode == "exhaustive"

    def test_binary_collapse_matches_plain(self):
        rng = np.random.default_rng(15)
        b = random_nonneg(rng, 5)
        spec = MultiplicitySpec(b, (1,) * 5)
        space = build_binary_space(5, 0.3)
        multi = estimate_derandomized_multi(spec, space)
        plain = estimate_derandomized(b, space)
        assert abs(multi.value - plain.value) <= 1e-12 * max(1.0, abs(plain.value))

    def test_zero_column_exhaustive(self):
        b = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        spec = MultiplicitySpec(b, (2, 1))
        est = estimate_derandomized_multi(spec, exhaustive_complex_space((3, 2)))
        assert abs(est.value) <= 1e-12

    def test_negative_base_rejected(self):
        b = np.array([[1.0, -0.5], [1.0, 1.0]])
        spec = MultiplicitySpec(b, (1, 1))
        with pytest.raises(DomainError):
            estimate_derandomized_multi(spec, exhaustive_complex_space((2, 2)))

    def test_moduli_mismatch(self):
        spec = MultiplicitySpec(np.ones((3, 2)), (2, 1))
        with pytest.raises(ValueError):
            estimate_derandomized_multi(spec, exhaustive_complex_space((2, 3)))
        # a binary space over the right number of coordinates
        with pytest.raises(ValueError):
            estimate_derandomized_multi(spec, exhaustive_binary_space(2))

    @pytest.mark.parametrize(
        "space",
        [
            lambda: exhaustive_binary_space(3),
            lambda: build_complex_space((2, 2), 0.8, force_construction=True, ell=1),
        ],
        ids=["binary-exhaustive-3", "forced-22-ell1"],
    )
    def test_matrix_is_its_all_ones_spec(self, space):
        space = space()
        a = random_nonneg(np.random.default_rng(19), len(space.moduli))
        got = estimate_derandomized_multi(a, space)
        assert _hex(got) == _hex(estimate_derandomized_multi(as_spec(a), space))

    def test_seed_loop_oracle(self):
        rng = np.random.default_rng(16)
        b = random_nonneg(rng, 4, 2)
        spec = MultiplicitySpec(b, (2, 2))
        space = exhaustive_complex_space((3, 3))
        est = estimate_derandomized_multi(spec, space)
        brute = space_mean_by_seed_loop(space, lambda p: gengly_batch(spec, [p])[0])
        assert abs(est.value - brute) <= 1e-11 * max(1.0, abs(brute))


def _multi_case(kind):
    """(spec, space) of one pinned multi estimate."""
    if kind == "exhaustive-3pow10":  # 59,049 cells: several blocks, one table chunk
        base = random_nonneg(np.random.default_rng(1710), 20, 10)
        return MultiplicitySpec(base, (2,) * 10), exhaustive_complex_space((3,) * 10)
    if kind == "forced-4-ell4":
        base = random_nonneg(np.random.default_rng(1711), 3, 1)
        space = build_complex_space((4,), 0.5, force_construction=True, ell=4)
        return MultiplicitySpec(base, (3,)), space
    if kind == "forced-332-ell1":  # three coordinates in C order, moduli 3, 3, 2
        base = random_nonneg(np.random.default_rng(1713), 5, 3)
        space = build_complex_space((3, 3, 2), 0.8, force_construction=True, ell=1)
        return MultiplicitySpec(base, (2, 2, 1)), space
    # a binary space, numbered bit i = coordinate i, through the multi path;
    # its 101,469 cells cross the 2^16-row boundary
    base = random_nonneg(np.random.default_rng(1712), 20)
    return MultiplicitySpec(base, (1,) * 20), build_binary_space(20, 0.02)


class TestDerandomizedBits:
    """The bits of derandomized means: decoding the support blocks a
    ``_BLOCK`` of cells at a time must not move one. The sums are pairwise,
    one per row of a block and one over the row sums, so they do not depend
    on the BLAS thread count either."""

    # (kind, value.real.hex(), value.imag.hex())
    MULTI = [
        ("exhaustive-3pow10", "0x1.4a1ce8bbbe4dbp+40", "-0x1.e800000000000p-9"),
        ("forced-4-ell4", "0x1.fd7a715245806p-6", "0x0.0p+0"),
        ("forced-332-ell1", "0x1.45f3d3282cd5ap+3", "0x1.e83a89ac9b4e8p-6"),
        ("binary-n20", "0x1.107df363098acp+57", "0x0.0p+0"),
    ]

    @pytest.mark.parametrize("kind, real, imag", MULTI, ids=[k for k, _, _ in MULTI])
    def test_multi_bits_are_pinned(self, kind, real, imag):
        est = estimate_derandomized_multi(*_multi_case(kind))
        assert (est.value.real.hex(), est.value.imag.hex()) == (real, imag)

    def test_complex_space_of_moduli_two_is_numbered_c_order(self):
        # a complex space numbers its cells in C order, a binary one bit i =
        # coordinate i; the support of this space is not symmetric under
        # reversing the coordinates, so decoding it in the wrong numbering
        # moves the mean
        space = build_complex_space((2, 2, 2), 0.9, force_construction=True, ell=1)
        a = random_nonneg(np.random.default_rng(1713), 3)
        est = estimate_derandomized(a, space)
        hist = complex_histogram_by_seed(space)
        brute = sum(
            hist[p] * gly_batch(a, 1 - 2 * np.array([p]))[0] for p in np.ndindex(space.moduli)
        )
        assert hist[0, 0, 1] != hist[1, 0, 0]
        assert abs(est.value - brute) <= 1e-13 * abs(brute)
        assert (est.value.real.hex(), est.value.imag) == ("0x1.90dc75d4a49dbp+1", 0.0)


class TestDerandomizedMemory:
    """The support is read as flat cell indices a block at a time: no (M, n)
    or (M, k) cell array, and no float copy of one."""

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_binary_estimate_peak(self):
        # n = 20, eps = 0.02: 2^20 seeds on 101,469 cells
        a = random_nonneg(np.random.default_rng(1714), 20)
        space = build_binary_space(20, 0.02)
        assert self._peak(lambda: estimate_derandomized(a, space)) < 10 << 20

    def test_binary_blocks_reuse_one_sign_buffer(self, monkeypatch):
        # n = 20, eps = 0.05: 60 orbit representatives times 512 r values,
        # 30,720 cells in 8 blocks, every one decoded into the same sign
        # buffer
        signs = []
        kernel = estimators.gly_batch

        def spy(a, x):
            signs.append(x)
            return kernel(a, x)

        monkeypatch.setattr(estimators, "gly_batch", spy)
        a = random_nonneg(np.random.default_rng(1716), 20)
        estimate_derandomized(a, build_binary_space(20, 0.05))
        assert len(signs) == 8
        assert all(np.shares_memory(x, signs[0]) for x in signs)

    def test_binary_kernel_rows_stay_within_the_grid(self, monkeypatch):
        # n = 16, eps = 0.01: 188 orbit representatives times 2^11 r values
        # are 385,024 cells against 2^16 grid cells, so the estimate
        # evaluates each occupied cell once, padded to a multiple of 8
        rows = []
        kernel = estimators.gly_batch

        def spy(a, x):
            rows.append(x.shape[0])
            return kernel(a, x)

        monkeypatch.setattr(estimators, "gly_batch", spy)
        a = random_nonneg(np.random.default_rng(1717), 16)
        space = build_binary_space(16, 0.01)
        estimate_derandomized(a, space)
        occupied = np.count_nonzero(space.support_histogram())
        assert sum(rows) == occupied + -occupied % 8

    def test_multi_estimate_peak(self):
        spec, space = _multi_case("exhaustive-3pow10")
        assert self._peak(lambda: estimate_derandomized_multi(spec, space)) < 8 << 20

    def test_uniform_binary_estimate_peak(self):
        # 2^20 grid points summed exactly, with no support list of them
        a = random_nonneg(np.random.default_rng(1715), 20)
        space = exhaustive_binary_space(20)
        assert self._peak(lambda: estimate_derandomized(a, space)) < 8 << 20


class TestRandomMultiMemory:
    """Random roots-of-unity sampling keeps one narrow copy of each chunk's
    phases, frees the last chunk's before the next is drawn, and reads the
    lookup cells from them without a (rows, k) int64 stack."""

    _peak = staticmethod(TestDerandomizedMemory._peak)

    @staticmethod
    def _spec(k):
        base = random_complex(np.random.default_rng(1900 + k), 2 * k, k) / 4
        return MultiplicitySpec(base, (2,) * k)

    def test_lookup_path_peak(self):
        # grid 3^8 = 6,561 cells: every full block is looked up
        spec = self._spec(8)
        assert self._peak(lambda: estimate_random_multi(spec, 0.015)) < 4 << 20

    def test_direct_path_peak(self):
        # grid 3^12 > 2^16: every block is evaluated as drawn
        spec = self._spec(12)
        assert self._peak(lambda: estimate_random_multi(spec, 0.015)) < 7 << 20


class TestPermanentUpperBound:
    def test_all_ones_recovers_norm_power(self):
        rng = np.random.default_rng(17)
        b = random_complex(rng, 5)
        spec = MultiplicitySpec(b, (1,) * 5)
        assert permanent_upper_bound(spec) == pytest.approx(
            spectral_norm(b).value ** 5, rel=1e-9
        )

    def test_single_bunched_column(self):
        n = 5
        b = np.full((n, 1), 1.0 / math.sqrt(n))
        spec = MultiplicitySpec(b, (n,))
        assert permanent_upper_bound(spec) == pytest.approx(
            math.factorial(n) / math.sqrt(n**n), rel=1e-9
        )

    def test_dominates_permanent(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            mults = random_mults(rng, n)
            spec = MultiplicitySpec(random_complex(rng, n, len(mults)), mults)
            per = permanent_naive(expand(spec))
            assert abs(per) <= permanent_upper_bound(spec) * (1 + 1e-9) + 1e-12

    def test_zero_base(self):
        spec = MultiplicitySpec(np.zeros((3, 2)), (2, 1))
        assert permanent_upper_bound(spec) == 0.0

    def test_subnormal_bound_is_not_zero(self):
        # the true bound (3e-300)^3 = 2.7e-899 underflows; a nonzero matrix
        # still gets a nonzero bound and a nonzero guarantee
        a = np.full((3, 3), 1e-300)
        assert permanent_upper_bound(MultiplicitySpec(a, (1,) * 3)) > 0.0
        est = estimate_random(a, 0.1)
        assert est.bound_term > 0.0
        assert est.guarantee().additive_error_bound > 0.0
        # a zero matrix and epsilon = 0 still report an exact 0
        assert estimate_random(np.zeros((3, 3)), 0.1).guarantee().additive_error_bound == 0.0
        exhaustive = estimate_derandomized(a, exhaustive_binary_space(3))
        assert exhaustive.bound_term > 0.0
        assert exhaustive.guarantee().additive_error_bound == 0.0

    @pytest.mark.parametrize("entry", [1e30, 1e308])
    def test_beyond_double_range_raises(self, entry):
        # at 1e308 the norm itself is inf; at 1e30 its 12th power overflows
        spec = MultiplicitySpec(np.full((12, 12), entry), (1,) * 12)
        with pytest.raises(OverflowError):
            permanent_upper_bound(spec)


def unitary_fixing_ones(rng, n):
    """A random unitary D H diag(1, W) H: the reflection H swaps e_1 and
    1/sqrt(n), W is a random (n-1)-dim unitary and D a unimodular diagonal,
    so every row sum is unimodular and gly at the all-ones point is tight."""
    d = np.diag(np.exp(2j * np.pi * rng.random(n)))
    if n == 1:
        return d
    v = np.full(n, 1.0 / math.sqrt(n))
    v[0] -= 1.0
    h = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    inner = np.eye(n, dtype=np.complex128)
    inner[1:, 1:] = np.linalg.qr(random_complex(rng, n - 1))[0]
    return d @ h @ inner @ h


@st.composite
def tight_matrices(draw):
    """c * A with |A| = 1 and every row sum of A unimodular at the all-ones
    point, so |gly(cA, 1)| = |cA|^n up to rounding; c puts log |cA|^n in
    [-600, 600]."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(("rank_one", "permutation", "diagonal", "unitary")))
    if family == "rank_one":
        a = np.full((n, n), 1.0 / n)
    elif family == "permutation":
        a = np.eye(n)[rng.permutation(n)]
    elif family == "diagonal":
        a = np.diag(np.exp(2j * np.pi * rng.random(n)))
    else:
        a = unitary_fixing_ones(rng, n)
    return math.exp(draw(st.floats(-600.0, 600.0)) / n) * a


@st.composite
def saturating_specs(draw):
    """The block-Fourier saturating spec of a random pattern summing to n,
    scaled by c: orthonormal base columns, flat on their blocks, so gengly
    at the zero phases equals the bound exactly in exact arithmetic; c puts
    its log in [-600, 600]."""
    n = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pattern = random_mults(rng, n)
    keep = np.cumsum((0, *pattern[:-1]))
    base = saturating_unitary(pattern)[keep].T
    log_c = (draw(st.floats(-600.0, 600.0)) - math.log(gengly_scale(pattern))) / n
    return MultiplicitySpec(math.exp(log_c) * base, pattern)


bound_settings = settings(derandomize=True, max_examples=300, deadline=None)


class TestBoundTerm:
    """The bound term really bounds every sample: compared with no tolerance,
    on inputs where some sample reaches it."""

    @bound_settings
    @given(tight_matrices())
    def test_gly_at_ones_within_bound_term(self, a):
        n = a.shape[0]
        ones = np.ones((1, n))
        assert abs(gly_batch(a, ones)[0]) <= estimate_random(a, 0.9).bound_term

    @bound_settings
    @given(saturating_specs())
    def test_gengly_at_zero_within_bound(self, spec):
        zero = np.zeros((1, spec.k), dtype=np.int64)
        assert abs(gengly_batch(spec, zero)[0]) <= permanent_upper_bound(spec)

    @bound_settings
    @given(st.integers(1, 30), st.integers(0, 2**32 - 1), st.floats(-600.0, 600.0))
    def test_random_grid_points_within_bound(self, n, seed, log_bound):
        rng = np.random.default_rng(seed)
        a = random_complex(rng, n)
        a *= math.exp(log_bound / n) / np.linalg.norm(a, 2)
        signs = 1.0 - 2.0 * rng.integers(0, 2, size=(16, n))
        assert np.all(np.abs(gly_batch(a, signs)) <= estimate_random(a, 0.9).bound_term)
        mults = random_mults(rng, n)
        spec = MultiplicitySpec(a[:, : len(mults)], mults)
        phases = np.column_stack([rng.integers(0, s + 1, size=16) for s in mults])
        assert np.all(np.abs(gengly_batch(spec, phases)) <= permanent_upper_bound(spec))

    def test_same_under_one_and_two_blas_threads(self):
        script = (
            "import numpy as np\n"
            "from permest.estimators import estimate_random, estimate_random_multi\n"
            "from permest.matrices import MultiplicitySpec\n"
            "rng = np.random.default_rng(30)\n"
            "for n in (16, 30):\n"
            "    real = rng.uniform(0.0, 1.0, (n, n))\n"
            "    cplx = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))\n"
            "    for a in (real, cplx):\n"
            "        print(estimate_random(a, 0.9).bound_term.hex())\n"
            "spec = MultiplicitySpec(rng.uniform(0.0, 1.0, (16, 8)), (2,) * 8)\n"
            "print(estimate_random_multi(spec, 0.9).bound_term.hex())\n"
        )
        outputs = stdout_per_blas_threads(script)
        assert len(outputs[0].splitlines()) == 5
        assert outputs[0] == outputs[1]


@st.composite
def invariance_inputs(draw, nonnegative):
    """A seeded n x n matrix, n = 1..8, and a generator for what the test
    draws next."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_nonneg(rng, n) if nonnegative else random_complex(rng, n)
    return a, rng


invariance_settings = settings(derandomize=True, max_examples=40, deadline=None)


def same_mean(x, y, bound_term):
    return abs(x - y) <= 1e-12 * bound_term


class TestInvariance:
    """Per(cA) = c^n Per(A), Per(A^T) = Per(A) and Per(PAQ) = Per(A) carry
    over to the estimators' means, up to 1e-12 of the bound term."""

    @invariance_settings
    @given(invariance_inputs(nonnegative=True), st.floats(0.01, 100.0), st.booleans())
    def test_derandomized_scales_by_c_to_the_n(self, inputs, c, built):
        a, _ = inputs
        n = a.shape[0]
        space = build_binary_space(n, 0.25) if built else exhaustive_binary_space(n)
        scaled = estimate_derandomized(c * a, space)
        plain = estimate_derandomized(a, space)
        assert same_mean(scaled.value, c**n * plain.value, scaled.bound_term)

    @invariance_settings
    @given(
        invariance_inputs(nonnegative=False),
        st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0),
        st.integers(0, 2**16),
    )
    def test_random_scales_by_c_to_the_n(self, inputs, c, seed):
        a, _ = inputs
        n = a.shape[0]
        scaled = estimate_random(c * a, 0.05, rng_seed=seed)
        plain = estimate_random(a, 0.05, rng_seed=seed)
        assert same_mean(scaled.value, c**n * plain.value, scaled.bound_term)
        assert scaled.bound_term == pytest.approx(abs(c) ** n * plain.bound_term, rel=1e-12)

    @invariance_settings
    @given(invariance_inputs(nonnegative=False), st.integers(0, 2**16))
    def test_random_ignores_row_order(self, inputs, seed):
        a, rng = inputs
        est = estimate_random(a, 0.05, rng_seed=seed)
        permuted = estimate_random(a[rng.permutation(a.shape[0])], 0.05, rng_seed=seed)
        assert same_mean(permuted.value, est.value, est.bound_term)

    @invariance_settings
    @given(invariance_inputs(nonnegative=True))
    def test_exhaustive_mean_ignores_transpose_and_column_order(self, inputs):
        a, rng = inputs
        space = exhaustive_binary_space(a.shape[0])
        est = estimate_derandomized(a, space)
        for other in (a.T, a[:, rng.permutation(a.shape[0])]):
            assert same_mean(estimate_derandomized(other, space).value, est.value, est.bound_term)


class TestEstimateType:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            Estimate(1.0, 1.0, 0.1, 10, "bogus")
        with pytest.raises(ValueError):
            Estimate(1.0, 1.0, 0.1, 0, "random")

    def test_guarantee_product(self):
        est = Estimate(1.0, 8.0, 0.25, 10, "derandomized")
        assert est.guarantee().additive_error_bound == 2.0
        assert est.guarantee().confidence == 1.0

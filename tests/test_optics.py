import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from permest.estimators import estimate_random, permanent_upper_bound
from permest.exact import permanent_naive
from permest.matrices import spectral_norm
from permest.optics import (
    amplitude_estimate,
    amplitude_exact,
    bunching_bound,
    saturating_outcome,
    saturating_unitary,
    transition_matrix,
)

from oracles import compositions, positive_compositions, random_complex


def hom_unitary():
    r = 1.0 / math.sqrt(2.0)
    return np.array([[r, r], [r, -r]])


def haar_ish(rng, k):
    z = random_complex(rng, k)
    q, _ = np.linalg.qr(z)
    return q


class TestTransitionMatrix:
    def test_identity_patterns(self):
        rng = np.random.default_rng(0)
        u = random_complex(rng, 3)
        assert np.array_equal(transition_matrix(u, (1, 1, 1), (1, 1, 1)), u)

    def test_repeated_row(self):
        rng = np.random.default_rng(1)
        u = random_complex(rng, 2)
        t = transition_matrix(u, (2, 0), (1, 1))
        assert np.array_equal(t[0], u[0]) and np.array_equal(t[1], u[0])

    def test_zero_count_drops(self):
        rng = np.random.default_rng(2)
        u = random_complex(rng, 3)
        t = transition_matrix(u, (1, 0, 2), (3, 0, 0))
        assert t.shape == (3, 3)
        assert np.array_equal(t[:, 0], t[:, 1])

    def test_total_mismatch(self):
        with pytest.raises(ValueError):
            transition_matrix(np.eye(2), (2, 0), (1, 0))

    def test_pattern_length(self):
        with pytest.raises(ValueError):
            transition_matrix(np.eye(2), (1, 1, 0), (1, 1))


class TestAmplitudeExact:
    def test_hong_ou_mandel_bunched(self):
        res = amplitude_exact(hom_unitary(), (2, 0), (1, 1))
        assert res.probability == pytest.approx(0.5, abs=1e-12)

    def test_hong_ou_mandel_dip(self):
        res = amplitude_exact(hom_unitary(), (1, 1), (1, 1))
        assert res.probability == pytest.approx(0.0, abs=1e-12)

    def test_hong_ou_mandel_other_mode(self):
        res = amplitude_exact(hom_unitary(), (0, 2), (1, 1))
        assert res.probability == pytest.approx(0.5, abs=1e-12)

    def test_identity_transmits(self):
        res = amplitude_exact(np.eye(4), (1, 1, 1, 1), (1, 1, 1, 1))
        assert res.amplitude == pytest.approx(1.0, abs=1e-12)

    def test_probability_is_square(self):
        rng = np.random.default_rng(3)
        u = haar_ish(rng, 3)
        res = amplitude_exact(u, (2, 1, 0), (1, 1, 1))
        assert res.probability == pytest.approx(abs(res.amplitude) ** 2, rel=1e-12)

    def test_vacuum(self):
        res = amplitude_exact(np.eye(2), (0, 0), (0, 0))
        assert (res.amplitude, res.probability) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "pattern", [(2, 0, 1, 0), (1, 1, 1, 1), (3, 0, 2, 1, 0, 0)], ids=str
    )
    def test_standard_input_is_the_exhaustive_estimate(self, pattern):
        # one mapping and one grid: the exact amplitude of the standard
        # input is the exhaustive-mode estimate, bit for bit
        k = len(pattern)
        u = haar_ish(np.random.default_rng(20 + k), k)
        n = sum(pattern)
        exact = amplitude_exact(u, pattern, (1,) * n + (0,) * (k - n))
        est = amplitude_estimate(u, pattern, 0.1, mode="exhaustive")
        assert exact.amplitude == est.amplitude
        assert exact.probability == est.probability

    @pytest.mark.parametrize("pattern", [(8, 8, 8, 8), (16, 16)], ids=str)
    def test_saturating_outcome_past_thirty_photons(self, pattern):
        # n = 32, above the 2^n Ryser cap; the grid has 9^4 or 17^2 points
        u = saturating_unitary(pattern)
        res = amplitude_exact(u, saturating_outcome(pattern), (1,) * 32)
        assert res.probability == pytest.approx(bunching_bound(pattern), rel=1e-12)


@st.composite
def outcomes(draw):
    """A k-mode matrix and two occupation patterns of the same n <= 8
    photons, in either order, so that the row grid and the column grid each
    come out smaller."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = haar_ish(rng, k) if draw(st.booleans()) else rng.uniform(-1.0, 1.0, (k, k))
    # a skewed draw bunches its photons, so its grid is mostly the smaller
    bunched = tuple(int(c) for c in rng.multinomial(n, rng.dirichlet([0.3] * k)))
    spread = tuple(int(c) for c in rng.multinomial(n, [1.0 / k] * k))
    if draw(st.booleans()):
        return u, bunched, spread
    return u, spread, bunched


@settings(derandomize=True, max_examples=80, deadline=None)
@given(outcomes())
def test_exact_amplitude_is_the_transition_permanent(case):
    u, rows, cols = case
    ref = permanent_naive(transition_matrix(u, rows, cols)) / math.sqrt(
        math.prod(math.factorial(c) for c in rows + cols)
    )
    got = amplitude_exact(u, rows, cols).amplitude
    # a rounding-level floor scaled by prod_i sum_j |a_ij|, which bounds |Per|
    scale = float(np.prod(np.abs(transition_matrix(u, rows, cols)).sum(axis=1)))
    assert abs(got - ref) <= 1e-9 * abs(ref) + 1e-12 * scale


class TestAmplitudeEstimate:
    def test_saturating_instance_derandomized(self):
        pattern = (2, 1)
        u = saturating_unitary(pattern)
        outcome = saturating_outcome(pattern)
        exact = amplitude_exact(u, outcome, (1, 1, 1))
        res = amplitude_estimate(u, outcome, 0.05, mode="derandomized")
        assert abs(res.amplitude - exact.amplitude) <= 0.05
        assert abs(res.amplitude - exact.amplitude) <= res.amp_error_bound + 1e-12
        assert abs(res.probability - exact.probability) <= res.prob_error_bound + 1e-12

    def test_random_mode_within_guarantee(self):
        rng = np.random.default_rng(4)
        u = haar_ish(rng, 4)
        pattern = (2, 1, 1, 0)
        exact = amplitude_exact(u, pattern, (1, 1, 1, 1))
        res = amplitude_estimate(u, pattern, 0.05, mode="random", rng_seed=9)
        assert abs(res.amplitude - exact.amplitude) <= res.amp_error_bound
        assert res.amp_error_bound <= 0.05 + 1e-12  # subunitary: bound <= eps

    def test_zero_row_exhaustive_exact_zero(self):
        u = np.array(
            [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex
        )
        res = amplitude_estimate(u, (1, 1, 1), 0.1, mode="exhaustive")
        assert res.amplitude == 0

    def test_all_single_counts_reduces_to_plain_estimate(self):
        rng = np.random.default_rng(5)
        u = haar_ish(rng, 3)
        res = amplitude_estimate(u, (1, 1, 1), 0.1, mode="exhaustive")
        assert res.amplitude == pytest.approx(permanent_naive(u), abs=1e-10)

    def test_plain_case_matches_unscaled_contract(self):
        rng = np.random.default_rng(6)
        u = haar_ish(rng, 3)
        res = amplitude_estimate(u, (1, 1, 1), 0.2, mode="random", rng_seed=3)
        plain = estimate_random(u.T, 0.2, 0.01, rng_seed=3)
        # same estimator family and distribution; bounds agree
        assert res.amp_error_bound == pytest.approx(
            0.2 * spectral_norm(u).value ** 3, rel=1e-9
        )
        assert plain.bound_term == pytest.approx(spectral_norm(u).value ** 3, rel=1e-9)

    def test_subnormal_bounds_are_rounded_up(self):
        # 2x2 unitaries scaled by 10^-163 to 10^-155: the bound term and
        # epsilon times it lie below the normal range, where a rounding can
        # lose a whole subnormal step or reach 0.0; both bounds are rounded
        # up, so they bound exactly and are never 0.0
        rng = np.random.default_rng(1212)
        for seed in range(200):
            u = 10.0 ** rng.uniform(-163.0, -155.0) * haar_ish(rng, 2)
            eps = float(rng.uniform(0.3, 0.9))
            res = amplitude_estimate(u, (1, 1), eps, rng_seed=seed)
            bound = permanent_upper_bound(u.T)
            assert Fraction(res.amp_error_bound) >= Fraction(eps) * Fraction(bound) > 0
            assert res.prob_error_bound > 0.0

    def test_photon_count_validation(self):
        with pytest.raises(ValueError):
            amplitude_estimate(np.eye(2), (2, 1), 0.1)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            amplitude_estimate(np.eye(2), (1, 1), 0.1, mode="psychic")

    # (mode, amplitude.real.hex(), amplitude.imag.hex(), amp_error_bound.hex())
    # of the outcome (3, 0, 2, 1, 0, 0) at epsilon 0.3: a complex matrix in
    # random and exhaustive mode, a nonnegative one in derandomized mode
    PINNED = [
        ("random", "-0x1.c43ecea869247p-15", "0x1.6621d10e23ed9p-13", "0x1.864f806542899p-10"),
        ("exhaustive", "-0x1.45c9790dad49cp-14", "0x1.26d6822723271p-13", "0x0.0p+0"),
        ("derandomized", "0x1.621026fa411b5p-15", "-0x1.02a725cde2cb8p-66", "0x0.0p+0"),
    ]

    @pytest.mark.blas_pinned
    @pytest.mark.parametrize("mode, real, imag, bound", PINNED, ids=[p[0] for p in PINNED])
    def test_estimate_bits_are_pinned(self, mode, real, imag, bound):
        rng = np.random.default_rng(40)
        cplx = random_complex(rng, 6) / 4
        nonneg = rng.random((6, 6)) / 6
        u = nonneg if mode == "derandomized" else cplx
        res = amplitude_estimate(u, (3, 0, 2, 1, 0, 0), 0.3, mode, rng_seed=5)
        got = (res.amplitude.real.hex(), res.amplitude.imag.hex(), res.amp_error_bound.hex())
        assert got == (real, imag, bound)


class TestBunchingBound:
    def test_single_mode_values(self):
        assert bunching_bound((4, 0, 0, 0)) == pytest.approx(24.0 / 256.0, abs=1e-15)
        assert bunching_bound((2, 0)) == 0.5
        assert bunching_bound((1, 1, 1)) == 1.0

    def test_closed_form_up_to_ten(self):
        for n in range(1, 11):
            assert bunching_bound((n,)) == pytest.approx(
                math.factorial(n) / n**n, rel=1e-12
            )

    def test_zero_counts_neutral(self):
        assert bunching_bound((0, 3, 0)) == bunching_bound((3,))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bunching_bound((-1, 2))

    def test_normal_range_is_the_rounded_ratio(self):
        assert bunching_bound((3, 2, 1)).hex() == (12 / 108).hex()

    @pytest.mark.parametrize("pattern", [(750,), (1000,), (2,) * 1100, (10,) * 100])
    def test_below_the_subnormal_range_is_not_zero(self, pattern):
        # the ratio rounds to 0.0 (1000!/1000^1000 is about 1e-432); the bound
        # is rounded up past it, so it still bounds a positive probability
        exact = Fraction(
            math.prod(math.factorial(c) for c in pattern), math.prod(c**c for c in pattern)
        )
        assert 0.0 < bunching_bound(pattern)
        assert Fraction(bunching_bound(pattern)) >= exact
        # bit for bit the rounded ratio one step up
        assert bunching_bound(pattern) == math.nextafter(float(exact), math.inf)


class TestSaturatingUnitary:
    def test_unitarity(self):
        for pattern in [(2,), (3, 2), (1, 1, 1), (4, 1)]:
            u = saturating_unitary(pattern)
            n = u.shape[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(n)) <= 1e-12

    def test_two_photon_block(self):
        u = saturating_unitary((2,))
        res = amplitude_exact(u, saturating_outcome((2,)), (1, 1))
        assert res.probability == pytest.approx(0.5, abs=1e-12)

    def test_three_two_blocks(self):
        pattern = (3, 2)
        u = saturating_unitary(pattern)
        res = amplitude_exact(u, saturating_outcome(pattern), (1,) * 5)
        assert res.probability == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_trivial_pattern_is_identity(self):
        assert np.allclose(saturating_unitary((1, 1, 1)), np.eye(3))

    def test_tightness_small_patterns(self):
        for n in range(1, 6):
            for pattern in positive_compositions(n):
                u = saturating_unitary(pattern)
                res = amplitude_exact(u, saturating_outcome(pattern), (1,) * n)
                assert res.probability == pytest.approx(
                    bunching_bound(pattern), abs=1e-9
                )

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            saturating_unitary((2, 0))


class TestBoundUniversality:
    def test_random_unitaries_never_exceed(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 6))
            u = haar_ish(rng, n)
            for pattern in compositions(n, n):
                res = amplitude_exact(u, pattern, (1,) * n)
                assert res.probability <= bunching_bound(pattern) + 1e-9


class TestNormalization:
    def test_output_probabilities_sum_to_one(self):
        rng = np.random.default_rng(8)
        for k, n, in_pattern in [
            (2, 2, (1, 1)),
            (3, 3, (1, 1, 1)),
            (3, 4, (2, 1, 1)),  # n > k: a bunched input, unitarity still applies
            (3, 4, (4, 0, 0)),
        ]:
            u = haar_ish(rng, k)
            total = 0.0
            for out in compositions(n, k):
                total += amplitude_exact(u, out, in_pattern).probability
            assert total == pytest.approx(1.0, abs=1e-6)

import numpy as np
import pytest

from permest import estimators, matrices
from permest.binary_bias import exhaustive_binary_space
from permest.errors import ConvergenceError, MatrixParseError
from permest.exact import (
    permanent_gengly_exact,
    permanent_glynn_exact,
    permanent_naive,
    permanent_ryser,
)
from permest.matrices import (
    MultiplicitySpec,
    as_matrix,
    expand,
    parse_matrix,
    serialize_matrix,
    spectral_norm,
)
from permest.optics import amplitude_exact

from oracles import jacobi_svd_sigma_max, near_degenerate, random_complex


class TestParse:
    def test_identity(self):
        a = parse_matrix("2 2\n1 0 0 0\n0 0 1 0\n")
        assert np.array_equal(a, np.eye(2))

    def test_complex_row(self):
        a = parse_matrix("1 2\n0.5 -0.5 3 0\n")
        assert a.shape == (1, 2)
        assert a[0, 0] == 0.5 - 0.5j
        assert a[0, 1] == 3.0

    def test_missing_row(self):
        with pytest.raises(MatrixParseError) as exc:
            parse_matrix("2 2\n1 0\n")
        # the only data row is short, reported with its line number
        assert exc.value.line == 2

    def test_truncated_file(self):
        with pytest.raises(MatrixParseError, match="row 2 missing"):
            parse_matrix("2 2\n1 0 0 0\n")

    def test_empty_input(self):
        with pytest.raises(MatrixParseError, match="empty input"):
            parse_matrix("")
        with pytest.raises(MatrixParseError, match="empty input"):
            parse_matrix("# only a comment\n")

    def test_non_numeric_token(self):
        with pytest.raises(MatrixParseError, match="non-numeric"):
            parse_matrix("1 1\nfoo 0\n")

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixParseError, match="non-finite"):
            parse_matrix("1 1\nnan 0\n")
        with pytest.raises(MatrixParseError, match="non-finite"):
            parse_matrix("1 1\ninf 0\n")

    def test_extra_rows(self):
        with pytest.raises(MatrixParseError, match="extra data"):
            parse_matrix("1 1\n1 0\n2 0\n")

    def test_bad_header(self):
        with pytest.raises(MatrixParseError):
            parse_matrix("2\n")
        with pytest.raises(MatrixParseError):
            parse_matrix("0 3\n")

    def test_comments_and_blanks_skipped(self):
        text = "# fixture\n\n2 1\n# first row\n1 2\n\n3 -4\n"
        a = parse_matrix(text)
        assert a[0, 0] == 1 + 2j
        assert a[1, 0] == 3 - 4j

    def test_bytes_accepted(self):
        assert parse_matrix(b"1 1\n7 0\n")[0, 0] == 7


class TestAsSquare:
    def test_square_passes_as_complex(self):
        a = matrices.as_square([[1.0, 2.0], [3.0, 4.0]])
        assert a.dtype == np.complex128 and a.shape == (2, 2)
        # a square matrix is its all-ones spec; a spec passes unchanged
        spec = matrices.as_spec([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(spec.base, a) and spec.base.dtype == np.complex128
        assert spec.mults == (1, 1) and spec.moduli == (2, 2)
        assert matrices.as_spec(spec) is spec

    @pytest.mark.parametrize(
        "call",
        [
            lambda a: matrices.as_square(a),
            lambda a: matrices.as_spec(a),
            lambda a: permanent_ryser(a),
            lambda a: permanent_glynn_exact(a),
            lambda a: permanent_naive(a),
            lambda a: estimators.gly_batch(a, np.ones((1, 3))),
            lambda a: estimators.estimate_random(a, 0.5),
            lambda a: estimators.estimate_derandomized(a, exhaustive_binary_space(3)),
            lambda a: estimators.estimate_exhaustive(a),
            lambda a: estimators.permanent_upper_bound(a),
            lambda a: permanent_gengly_exact(a),
            lambda a: amplitude_exact(a, (1, 0, 0), (1, 0, 0)),
        ],
        ids=["as_square", "as_spec", "ryser", "glynn", "naive", "gly", "estimate_random",
             "estimate_derandomized", "exhaustive", "upper_bound", "gengly", "amplitude_exact"],
    )
    def test_non_square_names_its_shape(self, call):
        with pytest.raises(ValueError, match=r"^matrix must be square, got \(3, 4\)$"):
            call(np.ones((3, 4)))


class TestSerialize:
    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            a = random_complex(rng, n, k) * rng.choice([1e-12, 1.0, 1e12])
            b = parse_matrix(serialize_matrix(a))
            assert np.array_equal(a, b)

    def test_round_trip_extremes(self):
        a = np.array([[1e-300 + 1e300j, -0.1 + 0.3j]])
        assert np.array_equal(parse_matrix(serialize_matrix(a)), a)


class TestExpand:
    def test_single_entry(self):
        spec = MultiplicitySpec(np.array([[7.0]]), (1,))
        assert np.array_equal(expand(spec), [[7.0]])

    def test_column_doubling(self):
        spec = MultiplicitySpec(np.array([[1.0], [2.0]]), (2,))
        assert np.array_equal(expand(spec), [[1.0, 1.0], [2.0, 2.0]])

    def test_three_by_two(self):
        rng = np.random.default_rng(0)
        b = random_complex(rng, 3, 2)
        a = expand(MultiplicitySpec(b, (2, 1)))
        assert np.array_equal(a[:, 0], b[:, 0])
        assert np.array_equal(a[:, 1], b[:, 0])
        assert np.array_equal(a[:, 2], b[:, 1])

    def test_all_ones_is_identity_map(self):
        rng = np.random.default_rng(1)
        b = random_complex(rng, 4, 4)
        assert np.array_equal(expand(MultiplicitySpec(b, (1, 1, 1, 1))), b)

    def test_moduli_are_the_grid(self):
        spec = MultiplicitySpec(random_complex(np.random.default_rng(2), 6, 3), (3, 1, 2))
        assert spec.moduli == (4, 2, 3)

    def test_invariants(self):
        with pytest.raises(ValueError):
            MultiplicitySpec(np.array([[1.0, 2.0]]), (1, 1))  # sums to 2, n = 1
        with pytest.raises(ValueError):
            MultiplicitySpec(np.array([[1.0], [1.0]]), (0,))
        with pytest.raises(ValueError):
            MultiplicitySpec(np.array([[1.0, 2.0], [3.0, 4.0]]), (2,))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            as_matrix([[np.nan, 1.0]])


class TestRootsOfUnity:
    def test_exact_small_moduli(self):
        # exact, not exp-rounded: gengly's binary and quartic phases keep
        # their zero imaginary and real parts
        assert matrices.roots_of_unity(2)[1] == -1.0
        assert matrices.roots_of_unity(4)[1] == 1.0j


class TestSpectralNorm:
    def test_identity(self):
        assert spectral_norm(np.eye(4)).value == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, 0.5])).value == pytest.approx(3.0, abs=1e-12)

    def test_zero_matrix(self):
        res = spectral_norm(np.zeros((3, 3)))
        assert res.value == 0.0 and res.iterations == 0

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            k = int(rng.integers(1, 7))
            a = random_complex(rng, n, k)
            got = spectral_norm(a).value
            ref = jacobi_svd_sigma_max(a)
            assert got == pytest.approx(ref, rel=1e-9)
            assert got == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-9)

    def test_random_5x5_oracle(self):
        rng = np.random.default_rng(5)
        a = random_complex(rng, 5)
        assert spectral_norm(a).value == pytest.approx(jacobi_svd_sigma_max(a), rel=1e-9)

    def test_scaling(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 9))
            a = random_complex(rng, n)
            c = complex(rng.standard_normal(), rng.standard_normal())
            assert spectral_norm(c * a).value == pytest.approx(
                abs(c) * spectral_norm(a).value, rel=1e-9
            )

    def test_permutation_invariance(self):
        rng = np.random.default_rng(8)
        a = random_complex(rng, 6)
        base = spectral_norm(a).value
        for _ in range(5):
            p = rng.permutation(6)
            q = rng.permutation(6)
            assert spectral_norm(a[p][:, q]).value == pytest.approx(base, rel=1e-9)

    def test_dominant_space_orthogonal_to_ones(self):
        # Gram matrix [[2,-2],[-2,2]]: the all-ones vector is in the kernel
        a = np.array([[1.0, -1.0], [-1.0, 1.0]])
        assert spectral_norm(a).value == pytest.approx(2.0, rel=1e-9)

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            spectral_norm(random_complex(np.random.default_rng(9), 6))

    def test_never_below_lapack(self):
        # the slack is 4 * max(rows, cols) units of 2^-53, relative
        rng = np.random.default_rng(11)
        for rows, cols in [(1, 1), (3, 7), (16, 16), (30, 30), (16, 8)]:
            a = random_complex(rng, rows, cols)
            res = spectral_norm(a)
            sigma = np.linalg.svd(a, compute_uv=False)[0]
            assert res.iterations == 1
            assert res.residual == 4 * max(rows, cols) * 2.0**-53
            assert sigma < res.value <= sigma * (1 + 2 * res.residual)

    def test_subnormal_norm_keeps_its_slack(self):
        # sigma = 3e-310 is subnormal: sigma * (1 + 12 * 2^-53) rounds back
        # to sigma, so the slack is added absolutely plus one subnormal step
        a = np.full((3, 3), 1e-310)
        sigma = np.linalg.svd(a, compute_uv=False)[0]
        assert spectral_norm(a).value > max(sigma, 3 * 1e-310)
        # a normal sigma keeps its relative slack, bit for bit
        b = np.full((3, 3), 1e-300)
        sigma = np.linalg.svd(b, compute_uv=False)[0]
        assert spectral_norm(b).value == sigma * (1.0 + 12 * 2.0**-53)

    def test_near_degenerate_top_pair(self):
        # sigma_1 - sigma_2 = 1e-7: far too close for an iterative norm
        a = near_degenerate()
        res = spectral_norm(a)
        assert 1.0 <= res.value <= 1.0 + 1e-13
        assert res.value >= jacobi_svd_sigma_max(a)

    def test_deterministic(self):
        rng = np.random.default_rng(10)
        a = random_complex(rng, 5)
        r1 = spectral_norm(a)
        r2 = spectral_norm(a)
        assert r1.value == r2.value and r1.iterations == r2.iterations

import json
import math
import shlex
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import permest.estimators
import permest.exact
import permest.matrices
from permest.cli import _EXACT_METHODS, main
from permest.errors import ConvergenceError
from permest.exact import permanent_naive
from permest.matrices import parse_matrix, serialize_matrix, spectral_norm

from oracles import (
    glynn_multiset_fraction,
    near_degenerate,
    python_stdout,
    random_complex,
    random_nonneg,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_matrix(tmp_path, name, a):
    path = tmp_path / name
    path.write_text(serialize_matrix(a))
    return str(path)


@pytest.fixture
def identity2(tmp_path):
    return write_matrix(tmp_path, "id2.txt", np.eye(2))


@pytest.fixture
def hom(tmp_path):
    r = 1.0 / math.sqrt(2.0)
    return write_matrix(tmp_path, "hom.txt", np.array([[r, r], [r, -r]]))


class TestExact:
    def test_identity_ryser(self, capsys, identity2):
        code, out, err = run(capsys, "exact", "--matrix", identity2, "--method", "ryser")
        assert code == 0
        assert out.splitlines()[0] == "1 0"
        assert "method=ryser" in out
        assert "wall_time_s=" in err  # timing kept off stdout

    def test_all_ones_glynn(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "ones.txt", np.ones((6, 6)))
        code, out, _ = run(capsys, "exact", "--matrix", path, "--method", "glynn")
        assert code == 0
        assert out.splitlines()[0] == "720 0"

    def test_random_matches_naive(self, capsys, tmp_path):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 7)
        path = write_matrix(tmp_path, "r7.txt", a)
        code, out, _ = run(capsys, "exact", "--matrix", path, "--method", "ryser")
        re_s, im_s = out.splitlines()[0].split()
        got = complex(float(re_s), float(im_s))
        ref = permanent_naive(a)
        assert code == 0
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_mult_expansion(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "b.txt", np.array([[1.0], [1.0]]))
        code, out, _ = run(
            capsys, "exact", "--matrix", path, "--mult", "2", "--method", "naive"
        )
        assert code == 0
        assert out.splitlines()[0] == "2 0"

    @pytest.mark.parametrize(
        "mult, method, expands",
        [("6,6,6,4", "ryser", 0), ("6,6,6,4", "glynn", 0), ("3,2,1", "naive", 1)],
    )
    def test_mult_sums_the_grouped_grid(self, capsys, tmp_path, monkeypatch, mult, method, expands):
        # only naive builds the n x n matrix; Ryser and Glynn print the value
        # of their grouped grid, bit for bit
        mults = tuple(int(s) for s in mult.split(","))
        base = random_nonneg(np.random.default_rng(25), sum(mults), len(mults))
        spec = permest.matrices.MultiplicitySpec(base, mults)
        path = write_matrix(tmp_path, "base.txt", base)
        calls = []
        expand = permest.matrices.expand

        def spy(target):
            calls.append(target.mults)
            return expand(target)

        monkeypatch.setattr(permest.matrices, "expand", spy)
        monkeypatch.setattr(permest.exact, "expand", spy)
        code, out, _ = run(capsys, "exact", "--matrix", path, "--mult", mult, "--method", method)
        assert code == 0 and len(calls) == expands
        got = complex(*map(float, out.splitlines()[0].split()))
        assert got == getattr(permest.exact, _EXACT_METHODS[method])(spec)
        if method == "naive":
            # the permutation sum of the expanded matrix matches the grid
            glynn = permest.exact.permanent_glynn_exact(spec)
            assert abs(got - glynn) <= 1e-9 * abs(glynn)

    def test_default_method_is_glynn_where_ryser_cancels(self, capsys, tmp_path):
        # a uniform [0, 1) 30 x 2 base with --mult 15,15: Ryser's alternating
        # sum prints 1.87e21 here, 25% below the roots-of-unity average
        base = np.random.default_rng(0).random((30, 2))
        path = write_matrix(tmp_path, "b30.txt", base)
        code, out, _ = run(capsys, "exact", "--matrix", path, "--mult", "15,15")
        assert code == 0 and "method=glynn" in out
        got = complex(*map(float, out.splitlines()[0].split()))
        ref = permest.exact.permanent_gengly_exact(permest.matrices.MultiplicitySpec(base, (15, 15)))
        assert abs(got - ref) <= 1e-9 * abs(ref)

    @pytest.mark.parametrize("mults", [(6, 6, 6, 4), (4,) * 5])
    def test_default_route_matches_exact_rational_glynn(self, capsys, tmp_path, mults):
        base = np.random.default_rng(25).random((sum(mults), len(mults)))
        path = write_matrix(tmp_path, "base.txt", base)
        code, out, _ = run(capsys, "exact", "--matrix", path, "--mult", ",".join(map(str, mults)))
        assert code == 0
        re_s, im_s = out.splitlines()[0].split()
        want = glynn_multiset_fraction(base, mults)
        assert float(im_s) == 0.0
        assert abs(Fraction(float(re_s)) - want) <= Fraction(1e-12) * want

    def test_parse_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 0\n")
        code, _, err = run(capsys, "exact", "--matrix", str(path))
        assert code == 2
        assert "line 2" in err

    def test_size_limit_exit_3(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "big.txt", np.ones((11, 11)))
        code, _, _ = run(capsys, "exact", "--matrix", str(path), "--method", "naive")
        assert code == 3

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "exact", "--matrix", "does-not-exist.txt")
        assert code == 2


class TestEstimate:
    def test_zero_matrix_random(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "z.txt", np.zeros((4, 4)))
        code, out, _ = run(
            capsys, "estimate", "--matrix", path, "--epsilon", "0.2", "--seed", "5"
        )
        assert code == 0
        assert out.splitlines()[0] == "0 0"
        assert "delta=0.01" in out

    def test_seed_reproduces_output(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        path = write_matrix(tmp_path, "a.txt", random_complex(rng, 5))
        args = ("estimate", "--matrix", path, "--epsilon", "0.2", "--seed", "42")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_derandomized_nonneg_within_bound(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        a = random_nonneg(rng, 8)
        path = write_matrix(tmp_path, "n8.txt", a)
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", path, "--epsilon", "0.1", "--mode", "derandomized",
        )
        assert code == 0
        re_s, im_s = out.splitlines()[0].split()
        ref_code, ref_out, _ = run(capsys, "exact", "--matrix", path)
        ref = complex(*[float(t) for t in ref_out.splitlines()[0].split()])
        err = abs(complex(float(re_s), float(im_s)) - ref)
        assert err <= 0.1 * spectral_norm(a).value ** 8
        assert "mode=derandomized" in out and "space=binary" in out

    def test_derandomized_rejects_complex_exit_4(self, capsys, tmp_path):
        a = np.eye(3).astype(complex)
        a[0, 1] = 0.5j
        path = write_matrix(tmp_path, "c.txt", a)
        code, _, _ = run(
            capsys,
            "estimate", "--matrix", path, "--epsilon", "0.2", "--mode", "derandomized",
        )
        assert code == 4

    def test_exhaustive_accepts_complex(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        a = random_complex(rng, 5)
        path = write_matrix(tmp_path, "c5.txt", a)
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", path, "--epsilon", "0.2", "--mode", "exhaustive",
        )
        assert code == 0
        got = complex(*[float(t) for t in out.splitlines()[0].split()])
        ref = permanent_naive(a)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))
        assert "mode=exhaustive" in out and "epsilon=0" in out

    def test_deterministic_mode_byte_identical(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        path = write_matrix(tmp_path, "n6.txt", random_nonneg(rng, 6))
        args = (
            "estimate", "--matrix", path, "--epsilon", "0.25", "--mode", "derandomized",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_multi_estimate(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "col.txt", np.array([[1.0], [1.0]]))
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", path, "--mult", "2", "--epsilon", "0.1",
            "--mode", "derandomized",
        )
        assert code == 0
        re_s, _ = out.splitlines()[0].split()
        assert float(re_s) == pytest.approx(2.0, abs=1e-9)

    def test_explicit_space_descriptor(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        path = write_matrix(tmp_path, "n4.txt", random_nonneg(rng, 4))
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", path, "--epsilon", "0.5", "--mode", "derandomized",
            "--space", "binary n=4 m=3 poly=0xb eps=0.5",
        )
        assert code == 0
        assert "samples=64" in out

    def test_descriptor_eps_below_certified_bound_exit_2(self, capsys, tmp_path):
        # m=1 certifies bias (4-1)/2^1 only; the declared eps must not become
        # the reported guarantee
        rng = np.random.default_rng(8)
        path = write_matrix(tmp_path, "u4.txt", random_nonneg(rng, 4))
        code, out, err = run(
            capsys,
            "estimate", "--matrix", path, "--epsilon", "0.5", "--mode",
            "derandomized", "--space", "binary n=4 m=1 eps=0.0001", "--format", "json",
        )
        assert code == 2
        assert out == ""
        assert "certified" in err

    @pytest.mark.parametrize(
        "descriptor",
        [
            "binary n=8 m=7 poly=0x83 eps=0.1 foo=1",
            "binary n=8 m=7 poly=0x83 eps=0.1 mode=bogus",
            # an exhaustive space has m=0 and eps=0
            "binary n=8 m=5 eps=0.3 mode=exhaustive",
        ],
    )
    def test_binary_descriptor_unknown_or_mismatched_field_exit_2(
        self, capsys, tmp_path, descriptor
    ):
        path = write_matrix(tmp_path, "n8.txt", random_nonneg(np.random.default_rng(10), 8))
        code, out, err = run(
            capsys, "estimate", "--matrix", path, "--mode", "derandomized",
            "--space", descriptor,
        )
        assert code == 2
        assert out == ""
        assert "error:" in err

    @pytest.mark.parametrize(
        "descriptor",
        [
            "binary n=8 m=7 poly=0X83 eps=0.1",
            "binary n=8 m=7 poly=83 eps=0.1",
            "binary n=8 m=7 eps=0.1",
            "binary n=8 m=7 poly=0x83 eps=0.10000000000000001",
        ],
    )
    def test_binary_descriptor_spellings_accepted(self, capsys, tmp_path, descriptor):
        path = write_matrix(tmp_path, "n8.txt", random_nonneg(np.random.default_rng(10), 8))
        argv = ("estimate", "--matrix", path, "--mode", "derandomized", "--space")
        code, expected, _ = run(capsys, *argv, "binary n=8 m=7 poly=0x83 eps=0.1")
        assert code == 0
        code, out, _ = run(capsys, *argv, descriptor)
        assert code == 0
        assert out == expected

    def test_space_descriptor_supplies_epsilon(self, capsys, tmp_path):
        rng = np.random.default_rng(6)
        path = write_matrix(tmp_path, "n4.txt", random_nonneg(rng, 4))
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", path, "--mode", "derandomized",
            "--space", "binary n=4 m=3 poly=0xb eps=0.5",
        )
        assert code == 0
        assert "epsilon=0.5" in out

    def test_epsilon_contradicting_descriptor_exit_2(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "n4.txt", np.ones((4, 4)))
        code, out, err = run(
            capsys,
            "estimate", "--matrix", path, "--epsilon", "0.5", "--mode",
            "derandomized", "--space", "binary n=4 m=3 poly=0xb eps=0.75",
        )
        assert code == 2
        assert out == ""
        assert "eps=0.75" in err

    @pytest.mark.parametrize("mode", ["random", "derandomized"])
    def test_missing_epsilon_without_space_exit_2(self, capsys, tmp_path, mode):
        path = write_matrix(tmp_path, "n4.txt", np.ones((4, 4)))
        code, out, err = run(capsys, "estimate", "--matrix", path, "--mode", mode)
        assert code == 2
        assert out == ""
        assert "--epsilon" in err

    @pytest.mark.parametrize("mult", [None, "2,1,1"])
    def test_exhaustive_needs_no_epsilon(self, capsys, tmp_path, mult):
        rng = np.random.default_rng(9)
        k = 4 if mult is None else 3
        path = write_matrix(tmp_path, "n4.txt", random_nonneg(rng, 4, k))
        argv = ["estimate", "--matrix", path, "--mode", "exhaustive"]
        if mult is not None:
            argv += ["--mult", mult]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "epsilon=0\n" in out
        # a given --epsilon is still accepted and ignored
        code, out_eps, _ = run(capsys, *argv, "--epsilon", "0.3")
        assert code == 0
        assert out_eps == out

    def test_uniform_space_estimate_is_the_exhaustive_estimate(self, capsys, tmp_path):
        # the mean over the uniform binary space is Glynn's exact grid sum:
        # the same lines, plus the space
        path = write_matrix(tmp_path, "a.txt", np.random.default_rng(2000).random((6, 6)))
        argv = ("estimate", "--matrix", path, "--mode")
        code, exhaustive, _ = run(capsys, *argv, "exhaustive")
        assert code == 0
        space = "binary n=6 m=0 poly=0x0 eps=0 mode=exhaustive"
        code, derandomized, _ = run(capsys, *argv, "derandomized", "--space", space)
        assert code == 0
        assert derandomized == exhaustive + f"space={space}\n"
        assert exhaustive.splitlines()[0] == "3.6443800518291165 0"

    @pytest.mark.parametrize("mult", [None, "2,1,1"])
    def test_exhaustive_bound_refuses_before_the_kernel(
        self, capsys, tmp_path, monkeypatch, mult
    ):
        # the bound comes first: a norm that cannot be certified exits 3
        # without running the exponential-time kernel
        def refuse(a):
            raise ConvergenceError("LAPACK singular values: SVD did not converge")

        def never(*args, **kwargs):
            raise AssertionError("the exact kernel ran before the bound")

        # the CLI looks each function up on its defining module when it runs
        monkeypatch.setattr(permest.matrices, "spectral_norm", refuse)
        monkeypatch.setattr(permest.estimators, "spectral_norm", refuse)
        monkeypatch.setattr(permest.exact, "permanent_glynn_exact", never)
        monkeypatch.setattr(permest.exact, "permanent_gengly_exact", never)
        k = 4 if mult is None else 3
        path = write_matrix(tmp_path, "n4.txt", np.ones((4, k)))
        argv = ["estimate", "--matrix", path, "--mode", "exhaustive"]
        if mult is not None:
            argv += ["--mult", mult]
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == ""
        assert "did not converge" in err

    def test_near_degenerate_norm_is_accepted(self, capsys, tmp_path):
        # sigma_1 - sigma_2 = 1e-7: far too close for an iterative norm
        path = write_matrix(tmp_path, "nd.txt", near_degenerate())
        code, out, _ = run(
            capsys, "estimate", "--matrix", path, "--epsilon", "0.1", "--format", "json"
        )
        assert code == 0
        bound = json.loads(out)["bound_term"]
        assert math.isfinite(bound) and 1.0 <= bound <= 1.0 + 1e-11

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--epsilon", "0.5"),
            ("estimate", "--epsilon", "0.5", "--mode", "exhaustive"),
            ("estimate", "--epsilon", "0.5", "--mult", "2,1,1"),
            ("bound",),
        ],
    )
    def test_failed_svd_exits_3(self, capsys, tmp_path, monkeypatch, argv):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        path = write_matrix(tmp_path, "a.txt", np.ones((4, 3 if "--mult" in argv else 4)))
        code, out, err = run(capsys, *argv, "--matrix", path)
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "did not converge" in err

    @pytest.mark.parametrize("mode", ["random", "derandomized", "exhaustive"])
    def test_non_square_exits_2(self, capsys, tmp_path, mode):
        path = write_matrix(tmp_path, "ns.txt", np.ones((3, 4)))
        code, out, err = run(
            capsys, "estimate", "--matrix", path, "--epsilon", "0.3", "--mode", mode
        )
        assert code == 2
        assert out == ""
        assert "must be square" in err


def _eighths_text(cols: int, imag: bool) -> str:
    """A fixed 6 x cols matrix file. Entries are multiples of 1/8 (real) and
    1/4 (imaginary), so every gly sample is exact and the plain estimates do
    not depend on summation order (the --mult samples use sqrt(s) and cube
    roots of unity, and are rounded)."""
    rows = [
        " ".join(
            f"{((3 * i + 5 * j) % 7 + 1) / 8:g} "
            f"{((i + 2 * j) % 5 - 2) / 4 if imag else 0.0:g}"
            for j in range(cols)
        )
        for i in range(6)
    ]
    return f"6 {cols}\n" + "\n".join(rows) + "\n"


@pytest.mark.blas_pinned
class TestGoldenStdout:
    """Random-mode stdout is byte-identical to the recorded output: the
    sample stream, the estimator kernels and the emit format all hold."""

    GOLDEN = {
        "real": (
            "13.216962612538708 0\n"
            "value_re=13.216962612538708\n"
            "value_im=0\n"
            "bound_term=847.19684020445118\n"
            "epsilon=0.014999999999999999\n"
            "guarantee=12.707952603066767\n"
            "samples=106515\n"
            "mode=random\n"
            "delta=0.01\n"
            "seed=3\n"
        ),
        "complex": (
            '{"bound_term": 963.8853754944396, "delta": 0.01, "epsilon": 0.015, '
            '"guarantee": 14.458280632416594, "mode": "random", "samples": 106515, '
            '"seed": 3, "value_im": -1.621990989717649, '
            '"value_re": 10.355769300655552}\n'
        ),
        "mult": (
            "11.6898512983452 0.024900508245992756\n"
            "value_re=11.6898512983452\n"
            "value_im=0.024900508245992756\n"
            "bound_term=143.16202741525521\n"
            "epsilon=0.014999999999999999\n"
            "guarantee=2.1474304112288283\n"
            "samples=106515\n"
            "mode=random\n"
            "delta=0.01\n"
            "seed=3\n"
        ),
    }

    @pytest.mark.parametrize(
        "case, cols, imag, extra",
        [
            ("real", 6, False, ()),
            ("complex", 6, True, ("--format", "json")),
            ("mult", 3, False, ("--mult", "3,2,1")),
        ],
    )
    def test_random_estimate_stdout(self, capsys, tmp_path, case, cols, imag, extra):
        # 106,515 samples: one full 2^16-sample chunk and a partial one
        path = tmp_path / f"{case}.txt"
        path.write_text(_eighths_text(cols, imag))
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", str(path), "--epsilon", "0.015", "--seed", "3",
            *extra,
        )
        assert code == 0
        assert out == self.GOLDEN[case]


class TestOverflow:
    """Results beyond double range exit 3 with an error line, never nan or a
    traceback: 12! * (12e30)^12 overflows every kernel and bound."""

    @pytest.fixture
    def huge(self, tmp_path):
        return write_matrix(tmp_path, "huge.txt", np.full((12, 12), 1e30))

    @pytest.mark.parametrize(
        "argv",
        [
            ("exact", "--method", "glynn"),
            ("exact", "--method", "ryser"),
            ("estimate", "--epsilon", "0.5"),
            ("estimate", "--epsilon", "0.5", "--mode", "exhaustive"),
            ("bound",),
            ("estimate", "--epsilon", "0.5", "--mult", ",".join(["1"] * 12)),
        ],
    )
    def test_overflow_exit_3(self, capsys, huge, argv):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--matrix", huge)
        assert code == 3
        assert out == ""
        assert err.splitlines()[-1].startswith("error: overflow")
        if argv[0] in ("estimate", "bound"):
            # on this input the bound term raises before any sample can overflow
            assert [str(w.message) for w in caught] == []
            assert err == "error: overflow: the bound term exceeds the double range\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("estimate", "--epsilon", "0.5", "--matrix"),
            ("estimate", "--epsilon", "0.5", "--mult", "1", "--matrix"),
            ("optics", "amp", "--out-pattern", "1", "--estimate", "--epsilon", "0.5", "--unitary"),
        ],
    )
    def test_sample_sum_overflow_exit_3(self, capsys, tmp_path, argv):
        # the bound term of 8e307 is a double, but 96 samples of it sum past
        # the double range
        big = write_matrix(tmp_path, "big.txt", np.full((1, 1), 8e307))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, big)
        assert [str(w.message) for w in caught] == []
        assert (code, out) == (3, "")
        assert err == "error: overflow: the sample sum exceeds the double range\n"

    @pytest.mark.parametrize("mode", ["random", "exhaustive", "derandomized"])
    def test_scale_past_the_double_range(self, capsys, tmp_path, mode):
        # gengly's scale 400! / 20^400 = exp(802.2) is no double, but the
        # permanent 400! * 0.01^400 ~ 6.4e68 is; derandomized mode enumerates
        # the uniform space of this 401-cell grid, whose guarantee is 0
        base = write_matrix(tmp_path, "base.txt", np.full((400, 1), 0.01))
        argv = ("estimate", "--matrix", base, "--mult", "400", "--epsilon", "0.5")
        code, out, err = run(capsys, *argv, "--mode", mode, "--format", "json")
        assert (code, err) == (0, "")
        fields = json.loads(out)
        per = float(math.factorial(400) * Fraction(0.01) ** 400)
        value = complex(fields["value_re"], fields["value_im"])
        assert abs(value - per) <= fields["guarantee"] + 1e-9 * per

    @pytest.mark.parametrize("method", ["ryser", "glynn"])
    def test_overflow_on_the_threaded_path(self, capsys, monkeypatch, tmp_path, method):
        # at n = 20 the exact kernels split their outer points across workers
        monkeypatch.setattr(permest.exact, "_CPUS", 2)
        huge = write_matrix(tmp_path, "huge20.txt", np.full((20, 20), 1e30))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "exact", "--method", method, "--matrix", huge)
        assert code == 3
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: overflow")


class TestFailures:
    """Each failing command exits with its documented code and one error
    line, never a traceback, and writes nothing to stdout."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            # eps^2 underflows to zero: the sample count is not finite
            pytest.param(("estimate", "--matrix", "{m}", "--epsilon", "1e-300"), 3, id="tiny-eps"),
            pytest.param(
                ("estimate", "--matrix", "{m}", "--mult", "1,1", "--epsilon", "1e-300"),
                3,
                id="tiny-eps-mult",
            ),
            pytest.param(
                ("optics", "prob", "--unitary", "{u}", "--out-pattern", "1,1", "--estimate",
                 "--epsilon", "1e-300"),
                3,
                id="optics-prob-tiny-eps",
            ),
            pytest.param(
                ("optics", "amp", "--unitary", "{u}", "--out-pattern", "2,0", "--estimate",
                 "--epsilon", "1e-300"),
                3,
                id="optics-amp-tiny-eps",
            ),
            # a finite count above the 2^32 cap, which would run for days
            pytest.param(("estimate", "--matrix", "{m}", "--epsilon", "1e-10"), 3, id="huge-count"),
            pytest.param(
                ("estimate", "--matrix", "{m}", "--mult", "1,1", "--epsilon", "1e-10"),
                3,
                id="huge-count-mult",
            ),
            pytest.param(
                ("optics", "prob", "--unitary", "{u}", "--out-pattern", "1,1", "--estimate",
                 "--epsilon", "1e-10"),
                3,
                id="optics-prob-huge-count",
            ),
            pytest.param(
                ("optics", "saturate", "--pattern", "2", "--out", "{tmp}/missing/u.txt"),
                2,
                id="out-in-missing-dir",
            ),
            pytest.param(
                ("optics", "saturate", "--pattern", "2", "--out", "{tmp}"), 2, id="out-is-dir"
            ),
            pytest.param(("exact", "--matrix", "{latin1}"), 2, id="non-utf8-matrix"),
            pytest.param(("exact", "--matrix", "{tmp}/missing.txt"), 2, id="unreadable-matrix"),
            pytest.param(
                ("space", "audit", "--descriptor", "complex s=2 l=3 eps=0.55 zz=1"),
                2,
                id="unknown-descriptor-field",
            ),
            pytest.param(
                ("space", "build", "--kind", "complex", "--mults", "1,1", "--epsilon", "0.5",
                 "--ell", "100000"),
                3,
                id="ell-over-seed-cap",
            ),
            pytest.param(
                ("space", "build", "--kind", "complex", "--mults", "2", "--epsilon", "0.5",
                 "--ell", "0"),
                2,
                id="ell-zero",
            ),
            pytest.param(
                ("space", "build", "--kind", "binary", "--epsilon", "0.5"), 2, id="binary-without-n"
            ),
            pytest.param(
                ("space", "build", "--kind", "complex", "--epsilon", "0.5"),
                2,
                id="complex-without-mults",
            ),
            # flags the command would otherwise ignore
            pytest.param(
                ("estimate", "--matrix", "{m}", "--epsilon", "0.5", "--space",
                 "binary n=2 m=0 eps=0"),
                2,
                id="space-in-random-mode",
            ),
            pytest.param(
                ("estimate", "--matrix", "{m}", "--mode", "exhaustive", "--space",
                 "binary n=2 m=0 eps=0"),
                2,
                id="space-in-exhaustive-mode",
            ),
            pytest.param(
                ("space", "build", "--kind", "binary", "--n", "4", "--epsilon", "0.5",
                 "--mults", "1"),
                2,
                id="binary-with-mults",
            ),
            pytest.param(
                ("space", "build", "--kind", "binary", "--n", "4", "--epsilon", "0.5",
                 "--ell", "3"),
                2,
                id="binary-with-ell",
            ),
            pytest.param(
                ("space", "build", "--kind", "binary", "--n", "4", "--epsilon", "0.5",
                 "--force-construction"),
                2,
                id="binary-with-force-construction",
            ),
            pytest.param(
                ("space", "build", "--kind", "complex", "--mults", "2", "--epsilon", "0.3",
                 "--n", "4"),
                2,
                id="complex-with-n",
            ),
            pytest.param(
                ("optics", "prob", "--unitary", "{u}", "--out-pattern", "1,1", "--estimate"),
                2,
                id="optics-random-without-epsilon",
            ),
            # the estimate's flags without --estimate, and random mode's
            # outside it
            *[
                pytest.param(
                    ("optics", cmd, "--unitary", "{u}", "--out-pattern", "1,1", *flag),
                    2,
                    id=f"optics-{cmd}-{flag[0][2:]}-without-estimate",
                )
                for cmd in ("prob", "amp")
                for flag in (("--epsilon", "0.1"), ("--mode", "exhaustive"), ("--delta", "0.5"),
                             ("--seed", "3"))
            ],
            *[
                pytest.param(
                    (*argv, "--mode", mode, flag, value),
                    2,
                    id=f"{argv[0]}-{mode}-{flag[2:]}",
                )
                for argv in (
                    ("estimate", "--matrix", "{o4}", "--epsilon", "0.5"),
                    ("optics", "amp", "--unitary", "{u}", "--out-pattern", "1,1", "--estimate",
                     "--epsilon", "0.5"),
                )
                for mode in ("derandomized", "exhaustive")
                for flag, value in (("--delta", "0.5"), ("--seed", "3"))
            ],
            pytest.param(
                ("estimate", "--matrix", "{c}", "--epsilon", "0.5", "--mode", "derandomized"),
                4,
                id="complex-derandomized",
            ),
            # an infinite eps would print a guarantee of inf, or NaN on a zero
            # matrix; a finite eps whose product with the bound overflows
            # stops before any output
            pytest.param(
                ("estimate", "--matrix", "{z4}", "--mode", "derandomized", "--space",
                 "binary n=4 m=2 poly=0x7 eps=inf"),
                2,
                id="binary-eps-inf-zero-matrix",
            ),
            pytest.param(
                ("estimate", "--matrix", "{o4}", "--mode", "derandomized", "--space",
                 "binary n=4 m=2 poly=0x7 eps=inf"),
                2,
                id="binary-eps-inf",
            ),
            pytest.param(
                ("estimate", "--matrix", "{o4}", "--mode", "derandomized", "--space",
                 "binary n=4 m=2 poly=0x7 eps=1e308"),
                3,
                id="guarantee-overflow",
            ),
        ],
    )
    def test_error_line_and_exit_code(self, capsys, tmp_path, hom, argv, code):
        paths = {
            "m": write_matrix(tmp_path, "m.txt", np.array([[1.0, 0.5], [0.25, 1.0]])),
            "c": write_matrix(tmp_path, "c.txt", np.array([[1.0, 0.5j], [0.25, 1.0]])),
            "z4": write_matrix(tmp_path, "z4.txt", np.zeros((4, 4))),
            "o4": write_matrix(tmp_path, "o4.txt", np.ones((4, 4))),
            "u": hom,
            "tmp": str(tmp_path),
            "latin1": str(tmp_path / "latin1.txt"),
        }
        (tmp_path / "latin1.txt").write_bytes("2 2\n1 0 0 0\n0 0 1 0 \xe9\n".encode("latin-1"))
        got, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        assert got == code
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    def test_bound_on_non_square_matrix_names_its_shape(self, capsys, tmp_path):
        # without --mult the plain bound needs a square matrix, as exact does
        path = write_matrix(tmp_path, "col.txt", np.array([[1.0], [1.0]]))
        code, out, err = run(capsys, "bound", "--matrix", path)
        assert (code, out, err) == (2, "", "error: matrix must be square, got (2, 1)\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            # the first undecodable byte is on line 3, after two ASCII lines
            (b"2 2\n1 0 0 0\n0 0 1 0 \xe9\n", "error: line 3: {path} is not UTF-8: "),
            # parse_matrix's numbering: a lone CR ends a line too
            (b"2 2\r1 0 0 0\r\xe9", "error: line 3: {path} is not UTF-8: "),
            (b"\xff2 2\n", "error: line 1: {path} is not UTF-8: "),
            (None, "error: cannot read {path}: No such file or directory\n"),
        ],
        ids=["line-3", "cr-lines", "line-1", "missing"],
    )
    def test_matrix_file_error_names_path_and_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "a.txt"
        if text is not None:
            path.write_bytes(text)
        code, out, err = run(capsys, "exact", "--matrix", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(message.format(path=path))


class TestBound:
    def test_plain_norm_power(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        a = random_complex(rng, 4)
        path = write_matrix(tmp_path, "b4.txt", a)
        code, out, _ = run(capsys, "bound", "--matrix", path)
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(
            spectral_norm(a).value ** 4, rel=1e-9
        )

    def test_mult_bound(self, capsys, tmp_path):
        path = write_matrix(tmp_path, "col.txt", np.array([[1.0], [1.0]]))
        code, out, _ = run(capsys, "bound", "--matrix", path, "--mult", "2")
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(2.0, rel=1e-9)


class TestSpace:
    def test_build_and_audit_binary(self, capsys):
        code, out, _ = run(
            capsys, "space", "build", "--kind", "binary", "--n", "8", "--epsilon", "0.25"
        )
        assert code == 0
        descriptor = out.splitlines()[0]
        code, out, _ = run(capsys, "space", "audit", "--descriptor", descriptor)
        assert code == 0
        first = out.splitlines()[0].split()
        assert float(first[0]) <= 0.25
        assert first[1] == "PASS"

    def test_audit_exhaustive_binary(self, capsys):
        code, out, _ = run(
            capsys, "space", "audit", "--descriptor",
            "binary n=6 m=0 poly=0x0 eps=0 mode=exhaustive",
        )
        assert code == 0
        measured, verdict = out.splitlines()[0].split()
        assert float(measured) <= 1e-12
        assert verdict == "PASS"

    def test_build_complex_fallback(self, capsys):
        code, out, _ = run(
            capsys, "space", "build", "--kind", "complex", "--mults", "1,2",
            "--epsilon", "0.3",
        )
        assert code == 0
        assert "mode=exhaustive" in out.splitlines()[0]

    def test_forced_complex_capacity_exit_3(self, capsys):
        code, _, err = run(
            capsys, "space", "build", "--kind", "complex", "--mults", "1,1",
            "--epsilon", "0.3", "--force-construction",
        )
        assert code == 3
        assert "seed bits" in err

    def test_forced_complex_with_ell(self, capsys):
        code, out, _ = run(
            capsys, "space", "build", "--kind", "complex", "--mults", "2",
            "--epsilon", "0.55", "--force-construction", "--ell", "3",
        )
        assert code == 0
        descriptor = out.splitlines()[0]
        code, out, _ = run(capsys, "space", "audit", "--descriptor", descriptor)
        assert code == 0
        assert out.splitlines()[0].endswith("PASS")

    def test_explicit_ell_builds_without_force(self, capsys):
        # a grid of at most 2^20 cells gets the walk length it is given
        argv = ("space", "build", "--kind", "complex", "--mults", "3", "--epsilon", "0.5",
                "--ell", "4")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--force-construction")[:2]
        assert "l=4" in out.splitlines()[0]

    def test_bad_descriptor_exit_2(self, capsys):
        code, _, _ = run(capsys, "space", "audit", "--descriptor", "martian x=1")
        assert code == 2

    def test_unknown_kind_names_it(self, capsys):
        got = run(capsys, "space", "audit", "--descriptor", "martian x=1")
        assert got == (2, "", "error: unknown space descriptor kind 'martian'\n")

    @pytest.mark.parametrize("descriptor", ["binary n=8 m=0 eps=0", "complex s=2 eps=0"])
    def test_audit_reads_uniform_space_from_its_underived_fields(self, capsys, descriptor):
        # m = 0 and an omitted l = 0 are the uniform spaces
        code, out, _ = run(capsys, "space", "audit", "--descriptor", descriptor)
        assert (code, out.splitlines()[0]) == (0, "0 PASS")

    @pytest.mark.parametrize(
        "descriptor",
        [
            "complex k=5 s=2 p=17 c=3 r=99 l=3 eps=0.55 mode=constructed t=7 "
            "pfrac=0.5 q=9",
            "complex s=2 l=3 eps=0.55 mode=walk",
            "complex s=2 l=3 eps=0.55 zz=1",
            "complex s=2 l=3 eps=0.55 pfrac=0.5",
            "complex s=1,2 eps=0 mode=exhaustive t=1",
        ],
    )
    def test_audit_rejects_unknown_or_mismatched_fields_exit_2(self, capsys, descriptor):
        code, out, err = run(capsys, "space", "audit", "--descriptor", descriptor)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_audit_accepts_partial_complex_descriptor(self, capsys):
        # omitted fields are derived; eps=0.55 equals the rebuilt 0.55000000000000004
        code, out, _ = run(
            capsys, "space", "audit", "--descriptor", "complex s=2 l=3 eps=0.55 t=1"
        )
        assert code == 0
        assert out.splitlines()[0].endswith("PASS")

    def test_certified_bias_only_for_binary_spaces(self, capsys):
        # a complex space's bias is certified by audit, not by construction
        code, out, _ = run(
            capsys, "space", "build", "--kind", "binary", "--n", "8",
            "--epsilon", "0.25", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["certified_bias"] == 7 / 32
        for extra in ((), ("--ell", "3")):
            code, out, _ = run(
                capsys, "space", "build", "--kind", "complex", "--mults", "2",
                "--epsilon", "0.55", *extra, "--format", "json",
            )
            assert code == 0
            assert set(json.loads(out)) == {"descriptor", "seed_bits", "eps"}

    def test_build_byte_identical(self, capsys):
        args = ("space", "build", "--kind", "binary", "--n", "6", "--epsilon", "0.5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_constructed_complex_space_feeds_estimate(self, capsys, tmp_path):
        # build a pipeline space, audit it, then hand its descriptor to the
        # estimator through --space
        code, out, _ = run(
            capsys, "space", "build", "--kind", "complex", "--mults", "1,1",
            "--epsilon", "0.55", "--ell", "3",
        )
        assert code == 0
        descriptor = out.splitlines()[0]
        rng = np.random.default_rng(9)
        a = random_nonneg(rng, 2, 2)
        path = write_matrix(tmp_path, "b22.txt", a)
        code, out, _ = run(
            capsys,
            "estimate", "--matrix", path, "--mult", "1,1", "--epsilon", "0.55",
            "--mode", "derandomized", "--space", descriptor,
        )
        assert code == 0
        got = complex(*[float(t) for t in out.splitlines()[0].split()])
        exact = permanent_naive(a)
        bound = 0.55 * spectral_norm(a).value ** 2
        assert abs(got - exact) <= bound
        assert "mode=derandomized" in out


class TestOptics:
    def test_bunching_bound_two_zero(self, capsys):
        code, out, _ = run(capsys, "optics", "bound", "--pattern", "2,0")
        assert code == 0
        assert out.splitlines()[0] == "0.5"

    def test_bunching_bound_below_the_subnormal_range(self, capsys):
        # 1000!/1000^1000, about 1e-432, prints as the least subnormal, not 0
        code, out, _ = run(capsys, "optics", "bound", "--pattern", "1000")
        assert code == 0
        assert out.splitlines() == ["4.9406564584124654e-324", "bound=4.9406564584124654e-324"]

    def test_hom_probability(self, capsys, hom):
        code, out, _ = run(
            capsys, "optics", "prob", "--unitary", hom, "--out-pattern", "2,0"
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.5, abs=1e-12)

    def test_hom_dip(self, capsys, hom):
        code, out, _ = run(
            capsys, "optics", "prob", "--unitary", hom, "--out-pattern", "1,1"
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.0, abs=1e-12)

    def test_amp_command(self, capsys, hom):
        code, out, _ = run(
            capsys, "optics", "amp", "--unitary", hom, "--out-pattern", "2,0"
        )
        assert code == 0
        re_s, im_s = out.splitlines()[0].split()
        assert abs(complex(float(re_s), float(im_s))) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )
        # a real beamsplitter gives a real amplitude, with no rounding left
        # in the imaginary part
        assert im_s == "0"

    def test_saturate_round_trip(self, capsys, tmp_path):
        out_path = tmp_path / "u.txt"
        code, out, _ = run(
            capsys, "optics", "saturate", "--pattern", "3,2", "--out", str(out_path)
        )
        assert code == 0
        assert "outcome=3,0,0,2,0" in out
        u = parse_matrix(out_path.read_text())
        assert np.linalg.norm(u.conj().T @ u - np.eye(5)) <= 1e-12

    def test_saturate_stdout_parses(self, capsys):
        code, out, _ = run(capsys, "optics", "saturate", "--pattern", "2")
        assert code == 0
        u = parse_matrix(out)
        assert u.shape == (2, 2)

    def test_estimate_flag(self, capsys, hom):
        code, out, _ = run(
            capsys, "optics", "prob", "--unitary", hom, "--out-pattern", "2,0",
            "--estimate", "--epsilon", "0.05", "--mode", "exhaustive",
        )
        assert code == 0
        assert float(out.splitlines()[0]) == pytest.approx(0.5, abs=1e-9)
        assert "prob_error_bound=" in out

    @pytest.mark.parametrize("cmd", ["prob", "amp"])
    def test_exhaustive_estimate_needs_no_epsilon(self, capsys, hom, cmd):
        argv = ("optics", cmd, "--unitary", hom, "--out-pattern", "2,0", "--estimate",
                "--mode", "exhaustive")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert (code, out) == run(capsys, *argv, "--epsilon", "0.05")[:2]


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_examples():
    """(argv, shown lines) for each ``$ permest ...`` line of the README:
    the output lines it shows before a blank line, ``...`` or the block's
    end."""
    examples, shown = [], None
    for line in README.splitlines():
        if line.startswith("$ permest "):
            shown = []
            examples.append((shlex.split(line)[2:], shown))
        elif line.strip() in ("", "...", "```"):
            shown = None
        elif shown is not None:
            shown.append(line)
    return examples


EXAMPLES = _readme_examples()


class TestReadme:
    @pytest.mark.parametrize(
        "argv, shown", EXAMPLES, ids=[" ".join(argv[:3]) for argv, _ in EXAMPLES]
    )
    def test_command_example_prints_what_it_shows(self, capsys, argv, shown):
        assert shown
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines()[: len(shown)] == shown

    def test_derandomization_example_runs(self):
        script = README.split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(script, "README.md", "exec"), {})


class TestJson:
    def test_same_fields_as_text(self, capsys, identity2):
        _, text_out, _ = run(capsys, "exact", "--matrix", identity2)
        code, json_out, _ = run(
            capsys, "exact", "--matrix", identity2, "--format", "json"
        )
        assert code == 0
        obj = json.loads(json_out)
        text_keys = {line.split("=", 1)[0] for line in text_out.splitlines()[1:]}
        assert set(obj) == text_keys
        assert obj["value_re"] == 1.0

    def test_every_command_supports_json(self, capsys, hom):
        for argv in [
            ("optics", "bound", "--pattern", "3,1"),
            ("optics", "prob", "--unitary", hom, "--out-pattern", "2,0"),
            ("space", "build", "--kind", "binary", "--n", "4", "--epsilon", "0.5"),
            ("bound", "--matrix", hom),
        ]:
            code, out, _ = run(capsys, *argv, "--format", "json")
            assert code == 0
            json.loads(out)


class TestImportGraph:
    """A process imports only the permest modules its work reaches: the
    package resolves its names on first use and each command imports what
    it runs when it runs. Each case is a fresh process that writes no
    bytecode, so it compiles every module it imports."""

    SCRIPT = (
        "import contextlib, io, sys\n"
        "import permest\n"
        "if ARGV:\n"
        "    from permest.cli import main\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(ARGV) == 0\n"
        "print(*sorted(m for m in sys.modules if m.startswith('permest.')))\n"
    )

    @pytest.mark.parametrize(
        "argv, modules",
        [
            pytest.param((), "", id="import"),
            pytest.param(
                ("exact", "--matrix", "{m}", "--method", "ryser"),
                "cli errors exact matrices",
                id="exact",
            ),
            pytest.param(
                ("estimate", "--matrix", "{m}", "--epsilon", "0.5"),
                "cli errors estimators matrices",
                id="estimate-random",
            ),
            pytest.param(
                ("bound", "--matrix", "{m}"), "cli errors estimators matrices", id="bound"
            ),
            pytest.param(
                ("space", "build", "--kind", "binary", "--n", "4", "--epsilon", "0.5"),
                "binary_bias cli errors matrices",
                id="space-build-binary",
            ),
            pytest.param(
                ("estimate", "--matrix", "{b}", "--mult", "2,2", "--mode", "derandomized",
                 "--epsilon", "0.5"),
                "binary_bias cli complex_bias errors estimators matrices",
                id="estimate-derandomized-mult",
            ),
            pytest.param(
                ("estimate", "--matrix", "{m}", "--mode", "derandomized",
                 "--space", "binary n=4 m=0 poly=0x0 eps=0 mode=exhaustive"),
                "binary_bias cli errors estimators exact matrices",
                id="estimate-derandomized-uniform",
            ),
            pytest.param(
                ("space", "audit", "--descriptor", "binary n=8 m=5 poly=0x25 eps=0.25"),
                "binary_bias cli errors matrices",
                id="space-audit-binary",
            ),
            pytest.param(
                ("space", "audit", "--descriptor",
                 "complex k=3 s=2,2,2 p=17 c=7 r=0 l=0 eps=0 mode=exhaustive"),
                "binary_bias cli complex_bias errors estimators matrices",
                id="space-audit-complex",
            ),
            pytest.param(
                ("optics", "bound", "--pattern", "2,1"),
                "cli errors matrices optics",
                id="optics-bound",
            ),
            pytest.param(
                ("optics", "prob", "--unitary", "{m}", "--out-pattern", "2,1,0,0"),
                "cli errors exact matrices optics",
                id="optics-prob-exact",
            ),
        ],
    )
    def test_loads_only_what_the_command_runs(self, tmp_path, argv, modules):
        path = write_matrix(tmp_path, "a.txt", np.eye(4) + 0.25)
        base = write_matrix(tmp_path, "b.txt", np.ones((4, 2)) / 2)
        argv = [arg.format(m=path, b=base) for arg in argv]
        out = python_stdout(f"ARGV = {argv!r}\n" + self.SCRIPT, PYTHONDONTWRITEBYTECODE="1")
        assert out.split() == [f"permest.{name}" for name in modules.split()]

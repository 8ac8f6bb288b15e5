import cmath
import math
import os
import sys
import threading
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permest.exact
from permest.errors import SizeLimitError
from permest.exact import (
    _permutations,
    permanent_gengly_exact,
    permanent_glynn_exact,
    permanent_naive,
    permanent_ryser,
)
from permest.matrices import MultiplicitySpec, expand

from oracles import (
    gly_mean_unhalved,
    gengly_mean_exhaustive,
    grid_table_by_outer_products,
    permanent_by_permutations,
    python_stdout,
    random_complex,
    random_mults,
    stdout_per_blas_threads,
)


def rel_close(x, y, rel=1e-9, floor=1e-12):
    return abs(x - y) <= rel * max(abs(x), abs(y)) + floor


class TestNaive:
    def test_identity(self):
        assert permanent_naive(np.eye(3)) == 1

    def test_two_by_two(self):
        a = np.array([[1 + 2j, 3.0], [0.5j, -1.0]])
        assert permanent_naive(a) == pytest.approx(a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0])

    def test_all_ones(self):
        assert permanent_naive(np.ones((4, 4))) == 24

    def test_size_cap(self):
        with pytest.raises(SizeLimitError):
            permanent_naive(np.ones((11, 11)))

    def test_rejects_rectangular(self):
        with pytest.raises(ValueError):
            permanent_naive(np.ones((2, 3)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_table_holds_every_permutation_once(self, n):
        perms = _permutations(n)
        assert perms.shape == (math.factorial(n), n)
        assert np.array_equal(np.sort(perms, axis=1), np.tile(np.arange(n), (len(perms), 1)))
        assert len({row.tobytes() for row in perms}) == len(perms)

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("real", [True, False])
    def test_matches_permutation_loop(self, n, real):
        rng = np.random.default_rng(90 + n)
        a = rng.uniform(-1.0, 1.0, (n, n)) if real else random_complex(rng, n)
        ref = permanent_by_permutations(a)
        assert abs(permanent_naive(a) - ref) <= 1e-13 * abs(ref)


class TestRyser:
    def test_identity(self):
        assert permanent_ryser(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_all_ones_closed_form(self):
        assert permanent_ryser(np.ones((6, 6))) == pytest.approx(720.0, abs=1e-9)

    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        a = random_complex(rng, 7)
        assert rel_close(permanent_ryser(a), permanent_naive(a))

    def test_single_entry(self):
        assert permanent_ryser(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)

    def test_size_cap(self):
        # the cap is on n, not on the grid: a spec of n = 40 in two groups of
        # 20 has only 441 grid points, but its binomial weights, up to
        # C(20, 10)^2, cancel so badly that grouped Ryser misses gengly-exact
        # by a relative error of thousands
        for target in (np.ones((31, 31)), MultiplicitySpec(np.ones((31, 2)), (16, 15))):
            with pytest.raises(SizeLimitError):
                permanent_ryser(target)

    def test_blocked_kernel_matches_single_block(self):
        rng = np.random.default_rng(2)
        a = random_complex(rng, 8)
        with mock.patch.object(permest.exact, "_BLOCK_BITS", 3):
            blocked = permanent_ryser(a)
        assert blocked == pytest.approx(permanent_ryser(a), rel=1e-12)


class TestGlynnExact:
    def test_identity(self):
        assert permanent_glynn_exact(np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_naive(self):
        rng = np.random.default_rng(3)
        a = random_complex(rng, 7)
        assert rel_close(permanent_glynn_exact(a), permanent_naive(a))

    def test_nonneg_matches_ryser(self):
        rng = np.random.default_rng(4)
        a = rng.random((10, 10)).astype(complex)
        got = permanent_glynn_exact(a)
        ref = permanent_ryser(a)
        assert rel_close(got, ref)

    def test_halving_matches_unhalved_mean(self):
        rng = np.random.default_rng(5)
        for n in range(1, 7):
            a = random_complex(rng, n)
            halved = permanent_glynn_exact(a)
            full = gly_mean_unhalved(a)
            assert abs(halved - full) <= 1e-12 * max(1.0, abs(full))

    def test_size_cap(self):
        for target in (np.ones((31, 31)), MultiplicitySpec(np.ones((31, 2)), (16, 15))):
            with pytest.raises(SizeLimitError):
                permanent_glynn_exact(target)

    def test_blocked_kernel_matches_single_block(self):
        rng = np.random.default_rng(6)
        a = random_complex(rng, 9)
        with mock.patch.object(permest.exact, "_BLOCK_BITS", 4):
            blocked = permanent_glynn_exact(a)
        assert blocked == pytest.approx(permanent_glynn_exact(a), rel=1e-12)


class TestGenGlyExact:
    def test_doubled_ones_column(self):
        spec = MultiplicitySpec(np.array([[1.0], [1.0]]), (2,))
        assert permanent_gengly_exact(spec) == pytest.approx(2.0, abs=1e-9)

    def test_all_ones_mults_match_glynn(self):
        rng = np.random.default_rng(7)
        b = random_complex(rng, 5)
        spec = MultiplicitySpec(b, (1,) * 5)
        assert permanent_gengly_exact(spec) == pytest.approx(
            permanent_glynn_exact(b), abs=1e-9
        )

    def test_zero_column(self):
        b = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        spec = MultiplicitySpec(b, (1, 2))
        assert abs(permanent_gengly_exact(spec)) <= 1e-12

    def test_matches_naive_on_expansion(self):
        rng = np.random.default_rng(8)
        for _ in range(15):
            n = int(rng.integers(2, 8))
            mults = random_mults(rng, n)
            b = random_complex(rng, n, len(mults))
            spec = MultiplicitySpec(b, mults)
            got = permanent_gengly_exact(spec)
            ref = permanent_naive(expand(spec))
            assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))

    def test_matches_plain_loop_oracle(self):
        rng = np.random.default_rng(9)
        b = random_complex(rng, 4, 2)
        spec = MultiplicitySpec(b, (2, 2))
        assert permanent_gengly_exact(spec) == pytest.approx(
            gengly_mean_exhaustive(spec), abs=1e-10
        )

    @pytest.mark.parametrize("mults", [(3, 2, 1), (2, 2, 2), (4, 1, 1)])
    def test_real_base_gives_real_value(self, mults):
        # points e and -e of the grid give conjugate terms on a real base,
        # so the imaginary part is rounding only and is dropped
        base = np.random.default_rng(sum(mults) * 7).uniform(-1.0, 1.0, (6, 3))
        got = permanent_gengly_exact(MultiplicitySpec(base, mults))
        ref = permanent_naive(expand(MultiplicitySpec(base, mults)))
        assert got.imag.hex() == "0x0.0p+0"
        assert abs(got.real - ref.real) <= 1e-12 * max(1.0, abs(ref))

    def test_size_cap(self):
        n = 31
        spec = MultiplicitySpec(np.ones((n, n)), (1,) * n)
        with pytest.raises(SizeLimitError):
            permanent_gengly_exact(spec)


def _kernel_table_inputs(kernel, arg):
    """The (a, values, weights) the kernel hands its table build."""
    seen = []
    build = permest.exact._grid_table

    def recording(*args):
        seen.append(args)
        return build(*args)

    with mock.patch.object(permest.exact, "_grid_table", recording):
        kernel(arg)
    (args,) = seen
    return args


def _table_cases():
    rng = np.random.default_rng(22)
    real, cplx = rng.uniform(-1.0, 1.0, (15, 15)), random_complex(rng, 15)
    mults = (3, 2, 1, 4)
    # the table columns each _BLOCK_BITS from 0 to 14 can give
    cases = [
        pytest.param(kernel, a, splits, id=f"{kernel.__name__}-{kind}")
        for kernel, splits in ((permanent_ryser, range(15)), (permanent_glynn_exact, range(1, 16)))
        for kind, a in (("real", real), ("complex", cplx))
    ]
    for kind, base in (("real", rng.uniform(-1.0, 1.0, (10, 4))), ("complex", random_complex(rng, 10, 4))):
        spec = MultiplicitySpec(base, mults)
        cases.append(pytest.param(permanent_gengly_exact, spec, range(5), id=f"gengly-{kind}-3214"))
    return cases


class TestGridTable:
    @pytest.mark.parametrize("kernel, arg, splits", _table_cases())
    def test_in_place_build_matches_outer_products(self, kernel, arg, splits):
        # the same entries, bit for bit, as a build that makes a new table
        # per column, at every table split: Ryser's {0, 1} and Glynn's signs
        # (first column fixed) on 15 columns move the split at every
        # _BLOCK_BITS from 0 to 14, gengly's roots on moduli (4, 3, 2, 5) at
        # 0, 2, 4, 5 and 7
        a, values, weights = _kernel_table_inputs(kernel, arg)
        lows = []
        for bits in range(15):
            with mock.patch.object(permest.exact, "_BLOCK_BITS", bits):
                table, table_w, low = permest.exact._grid_table(a, values, weights)
            ref_table, ref_w, ref_low = grid_table_by_outer_products(a, values, weights, bits)
            assert low == ref_low
            for got, ref in ((table, ref_table), (table_w, ref_w)):
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.array_equal(got.view(np.float64), ref.view(np.float64))
            lows.append(low)
        assert sorted(set(lows)) == list(splits)


class TestCrossMethodProperties:
    def test_oracle_agreement(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            a = random_complex(rng, n)
            p0 = permanent_naive(a)
            assert rel_close(permanent_ryser(a), p0)
            assert rel_close(permanent_glynn_exact(a), p0)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        a = random_complex(rng, 6)
        base = permanent_naive(a)
        for _ in range(4):
            p = rng.permutation(6)
            q = rng.permutation(6)
            b = a[p][:, q]
            assert rel_close(permanent_naive(b), base)
            assert rel_close(permanent_ryser(b), base)
            assert rel_close(permanent_glynn_exact(b), base)

    def test_row_scaling_multilinearity(self):
        rng = np.random.default_rng(12)
        a = random_complex(rng, 5)
        c = 2.0 - 3.0j
        scaled = a.copy()
        scaled[2] *= c
        ref = c * permanent_naive(a)
        assert rel_close(permanent_naive(scaled), ref)
        assert rel_close(permanent_ryser(scaled), ref)
        assert rel_close(permanent_glynn_exact(scaled), ref)


# Property tests over all three kernels, every table split (_BLOCK_BITS 0 puts
# every column in the outer loop, 14 every column of n <= 7 in the table) and
# both dtype paths. Matrices come from a drawn seed so that every example is
# well scaled; derandomize keeps the examples fixed from run to run. The split
# is patched in the test body: hypothesis rejects function-scoped fixtures
# such as monkeypatch, which would not reset between examples.
KERNELS = (permanent_ryser, permanent_glynn_exact)
property_settings = settings(derandomize=True, max_examples=100, deadline=None)


@st.composite
def square_matrices(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return rng.uniform(-1.0, 1.0, (n, n))
    return random_complex(rng, n)


@st.composite
def specs(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mults = random_mults(rng, n)
    k = len(mults)
    b = rng.uniform(-1.0, 1.0, (n, k)) if draw(st.booleans()) else random_complex(rng, n, k)
    return MultiplicitySpec(b, mults)


table_splits = st.sampled_from((0, 1, 3, 14))


def table_bits(bits: int):
    return mock.patch.object(permest.exact, "_BLOCK_BITS", bits)


def agree(x, y, a):
    """1e-9 relative, with a rounding-level floor scaled by prod_i sum_j |a_ij|,
    the largest a term of either formula can be."""
    scale = float(np.prod(np.abs(a).sum(axis=1)))
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y)) + 1e-12 * scale


class TestKernelProperties:
    @property_settings
    @given(st.one_of(square_matrices(), specs()), table_splits)
    def test_ryser_and_glynn_match_naive(self, target, bits):
        # a spec's kernels sum its grouped grid, naive its expanded matrix
        a = expand(target) if isinstance(target, MultiplicitySpec) else target
        ref = permanent_naive(target)
        with table_bits(bits):
            for kernel in KERNELS:
                assert agree(kernel(target), ref, a)

    @property_settings
    @given(st.integers(1, 7), st.integers(0, 2**32 - 1), st.booleans(), table_splits)
    def test_gengly_matches_naive_on_expansion(self, n, seed, real, bits):
        rng = np.random.default_rng(seed)
        mults = random_mults(rng, n)
        k = len(mults)
        b = rng.uniform(-1.0, 1.0, (n, k)) if real else random_complex(rng, n, k)
        spec = MultiplicitySpec(b, mults)
        a = expand(spec)
        with table_bits(bits):
            assert agree(permanent_gengly_exact(spec), permanent_naive(a), a)

    @property_settings
    @given(
        square_matrices(),
        table_splits,
        st.floats(-10.0, 10.0).filter(lambda x: abs(x) >= 0.1),
        st.floats(-math.pi, math.pi),
    )
    def test_scaling(self, a, bits, size, angle):
        n = a.shape[0]
        c = size * cmath.exp(1j * angle) if np.iscomplexobj(a) else size
        with table_bits(bits):
            for kernel in KERNELS:
                assert agree(kernel(c * a), c**n * kernel(a), abs(c) * a)

    @property_settings
    @given(square_matrices(), table_splits)
    def test_transpose(self, a, bits):
        with table_bits(bits):
            for kernel in KERNELS:
                assert agree(kernel(a.T), kernel(a), a)

    @property_settings
    @given(square_matrices(), table_splits, st.randoms(use_true_random=False))
    def test_row_and_column_permutations(self, a, bits, rnd):
        n = a.shape[0]
        rows, cols = rnd.sample(range(n), n), rnd.sample(range(n), n)
        with table_bits(bits):
            for kernel in KERNELS:
                assert agree(kernel(a[rows][:, cols]), kernel(a), a)

    @property_settings
    @given(square_matrices(), table_splits)
    def test_real_input_has_exactly_zero_imaginary_part(self, a, bits):
        a = a.real
        spec = MultiplicitySpec(a, (1,) * a.shape[0])
        with table_bits(bits):
            values = (permanent_ryser(a), permanent_glynn_exact(a), permanent_gengly_exact(spec))
        for value in values:
            assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0

    @property_settings
    @given(square_matrices(), table_splits)
    def test_gengly_with_unit_mults_is_glynn(self, a, bits):
        spec = MultiplicitySpec(a, (1,) * a.shape[0])
        with table_bits(bits):
            assert agree(permanent_gengly_exact(spec), permanent_glynn_exact(a), a)


def test_same_under_one_and_two_blas_threads():
    # each table is reduced by a pairwise sum: the BLAS dot it replaced split
    # across threads, and moved Glynn's and Ryser's last bits with their count
    script = (
        "import numpy as np\n"
        "from permest.exact import permanent_gengly_exact, permanent_glynn_exact, permanent_ryser\n"
        "from permest.matrices import MultiplicitySpec\n"
        "rng = np.random.default_rng(16)\n"
        "real = rng.uniform(0.0, 1.0, (16, 16))\n"
        "cplx = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))\n"
        "specs = [MultiplicitySpec(rng.uniform(0.0, 1.0, (20, 10)), (2,) * 10),\n"
        "         MultiplicitySpec(rng.normal(size=(18, 9)) + 1j * rng.normal(size=(18, 9)), (2,) * 9)]\n"
        "real20 = rng.uniform(-1.0, 1.0, (20, 20))\n"
        "values = [f(a) for a in (real, cplx, real20) for f in (permanent_ryser, permanent_glynn_exact)]\n"
        "values += [permanent_gengly_exact(spec) for spec in specs]\n"
        "for v in values:\n"
        "    print(v.real.hex(), v.imag.hex())\n"
    )
    outputs = stdout_per_blas_threads(script)
    assert len(outputs[0].splitlines()) == 8
    assert outputs[0] == outputs[1]


def _can_pin_to_one_cpu() -> bool:
    if not hasattr(os, "sched_setaffinity"):
        return False
    cpus = os.sched_getaffinity(0)
    try:
        # setting the mask the process already has changes nothing
        os.sched_setaffinity(0, cpus)
    except OSError:
        return False
    return len(cpus) > 1


class TestWorkers:
    """``_grid_sum`` splits the outer points across the process's CPUs; the
    value must not depend on how many there are."""

    def test_same_on_one_cpu_and_on_all(self):
        if not _can_pin_to_one_cpu():
            pytest.skip("needs two CPUs and a settable CPU affinity")
        body = (
            "import numpy as np\n"
            "import permest.exact as exact\n"
            "from permest.matrices import MultiplicitySpec\n"
            "rng = np.random.default_rng(18)\n"
            "print(exact._CPUS)\n"
            "values = []\n"
            "for n in (18, 20, 22):\n"
            "    real = rng.uniform(-1.0, 1.0, (n, n))\n"
            "    cplx = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))\n"
            "    values += [f(a) for a in (real, cplx)\n"
            "               for f in (exact.permanent_ryser, exact.permanent_glynn_exact)]\n"
            "values.append(exact.permanent_gengly_exact(MultiplicitySpec(\n"
            "    rng.normal(size=(18, 18)) + 1j * rng.normal(size=(18, 18)), (1,) * 18)))\n"
            "values.append(exact.permanent_gengly_exact(MultiplicitySpec(\n"
            "    rng.normal(size=(20, 10)) + 1j * rng.normal(size=(20, 10)), (2,) * 10)))\n"
            "for v in values:\n"
            "    print(v.real.hex(), v.imag.hex())\n"
        )
        # the pin comes before numpy and permest are imported
        pinned = "import os\nos.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n" + body
        one, *one_values = python_stdout(pinned).splitlines()
        every, *every_values = python_stdout(body).splitlines()
        assert (int(one), int(every)) == (1, len(os.sched_getaffinity(0)))
        assert len(one_values) == 14
        assert one_values == every_values

    # recorded with the one-point-at-a-time outer loop the batches replaced
    PINNED = {
        ("real", "permanent_ryser"): ("-0x1.049962ab462ecp+15", "0x0.0p+0"),
        ("real", "permanent_glynn_exact"): ("-0x1.049962ab4623dp+15", "0x0.0p+0"),
        ("complex", "permanent_ryser"): ("0x1.04638b0b42b80p+41", "-0x1.91f6a6e9f33a0p+38"),
        ("complex", "permanent_glynn_exact"): ("0x1.04638b0b48e46p+41", "-0x1.91f6a6e9a25e5p+38"),
    }

    def test_outer_points_are_decoded_not_listed(self, monkeypatch):
        # _BLOCK_BITS 0 puts all 12 columns in the outer grid: 4096 points of a
        # one-entry table. Their terms take 32 KiB; a list of every point as
        # (value, weight) pairs peaked at 0.44 MiB (12.7 MiB at n=16)
        a = np.random.default_rng(12).uniform(-1.0, 1.0, (12, 12))
        monkeypatch.setattr(permest.exact, "_BLOCK_BITS", 0)
        tracemalloc.start()
        try:
            permanent_ryser(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 << 10

    def test_table_is_built_in_place(self, monkeypatch):
        # a 16x16 real Glynn keeps a 16 x 2^14 float64 table (2 MiB) and one
        # batch of its 2 outer points (2 x 2 x 2^14 float64, 0.5 MiB); making
        # a new table per column peaked 0.69 MiB above them, the in-place
        # build 0.13 MiB (its 2^14 weights)
        monkeypatch.setattr(permest.exact, "_CPUS", 1)
        a = np.random.default_rng(16).uniform(-1.0, 1.0, (16, 16))
        table, buffers = 16 * 2**14 * 8, 2 * 2 * 2**14 * 8
        tracemalloc.start()
        try:
            permanent_glynn_exact(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table + buffers + (256 << 10)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_bits_are_pinned(self, monkeypatch, cpus):
        # 8 runs 4 to 8 workers, more than the cores, and a short switch
        # interval interleaves them often: a term lost or stored at another
        # point's index changes the bits
        monkeypatch.setattr(permest.exact, "_CPUS", cpus)
        rng = np.random.default_rng(2020)
        real = rng.uniform(-1.0, 1.0, (20, 20))
        cplx = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for kind, a in (("real", real), ("complex", cplx)):
                # a matrix is its all-ones spec, bit for bit
                for target in (a, MultiplicitySpec(a, (1,) * 20)):
                    for kernel in KERNELS:
                        v = kernel(target)
                        assert (v.real.hex(), v.imag.hex()) == self.PINNED[kind, kernel.__name__]
        finally:
            sys.setswitchinterval(interval)

    def test_one_entry_table_bits_are_pinned(self, monkeypatch):
        # _BLOCK_BITS 0 leaves one entry in the table: a complex multiply of a
        # lone pair rounds unlike a longer run, so each batch is one point
        rng = np.random.default_rng(2020)
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        monkeypatch.setattr(permest.exact, "_BLOCK_BITS", 0)
        got = [kernel(a) for kernel in KERNELS]
        assert [(v.real.hex(), v.imag.hex()) for v in got] == [
            ("-0x1.10965301c8f24p+9", "-0x1.defa4194b3660p+10"),
            ("-0x1.10965301c8ed7p+9", "-0x1.defa4194b364dp+10"),
        ]

    @pytest.mark.parametrize("n, started", [(12, 0), (16, 0), (18, 1), (20, 1)])
    def test_threads_started_and_joined(self, monkeypatch, n, started):
        # one batch holds every point up to n = 16, so no thread starts
        monkeypatch.setattr(permest.exact, "_CPUS", 2)
        count = []
        real_start = threading.Thread.start

        def start(thread):
            count.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        before = threading.active_count()
        permanent_ryser(np.random.default_rng(n).uniform(-1.0, 1.0, (n, n)))
        assert len(count) == started
        assert threading.active_count() == before
        assert not any(thread.is_alive() for thread in count)

    @pytest.mark.parametrize("raiser", ["worker", "caller"])
    def test_worker_failure_reaches_the_caller(self, monkeypatch, raiser):
        monkeypatch.setattr(permest.exact, "_CPUS", 2)
        real_batch = permest.exact._batch_terms
        failure = RuntimeError("batch failed")
        caller_batches = []
        caller_started = threading.Event()
        existing = set(threading.enumerate())

        def batch(*args):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller:
                caller_batches.append(args)
                caller_started.set()
                if raiser == "worker":
                    # the worker fails while the caller is in its first batch
                    for thread in set(threading.enumerate()) - existing:
                        thread.join(timeout=5.0)
            elif raiser == "worker":
                caller_started.wait(timeout=5.0)
            if in_caller == (raiser == "caller"):
                raise failure
            real_batch(*args)

        monkeypatch.setattr(permest.exact, "_batch_terms", batch)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            permanent_glynn_exact(np.random.default_rng(1).uniform(-1.0, 1.0, (20, 20)))
        assert caught.value is failure
        assert threading.active_count() == before
        # the caller stops at its next batch once a worker has failed
        assert len(caller_batches) == 1

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_overflow_raises_without_warnings(self, monkeypatch, kernel):
        # 20! * (20e30)^20 is far beyond double range; each worker ignores
        # the overflow under its own error state
        monkeypatch.setattr(permest.exact, "_CPUS", 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                kernel(np.full((20, 20), 1e30))

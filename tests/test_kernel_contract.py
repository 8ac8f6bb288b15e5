"""The kernel contract, checked once over one table of entries: the exact
kernels and every estimator entry, by one set of hypothesis properties over one
target strategy (matrices and specs, real and complex; an entry that needs
nonnegative input runs on the target's magnitudes) at every table split of the
exact kernels. A new kernel or averaging route joins the suite with one
``ENTRIES`` row and the names of the properties it promises."""

import cmath
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import permest.exact
from permest.binary_bias import build_binary_space, exhaustive_binary_space
from permest.complex_bias import build_complex_space, exhaustive_complex_space
from permest.estimators import (
    estimate_derandomized,
    estimate_derandomized_multi,
    estimate_exhaustive,
    estimate_random,
    estimate_random_multi,
    permanent_upper_bound,
)
from permest.exact import (
    permanent_gengly_exact,
    permanent_glynn_exact,
    permanent_naive,
    permanent_ryser,
)
from permest.matrices import MultiplicitySpec, as_spec, expand

from oracles import (
    close,
    magnitude,
    permanent_of_spec,
    random_complex,
    stdout_per_blas_threads,
    targets,
)


def _uniform(target):
    """The uniform space on the target's grid: binary where every modulus is 2."""
    moduli = as_spec(target).moduli
    if set(moduli) == {2}:
        return exhaustive_binary_space(len(moduli))
    return exhaustive_complex_space(moduli)


@functools.cache
def _built(n):
    # m = 2 to 5 field bits at n = 1 to 8: 16 to 1,024 seeds, never uniform
    return build_binary_space(n, 0.25)


# each entry's value at a target. eps = 0.07 takes 4,891 samples: one full
# block, looked up in the grid's table up to n = 12, and a ragged one
ENTRIES = {
    "permanent_naive": permanent_naive,
    "permanent_ryser": permanent_ryser,
    "permanent_glynn_exact": permanent_glynn_exact,
    "permanent_gengly_exact": permanent_gengly_exact,
    "estimate_exhaustive": lambda t: estimate_exhaustive(t).value,
    "estimate_derandomized uniform": lambda t: estimate_derandomized(t, _uniform(t)).value,
    # matrices only: a spec's constructed spaces are too many seeds to build per example
    "estimate_derandomized built": lambda t: estimate_derandomized(t, _built(t.shape[0])).value,
    "estimate_random": lambda t: estimate_random(t, 0.07, rng_seed=7).value,
    "estimate_random_multi": lambda t: estimate_random_multi(t, 0.07, rng_seed=7).value,
    "estimate_derandomized_multi uniform": (
        lambda t: estimate_derandomized_multi(t, _uniform(t)).value
    ),
}
KERNELS = ["permanent_naive", "permanent_ryser", "permanent_glynn_exact", "permanent_gengly_exact"]
# an average whose guarantee the bound term states: compared within 1e-12 of it too
ESTIMATES = [name for name in ENTRIES if name.startswith("estimate")]
# the whole grid's mean, which is the permanent itself
WHOLE_GRID = ["permanent_ryser", "permanent_glynn_exact", "permanent_gengly_exact",
              "estimate_exhaustive", "estimate_derandomized uniform",
              "estimate_derandomized_multi uniform"]
NONNEGATIVE = {name for name in ENTRIES if name.startswith("estimate_derandomized")}
# the targets an entry takes where it cannot take them all: the built space is
# binary, and naive, in factorial time, joins the properties up to n = 6
TAKES = {
    "estimate_derandomized built": lambda t: not isinstance(t, MultiplicitySpec),
    "permanent_naive": lambda t: as_spec(t).n <= 6,
}
# a matrix's value is its all-ones spec's, bit for bit
ALL_ONES = [*KERNELS, "estimate_random_multi", "estimate_derandomized_multi uniform"]
# a forward's value is its entry's on as_spec(target), bit for bit
FORWARDS = {
    "estimate_random_multi": "estimate_random",
    "estimate_derandomized_multi uniform": "estimate_derandomized uniform",
}
# real input gives an imaginary part of exactly +0: on a matrix everywhere but
# in the forwards' roots of unity, on a spec in the kernels and the exhaustive
# estimate, whose gengly grid sum drops its rounding-level imaginary part
REAL_MATRICES = [name for name in ENTRIES if name not in FORWARDS]
REAL_SPECS = [*KERNELS, "estimate_exhaustive"]

# _BLOCK_BITS 0 puts every column in the outer loop, 14 every column of n <= 7
# in the table. The split is patched in the test body: hypothesis rejects
# function-scoped fixtures such as monkeypatch, which would not reset between
# examples; derandomize keeps the examples fixed from run to run
table_splits = st.sampled_from((0, 1, 3, 14))
property_settings = settings(derandomize=True, max_examples=100, deadline=None)
# a property that holds for matrices and specs alike runs 100 examples of each
kinds = pytest.mark.parametrize("spec", [False, True], ids=["matrix", "spec"])


def table_bits(bits: int):
    return mock.patch.object(permest.exact, "_BLOCK_BITS", bits)


def runs_on(name, target):
    """The entry's input for the target, or None where it takes none."""
    if name in TAKES and not TAKES[name](target):
        return None
    return magnitude(target) if name in NONNEGATIVE else target


def like(target, base, mults=None):
    """A target of the kind of ``target`` on another base: a matrix, or a
    spec of the same (or the given) multiplicities."""
    if not isinstance(target, MultiplicitySpec):
        return base
    return MultiplicitySpec(base, target.mults if mults is None else mults)


def same(name, x, y, target) -> bool:
    """``close``, within 1e-12 of the bound term too for an estimate."""
    return close(x, y, target, permanent_upper_bound(target) if name in ESTIMATES else None)


def hex_bits(z) -> tuple[str, str]:
    return z.real.hex(), z.imag.hex()


@kinds
@property_settings
@given(st.data(), table_splits)
def test_whole_grid_means_are_the_permanent(spec, data, bits):
    # a spec's kernels sum its grouped grid, and its reference the
    # assignments of rows to column groups; the entries that need nonnegative
    # input take the nonnegative targets. Every table split gives the default
    # split's value within 1e-12 relative
    target = data.draw(targets(spec, max_n=10 if spec else 8))
    per = permanent_of_spec(target) if spec else permanent_naive(target)
    base = as_spec(target).base
    nonnegative = np.array_equal(base, np.abs(base))
    for name in WHOLE_GRID:
        if name in NONNEGATIVE and not nonnegative:
            continue
        with table_bits(bits):
            value = ENTRIES[name](target)
        assert same(name, value, per, target), name
        if not isinstance(target, MultiplicitySpec):
            assert value == pytest.approx(ENTRIES[name](target), rel=1e-12), name


@pytest.mark.parametrize("mults", [(1,), (4,), (2, 1), (1,) * 6, (2, 3, 1), (1, 4, 1, 2)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_spec_reference_is_the_expanded_permanent(mults, kind):
    # the [spec] reference above against naive on the expanded matrix
    rng = np.random.default_rng(len(mults) + sum(mults))
    n, k = sum(mults), len(mults)
    base = rng.uniform(-1.0, 1.0, (n, k)) if kind == "real" else random_complex(rng, n, k)
    spec = MultiplicitySpec(base, mults)
    assert close(permanent_of_spec(spec), permanent_naive(expand(spec)), spec)


@kinds
@property_settings
@given(
    st.data(),
    table_splits,
    st.floats(0.01, 100.0),
    st.floats(-math.pi, math.pi),
    st.integers(0, 2**16),
)
def test_scaling(spec, data, bits, size, angle, row):
    # Per(cA) = c^n Per(A): a complex c on complex input, a real one of
    # either sign on real input, and its magnitude on nonnegative input; the
    # bound term scales by |c|^n, and a kernel's value by c when one row does
    target = data.draw(targets(spec))
    base = as_spec(target).base
    n, row = base.shape[0], row % base.shape[0]
    c = size * cmath.exp(1j * angle) if base.imag.any() else math.copysign(size, angle)
    with table_bits(bits):
        for name, entry in ENTRIES.items():
            x = runs_on(name, target)
            if x is None:
                continue
            factor = size if name in NONNEGATIVE else c
            value, scaled = entry(x), like(x, factor * as_spec(x).base)
            assert same(name, entry(scaled), factor**n * value, scaled), name
            if name in KERNELS:
                one_row = base.copy()
                one_row[row] *= c
                assert close(entry(like(x, one_row)), c * value, like(x, one_row)), name
    bound = abs(c) ** n * permanent_upper_bound(target)
    assert permanent_upper_bound(like(target, c * base)) == pytest.approx(bound, rel=1e-12)


@kinds
@property_settings
@given(st.data(), table_splits, st.randoms(use_true_random=False))
def test_transpose_and_permutations(spec, data, bits, rnd):
    # every entry is invariant under row order; the kernels and the whole
    # grid's means under row and column order at once (a spec's columns move
    # with their multiplicities) and a matrix's under transposition
    target = data.draw(targets(spec))
    grid = as_spec(target)
    rows, cols = rnd.sample(range(grid.n), grid.n), rnd.sample(range(grid.k), grid.k)
    with table_bits(bits):
        for name, entry in ENTRIES.items():
            x = runs_on(name, target)
            if x is None:
                continue
            base = as_spec(x).base
            if name in KERNELS or name in WHOLE_GRID:
                others = [like(x, base[rows][:, cols], [grid.mults[j] for j in cols])]
                if not isinstance(target, MultiplicitySpec):
                    others.append(base.T)
            else:
                others = [like(x, base[rows])]
            value = entry(x)
            for other in others:
                assert same(name, entry(other), value, x), name


@kinds
@property_settings
@given(st.data(), table_splits)
def test_real_input_has_exactly_zero_imaginary_part(spec, data, bits):
    target = data.draw(targets(spec))
    real = like(target, as_spec(target).base.real)
    names = REAL_SPECS if isinstance(target, MultiplicitySpec) else REAL_MATRICES
    with table_bits(bits):
        for name in names:
            x = runs_on(name, real)
            if x is not None:
                value = ENTRIES[name](x)
                assert value.imag == 0.0 and math.copysign(1.0, value.imag) == 1.0, name


@property_settings
@given(targets(False), table_splits)
def test_matrix_is_its_all_ones_spec(a, bits):
    # and gengly's value, the mean over every sign vector, is Glynn's over
    # half of them, within ``close`` and within 1e-9
    with table_bits(bits):
        for name in ALL_ONES:
            x = runs_on(name, a)
            if x is not None:
                assert hex_bits(ENTRIES[name](x)) == hex_bits(ENTRIES[name](as_spec(x))), name
        gengly, glynn = permanent_gengly_exact(a), permanent_glynn_exact(a)
    assert close(gengly, glynn, a) and abs(gengly - glynn) <= 1e-9
    assert permanent_upper_bound(a).hex() == permanent_upper_bound(as_spec(a)).hex()


@kinds
@property_settings
@given(st.data())
def test_forwards_are_their_entries_on_the_spec(spec, data):
    target = data.draw(targets(spec))
    for name, entry in FORWARDS.items():
        x = runs_on(name, target)
        assert hex_bits(ENTRIES[name](x)) == hex_bits(ENTRIES[entry](as_spec(x))), name


@pytest.mark.parametrize(
    "target, space",
    [
        (MultiplicitySpec(np.full((3, 2), 0.5), (2, 1)), (3, 2)),
        (MultiplicitySpec(np.full((3, 3), 0.5), (1, 1, 1)), 3),
        (np.full((2, 2), 0.5), (2, 2)),
        (np.full((3, 3), 0.5), 3),
    ],
    ids=["spec-32-ell1", "all-ones-spec-binary-3", "matrix-22-ell1", "matrix-binary-3"],
)
def test_derandomized_forward_over_constructed_spaces(target, space):
    # the forward reads a matrix as its all-ones spec on any space, not only
    # the uniform ones of the table: constructed complex spaces of walk length
    # 1 and a built binary space
    target = like(target, np.random.default_rng(25).random(as_spec(target).base.shape))
    if isinstance(space, int):
        space = build_binary_space(space, 0.4)
    else:
        space = build_complex_space(space, 0.9, force_construction=True, ell=1)
    want = hex_bits(estimate_derandomized(as_spec(target), space).value)
    assert hex_bits(estimate_derandomized_multi(target, space).value) == want
    assert hex_bits(estimate_derandomized_multi(as_spec(target), space).value) == want


@pytest.mark.parametrize("name", WHOLE_GRID[1:4])
def test_whole_grid_means_agree_past_the_naive_cap(name):
    # 2^17 grid points, past naive's n <= 10: Glynn, gengly and the
    # exhaustive estimate against Ryser's sum, on real and complex dtype
    b = np.random.default_rng(4).random((17, 17)) / 17
    for base in (b, b.astype(complex)):
        for target in (base, MultiplicitySpec(base, (1,) * 17)):
            assert same(name, ENTRIES[name](target), permanent_ryser(target), target), name


def test_same_under_one_and_two_blas_threads():
    # every entry's value bit for bit: the exact kernels reduce each table by a
    # pairwise sum, and the derandomized means sum their support pairwise; a
    # BLAS dot in either split across threads and moved the last bits with
    # their count. A support of 24,503 cells ends in a ragged block of 4,023
    # rows, whose last 7 the real matmul rounded differently on one thread
    script = (
        "import numpy as np\n"
        "from permest.binary_bias import build_binary_space, exhaustive_binary_space\n"
        "from permest.complex_bias import build_complex_space, exhaustive_complex_space\n"
        "from permest.estimators import *\n"
        "from permest.exact import *\n"
        "from permest.matrices import MultiplicitySpec\n"
        "rng = np.random.default_rng(16)\n"
        "real = rng.uniform(0.0, 1.0, (16, 16))\n"
        "cplx = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))\n"
        "specs = [MultiplicitySpec(rng.uniform(0.0, 1.0, (20, 10)), (2,) * 10),\n"
        "         MultiplicitySpec(rng.normal(size=(18, 9)) + 1j * rng.normal(size=(18, 9)), (2,) * 9)]\n"
        "real20 = rng.uniform(-1.0, 1.0, (20, 20))\n"
        "values = [f(a) for a in (real, cplx, real20) for f in (permanent_ryser, permanent_glynn_exact)]\n"
        "values += [permanent_gengly_exact(spec) for spec in specs]\n"
        "values += [estimate_exhaustive(real).value, estimate_exhaustive(specs[0]).value,\n"
        "           estimate_derandomized(real, exhaustive_binary_space(16)).value]\n"
        "rng = np.random.default_rng(16)\n"
        "a = rng.uniform(0.0, 1.0, (16, 16))\n"
        "spec = MultiplicitySpec(rng.uniform(0.0, 1.0, (20, 10)), (2,) * 10)\n"
        "b = np.random.default_rng(1016).random((16, 16))\n"
        "values += [estimate_derandomized(a, build_binary_space(16, 0.05)).value,\n"
        "           estimate_derandomized(b, build_binary_space(16, 0.05)).value,\n"
        "           estimate_derandomized_multi(spec, exhaustive_complex_space((3,) * 10)).value,\n"
        "           estimate_derandomized_multi(MultiplicitySpec(rng.uniform(0.0, 1.0, (5, 3)), (2, 2, 1)),\n"
        "               build_complex_space((3, 3, 2), 0.8, force_construction=True, ell=1)).value]\n"
        "rng = np.random.default_rng(30)\n"
        "for n in (16, 30):\n"
        "    real = rng.uniform(0.0, 1.0, (n, n))\n"
        "    cplx = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))\n"
        "    for a in (real, cplx):\n"
        "        est = estimate_random(a, 0.9)\n"
        "        values += [est.value, est.bound_term]\n"
        "est = estimate_random_multi(MultiplicitySpec(rng.uniform(0.0, 1.0, (16, 8)), (2,) * 8), 0.9)\n"
        "values += [est.value, est.bound_term]\n"
        "for v in values:\n"
        "    print(complex(v).real.hex(), complex(v).imag.hex())\n"
    )
    outputs = stdout_per_blas_threads(script)
    assert len(outputs[0].splitlines()) == 25
    assert outputs[0] == outputs[1]

"""The sample-space contract, stated in ``binary_bias``, checked once over one
table of spaces of both kinds: uniform and constructed binary spaces on both
sides of the rows-or-histogram rule, uniform complex grids, and constructed
complex spaces at walk lengths 1 to 4 on both audit paths, counting and
enumeration. A new kind of space joins the suite with one factory entry."""

import functools
import math
from unittest import mock

import numpy as np
import pytest

from permest.binary_bias import build_binary_space, exhaustive_binary_space, measure_bias
from permest.binary_bias import space_from_descriptor
from permest.complex_bias import build_complex_space, exhaustive_complex_space, measure_complex_bias
from permest.errors import CapacityError, DescriptorError

from oracles import bias_by_characters, bias_by_dft, cells_by_seed, cells_by_seed_loop
from oracles import decode_cells, merged_support

# what measure_bias, the derandomized estimator and space_from_descriptor read
MEMBERS = ["moduli", "places", "seed_count", "seed_bits", "exhaustive", "declared_epsilon",
           "support_blocks", "support_histogram", "descriptor"]
SPACES = {
    "binary uniform n6": lambda: exhaustive_binary_space(6),
    # m = 3: 4 orbit rows of 8 cells outgrow the 16 grid cells, so the
    # support is the histogram's occupied cells
    "binary n4 histogram": lambda: build_binary_space(4, 0.5),
    # m = 5: 8 rows of 32 cells fill the 256 grid cells, so it is the rows
    "binary n8 rows": lambda: build_binary_space(8, 0.25),
    # m = 7: 20 rows of 128 cells, against 1,024 and 4,096 grid cells
    "binary n10 histogram": lambda: build_binary_space(10, 0.1),
    "binary n12 rows": lambda: build_binary_space(12, 0.1),
    "complex uniform 2x3x4": lambda: exhaustive_complex_space((2, 3, 4)),
    # a grid of at most 2^20 cells and no walk length: the uniform space
    "complex uniform 3x3 fallback": lambda: build_complex_space((3, 3), 0.2),
    # all-2 grids, whose audit takes the Walsh butterfly
    **{
        f"complex uniform 2^{k}": lambda k=k: exhaustive_complex_space((2,) * k)
        for k in (1, 2, 3, 5, 10)
    },
    # ell = 1 takes no walk path; the size rule counts or enumerates the
    # walks of the others, as named
    "complex 2 l1": lambda: build_complex_space((2,), 0.9, ell=1),
    "complex 2x2 l1": lambda: build_complex_space((2, 2), 0.9, ell=1),
    "complex 3x2 l1": lambda: build_complex_space((3, 2), 0.9, ell=1),
    "complex 2x2x2 l1": lambda: build_complex_space((2, 2, 2), 0.9, ell=1),
    "complex 3 l2 enumerated": lambda: build_complex_space((3,), 0.7, ell=2),
    "complex 2x2 l2 enumerated": lambda: build_complex_space((2, 2), 0.9, ell=2),
    "complex 2 l3 counted": lambda: build_complex_space((2,), 0.9, ell=3),
    "complex 3 l3 counted": lambda: build_complex_space((3,), 0.55, ell=3),
    # the space of acceptance checks c07 and c08
    "complex 2x2 l3 enumerated": lambda: build_complex_space((2, 2), 0.55, ell=3),
    "complex 4 l4 counted": lambda: build_complex_space((4,), 0.9, ell=4),
}
# 2^21 seeds or more: their checks against every seed run under slow
LARGE = {"complex 2x2x2 l1", "complex 2x2 l3 enumerated", "complex 4 l4 counted"}
PER_SEED = [pytest.param(n, marks=pytest.mark.slow) if n in LARGE else n for n in SPACES]
# few enough seeds to map one at a time, and grids and supports small enough
# to sum each character one cell at a time
SEED_LOOP = ["binary uniform n6", "binary n8 rows", "complex uniform 2x3x4", "complex 3x2 l1",
             "complex 3 l2 enumerated"]
SMALL = ["binary uniform n6", "binary n4 histogram", "complex uniform 2x3x4",
         "complex 3 l2 enumerated"]


@functools.cache
def _space(name):
    return SPACES[name]()


@functools.cache
def _cells(name):
    """Every seed's cell, by the per-seed oracle."""
    return cells_by_seed(_space(name))


@pytest.mark.parametrize("name", SPACES)
def test_support_blocks(name):
    space = _space(name)
    assert all(hasattr(space, member) for member in MEMBERS)
    assert space.seed_bits == (space.seed_count - 1).bit_length()
    # a mixed-radix numbering: each place the product of the faster moduli
    order = np.argsort(space.places)
    assert np.array_equal(space.places[order], np.cumprod([1, *np.take(space.moduli, order)[:-1]]))
    hist, weights = np.zeros(math.prod(space.moduli)), []
    for cells, probs in space.support_blocks():
        assert cells.ndim == 2 and np.broadcast_shapes(cells.shape, probs.shape) == cells.shape
        weights.append(np.broadcast_to(probs, cells.shape).ravel())
        # flat indices, coordinate 0 fastest in a binary space and C order in
        # a complex one, which the estimators decode with the place values
        phases = cells.reshape(-1, 1) // space.places % space.moduli
        assert np.array_equal(phases, decode_cells(space, cells.ravel()))
        assert np.array_equal(phases @ space.places, cells.ravel())
        hist += np.bincount(cells.ravel(), weights[-1], minlength=hist.size)
    assert np.array_equal(space.support_histogram().reshape(-1), hist)
    # whole seed counts over seed_count, summing to 1, exactly when dyadic
    probs = np.concatenate(weights)
    counts = np.round(probs * space.seed_count)
    assert np.all(counts >= 1) and np.array_equal(probs, counts / space.seed_count)
    assert counts.sum() == space.seed_count
    dyadic = space.seed_count & (space.seed_count - 1) == 0
    assert math.fsum(probs) == 1.0 if dyadic else abs(math.fsum(probs) - 1.0) <= 2.0**-52


@pytest.mark.parametrize("name", PER_SEED)
def test_support_and_mean_are_every_seeds(name):
    space = _space(name)
    idx, counts = np.unique(_cells(name), return_counts=True)
    got_idx, got_probs = merged_support(space)
    assert np.array_equal(got_idx, idx)
    assert np.array_equal(got_probs, counts / float(space.seed_count))

    # a value per cell with no structure on the grid; the blocks' mean sums
    # each row pairwise, then the rows, as the derandomized estimator does
    def values(cells):
        return np.cos(0.7548776662466927 * cells.astype(np.float64))

    blocks = [(c, np.broadcast_to(p, c.shape)) for c, p in space.support_blocks()]
    rows = np.concatenate([np.sum(p * values(c), axis=1) for c, p in blocks])
    want = np.mean(values(_cells(name)).astype(np.longdouble))
    # no term goes through more roundings than its product, its row and the
    # rows: gamma_D of the magnitudes, plus the longdouble sum's own error
    depth = 1 + max(c.shape[1] for c, _ in blocks) + rows.size
    scale = sum(float(np.sum(p * np.abs(values(c)))) for c, p in blocks)
    u = 2.0**-53
    bound = depth * u / (1 - depth * u) * scale
    bound += space.seed_count * np.finfo(np.longdouble).eps
    assert abs(np.longdouble(np.sum(rows)) - want) <= bound


@pytest.mark.parametrize("name", SEED_LOOP)
def test_seed_loop_is_the_vectorized_oracle(name):
    assert np.array_equal(cells_by_seed_loop(_space(name)), _cells(name))


@pytest.mark.parametrize("name", SPACES)
def test_descriptor_reads_back(name):
    space = _space(name)
    text = space.descriptor()
    again = space_from_descriptor(text)
    assert type(again) is type(space) and again.descriptor() == text
    assert measure_bias(again) == measure_bias(space)
    # the fields no space derives, with the derived mode, read back to the
    # same space, and the other mode is refused, for every kind
    kind, *tokens = text.split()
    given = " ".join(t for t in tokens if t.split("=")[0] in ("n", "m", "s", "l", "eps"))
    mode, other = ("exhaustive", "constructed")[:: 1 if space.exhaustive else -1]
    assert space_from_descriptor(f"{kind} {given} mode={mode}").descriptor() == text
    with pytest.raises(DescriptorError, match="does not match"):
        space_from_descriptor(f"{kind} {given} mode={other}")


@pytest.mark.parametrize("name", SPACES)
def test_audit_is_the_full_dft_within_the_declaration(name):
    # all-2 grids take the Walsh butterfly, which must give the DFT's value
    # exactly; a uniform space's zero sums carry the DFT's rounding
    space = _space(name)
    measured = measure_bias(space)
    assert measure_complex_bias is measure_bias
    assert measured == bias_by_dft(space)
    assert measured <= space.declared_epsilon or space.exhaustive and measured <= 1e-12


@pytest.mark.parametrize("name", SMALL)
def test_audit_is_every_character_summed(name):
    space = _space(name)
    assert measure_bias(space) == pytest.approx(bias_by_characters(space, _cells(name)), abs=1e-12)


@pytest.mark.parametrize(
    "space, cell",
    [(exhaustive_binary_space(4), 0b0110), (exhaustive_complex_space((3, 2)), 0)],
    ids=["binary", "complex"],
)
def test_point_mass_audits_to_one(space, cell):
    hist = np.zeros_like(space.support_histogram())
    hist.flat[cell] = 1.0
    space._hist = hist
    assert measure_bias(space) == pytest.approx(1.0, abs=1e-12)


# 2^20 seeds on 2^20 cells, and 3^11 on 3^11: past 2^32 operations
@pytest.mark.parametrize(
    "build, size",
    [(exhaustive_binary_space, 20), (exhaustive_complex_space, (3,) * 11)],
    ids=["binary", "complex"],
)
def test_audit_over_the_cap_refuses_before_the_histogram(monkeypatch, build, size):
    space = build(size)
    monkeypatch.setattr(type(space), "support_histogram", mock.Mock(side_effect=AssertionError))
    with pytest.raises(CapacityError, match="2\\^32 operation cap"):
        measure_bias(space)

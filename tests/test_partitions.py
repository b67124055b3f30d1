"""Tests for integer partitions and the set-partition lattice."""

import copy
import math
import pickle
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from zetagenus.partitions import (
    MAX_GROUND_SIZE,
    IntegerPartition,
    SetPartition,
    alternating_length_sum,
    as_integer_partition,
    bell_number,
    coarsenings,
    enumerate_set_partitions,
    integer_partitions,
    mobius,
    signed_block_sums,
    stirling2,
)


# ---------------------------------------------------------------------------
# Integer partitions
# ---------------------------------------------------------------------------


def test_integer_partitions_of_four_in_order():
    got = [p.parts for p in integer_partitions(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    integer_partitions(4).clear()  # each call returns a fresh list
    assert [p.parts for p in integer_partitions(4)] == got


def test_integer_partition_counts():
    counts = [len(integer_partitions(k)) for k in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_integer_partition_normalises_part_order():
    assert IntegerPartition([1, 3, 2]).parts == (3, 2, 1)
    assert as_integer_partition((1, 2)).parts == (2, 1)
    assert as_integer_partition(IntegerPartition([2])).parts == (2,)


def test_integer_partition_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        IntegerPartition([2, 0])
    with pytest.raises(ValueError):
        IntegerPartition([-1])


def test_integer_partition_accessors():
    p = IntegerPartition([2, 2, 1, 1, 1])
    assert p.weight == 7
    assert len(p) == 5
    assert p.multiplicities() == {2: 2, 1: 3}
    assert p.symmetry_factor() == math.factorial(2) * math.factorial(3)
    assert str(p) == "2+2+1+1+1"
    assert str(IntegerPartition()) == ""
    assert IntegerPartition().weight == 0


@given(st.integers(min_value=0, max_value=10))
def test_integer_partitions_cover_each_weight(k):
    for p in integer_partitions(k):
        assert p.weight == k
        assert p.parts == tuple(sorted(p.parts, reverse=True))
    assert len(set(integer_partitions(k))) == len(integer_partitions(k))


# ---------------------------------------------------------------------------
# Set partitions: representation and enumeration
# ---------------------------------------------------------------------------


def test_set_partition_enumeration_order_for_three_elements():
    got = [sp.rgs for sp in enumerate_set_partitions(3)]
    assert got == [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2)]


def _lex_rgs(r):
    """Restricted growth strings of length r in lexicographic order:
    product yields a_i <= i in that order, and the filter keeps each
    a_i at most one past the largest entry before it."""
    strings = product(*(range(i + 1) for i in range(r)))
    return [a for a in strings if all(a[i] <= max(a[:i], default=-1) + 1 for i in range(r))]


@pytest.mark.parametrize("r", range(1, 8))
def test_enumeration_is_the_lexicographic_rgs_list(r):
    assert [sp.rgs for sp in enumerate_set_partitions(r)] == _lex_rgs(r)


def test_enumeration_counts_match_bell_numbers():
    bells = [1, 1, 2, 5, 15, 52, 203, 877, 4140]
    for r in range(1, 9):
        assert len(enumerate_set_partitions(r)) == bells[r] == bell_number(r)


def test_enumeration_refuses_oversized_ground_sets():
    with pytest.raises(ValueError):
        enumerate_set_partitions(MAX_GROUND_SIZE + 1)
    with pytest.raises(ValueError):
        enumerate_set_partitions(0)


def test_from_blocks_round_trip():
    sp = SetPartition.from_blocks([(2, 4), (1, 3)])
    assert sp.rgs == (0, 1, 0, 1)
    assert sp.blocks == ((1, 3), (2, 4))
    assert tuple(map(len, sp.blocks)) == (2, 2)
    assert sp.ground_size == 4
    assert sp.length == 2


def test_from_blocks_validates_cover_and_disjointness():
    with pytest.raises(ValueError):
        SetPartition.from_blocks([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        SetPartition.from_blocks([(1,), (3,)])
    with pytest.raises(ValueError):
        SetPartition.from_blocks([])


def test_rgs_validation():
    with pytest.raises(ValueError):
        SetPartition((1, 0))
    with pytest.raises(ValueError):
        SetPartition((0, 2))
    with pytest.raises(ValueError):
        SetPartition(())


@pytest.mark.parametrize(
    "p, accessor, plain",
    [
        (IntegerPartition([1, 3, 1]), "parts", (3, 1, 1)),
        (IntegerPartition(), "parts", ()),
        (SetPartition((0, 1, 0, 2)), "rgs", (0, 1, 0, 2)),
    ],
    ids=["integer", "empty", "set"],
)
def test_partitions_are_tuples_of_their_parts_or_rgs(p, accessor, plain):
    assert isinstance(p, tuple)
    assert p == plain and plain == p and hash(p) == hash(plain)
    assert {plain: "key"}[p] == "key"
    assert type(getattr(p, accessor)) is tuple and getattr(p, accessor) == plain
    assert len(p) == len(plain) and list(p) == list(plain) and p[1:] == plain[1:]
    copies = [pickle.loads(pickle.dumps(p, proto)) for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies + [copy.copy(p), copy.deepcopy(p)]:
        assert type(other) is type(p) and repr(other) == repr(p) and other == p


# ---------------------------------------------------------------------------
# Refinement order, coarsenings, Moebius function
# ---------------------------------------------------------------------------


def _refines(pi, rho):
    """pi <= rho: every block of pi sits inside one block of rho."""
    return all(len({rho.rgs[x - 1] for x in block}) == 1 for block in pi.blocks)


def _merge(pi, grouping):
    """Unite the blocks of pi as grouping groups their indices 1..len(pi)."""
    return SetPartition.from_blocks(
        [x for j in group for x in pi.blocks[j - 1]] for group in grouping.blocks
    )


def test_coarsenings_of_a_two_block_partition():
    pi = SetPartition.from_blocks([(1, 2), (3,)])
    top = SetPartition.from_blocks([(1, 2, 3)])
    assert coarsenings(pi) == [(top, -1), (pi, 1)]


@pytest.mark.parametrize("r", range(1, 7))
def test_coarsenings_merge_each_grouping_in_order(r):
    for pi in enumerate_set_partitions(r):
        expected = [_merge(pi, SetPartition(g)) for g in _lex_rgs(pi.length)]
        got = coarsenings(pi)
        assert [rho for rho, _ in got] == expected
        for rho, weight in got:
            assert weight == mobius(pi, rho)


def test_coarsenings_enumerate_the_upper_interval():
    pi = SetPartition.from_blocks([(1,), (2, 3), (4,)])
    pairs = coarsenings(pi)
    assert all(_refines(pi, rho) for rho, _ in pairs)
    # The interval above pi is isomorphic to the lattice on pi's blocks.
    uppers = {rho for rho in enumerate_set_partitions(4) if _refines(pi, rho)}
    assert {rho for rho, _ in pairs} == uppers
    assert len(pairs) == bell_number(pi.length)


def test_mobius_values_on_small_lattices():
    bottom2 = SetPartition((0, 1))
    top2 = SetPartition((0, 0))
    assert mobius(bottom2, top2) == -1
    bottom3 = SetPartition((0, 1, 2))
    top3 = SetPartition((0, 0, 0))
    assert mobius(bottom3, top3) == 2
    assert mobius(top3, top3) == 1


def test_mobius_of_full_interval_is_signed_factorial():
    for n in range(2, 8):
        bottom = SetPartition(tuple(range(n)))
        top = SetPartition((0,) * n)
        assert mobius(bottom, top) == (-1) ** (n - 1) * math.factorial(n - 1)


def test_mobius_rejects_incomparable_arguments():
    pi = SetPartition.from_blocks([(1, 2), (3,)])
    rho = SetPartition.from_blocks([(1, 3), (2,)])
    with pytest.raises(ValueError, match="does not refine"):
        mobius(pi, rho)
    # the top refines nothing but itself
    with pytest.raises(ValueError, match="does not refine"):
        mobius(SetPartition((0, 0, 0)), pi)


def test_refinement_witness_detects_incomparable_pairs():
    # Neither of two incomparable partitions refines the other, and mobius,
    # the one comparability check left, says so in both orders.
    pi = SetPartition.from_blocks([(1, 2), (3,)])
    rho = SetPartition.from_blocks([(1, 3), (2,)])
    assert not _refines(pi, rho)
    assert not _refines(rho, pi)
    for a, b in ((pi, rho), (rho, pi)):
        with pytest.raises(ValueError, match="does not refine"):
            mobius(a, b)


def test_mobius_requires_matching_ground_sets():
    with pytest.raises(ValueError, match="ground sets differ"):
        mobius(SetPartition((0, 0)), SetPartition((0, 0, 0)))
    with pytest.raises(ValueError, match="ground sets differ"):
        mobius(SetPartition((0, 1, 2)), SetPartition((0, 0)))


def _interval(pi, rho):
    for sigma, _ in coarsenings(pi):
        if _refines(sigma, rho):
            yield sigma


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mobius_sums_vanish_on_proper_intervals(n):
    # sum_{pi <= sigma <= rho} mu(sigma, rho) is 1 when pi == rho, else 0.
    partitions = enumerate_set_partitions(n)
    for pi in partitions:
        for rho, _ in coarsenings(pi):
            total = sum(mobius(sigma, rho) for sigma in _interval(pi, rho))
            assert total == (1 if pi == rho else 0)


@pytest.mark.parametrize("n", [6, 7])
def test_mobius_sums_vanish_on_the_top_interval(n):
    bottom = SetPartition(tuple(range(n)))
    top = SetPartition((0,) * n)
    total = sum(mobius(sigma, top) for sigma in _interval(bottom, top))
    assert total == 0


def _visits(values):
    seen = []
    signed_block_sums(values, lambda w, sums: seen.append((w, tuple(sums))))
    return seen


@pytest.mark.parametrize("r", range(1, 8))
def test_signed_block_sum_weights_are_the_mobius_function(r):
    # with value 2^(i-1) at position i, each block sum spells out its block
    bottom = SetPartition(tuple(range(r)))
    visits = _visits([2**i for i in range(r)])
    partitions = []
    for w, sums in visits:
        blocks = [[i + 1 for i in range(r) if mask >> i & 1] for mask in sums]
        pi = SetPartition.from_blocks(blocks)
        assert pi.blocks == tuple(map(tuple, blocks))  # first-appearance order
        assert w == mobius(bottom, pi)
        partitions.append(pi)
    assert partitions == enumerate_set_partitions(r)
    assert sum(w for w, _ in visits) == (1 if r == 1 else 0)


def test_signed_block_sums_add_floats_as_sum_does():
    values = [1.1, 2.7, 0.3, 3.3, 1.9, 2.2]
    masks = _visits([2**i for i in range(len(values))])
    for (_, mask_sums), (_, float_sums) in zip(masks, _visits(values)):
        blocks = [[values[i] for i in range(len(values)) if m >> i & 1] for m in mask_sums]
        assert float_sums == tuple(sum(b) for b in blocks)


def test_signed_block_sums_guard():
    with pytest.raises(ValueError):
        signed_block_sums((), lambda w, sums: None)
    with pytest.raises(ValueError):
        signed_block_sums((1,) * (MAX_GROUND_SIZE + 1), lambda w, sums: None)


def test_refinement_is_transitive():
    for pi in enumerate_set_partitions(4):
        for sigma, _ in coarsenings(pi):
            for rho, _ in coarsenings(sigma):
                assert _refines(pi, rho)


# ---------------------------------------------------------------------------
# Counting helpers
# ---------------------------------------------------------------------------


def test_stirling_numbers():
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 5) == 1
    for n in range(1, 9):
        assert sum(stirling2(n, k) for k in range(1, n + 1)) == bell_number(n)


def test_stirling_rejects_out_of_range_arguments():
    with pytest.raises(ValueError):
        stirling2(3, 4)
    with pytest.raises(ValueError):
        stirling2(3, 0)


def test_stirling_counts_match_enumeration():
    for n in range(1, 8):
        by_length = {}
        for sp in enumerate_set_partitions(n):
            by_length[sp.length] = by_length.get(sp.length, 0) + 1
        assert by_length == {k: stirling2(n, k) for k in range(1, n + 1)}


def test_bell_number_guard():
    with pytest.raises(ValueError):
        bell_number(-1)
    assert bell_number(0) == 1


def test_alternating_length_sum_values_and_guard():
    for n in range(1, 10):
        direct = sum(
            (-1) ** sp.length * math.factorial(sp.length)
            for sp in enumerate_set_partitions(n)
        )
        assert alternating_length_sum(n) == direct == (-1) ** n
    with pytest.raises(ValueError):
        alternating_length_sum(0)
    with pytest.raises(ValueError):
        alternating_length_sum(10)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@st.composite
def _set_partitions(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rgs = [0]
    for _ in range(n - 1):
        rgs.append(draw(st.integers(min_value=0, max_value=max(rgs) + 1)))
    return SetPartition(rgs)


@given(_set_partitions())
def test_blocks_partition_the_ground_set(sp):
    elements = [x for block in sp.blocks for x in block]
    assert sorted(elements) == list(range(1, sp.ground_size + 1))
    assert sum(map(len, sp.blocks)) == sp.ground_size


@given(_set_partitions())
def test_from_blocks_is_inverse_to_blocks(sp):
    assert SetPartition.from_blocks(sp.blocks) == sp


@given(_set_partitions())
def test_block_order_does_not_matter(sp):
    blocks = list(sp.blocks)
    for perm in list(permutations(blocks))[:6]:
        assert SetPartition.from_blocks(perm) == sp


@given(_set_partitions(max_n=5))
def test_every_partition_refines_its_coarsenings(sp):
    pairs = coarsenings(sp)
    assert len(pairs) == bell_number(sp.length)
    assert all(_refines(sp, rho) for rho, _ in pairs)

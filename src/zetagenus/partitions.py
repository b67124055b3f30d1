"""Integer partitions, set partitions, and the refinement lattice.

Set partitions of {1, ..., r} are stored canonically as restricted
growth strings: a tuple (a_1, ..., a_r) with a_1 = 0 and
a_{i+1} <= max(a_1..a_i) + 1, where a_i is the index of the block
containing element i and blocks are numbered by first appearance.
Enumeration is in lexicographic order of these strings, so for r = 3:

    (0,0,0) (0,0,1) (0,1,0) (0,1,1) (0,1,2)

Both partition types are tuples: an IntegerPartition is its parts in
descending order and a SetPartition its restricted growth string, so
each is its own dict key and compares, hashes and orders exactly as
that plain tuple does.  Only the constructors validate.

The partial order is refinement: pi <= rho when every block of pi sits
inside a single block of rho, and the interval [pi, top] is the lattice
on pi's blocks.  signed_block_sums is the one walk over set partitions:
it hands each partition's Mobius weight and block sums to a callback.
Walked over singletons it enumerates the lattice; walked over the blocks
of pi it gives every coarsening of pi with its weight mu(pi, rho).
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, prod
from typing import Callable, Iterable, Sequence

__all__ = [
    "IntegerPartition",
    "integer_partitions",
    "SetPartition",
    "enumerate_set_partitions",
    "signed_block_sums",
    "coarsenings",
    "mobius",
    "stirling2",
    "bell_number",
    "alternating_length_sum",
]

MAX_GROUND_SIZE = 12  # Bell(12) = 4,213,597 partitions; enumeration beyond that is refused

PartitionLike = Sequence[int]


class IntegerPartition(tuple):
    """A weakly decreasing tuple of positive parts (possibly empty)."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "IntegerPartition":
        tup = tuple(sorted((int(p) for p in parts), reverse=True))
        if tup and tup[-1] < 1:
            raise ValueError(f"parts must be positive, got {tup}")
        return super().__new__(cls, tup)

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def weight(self) -> int:
        return sum(self)

    def multiplicities(self) -> dict[int, int]:
        return dict(Counter(self))

    def symmetry_factor(self) -> int:
        """Product of factorials of the part multiplicities."""
        return prod(map(factorial, self.multiplicities().values()))

    def __str__(self) -> str:
        return "+".join(str(p) for p in self)

    def __repr__(self) -> str:
        return f"IntegerPartition({list(self)})"


def as_integer_partition(parts: PartitionLike) -> IntegerPartition:
    if isinstance(parts, IntegerPartition):
        return parts
    return IntegerPartition(parts)


def integer_partitions(k: int) -> list[IntegerPartition]:
    """All partitions of k in descending lexicographic order, a fresh list
    of partitions made once per k.

    integer_partitions(4) lists (4), (3,1), (2,2), (2,1,1), (1,1,1,1).
    """
    if k < 0:
        raise ValueError("weight must be nonnegative")
    return list(_partitions(k, k))


@lru_cache(maxsize=None)
def _partitions(k: int, largest: int) -> tuple[IntegerPartition, ...]:
    """The partitions of k into parts of at most largest <= k, descending."""
    if k == 0:
        return (IntegerPartition(),)
    return tuple(IntegerPartition((p, *rest))
                 for p in range(largest, 0, -1) for rest in _partitions(k - p, min(p, k - p)))


class SetPartition(tuple):
    """A set partition of {1, ..., r} in restricted growth form."""

    __slots__ = ()

    def __new__(cls, rgs: Iterable[int]) -> "SetPartition":
        tup = tuple(map(int, rgs))
        if not tup:
            raise ValueError("ground set must be nonempty")
        mx = -1
        for a in tup:
            if not 0 <= a <= mx + 1:
                raise ValueError(f"not a restricted growth string: {tup}")
            if a > mx:
                mx = a
        return super().__new__(cls, tup)

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "SetPartition":
        blocks = [sorted(int(x) for x in b) for b in blocks]
        if any(not b for b in blocks):
            raise ValueError("blocks must be nonempty")
        elements = sorted(x for b in blocks for x in b)
        r = len(elements)
        if elements != list(range(1, r + 1)):
            raise ValueError(f"blocks must partition 1..r exactly, got {elements}")
        blocks.sort(key=lambda b: b[0])
        index = {}
        for i, b in enumerate(blocks):
            for x in b:
                index[x] = i
        return cls(tuple(index[x] for x in range(1, r + 1)))

    @property
    def rgs(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def ground_size(self) -> int:
        return len(self)

    @property
    def length(self) -> int:
        return max(self) + 1

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks ordered by smallest element, each internally ascending."""
        groups: list[list[int]] = [[] for _ in range(self.length)]
        for elem, b in enumerate(self, start=1):
            groups[b].append(elem)
        return tuple(tuple(g) for g in groups)

    def __repr__(self) -> str:
        inner = "|".join(",".join(str(x) for x in b) for b in self.blocks)
        return f"SetPartition[{inner}]"


def _check_ground_size(r: int) -> None:
    if not 1 <= r <= MAX_GROUND_SIZE:
        raise ValueError(
            f"ground size {r} out of supported range 1..{MAX_GROUND_SIZE} "
            f"(Bell({MAX_GROUND_SIZE}) = {bell_number(MAX_GROUND_SIZE):,} is the enumeration cap)"
        )


def signed_block_sums(values: Sequence, visit: Callable[[int, list], None]) -> None:
    """Call visit(w, sums) once per set partition P of the positions of values.

    w is the Mobius weight mu(bottom, P) = (-1)^(r - len(P)) * prod over
    blocks of (|B| - 1)!, and sums holds each block's values added left to
    right, blocks in order of first appearance.  Partitions come in
    lexicographic RGS order.  The sums list is reused between calls, so
    visit must copy whatever it keeps.

    This is the signed set-partition sum behind the monomial expansion
    and the Hoffman-type identities; it builds no SetPartition, which
    keeps it cheap.
    """
    r = len(values)
    _check_ground_size(r)
    sums: list = []
    sizes: list[int] = []
    last = r - 1

    # Joining a block of size n multiplies the weight by -n; opening a new
    # block keeps it.  Sums are restored from a saved value, never by
    # subtracting, so float sums come out exactly as sum() over the block.
    def rec(i: int, w: int) -> None:
        v = values[i]
        if i == last:  # the leaves, unrolled: most calls happen here
            for b in range(len(sums)):
                old = sums[b]
                sums[b] = old + v
                visit(-w * sizes[b], sums)
                sums[b] = old
            sums.append(v)
            visit(w, sums)
            sums.pop()
            return
        for b in range(len(sums)):
            old, size = sums[b], sizes[b]
            sums[b] = old + v
            sizes[b] = size + 1
            rec(i + 1, -w * size)
            sums[b], sizes[b] = old, size
        sums.append(v)
        sizes.append(1)
        rec(i + 1, w)
        sums.pop()
        sizes.pop()

    rec(0, 1)


def coarsenings(pi: SetPartition) -> list[tuple[SetPartition, int]]:
    """(rho, mobius(pi, rho)) for every rho >= pi, in lexicographic RGS
    order of the grouping of pi's blocks that unites them into rho."""
    r = pi.ground_size
    out: list[tuple[SetPartition, int]] = []

    # Each sum is a union of pi-blocks (elements counted from 0 here),
    # ordered by the smallest element of its first pi-block, which is
    # its own smallest element.
    def visit(w: int, unions: list) -> None:
        rgs = [0] * r
        for b, union in enumerate(unions):
            for x in union:
                rgs[x] = b
        out.append((SetPartition(rgs), w))

    signed_block_sums([tuple(x - 1 for x in block) for block in pi.blocks], visit)
    return out


def enumerate_set_partitions(r: int) -> list[SetPartition]:
    """All set partitions of {1..r} in lexicographic RGS order."""
    _check_ground_size(r)
    return [rho for rho, _ in coarsenings(SetPartition(range(r)))]


def mobius(pi: SetPartition, rho: SetPartition) -> int:
    """Mobius function of the interval [pi, rho] in the refinement order.

    Equals (-1)^(length(pi) - length(rho)) * prod_i (b_i - 1)! where b_i
    counts the pi-blocks merged into the i-th block of rho.  Raises when
    the ground sets differ or pi does not refine rho.  This is the
    independent reference for the weights coarsenings reads off the walk.
    """
    if pi.ground_size != rho.ground_size:
        raise ValueError(f"ground sets differ: {pi.ground_size} vs {rho.ground_size}")
    merged = [0] * rho.length
    for block in pi.blocks:
        targets = {rho[x - 1] for x in block}
        if len(targets) != 1:
            raise ValueError(f"{pi!r} does not refine {rho!r}")
        merged[targets.pop()] += 1
    # every rho-block is a union of pi-blocks: count >= 1
    return (-1 if (pi.length - rho.length) % 2 else 1) * prod(factorial(count - 1) for count in merged)


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the standard recurrence."""
    if n < 1 or k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got n={n}, k={k}")
    if k == n or k == 1:
        return 1
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell_number(n: int) -> int:
    if n < 0:
        raise ValueError("Bell numbers need n >= 0")
    if n == 0:
        return 1
    return sum(stirling2(n, k) for k in range(1, n + 1))


def alternating_length_sum(n: int) -> int:
    """sum_{k=1}^{n} (-1)^k S(n, k) k!, which collapses to (-1)^n.

    Kept deliberately small (n <= 9) because its role is cross-checking
    the signed enumeration of the partition lattice, not bulk computation.
    """
    if not 1 <= n <= 9:
        raise ValueError("supported range is 1 <= n <= 9")
    return sum((-1) ** k * stirling2(n, k) * factorial(k) for k in range(1, n + 1))

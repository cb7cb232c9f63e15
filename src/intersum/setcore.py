"""k-subsets of {1..n} as bitmasks, families of them, and relabellings.

Element e of the ground set corresponds to bit e-1, so intersection sizes
are single popcounts.  Ground sets are capped at 63 elements to keep every
mask inside one machine word on the numpy fast paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadElementError,
    BadSizeError,
    DuplicateSetError,
    GroundMismatchError,
    TooLargeError,
)

MAX_GROUND = 63


def _is_int(value: object) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ground(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise BadSizeError(f"ground-set size must be a positive integer, got {n!r}")
    if n > MAX_GROUND:
        raise TooLargeError(f"ground-set size {n} exceeds the bitmask limit {MAX_GROUND}")


def _check_member_size(n: int, k: int) -> None:
    if not _is_int(k) or not 1 <= k <= n:
        raise BadSizeError(f"member size k={k!r} out of range 1..{n}")


def _items(value: Iterable, what: str) -> Iterator:
    """iter(value), rejecting a scalar where a list belongs."""
    try:
        return iter(value)
    except TypeError as exc:
        raise BadElementError(f"{what} must be a list, got {value!r}") from exc


def elements_to_bits(elements: Iterable[int], n: int) -> int:
    """Pack 1-based elements into a bitmask, rejecting out-of-range values."""
    bits = 0
    for e in _items(elements, "a set"):
        if not _is_int(e) or not 1 <= e <= n:
            raise BadElementError(f"element {e!r} outside ground set 1..{n}")
        bits |= 1 << (e - 1)
    return bits


def bits_to_elements(bits: int) -> tuple[int, ...]:
    """Unpack a bitmask into ascending 1-based elements."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


@dataclass(frozen=True)
class KSet:
    """A subset of {1..n} stored as a bitmask."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        _check_ground(self.n)
        if self.bits < 0 or self.bits >> self.n:
            raise BadElementError(
                f"bitmask {self.bits:#x} has bits outside ground set 1..{self.n}"
            )

    @property
    def size(self) -> int:
        return self.bits.bit_count()

    def elements(self) -> tuple[int, ...]:
        return bits_to_elements(self.bits)

    def meet_size(self, other: "KSet") -> int:
        return (self.bits & other.bits).bit_count()

    def __contains__(self, element: int) -> bool:
        return 1 <= element <= self.n and (self.bits >> (element - 1)) & 1 == 1

    def __repr__(self) -> str:
        return f"KSet(n={self.n}, {{{', '.join(map(str, self.elements()))}}})"


def kset(n: int, elements: Iterable[int]) -> KSet:
    return KSet(n, elements_to_bits(elements, n))


@dataclass(frozen=True)
class Family:
    """A duplicate-free collection of k-subsets of {1..n}.

    Members are kept sorted by bitmask, so equal families compare equal and
    iteration order is reproducible.  Empty families are legal.
    """

    n: int
    k: int
    members: tuple[KSet, ...]

    def __post_init__(self) -> None:
        _check_ground(self.n)
        _check_member_size(self.n, self.k)
        prev = -1
        for ks in self.members:
            if ks.n != self.n:
                raise GroundMismatchError(
                    f"member on ground set size {ks.n} inside family on {self.n}"
                )
            if ks.size != self.k:
                raise BadSizeError(f"member {ks!r} does not have size {self.k}")
            if ks.bits == prev:
                raise DuplicateSetError(f"duplicate member {ks!r}")
            if ks.bits < prev:
                raise ValueError("members must be sorted by bitmask")
            prev = ks.bits

    @classmethod
    def from_bitmasks(cls, n: int, k: int, masks: Iterable[int]) -> "Family":
        return cls(n, k, tuple(KSet(n, b) for b in sorted(masks)))

    @property
    def bitmasks(self) -> tuple[int, ...]:
        return tuple(ks.bits for ks in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[KSet]:
        return iter(self.members)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, KSet):
            return item.n == self.n and any(ks.bits == item.bits for ks in self.members)
        return False


def make_family(n: int, k: int, sets: Iterable[Iterable[int]]) -> Family:
    """Validate raw element lists and build a Family.

    Raises BadSizeError when some set does not have exactly k distinct
    elements, BadElementError on out-of-range elements or sets that are not
    lists of elements, DuplicateSetError on repeats.
    """
    _check_ground(n)
    _check_member_size(n, k)
    masks: list[int] = []
    seen: set[int] = set()
    for s in _items(sets, "sets"):
        bits = elements_to_bits(s, n)
        if bits.bit_count() != k:
            raise BadSizeError(
                f"set {sorted(bits_to_elements(bits))} has size {bits.bit_count()}, expected {k}"
            )
        if bits in seen:
            raise DuplicateSetError(f"duplicate set {list(bits_to_elements(bits))}")
        seen.add(bits)
        masks.append(bits)
    return Family.from_bitmasks(n, k, masks)


def family_to_dict(family: Family) -> dict:
    """JSON-ready dict: 1-based elements, each set ascending, sets in lex order."""
    return {
        "n": family.n,
        "k": family.k,
        "sets": sorted(list(ks.elements()) for ks in family.members),
    }


def family_from_dict(data: dict) -> Family:
    try:
        n, k, sets = data["n"], data["k"], data["sets"]
    except (KeyError, TypeError) as exc:
        raise BadSizeError(f"family object must have keys n, k, sets: {exc}") from exc
    return make_family(n, k, sets)


def ksubset_masks(n: int, k: int) -> tuple[int, ...]:
    """All k-subset bitmasks of {1..n} in ascending numeric order."""
    _check_ground(n)
    _check_member_size(n, k)
    masks = []
    for positions in combinations(range(n), k):
        m = 0
        for p in positions:
            m |= 1 << p
        masks.append(m)
    return tuple(sorted(masks))


def full_family(n: int, k: int) -> Family:
    return Family.from_bitmasks(n, k, ksubset_masks(n, k))


def star(n: int, k: int, x: int) -> Family:
    """All k-subsets of {1..n} containing the fixed element x."""
    _check_ground(n)
    _check_member_size(n, k)
    if not 1 <= x <= n:
        raise BadElementError(f"center {x} outside ground set 1..{n}")
    xbit = 1 << (x - 1)
    rest = [p for p in range(n) if p != x - 1]
    masks = []
    for positions in combinations(rest, k - 1):
        m = xbit
        for p in positions:
            m |= 1 << p
        masks.append(m)
    return Family.from_bitmasks(n, k, masks)


def is_intersecting(family: Family) -> bool:
    """Every two distinct members share at least one element."""
    ms = family.bitmasks
    return all(a & b for a, b in combinations(ms, 2))


def is_cross_intersecting(fam_a: Family, fam_b: Family) -> bool:
    """Every member of fam_a meets every member of fam_b."""
    _require_same_ground(fam_a, fam_b)
    bs = fam_b.bitmasks
    return all(a & b for a in fam_a.bitmasks for b in bs)


def _require_same_ground(fam_a: Family, fam_b: Family) -> None:
    if fam_a.n != fam_b.n:
        raise GroundMismatchError(
            f"families live on different ground sets ({fam_a.n} vs {fam_b.n})"
        )


def is_star(family: Family) -> int | None:
    """Return the center if family is exactly some star, else None.

    A star is *all* C(n-1,k-1) k-subsets through one point, so it suffices to
    check the common intersection and the count.
    """
    if not family.members:
        return None
    common = family.members[0].bits
    for ks in family.members[1:]:
        common &= ks.bits
        if not common:
            return None
    if len(family.members) != math.comb(family.n - 1, family.k - 1):
        return None
    return (common & -common).bit_length()


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n}; image[e-1] is where e goes."""

    n: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_ground(self.n)
        if len(self.image) != self.n or sorted(self.image) != list(range(1, self.n + 1)):
            raise BadElementError(f"image {self.image!r} is not a bijection on 1..{self.n}")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(n, tuple(range(1, n + 1)))

    def __call__(self, element: int) -> int:
        if not 1 <= element <= self.n:
            raise BadElementError(f"element {element} outside ground set 1..{self.n}")
        return self.image[element - 1]

    def of_bits(self, bits: int) -> int:
        out = 0
        while bits:
            low = bits & -bits
            out |= 1 << (self.image[low.bit_length() - 1] - 1)
            bits ^= low
        return out


def apply_perm(family: Family, perm: Permutation) -> Family:
    """Relabel every member elementwise."""
    if perm.n != family.n:
        raise GroundMismatchError(
            f"permutation on 1..{perm.n} applied to family on 1..{family.n}"
        )
    return Family.from_bitmasks(family.n, family.k, (perm.of_bits(b) for b in family.bitmasks))


def _twin_classes(n: int, colours: Sequence[Sequence[int]]) -> list[int]:
    """Masks of the classes of elements whose transposition fixes every colour.

    Such transpositions generate a product of symmetric groups, so the
    relation is an equivalence and x need only be tested against one element
    of each class.
    """
    members = [frozenset(ms) for ms in colours]
    classes: list[int] = []
    for x in range(n):
        bx = 1 << x
        for i, cls in enumerate(classes):
            swap = (cls & -cls) | bx
            if all(
                (m & swap) in (0, swap) or m ^ swap in ms
                for ms in members
                for m in ms
            ):
                classes[i] |= bx
                break
        else:
            classes.append(bx)
    return classes


def _cell(elements: int, positions: int) -> tuple[int, tuple[int, ...]]:
    """A cell of the partition: its elements, and lows[c], the mask of its c
    lowest target positions."""
    lows = [0]
    while positions:
        low = positions & -positions
        lows.append(lows[-1] | low)
        positions ^= low
    return elements, tuple(lows)


def _split(cells: list, member: int) -> list:
    """Refine cells: member's part of each cell takes its lowest positions."""
    out = []
    for elements, lows in cells:
        inside = elements & member
        if inside and inside != elements:
            c = inside.bit_count()
            out.append((inside, lows[: c + 1]))
            out.append(_cell(elements ^ inside, lows[-1] ^ lows[c]))
        else:
            out.append((elements, lows))
    return out


def _canonical_masks(n: int, colours: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Least simultaneous relabelling of several member lists ("colours").

    Returns, per colour, the sorted bitmask tuple of the relabelling that
    minimises the concatenation of those tuples over all n! bijections.  The
    search places members one at a time, colour by colour, on a partition of
    the ground set whose cells own sets of target positions.  A member's
    least image puts its elements on the lowest positions of each cell; the
    next entry of the answer is the least such image, so only members
    reaching it are branched on, and placing one splits each cell into
    (member & cell, cell - member).  Branches are cut when their prefix
    exceeds the best found, and tied members swapped by element
    transpositions fixing every colour ("twins") are branched on once.
    """
    last = len(colours) - 1
    twins = [c for c in _twin_classes(n, colours) if c & (c - 1)]
    best: list[int] = []  # least image sequence found so far
    prefix: list[int] = []

    def representatives(tied: list[int], cells: list) -> list[int]:
        # twins sharing a cell may be permuted freely, so a member's orbit
        # is fixed by its count inside each such group and its other bits
        groups = [g for e, _ in cells for t in twins if (g := e & t) & (g - 1)]
        if len(tied) == 1 or not groups:
            return tied
        fixed = ~sum(groups)  # the groups are disjoint
        reps: dict[tuple, int] = {}
        for m in tied:
            reps.setdefault((m & fixed, *((m & g).bit_count() for g in groups)), m)
        return list(reps.values())

    def descend(cells: list, rest: list[int], phase: int, tight: bool) -> None:
        """Search below one node; tight means the prefix equals the best's."""
        nonlocal best
        base = len(prefix)
        try:
            while True:
                while not rest:
                    if phase == last:
                        if not tight:
                            best = prefix[:]
                        return
                    phase += 1
                    rest = list(colours[phase])
                images = []
                settled = True  # every member a union of cells, its image fixed
                for m in rest:
                    img = 0
                    for elements, lows in cells:
                        part = m & elements
                        if part:
                            settled = settled and part == elements
                            img |= lows[part.bit_count()]
                    images.append(img)
                if settled:
                    # fixed images are distinct; placing them in order splits nothing
                    prefix.extend(sorted(images))
                    rest = []
                    if tight:
                        head = best[: len(prefix)]
                        if prefix > head:
                            return
                        tight = prefix == head
                    continue
                low = min(images)
                if tight:
                    if low > best[len(prefix)]:
                        return
                    tight = low == best[len(prefix)]
                tied = representatives([m for m, img in zip(rest, images) if img == low], cells)
                prefix.append(low)
                if len(tied) == 1:
                    m = tied[0]
                    cells = _split(cells, m)
                    rest = [x for x in rest if x != m]
                    continue
                for m in tied:
                    descend(_split(cells, m), [x for x in rest if x != m], phase, tight)
                    # the child reached a leaf, so best now extends this prefix
                    tight = True
                return
        finally:
            del prefix[base:]

    descend([_cell((1 << n) - 1, (1 << n) - 1)], list(colours[0]), 0, False)
    out, i = [], 0
    for ms in colours:
        out.append(tuple(best[i : i + len(ms)]))
        i += len(ms)
    return tuple(out)


def canonical_form(family: Family) -> Family:
    """Lexicographically least relabelling of the family.

    Minimizes the sorted bitmask tuple over all n! permutations of the ground
    set, so two families are isomorphic iff their canonical forms are equal.
    """
    (masks,) = _canonical_masks(family.n, [family.bitmasks])
    return Family.from_bitmasks(family.n, family.k, masks)


def element_degrees(family: Family) -> tuple[int, ...]:
    """For each element 1..n, how many members contain it."""
    degs = [0] * family.n
    for bits in family.bitmasks:
        while bits:
            low = bits & -bits
            degs[low.bit_length() - 1] += 1
            bits ^= low
    return tuple(degs)


def fingerprint(family: Family) -> tuple:
    """Cheap relabelling-invariant signature (not a complete invariant).

    Combines the sorted degree sequence with the multiset of pairwise
    intersection sizes.  Equal canonical forms imply equal fingerprints;
    the converse can fail, so use canonical_form to decide isomorphism.
    """
    counts = [0] * (family.k + 1)
    ms = family.bitmasks
    for a, b in combinations(ms, 2):
        counts[(a & b).bit_count()] += 1
    return (tuple(sorted(element_degrees(family))), tuple(counts))

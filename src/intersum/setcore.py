"""k-subsets of {1..n} as bitmasks, families of them, and canonical forms.

Element e of the ground set corresponds to bit e-1, so intersection sizes
are single popcounts.  Ground sets are capped at 63 elements, so every mask
fits one machine word.
"""
from __future__ import annotations

import math
import sys
from array import array
from itertools import chain, combinations
from operator import attrgetter, lt
from typing import Iterable, Iterator, Sequence

from .errors import (
    BadElementError,
    BadSizeError,
    DuplicateSetError,
    GroundMismatchError,
    IntersumError,
    TooLargeError,
)

MAX_GROUND = 63

# The caps below belong to the search and cyclic engines, which import them
# from here; they live in this module so that the CLI parser can print them
# without loading either engine.
#
# C(n, k) caps.  C(n, k) bounds memory, not search cost: the intersecting
# search is fastest far from n = 2k ((12,3) and (10,4) take milliseconds,
# (10,5) with C = 252 under a second, (12,6) past two minutes), and the cross
# sweep can still visit 2^C(n, l) subsets of the l-sets.  A budget is 1 to
# MAX_EXHAUSTIVE_BUDGET, which admits every intersecting config up to (10,5).
DEFAULT_EXHAUSTIVE_BUDGET = 24
MAX_EXHAUSTIVE_BUDGET = 256
# All-permutation sweeps visit each of the (n-1)! cycle orders once, at O(n)
# window reads per order (plus an O(n^2) meet graph for the Katona sweep);
# 8 keeps that at 5040 orders.
MAX_SWEEP_GROUND = 8


def _is_int(value: object) -> bool:
    # JSON true/false arrive as bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ground(n: int) -> None:
    if not _is_int(n) or n < 1:
        raise BadSizeError(f"ground-set size must be a positive integer, got {n!r}")
    if n > MAX_GROUND:
        raise TooLargeError(f"ground-set size {n} exceeds the bitmask limit {MAX_GROUND}")


def _check_sizes(n: int, k: int) -> None:
    """Reject a ground-set size n, then a member size k outside 1..n."""
    _check_ground(n)
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


_set = object.__setattr__


def frozen_record(cls=None, *, uncompared: tuple[str, ...] = ()):
    """Class decorator for an immutable record, used in place of a frozen
    dataclass.

    The fields are the names the class body annotates, in order, and a value
    assigned to one in the body is its default.  Each method below is added
    unless the body defines it: __init__ (arguments by position or keyword),
    __repr__, and __eq__ and __hash__ over the fields not named in
    `uncompared`, the hash being that of their tuple.  __reduce__ rebuilds a
    record through __init__, and assigning or deleting an attribute raises
    AttributeError.  The methods are closures over the field names, so unlike
    dataclasses no code is compiled when a record class is defined, and
    neither `dataclasses` nor `inspect` is imported.
    """
    if cls is None:
        return lambda c: frozen_record(c, uncompared=uncompared)
    body = cls.__dict__
    names = tuple(body.get("__annotations__", ()))
    defaults = {name: body[name] for name in names if name in body}
    compared = tuple(name for name in names if name not in uncompared)
    if len(compared) > 1:
        key = attrgetter(*compared)
    else:
        (only,) = compared
        key = lambda self: (getattr(self, only),)  # noqa: E731
    title = cls.__name__

    def __init__(self, *args, **kwargs) -> None:
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if (
            len(args) > len(names)
            or values.keys() != set(names)
            or not kwargs.keys().isdisjoint(names[: len(args)])
        ):
            raise TypeError(f"{title}() takes the fields {', '.join(names)}, each once")
        self.__dict__.update(values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(key(self))

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in names)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {title} is frozen")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {title} is frozen")

    for method in (__init__, __repr__, __eq__, __hash__, __reduce__, __setattr__, __delattr__):
        if method.__name__ not in body:
            setattr(cls, method.__name__, method)
    cls._record_fields = names
    return cls


def record_dict(value):
    """A record as a dict of its fields, recursing into records, lists,
    tuples and dicts, as dataclasses.asdict does for dataclasses."""
    names = getattr(type(value), "_record_fields", None)
    if names is not None:
        return {name: record_dict(getattr(value, name)) for name in names}
    if type(value) in (list, tuple):
        return type(value)(map(record_dict, value))
    if type(value) is dict:
        return {key: record_dict(item) for key, item in value.items()}
    return value


@frozen_record
class Family:
    """A duplicate-free collection of k-subsets of {1..n}.

    Members are held as their bitmasks, strictly increasing, so equal
    families compare equal and member order is reproducible; bits_to_elements
    turns a mask back into its elements.  Empty families are legal.
    """

    __slots__ = ("n", "k", "bitmasks")
    n: int
    k: int
    bitmasks: tuple[int, ...]

    def __init__(self, n: int, k: int, bitmasks: tuple[int, ...]) -> None:
        _set(self, "n", n)
        _set(self, "k", k)
        _set(self, "bitmasks", bitmasks)
        _check_sizes(n, k)
        if type(bitmasks) is not tuple:
            raise TypeError(f"bitmasks must be a tuple, got {type(bitmasks).__name__}")
        if bitmasks and not (
            set(map(type, bitmasks)) == {int}
            and bitmasks[0] >= 0
            and not bitmasks[-1] >> n
            and all(map(lt, bitmasks, bitmasks[1:]))
            and set(map(int.bit_count, bitmasks)) == {k}
        ):
            self._reject()

    def _reject(self) -> None:
        """Raise the error for the first bad member.  Every mask is checked
        first: one that is not an int raises TypeError, like masks that are
        not a tuple, and one with bits outside the ground set BadElementError.
        Then the members are walked in order for size, repeats and order."""
        n = self.n
        for b in self.bitmasks:
            if not _is_int(b):
                raise TypeError("bitmasks must be ints")
            if b < 0 or b >> n:
                raise BadElementError(f"bitmask {b:#x} has bits outside ground set 1..{n}")
        prev = -1
        for b in self.bitmasks:
            elements = list(bits_to_elements(b))
            if len(elements) != self.k:
                raise BadSizeError(f"member {elements} does not have size {self.k}")
            if b == prev:
                raise DuplicateSetError(f"duplicate member {elements}")
            if b < prev:
                raise ValueError("members must be sorted by bitmask")
            prev = b
        raise TypeError("bitmasks must be ints")

    @classmethod
    def from_bitmasks(cls, n: int, k: int, masks: Iterable[int]) -> "Family":
        return cls(n, k, tuple(sorted(masks)))

    def __len__(self) -> int:
        return len(self.bitmasks)

    def __repr__(self) -> str:
        sets = [list(bits_to_elements(b)) for b in self.bitmasks]
        return f"Family(n={self.n!r}, k={self.k!r}, sets={sets!r})"


def make_family(n: int, k: int, sets: Iterable[Iterable[int]]) -> Family:
    """Validate raw element lists and build a Family.

    Raises BadSizeError when some set does not have exactly k distinct
    elements, BadElementError on out-of-range elements or sets that are not
    lists of elements, DuplicateSetError on repeats.
    """
    _check_sizes(n, k)
    masks = _bulk_masks(n, k, sets)
    if masks is not None:
        try:
            return Family.from_bitmasks(n, k, masks)
        except IntersumError:
            pass  # a repeated element or set; find the first error in input order
    return Family.from_bitmasks(n, k, _checked_masks(n, k, sets))


_BIT = tuple(1 << (e - 1) if e else 0 for e in range(MAX_GROUND + 1))  # _BIT[e] is e's bit
# _ELEMENT_LANES[b] maps an element e in 1..63 to byte b of _BIT[e] as a
# little-endian 64-bit word, and every other byte to 0: a lane of the table's
# words, padded to the 256 entries that bytes.translate takes.
_BIT_WORDS = b"".join(bit.to_bytes(8, "little") for bit in _BIT)
_ELEMENT_LANES = [_BIT_WORDS[b::8] + bytes(256 - len(_BIT)) for b in range(8)]


def _bulk_masks(n: int, k: int, sets: Iterable[Iterable[int]]) -> list[int] | None:
    """The masks of a list of k-element lists of ints in 1..n, tested at once,
    or None when any test fails and the first error must be found.

    The elements become one byte string, and each set is k consecutive
    bytes.  Byte b of every mask is then the OR, over the k positions of a
    set, of that position's bytes mapped through lane b's table; the lanes
    interleave into little-endian 64-bit words.  OR merges a repeated
    element, so its mask has popcount below k, and Family rejects it as it
    rejects a repeated set; neither is tested here.
    """
    if type(sets) not in (list, tuple) or not sets:
        return None
    if set(map(type, sets)) - {list, tuple} or set(map(len, sets)) != {k}:
        return None
    elements = list(chain.from_iterable(sets))
    if set(map(type, elements)) != {int}:  # before bytes(), which takes True as 1
        return None
    try:
        raw = bytes(elements)
    except ValueError:  # an element outside 0..255
        return None
    if raw.translate(None, bytes(range(1, n + 1))):  # an element outside 1..n
        return None
    count = len(sets)
    words = bytearray(8 * count)
    for b in range((n + 7) // 8):  # the lanes above element n's stay 0
        lane = _ELEMENT_LANES[b]
        merged = 0
        for t in range(k):
            merged |= int.from_bytes(raw[t::k].translate(lane), "little")
        words[b::8] = merged.to_bytes(count, "little")
    masks = array("Q", words)
    if sys.byteorder == "big":
        masks.byteswap()
    return masks.tolist()


def _checked_masks(n: int, k: int, sets: Iterable[Iterable[int]]) -> list[int]:
    """Member masks in input order; raises on the first bad set or element."""
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
    return masks


def family_to_dict(family: Family) -> dict:
    """JSON-ready dict: 1-based elements, each set ascending, sets in lex order."""
    return {
        "n": family.n,
        "k": family.k,
        "sets": sorted(list(bits_to_elements(b)) for b in family.bitmasks),
    }


def family_from_dict(data: dict) -> Family:
    try:
        n, k, sets = data["n"], data["k"], data["sets"]
    except (KeyError, TypeError) as exc:
        raise BadSizeError(f"family object must have keys n, k, sets: {exc}") from exc
    return make_family(n, k, sets)


def ksubset_masks(n: int, k: int) -> tuple[int, ...]:
    """All k-subset bitmasks of {1..n} in ascending numeric order."""
    _check_sizes(n, k)
    return tuple(sorted(map(sum, combinations(_BIT[1 : n + 1], k))))


def full_family(n: int, k: int) -> Family:
    return Family.from_bitmasks(n, k, ksubset_masks(n, k))


def star(n: int, k: int, x: int) -> Family:
    """All k-subsets of {1..n} containing the fixed element x."""
    _check_sizes(n, k)
    if not _is_int(x) or not 1 <= x <= n:
        raise BadElementError(f"center {x!r} outside ground set 1..{n}")
    rest = _BIT[1:x] + _BIT[x + 1 : n + 1]
    return Family.from_bitmasks(n, k, [sum(c, _BIT[x]) for c in combinations(rest, k - 1)])


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
    masks = family.bitmasks
    if not masks:
        return None
    common = masks[0]
    for bits in masks[1:]:
        common &= bits
        if not common:
            return None
    if len(masks) != math.comb(family.n - 1, family.k - 1):
        return None
    return (common & -common).bit_length()


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


# _LANE_DIGITS[b] maps a byte to the digit "1" when its bit b is set, else "0"
_LANE_DIGITS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]


def _mask_bytes(masks: Iterable[int]) -> bytes:
    """The masks as little-endian 64-bit words, in the order given.

    Every mask fits one word (MAX_GROUND = 63 < 64), so byte b of each word,
    the byte lane raw[b::8], holds bits 8b..8b+7 of the masks.
    """
    words = array("Q", masks)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tobytes()


def _columns(masks: tuple[int, ...], n: int) -> list[int]:
    """For x in 0..n-1, the bitset of the masks holding bit x, with masks[i]
    at bit i, so a column is an index bitset over masks (the searches rely
    on this order).

    Transposes the bit matrix in byte operations: mapping the bytes of lane
    x // 8 to digits spells the column in binary, the last mask first.
    """
    if not masks:
        return [0] * n
    raw = _mask_bytes(reversed(masks))
    return [int(raw[x // 8 :: 8].translate(_LANE_DIGITS[x % 8]), 2) for x in range(n)]


def element_degrees(family: Family) -> tuple[int, ...]:
    """For each element 1..n, how many members contain it.

    Counts the digits "1" of each byte lane mapped as in _columns, without
    building the columns.
    """
    raw = _mask_bytes(family.bitmasks)
    lanes = [raw[b::8] for b in range((family.n + 7) // 8)]
    return tuple(lanes[x // 8].translate(_LANE_DIGITS[x % 8]).count(b"1") for x in range(family.n))

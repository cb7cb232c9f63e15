"""Closed-form extremal values and the hypotheses under which they hold.

Each evaluator validates its hypothesis and raises HypothesisError outside
the proved regime rather than returning a number that means nothing there.
All arithmetic is exact (Python integers).
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BadSizeError, HypothesisError


def binom(a: int, b: int) -> int:
    """Binomial coefficient with the usual vanishing convention.

    Returns 0 when b < 0, b > a, or a < 0; this lets the star-count formula
    below be evaluated verbatim at edge parameters.
    """
    if a < 0 or b < 0 or b > a:
        return 0
    return math.comb(a, b)


class BoundValue(NamedTuple):
    value: int
    config: tuple[int, ...]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise HypothesisError(msg)


def _check_positive(n: int, k: int) -> None:
    if not (isinstance(n, int) and isinstance(k, int)) or n < 1 or k < 1:
        raise BadSizeError(f"parameters must be positive integers, got n={n!r}, k={k!r}")


def ekr_bound(n: int, k: int) -> BoundValue:
    """Maximum size of an intersecting family of k-subsets of [n], n >= 2k."""
    _check_positive(n, k)
    _require(n >= 2 * k, f"size bound needs n >= 2k, got n={n}, k={k}")
    return BoundValue(binom(n - 1, k - 1), (n, k))


def omega_intersecting_bound(n: int, k: int) -> BoundValue:
    """Maximum total intersection size over intersecting families, n >= 2k.

    Attained by a star: C(C(n-1,k-1), 2) pairs share the center, and each of
    the other n-1 elements is shared by C(n-2,k-2) members.
    """
    _check_positive(n, k)
    _require(n >= 2 * k, f"intersecting omega bound needs n >= 2k, got n={n}, k={k}")
    value = binom(binom(n - 1, k - 1), 2) + (n - 1) * binom(binom(n - 2, k - 2), 2)
    return BoundValue(value, (n, k))


def omega_cross_bound(n: int, k: int, l: int) -> BoundValue:
    """Ordered-pair total of a k-star and an l-star with a common center,
    for every n >= k + l.

    This is not always the maximum over cross-intersecting pairs.  Below
    n = 2k larger pairs exist: at (4,3,1) a pair reaches 4 against 3, and at
    (6,4,2) one reaches 86 against 80.  Every config with n >= 2k that the
    exact cross search covers agrees with this value.
    """
    _check_positive(n, k)
    _check_positive(n, l)
    _require(k >= l, f"cross bound is stated for k >= l, got k={k}, l={l}")
    _require(n >= k + l, f"cross bound needs n >= k + l, got n={n}, k={k}, l={l}")
    value = binom(n - 1, k - 1) * binom(n - 1, l - 1) + (n - 1) * binom(n - 2, k - 2) * binom(
        n - 2, l - 2
    )
    return BoundValue(value, (n, k, l))


def omega_strict_bound(n: int, k: int) -> BoundValue:
    """Maximum of the ordered-pair total excluding equal pairs, one family
    against itself, n >= 2k."""
    _check_positive(n, k)
    _require(n >= 2 * k, f"strict bound needs n >= 2k, got n={n}, k={k}")
    c1 = binom(n - 1, k - 1)
    c2 = binom(n - 2, k - 2)
    return BoundValue(c1 * (c1 - 1) + (n - 1) * c2 * (c2 - 1), (n, k))


def pm_star_count(n: int, k: int, l: int, m: int) -> int:
    """Number of ordered pairs (A, B), A in the k-star at 1 and B in the
    l-star at 1, with |A ∩ B| = m.

    Choose the meet through 1 (C(n-1, m-1) ways), extend A outside the meet
    (C(n-m, k-m)), then extend B avoiding A (C(n-k, l-m)).
    """
    _check_positive(n, k)
    _check_positive(n, l)
    if m < 0:
        raise BadSizeError(f"meet size m must be nonnegative, got {m}")
    return binom(n - 1, m - 1) * binom(n - m, k - m) * binom(n - k, l - m)


def star_identity_check(n: int, k: int, l: int) -> bool:
    """Exactly verify sum_m m * pm_star_count == omega_cross_bound value."""
    total = sum(m * pm_star_count(n, k, l, m) for m in range(0, min(k, l) + 1))
    return total == omega_cross_bound(n, k, l).value

"""Closed forms and their internal identities."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from intersum import bounds
from intersum.bounds import (
    BoundValue,
    binom,
    ekr_bound,
    omega_cross_bound,
    omega_intersecting_bound,
    omega_strict_bound,
    pm_star_count,
    star_identity_check,
)
from intersum.errors import BadSizeError, HypothesisError


def test_binom_conventions():
    assert binom(5, 2) == 10
    assert binom(5, 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(-2, 0) == 0


@given(st.integers(0, 40), st.integers(-3, 43))
def test_binom_matches_math_comb(a, b):
    expect = math.comb(a, b) if 0 <= b <= a else 0
    assert binom(a, b) == expect


def test_ekr_bound_values():
    assert ekr_bound(6, 3).value == 10
    assert ekr_bound(5, 2).value == 4
    assert ekr_bound(4, 2) == (3, (4, 2))  # NamedTuple: (value, config)
    with pytest.raises(HypothesisError):
        ekr_bound(5, 3)
    with pytest.raises(BadSizeError):
        ekr_bound(4, True)


def test_intersecting_bound_values():
    # C(C(n-1,k-1),2) + (n-1)*C(C(n-2,k-2),2)
    assert omega_intersecting_bound(5, 2).value == 6
    assert omega_intersecting_bound(6, 2).value == 10
    assert omega_intersecting_bound(7, 2).value == 15
    assert omega_intersecting_bound(4, 2).value == 3
    assert omega_intersecting_bound(6, 3).value == 75
    assert omega_intersecting_bound(12, 4).value == 24420
    with pytest.raises(HypothesisError):
        omega_intersecting_bound(5, 3)


def test_cross_bound_values():
    assert omega_cross_bound(5, 2, 2).value == 20
    assert omega_cross_bound(4, 2, 2).value == 12
    assert omega_cross_bound(6, 3, 2).value == 70
    assert omega_cross_bound(3, 2, 1).value == 2
    with pytest.raises(HypothesisError):
        omega_cross_bound(5, 2, 3)  # k < l
    with pytest.raises(HypothesisError):
        omega_cross_bound(4, 3, 2)  # n < k + l
    with pytest.raises(BadSizeError):
        omega_cross_bound(3, True, True)


def test_strict_bound_values():
    assert omega_strict_bound(5, 2).value == 12
    assert omega_strict_bound(4, 2).value == 6
    with pytest.raises(HypothesisError):
        omega_strict_bound(3, 2)


@given(st.integers(2, 20), st.data())
def test_strict_is_cross_minus_diagonal(n, data):
    k = data.draw(st.integers(1, n // 2))
    strict = omega_strict_bound(n, k).value
    cross = omega_cross_bound(n, k, k).value
    assert strict == cross - k * binom(n - 1, k - 1)
    # factor-two route through the unordered form
    assert strict == 2 * omega_intersecting_bound(n, k).value


def test_pm_star_count_values():
    assert pm_star_count(5, 2, 2, 1) == 12
    assert pm_star_count(5, 2, 2, 2) == 4
    assert pm_star_count(6, 3, 2, 2) == 20
    assert pm_star_count(6, 3, 2, 1) == 30


def test_pm_star_count_names_the_bad_parameter():
    # the CLI reaches omega_cross_bound's check (tests/test_cli.py), not this one
    for args, bad in (((5, 2, 0, 1), "l=0"), ((5, 0, 2, 1), "k=0"), ((0, 2, 2, 1), "n=0")):
        with pytest.raises(BadSizeError, match=f"^{bad[0]} must be a positive integer, got {bad}$"):
            pm_star_count(*args)
    with pytest.raises(BadSizeError, match="^meet size m must be nonnegative, got -1$"):
        pm_star_count(5, 2, 2, -1)


@given(st.integers(2, 16), st.data())
def test_pm_counts_sum_to_all_pairs(n, data):
    k = data.draw(st.integers(1, n - 1))
    l = data.draw(st.integers(1, k))
    if n < k + l:
        return
    # pairs through a fixed center, split by meet size, must cover the grid
    total = sum(pm_star_count(n, k, l, m) for m in range(1, min(k, l) + 1))
    assert total == binom(n - 1, k - 1) * binom(n - 1, l - 1)


def test_star_identity_check():
    assert star_identity_check(5, 2, 2)
    assert star_identity_check(6, 3, 2)
    for n in range(2, 15):
        for k in range(1, n):
            for l in range(1, k + 1):
                if n >= k + l:
                    assert star_identity_check(n, k, l)


def _outcome(check, *args):
    try:
        return check(*args)
    except Exception as exc:  # the exception type is the outcome compared
        return type(exc)


def _identity_by_pm_star_count(n, k, l):
    total = sum(m * pm_star_count(n, k, l, m) for m in range(0, min(k, l) + 1))
    return total == omega_cross_bound(n, k, l).value


def test_star_identity_check_sums_pm_star_count(monkeypatch):
    configs = [(n, k, l) for n in range(-1, 11) for k in range(-1, 7) for l in range(-1, 7)]
    configs += [(True, 1, 1), (6, True, 1), (6, 2, True)]
    for cfg in configs:
        assert _outcome(star_identity_check, *cfg) == _outcome(_identity_by_pm_star_count, *cfg)
    # in the regime the closed form always holds, so pin the sum itself: a
    # bound equal to the pm_star_count sum passes and one above it fails
    for n, k, l in configs:
        if not isinstance(_outcome(omega_cross_bound, n, k, l), BoundValue):
            continue
        total = sum(m * pm_star_count(n, k, l, m) for m in range(1, l + 1))
        for shift, verdict in ((0, True), (1, False)):
            fake = BoundValue(total + shift, (n, k, l))
            monkeypatch.setattr(bounds, "omega_cross_bound", lambda *_, fake=fake: fake)
            assert star_identity_check(n, k, l) is verdict
        monkeypatch.undo()

import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import digitpow as dp
import digitpow.intlog
from digitpow.checks import PositionTable
from digitpow.intlog import digit_count_range


# x < 333334 (n = 1e6) where the floors of the convergent pair in use differ
FALLBACKS = (97879, 174452, 195758, 251025, 272331, 293637, 327598)


@pytest.mark.parametrize(
    "x,expected",
    [(0, 0), (1, 3), (4, 13), (14, 46), (47, 156), (157, 521), (522, 1734)],
)
def test_exact_floor_values(x, expected):
    assert dp.floor_log2_pow10(x) == expected


def test_negative_rejected():
    with pytest.raises(ValueError):
        dp.floor_log2_pow10(-1)


def test_against_high_precision_oracle():
    # interval-style check: the high-precision product must sit strictly
    # between the exact floor and floor+1, with margin
    mp.dps = 60
    log2_10 = mp.log(10) / mp.log(2)
    prev = 0
    for x in range(1, 10_001):
        exact = dp.floor_log2_pow10(x)
        approx = x * log2_10
        assert exact < approx < exact + 1
        assert mp.fabs(approx - exact) > mp.mpf("1e-40")
        assert mp.fabs(approx - (exact + 1)) > mp.mpf("1e-40")
        assert exact >= prev
        prev = exact


def brackets_differ(x: int) -> bool:
    (p1, q1), (p2, q2) = digitpow.intlog._LOWER, digitpow.intlog._UPPER
    return x * p1 // q1 != x * p2 // q2


def test_floor_matches_running_power(monkeypatch):
    oracle, p = [0], 1
    for _ in range(10**5):
        p *= 10
        oracle.append(p.bit_length() - 1)
    assert [dp.floor_log2_pow10(x) for x in range(10**5 + 1)] == oracle
    assert [x for x in range(10**5 + 1) if brackets_differ(x)] == [FALLBACKS[0]]
    # the convergent pair before needs 17 exact fallbacks up to 10**5,
    # 12 of them where its lower floor alone is wrong
    monkeypatch.setattr(digitpow.intlog, "_LOWER", (42039, 12655))
    monkeypatch.setattr(digitpow.intlog, "_UPPER", (70777, 21306))
    assert sum(map(brackets_differ, range(10**5 + 1))) == 17
    assert [dp.floor_log2_pow10(x) for x in range(10**5 + 1)] == oracle


def test_floor_at_the_bracket_fallbacks():
    # the seven x a sweep to n = 1e6 can meet where the bracket's floors
    # differ; each side of each is decided by the bracket alone
    assert [x for x in range(333334) if brackets_differ(x)] == list(FALLBACKS)
    for x in FALLBACKS:
        exact = (10**x).bit_length() - 1
        assert dp.floor_log2_pow10(x) == exact
        assert not brackets_differ(x - 1) and not brackets_differ(x + 1)
        assert dp.floor_log2_pow10(x - 1) < exact < dp.floor_log2_pow10(x + 1)


@pytest.mark.parametrize(
    "lower,upper",
    [
        ((42039, 12655), (254370, 76573)),  # both below log2 10
        ((70777, 21306), (325147, 97879)),  # both above
        ((325147, 97879), (254370, 76573)),  # swapped
        ((254371, 76573), (325147, 97879)),  # lower one too high
        ((254370, 76573), (325146, 97879)),  # upper one too low
    ],
)
def test_table_refuses_a_non_bracketing_pair(monkeypatch, lower, upper):
    monkeypatch.setattr(digitpow.intlog, "_LOWER", lower)
    monkeypatch.setattr(digitpow.intlog, "_UPPER", upper)
    with pytest.raises(RuntimeError, match="do not bracket"):
        dp.floor_log2_pow10(10)
    with pytest.raises(RuntimeError, match="do not bracket"):
        dp.bound_table(2)


def test_bound_table_known_values():
    assert dp.bound_table(1) == (0,)
    assert dp.bound_table(2) == (0, 3)
    assert dp.bound_table(6) == (0, 3, 13, 46, 156, 521)
    b7 = dp.bound_table(7)[6]
    assert b7 == 1734
    assert b7 < 4**6


def test_bound_table_properties():
    entries = dp.bound_table(12)
    for k in range(1, len(entries)):
        assert entries[k] > entries[k - 1]
    for k, v in enumerate(entries, start=1):
        assert v < 4 ** (k - 1)
    # growth replica: each step stays under 4x the previous entry
    for k in range(7, len(entries) + 1):
        assert entries[k - 1] < 4 * entries[k - 2]


def test_bound_table_to_the_last_entry():
    t0 = time.perf_counter()
    entries = dp.bound_table(dp.intlog.BOUND_TABLE_MAX_K)
    assert time.perf_counter() - t0 < 1.0
    assert len(entries) == 15 and entries[-1] == 25731874
    # the exact iteration, on powers of ten, as far as it is cheap
    exact = [0]
    for _ in range(10):
        exact.append((10 ** (exact[-1] + 1)).bit_length() - 1)
    assert entries[:11] == tuple(exact)
    assert entries == PositionTable().bounds
    # no B_k + 1 up to k = 14 needs the exact route
    assert not any(brackets_differ(b + 1) for b in entries)


def test_bound_table_validation():
    with pytest.raises(ValueError):
        dp.bound_table(0)
    with pytest.raises(ValueError):
        dp.bound_table(dp.intlog.BOUND_TABLE_MAX_K + 1)  # refused before any work


def test_lower_bound_predicate_examples():
    assert dp.digit_sum_exceeds_log4(1, 1)
    assert not dp.digit_sum_exceeds_log4(17, 2)
    assert dp.digit_sum_exceeds_log4(10, 7)
    assert dp.digit_sum_exceeds_log4(15, 2)  # 4**2 = 16 > 15
    assert not dp.digit_sum_exceeds_log4(16, 2)  # 16 is not > 16
    with pytest.raises(ValueError):
        dp.digit_sum_exceeds_log4(0, 5)


@given(
    st.integers(min_value=1, max_value=10**7),
    st.integers(min_value=0, max_value=40),
)
def test_lower_bound_predicate_matches_powers(n, s):
    assert dp.digit_sum_exceeds_log4(n, s) == (4**s > n)


def test_digit_count_formula_examples():
    # 2**n has dc digits exactly for n in digit_count_range(dc)
    assert digit_count_range(1) == (0, 3)  # 1..8
    assert digit_count_range(4) == (10, 13)  # 1024..8192
    assert digit_count_range(5) == (14, 16)  # 16384..65536
    lo, hi = digit_count_range(100)
    assert lo <= 332 <= hi
    # no n gives fewer than one digit
    assert digit_count_range(0) == (1, 0)
    assert digit_count_range(-3) == (1, 0)


@given(st.integers(min_value=0, max_value=3000))
def test_digit_count_formula_matches_len(n):
    true_dc = len(str(2**n))
    for dc in (true_dc - 1, true_dc, true_dc + 1):
        lo, hi = digit_count_range(dc)
        assert (lo <= n <= hi) == (dc == true_dc)
    # the range is tight: its ends have dc digits, their outer neighbours do not
    lo, hi = digit_count_range(true_dc)
    assert len(str(2**lo)) == len(str(2**hi)) == true_dc
    assert len(str(2 ** (hi + 1))) == true_dc + 1
    assert lo == 0 or len(str(2 ** (lo - 1))) == true_dc - 1

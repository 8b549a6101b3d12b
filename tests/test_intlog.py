import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import digitpow as dp
import digitpow.intlog


@pytest.mark.parametrize(
    "x,expected",
    [(0, 0), (1, 3), (4, 13), (14, 46), (47, 156), (157, 521), (522, 1734)],
)
def test_exact_floor_values(x, expected):
    assert dp.exact_floor_log2_pow10(x) == expected


def test_negative_rejected():
    with pytest.raises(ValueError):
        dp.exact_floor_log2_pow10(-1)


def test_against_high_precision_oracle():
    # interval-style check: the high-precision product must sit strictly
    # between the exact floor and floor+1, with margin
    mp.dps = 60
    log2_10 = mp.log(10) / mp.log(2)
    table = dp.floor_log2_pow10(10_000).tolist()
    prev = 0
    for x in range(1, 10_001):
        exact = table[x]
        approx = x * log2_10
        assert exact < approx < exact + 1
        assert mp.fabs(approx - exact) > mp.mpf("1e-40")
        assert mp.fabs(approx - (exact + 1)) > mp.mpf("1e-40")
        assert exact >= prev
        prev = exact


def test_table_matches_function():
    table = dp.floor_log2_pow10(4000)
    assert table.dtype == np.int64 and table.size == 4001
    for x in (0, 1, 7, 100, 522, 4000):
        assert table[x] == dp.exact_floor_log2_pow10(x)
    assert dp.floor_log2_pow10(0).tolist() == [0]
    assert dp.floor_log2_pow10(600)[522] == 1734
    with pytest.raises(ValueError):
        dp.floor_log2_pow10(-1)
    with pytest.raises(ValueError):
        dp.floor_log2_pow10(2**62)  # x * P2 would overflow int64


def test_table_matches_running_power(monkeypatch):
    oracle, p = [0], 1
    for _ in range(10**5):
        p *= 10
        oracle.append(p.bit_length() - 1)
    assert dp.floor_log2_pow10(10**5).tolist() == oracle
    # the convergent pair before needs 17 exact fallbacks up to 10**5,
    # 12 of them where its lower floor alone is wrong
    monkeypatch.setattr(digitpow.intlog, "_LOWER", (42039, 12655))
    monkeypatch.setattr(digitpow.intlog, "_UPPER", (70777, 21306))
    assert dp.floor_log2_pow10(10**5).tolist() == oracle


@pytest.mark.parametrize(
    "lower,upper",
    [
        ((42039, 12655), (254370, 76573)),  # both below log2 10
        ((70777, 21306), (325147, 97879)),  # both above
        ((325147, 97879), (254370, 76573)),  # swapped
    ],
)
def test_table_refuses_a_non_bracketing_pair(monkeypatch, lower, upper):
    monkeypatch.setattr(digitpow.intlog, "_LOWER", lower)
    monkeypatch.setattr(digitpow.intlog, "_UPPER", upper)
    with pytest.raises(RuntimeError, match="do not bracket"):
        dp.floor_log2_pow10(10)


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
    table = dp.floor_log2_pow10(100)
    assert dp.digit_count_formula_check(10, 4, table)
    assert dp.digit_count_formula_check(0, 1, table)
    assert dp.digit_count_formula_check(332, 100, table)
    assert not dp.digit_count_formula_check(10, 3, table)
    assert not dp.digit_count_formula_check(10, 5, table)
    assert not dp.digit_count_formula_check(5, 0, table)
    with pytest.raises(ValueError):
        dp.digit_count_formula_check(-1, 1, table)


@given(st.integers(min_value=0, max_value=3000))
def test_digit_count_formula_matches_len(n):
    true_dc = len(str(2**n))
    table = dp.floor_log2_pow10(true_dc + 1)
    for dc in (true_dc - 1, true_dc, true_dc + 1):
        if dc >= 1:
            assert dp.digit_count_formula_check(n, dc, table) == (dc == true_dc)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitpow as dp
from digitpow import bignum
from digitpow.bignum import (
    _pow5,
    div_small,
    is_doubled,
    mod_pow2,
    to_int,
    trailing_zero_digits,
)
from oracles import is_canonical, oracle_digit_sum, school_mul_small, verify_split

naturals = st.integers(min_value=0, max_value=10**45)
positives = st.integers(min_value=1, max_value=10**45)


def make(v: int) -> dp.DecimalNat:
    return dp.from_decimal_string(str(v))


def test_limb_base_constant():
    assert dp.LIMB_BASE == 10**9
    assert dp.LIMB_DIGITS == 9


def test_canonical_zero():
    z = dp.from_small(0)
    assert z.limbs.size == 0
    assert dp.to_decimal_string(z) == "0"
    assert dp.from_decimal_string("0").limbs.size == 0
    assert dp.digit_sum(z) == 0
    assert to_int(z) == 0


def test_from_small_examples():
    assert dp.from_small(1024).limbs.tolist() == [1024]
    assert dp.from_small(10**9).limbs.tolist() == [0, 1]
    assert dp.to_decimal_string(dp.from_small(10**9)) == "1000000000"
    with pytest.raises(ValueError):
        dp.from_small(-1)


def test_double_examples():
    x = dp.from_small(1)
    assert dp.double_in_place(x) is x
    assert dp.to_decimal_string(x) == "2"
    assert dp.to_decimal_string(dp.double_in_place(dp.from_small(512))) == "1024"
    y = dp.from_small(499_999_999)
    dp.double_in_place(y)
    assert dp.to_decimal_string(y) == "999999998"
    dp.double_in_place(y)
    assert y.limbs.tolist() == [999999996, 1]
    assert dp.to_decimal_string(y) == "1999999996"
    z = dp.zero()
    dp.double_in_place(z)
    assert z.limbs.size == 0


def test_mul_small_examples():
    assert dp.mul_small(dp.from_small(7), 0).limbs.size == 0
    assert dp.to_decimal_string(dp.mul_small(dp.from_small(1), 10)) == "10"
    big = dp.mul_small(dp.from_small(999_999_999), 999_999_999)
    assert dp.to_decimal_string(big) == "999999998000000001"
    with pytest.raises(ValueError):
        dp.mul_small(dp.from_small(1), 10**9)
    with pytest.raises(ValueError):
        dp.mul_small(dp.from_small(1), -1)


def test_digit_sum_examples():
    assert dp.digit_sum(dp.from_small(1)) == 1
    assert dp.digit_sum(dp.from_small(1024)) == 7
    assert dp.digit_sum(dp.from_small(999_999_999)) == 81


def test_digit_count_examples():
    assert dp.digit_count(dp.from_small(1)) == 1
    assert dp.digit_count(dp.from_small(1024)) == 4
    with pytest.raises(ValueError):
        dp.digit_count(dp.zero())
    x = dp.from_small(1)
    for _ in range(332):
        dp.double_in_place(x)
    assert dp.digit_count(x) == 100


def test_split_examples():
    # the split checks read A = x mod 10**k through A = x (mod 2**k) and
    # A > 0 iff k exceeds the trailing zero digits of x
    x = dp.from_small(1024)
    assert verify_split(1024, 2)[:2] == (24, 10)
    assert verify_split(1024, 10)[:2] == (1024, 0)
    assert mod_pow2(x, 0) == 0
    assert mod_pow2(x, 2) == 24 % 4 == 0
    assert mod_pow2(x, 3) == 24 % 8 == 0
    assert trailing_zero_digits(x) == 0
    x = dp.from_small(10**5)
    assert verify_split(10**5, 3).low == 0
    assert trailing_zero_digits(x) == 5
    assert trailing_zero_digits(dp.from_small(10**9)) == 9


def test_divisible_by_pow2_examples():
    # 2**k | x exactly when x mod 2**k is 0
    assert mod_pow2(dp.from_small(24), 2) == 0
    assert mod_pow2(dp.from_small(24), 4) != 0
    for k in (0, 1, 7, 100):
        assert mod_pow2(dp.zero(), k) == 0
    assert mod_pow2(dp.from_small(24), 0) == 0


def test_compare_examples():
    a, b = dp.from_small(1024), dp.from_small(1024)
    assert a == b and a is not b
    assert dp.from_small(24) != dp.from_small(1024)
    assert dp.from_small(10**9) != dp.from_small(999_999_999)
    assert (dp.from_small(24) == 24) is False


def test_parse_round_trip_limb_boundary():
    x = dp.from_decimal_string("1000000000")
    assert x.limbs.tolist() == [0, 1]
    assert dp.to_decimal_string(x) == "1000000000"
    assert dp.from_decimal_string("1024").limbs.tolist() == [1024]


@pytest.mark.parametrize("bad", ["", "01", "00", "1a", "-5", " 1", "1 ", "1.0", "１２"])
def test_parse_errors(bad):
    with pytest.raises(ValueError):
        dp.from_decimal_string(bad)


def test_digit_scan():
    x = dp.from_small(1048576)
    assert dp.digit_scan(x) == [(6, 0), (7, 1), (5, 2), (8, 3), (4, 4), (1, 6)]
    assert dp.digit_tally(x) == (31, 6)
    assert dp.digit_count(x) == 7
    assert dp.digit_scan(dp.zero()) == []
    assert dp.digit_tally(dp.zero()) == (0, 0)


def test_digit_tally_limb_cap(monkeypatch):
    # the nonzero count, at most 9 per limb, fills a 24-bit field: the
    # packed total is exact up to _TALLY_MAX_LIMBS limbs and refused past it
    cap = bignum._TALLY_MAX_LIMBS
    assert 9 * cap < 2**24 <= 9 * (cap + 1)
    # the widest entry, and two of them summed per limb, fit int32
    t = bignum._CHUNK5_TALLY
    assert t.dtype == np.int32 and t.size == 10**5
    assert int(t.max()) == 5 | 45 << 24 and 2 * int(t.max()) < 2**31
    # a full-width value at the cap: every limb 999999999
    full = dp.DecimalNat(np.full(cap, 10**9 - 1, dtype=np.int64))
    assert dp.digit_tally(full) == (81 * cap, 9 * cap)
    over = dp.DecimalNat(np.full(cap + 1, 10**9 - 1, dtype=np.int64))
    with pytest.raises(ValueError, match="overflow"):
        dp.digit_tally(over)
    x = dp.from_small(999_999_999 * (10**9 + 1))
    assert dp.digit_tally(x) == (162, 18)
    monkeypatch.setattr(bignum, "_TALLY_MAX_LIMBS", 1)
    with pytest.raises(ValueError):
        dp.digit_tally(x)


# limbs at the 4 + 5 digit chunk boundary, the widest limb, and zero limbs
chunk_limbs = st.sampled_from([0, 1, 9, 99999, 100000, 100001, 10**9 - 1, 999900000,
                               99999 * 10**4, 10**8, 500000000, 4567800000 // 10])


@given(st.lists(chunk_limbs, min_size=1, max_size=12), st.integers(1, 10**9 - 1))
def test_digit_tally_chunk_boundaries(low, top):
    x = dp.DecimalNat(np.array([*low, top], dtype=np.int64))
    digits = str(to_int(x))
    assert dp.digit_tally(x) == (sum(map(int, digits)), len(digits) - digits.count("0"))


@given(naturals)
def test_string_round_trip(v):
    s = str(v)
    x = dp.from_decimal_string(s)
    assert is_canonical(x)
    assert dp.to_decimal_string(x) == s
    assert to_int(x) == v


@given(naturals)
def test_double_matches_int(v):
    x = make(v)
    dp.double_in_place(x)
    assert is_canonical(x)
    assert to_int(x) == 2 * v


@given(naturals, st.integers(min_value=0, max_value=10**9 - 1))
def test_mul_small_matches_int(v, c):
    y = dp.mul_small(make(v), c)
    assert is_canonical(y)
    assert to_int(y) == v * c


@given(naturals, st.integers(min_value=0, max_value=60))
def test_split_reconstruction(v, k):
    # the two facts about A = v mod 10**k that the split verdicts read from
    # the limbs instead of forming A
    x = make(v)
    low, high, _ = verify_split(v, k)
    assert low + high * 10**k == v and low < 10**k
    assert mod_pow2(x, k) == low % 2**k
    if v:
        assert (low > 0) == (k > trailing_zero_digits(x))


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10**2500), st.integers(min_value=0, max_value=9000))
def test_mod_pow2_matches_int(v, bits):
    # up to 278 limbs: five 64-limb leaves, so every split level runs
    x = make(v)
    assert mod_pow2(x, bits) == v % 2**bits
    assert to_int(x) == v
    if v:
        s = str(v)
        assert trailing_zero_digits(x) == len(s) - len(s.rstrip("0"))


def test_mod_pow2_leaf_boundaries():
    # an upper part at leaf offset j enters times 2**(576 j); check bit
    # counts that reach just below, at and just past each such offset
    v = 3**6000  # 2863 digits, five leaves
    x = make(v)
    for j in range(1, 6):
        for bits in range(576 * j - 2, 576 * j + 12):
            assert mod_pow2(x, bits) == v % 2**bits


def test_mod_pow2_power_cache_stays_logarithmic():
    _pow5.cache_clear()
    for limbs in range(1, 600):
        x = dp.from_decimal_string("7" * (9 * limbs))
        assert mod_pow2(x, 30 * limbs) == 7 * (10 ** (9 * limbs) - 1) // 9
    # 600 limbs are 10 leaves: splits at 1, 2, 4 and 8 leaves only
    assert _pow5.cache_info().currsize == 4
    with pytest.raises(ValueError):
        mod_pow2(x, -1)
    with pytest.raises(ValueError):
        trailing_zero_digits(dp.zero())


def test_trailing_zero_digits_limb_boundaries():
    # limb 0 nonzero is read at once; otherwise the first nonzero limb
    for v in (1, 7, 10, 2**40, 10**8, 10**9, 3 * 10**9, 10**17, 10**18, 5 * 10**30 + 10**40):
        s = str(v)
        assert trailing_zero_digits(make(v)) == len(s) - len(s.rstrip("0")), v


def limbs_value(limbs) -> int:
    return sum(int(v) * 10 ** (9 * i) for i, v in enumerate(limbs))


# limbs that make carries: near 0, 5 * 10**8 and 10**9 - 1
limb_values = st.one_of(
    st.integers(0, 10**9 - 1),
    st.sampled_from([0, 1, 499_999_999, 500_000_000, 500_000_001, 999_999_998, 999_999_999]),
)


@given(st.lists(limb_values, max_size=12), st.integers(0, 2), st.integers(0, 2),
       st.one_of(st.none(), st.tuples(st.integers(0, 13), limb_values)))
def test_is_doubled_iff_value_doubles(old, pad_old, pad_new, edit):
    # limbs in 0..10**9-1: the certificate holds exactly when the value
    # doubles, at length L or L + 1, with top zero limbs on either side
    new = bignum.from_small(2 * limbs_value(old)).limbs.tolist() + [0] * pad_new
    old = old + [0] * pad_old
    if edit is not None:  # one limb of the double set to another value
        i, v = edit
        new += [0] * (i + 1 - len(new))
        new[i] = v
    o, w = np.array(old, dtype=np.int64), np.array(new, dtype=np.int64)
    assert is_doubled(o, w) == (limbs_value(new) == 2 * limbs_value(old))


@given(st.lists(st.integers(-(2**40), 2**40), max_size=8),
       st.lists(st.integers(-(2**40), 2**40), max_size=8),
       st.one_of(st.none(), st.integers(0, 7)))
def test_is_doubled_is_sound_on_any_limbs(old, new, recarry):
    # non-canonical limbs: the certificate proves the identity whatever
    # it is handed, even when it passes a pair it need not pass
    if recarry is not None:  # the double with value moved between limbs
        new = bignum.from_small(2 * abs(limbs_value(old))).limbs.tolist() + [0, 0]
        i = recarry % (len(new) - 1)
        new[i] += 10**9
        new[i + 1] -= 1
    o, w = np.array(old, dtype=np.int64), np.array(new, dtype=np.int64)
    if is_doubled(o, w):
        assert limbs_value(new) == 2 * limbs_value(old)


def test_is_doubled_examples():
    a = lambda *limbs: np.array(limbs, dtype=np.int64)
    assert is_doubled(a(), a())
    assert is_doubled(a(5), a(10))
    assert is_doubled(a(999_999_999), a(999_999_998, 1))  # length L + 1
    assert is_doubled(a(500_000_000), a(10**9))  # a non-canonical limb
    assert not is_doubled(a(999_999_999), a(999_999_998))  # the top carry dropped
    assert not is_doubled(a(600_000_000, 7), a(200_000_000, 14))  # a carry dropped
    assert not is_doubled(a(1), a())
    x = make(3**4000)
    y = x.copy()
    dp.double_in_place(y)
    assert is_doubled(x.limbs, y.limbs)
    y.limbs[100] += 1
    assert not is_doubled(x.limbs, y.limbs)


@given(naturals, st.integers(min_value=0, max_value=80))
def test_divisible_by_pow2_matches_int(v, k):
    assert (mod_pow2(make(v), k) == 0) == (v % 2**k == 0)


@given(naturals, naturals)
def test_compare_matches_int(a, b):
    assert (make(a) == make(b)) == (a == b)


@given(naturals)
def test_digit_sum_mod9(v):
    assert dp.digit_sum(make(v)) % 9 == v % 9


@given(positives)
def test_digit_count_matches_len(v):
    x = make(v)
    assert dp.digit_count(x) == len(str(v))
    assert dp.digit_count(x) == len(dp.to_decimal_string(x))


@given(positives, st.integers(min_value=1, max_value=10**9 - 1))
def test_div_small_matches_int(v, d):
    q, r = div_small(make(v), d)
    assert is_canonical(q)
    assert to_int(q) * d + r == v
    assert 0 <= r < d


def test_schoolbook_oracle_equivalence():
    # 1000 seeded random values under 10**36 against the string schoolbook
    rng = np.random.default_rng(20260809)
    for _ in range(1000):
        ndig = int(rng.integers(1, 37))
        v = int(rng.integers(1, 10)) if ndig == 1 else None
        if v is None:
            digits = rng.integers(0, 10, size=ndig)
            digits[0] = rng.integers(1, 10)
            v = int("".join(map(str, digits)))
        s = str(v)
        c = int(rng.integers(0, 10**9))
        doubled = dp.double_in_place(dp.from_decimal_string(s))
        assert dp.to_decimal_string(doubled) == school_mul_small(s, 2)
        product = dp.mul_small(dp.from_decimal_string(s), c)
        assert dp.to_decimal_string(product) == school_mul_small(s, c)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=400))
def test_doubling_chain_matches_naive(n):
    x = dp.from_small(1)
    for _ in range(n):
        dp.double_in_place(x)
    assert dp.to_decimal_string(x) == str(2**n)
    assert dp.digit_sum(x) == oracle_digit_sum(n)


def test_casting_out_nines_along_chain():
    x = dp.from_small(1)
    residue = 1  # 2**0 mod 9, tracked without touching limbs
    for n in range(1, 2001):
        dp.double_in_place(x)
        residue = residue * 2 % 9
        assert dp.digit_sum(x) % 9 == residue, f"mod-9 mismatch at n={n}"

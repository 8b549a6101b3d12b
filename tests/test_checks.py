import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitpow as dp
import digitpow.checks
from digitpow.checks import PositionTable, check_positions
from digitpow.cli import main
from oracles import (
    decompose,
    four_power_bound_check,
    gap_inequality_check,
    iterated_bound_check,
    oracle_digit_sum,
    verify_split,
)

positives = st.integers(min_value=1, max_value=10**45)


def positions(v: int):
    """check_positions on v, set up as a sweep row sets it up."""
    x = dp.from_decimal_string(str(v))
    return check_positions(x.limbs, len(str(v)), PositionTable())


def test_decompose_examples():
    assert decompose(7) == [(7, 0)]
    assert decompose(1024) == [(4, 0), (2, 1), (1, 3)]
    assert decompose(10**5) == [(1, 5)]
    with pytest.raises(ValueError):
        decompose(0)
    assert dp.digit_scan(dp.from_small(1024)) == decompose(1024)


@given(positives)
def test_decomposition_invariants(v):
    x = dp.from_decimal_string(str(v))
    terms = decompose(v)
    assert dp.digit_scan(x) == terms
    s, m = dp.digit_tally(x)
    assert s == sum(d for d, _ in terms) == dp.digit_sum(x)
    assert m == len(terms)
    assert dp.digit_count(x) == len(str(v))
    assert m <= s
    assert m <= dp.digit_count(x)


def test_gap_check_examples():
    assert gap_inequality_check(1024) == [True, True]
    assert gap_inequality_check(7) == []
    assert gap_inequality_check(1) == []
    assert positions(1024).gap_ok and positions(7).gap_ok


def test_gap_check_not_vacuous():
    # 1000000001 jumps from position 0 to 9; 9 > floor(log2(10) * 1) = 3
    assert gap_inequality_check(10**9 + 1) == [False]
    assert not positions(10**9 + 1).gap_ok


def test_four_power_examples():
    assert four_power_bound_check(1024)
    assert four_power_bound_check(1)
    # divisible by ten: first nonzero digit is not at position 0
    assert not four_power_bound_check(10)
    assert not four_power_bound_check(100)
    for v, ok in ((1024, True), (1, True), (10, False), (100, False)):
        assert positions(v).fourpow_ok is ok


def test_four_power_position_bound():
    # e_2 = 4 >= 4**1 must fail even with e_1 = 0
    assert decompose(10001) == [(1, 0), (1, 4)]
    assert not four_power_bound_check(10001)
    assert not positions(10001).fourpow_ok


def test_verify_split_examples():
    assert verify_split(1024, 2) == (24, 10, True)
    assert verify_split(1024, 1) == (4, 102, True)
    # split beyond all digits: high = 0, outside the bound's hypotheses
    assert verify_split(16, 4) == (16, 0, None)
    # low part 5 is odd; low part 0 is not positive
    assert verify_split(1025, 1).ok is False
    assert verify_split(1000, 2).ok is False


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=70))
def test_verify_split_all_k(n):
    dc = len(str(2**n))
    for k in range(1, n + 1):
        w = verify_split(2**n, k)
        assert (w.ok is not None) == (k <= dc - 1)
        if w.ok is not None:
            assert w.ok, f"split bound failed at n={n}, k={k}"


def test_scan_matches_verify_split():
    # a sweep row passes its split check when it is proven to hold 2**n,
    # and every low part of 2**n, formed directly, meets the bound
    _, records = dp.run_sweep(
        dp.SweepConfig(max_n=212, jobs=1), out=io.StringIO(), collect=True
    )
    for n in (5, 17, 64, 100, 212):
        rec = records[n - 1]
        kmax = min(n, rec.digit_count - 1)
        assert rec.lemma2_ok and rec.lemma2_checked == kmax
        assert all(verify_split(2**n, k).ok for k in range(1, kmax + 1))


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=500))
def test_vector_checks_match_decomposition_route(n):
    result = positions(2**n)
    assert result.gap_ok == all(gap_inequality_check(2**n))
    assert result.fourpow_ok == four_power_bound_check(2**n)
    assert result.bound_ok == iterated_bound_check(2**n)
    assert result.bound_ok  # iterated bounds dominate true positions
    assert result.gap_ok and result.fourpow_ok


def test_vector_checks_catch_synthetic_failures():
    r = positions(10)  # e_1 != 0
    assert not r.fourpow_ok
    r = positions(10**9 + 1)  # gap 0 -> 9 too wide
    assert not r.gap_ok
    assert not r.bound_ok  # 9 > B_2 = 3


def with_zero_runs(ds, runs):
    """The digits ds (position = index) with each (start, length) run zeroed."""
    ds = list(ds)
    for start, length in runs:
        ds[start : start + length] = [0] * len(ds[start : start + length])
    return int("".join(map(str, reversed(ds))))


def one_digit_per_limb(steps, at_zero):
    """One nonzero digit per limb: each step is (limbs up, offset, digit);
    the first digit sits at position 0 when at_zero."""
    v, limb = 0, 0
    for i, (up, offset, d) in enumerate(steps):
        limb += up if i else 0
        v += d * 10 ** (9 * limb + (0 if at_zero and i == 0 else offset))
    return v


# B_1..B_7 and 4**0..4**6: the bounds that bind on values up to ~4100 digits
BOUNDS = (0, 3, 13, 46, 156, 521, 1734)
EDGES = sorted({max(0, c + d) for c in BOUNDS + tuple(4**i for i in range(7))
                for d in (-1, 0, 1)})

position_values = st.one_of(
    positives,
    # sparse: nonzero digits only at the bounds and one off either side
    st.builds(
        lambda terms: sum(d * 10**e for e, d in terms.items()),
        st.dictionaries(st.sampled_from(EDGES), st.integers(1, 9), min_size=1, max_size=10),
    ),
    # more than 31 nonzero digits, shifted to fail e_1 = 0 at times
    st.builds(
        lambda ds, z: int("".join(map(str, ds))) * 10**z,
        st.lists(st.integers(1, 9), min_size=32, max_size=80),
        st.sampled_from((0, 0, 1, 3)),
    ),
    # dense digits with zero runs of 1-40 digits: some start right above
    # positions 0-8, others anywhere, so some cross limb boundaries and
    # some cover whole limbs
    st.builds(
        with_zero_runs,
        st.lists(st.integers(1, 9), min_size=10, max_size=150),
        st.lists(st.tuples(st.one_of(st.integers(1, 9), st.integers(1, 150)),
                           st.integers(1, 40)), min_size=1, max_size=4),
    ),
    # one long run just above the tenth nonzero digit: past the first
    # nine pairs, a pair breaks the gap bound only across whole zero limbs
    st.builds(
        lambda ds, start, length: with_zero_runs(ds, [(start, length)]),
        st.lists(st.integers(1, 9), min_size=60, max_size=80),
        st.integers(10, 17),
        st.integers(20, 40),
    ),
    # multiples of 10**9: limb 0 is zero
    st.builds(lambda a, j: a * 10 ** (9 * j), positives, st.integers(1, 3)),
    # sparse: the lowest nonzero digits each in a limb of their own
    st.builds(
        one_digit_per_limb,
        st.lists(st.tuples(st.integers(1, 4), st.integers(0, 8), st.integers(1, 9)),
                 min_size=2, max_size=14),
        st.booleans(),
    ),
)


# one table for every value, as a sweep has it: a value's verdicts do not
# depend on the values checked with the table before it
SHARED_TABLE = PositionTable()


@settings(deadline=None, max_examples=500)
@given(position_values)
def test_position_checks_match_oracles(v):
    x = dp.from_decimal_string(str(v))
    digits = str(v)
    assert dp.digit_tally(x) == (sum(map(int, digits)), len(digits) - digits.count("0"))
    assert dp.digit_count(x) == len(digits)
    result = positions(v)
    assert result.gap_ok == all(gap_inequality_check(v))
    assert result.fourpow_ok == four_power_bound_check(v)
    assert result.bound_ok == iterated_bound_check(v)
    assert check_positions(x.limbs, len(digits), SHARED_TABLE) == result


# lowest nonzero digits past the table's head, floor(x * log2 10) for
# x < 64, so their pairs compute it; it is 209 at x = 63 and 235 at 71
HIGH_PAIRS = [10**70 + 10**75, 10**70 + 10**235, 10**70 + 10**236, 10**63 + 10**300,
              10**64 + 10**65 + 10**400, 10**62 + 10**209, 10**62 + 10**210,
              10**9 * (10**54 + 10**80)]


@pytest.mark.parametrize("v", HIGH_PAIRS)
def test_position_checks_past_the_table_head(v):
    r = check_positions(dp.from_decimal_string(str(v)).limbs, len(str(v)), SHARED_TABLE)
    assert r.gap_ok == all(gap_inequality_check(v))
    assert r.fourpow_ok == four_power_bound_check(v) is False
    assert r.bound_ok == iterated_bound_check(v) is False


def test_position_checks_refuse_a_value_past_the_last_bound():
    # B_15 = 25731874 must lie past the top digit, so that every e_k
    # past e_15 passes; a value reaching it is refused, not passed
    table = PositionTable()
    assert table.bounds[:5] == (0, 3, 13, 46, 156) and len(table.bounds) == 15
    assert table.fours[:5] == (1, 4, 16, 64, 256) and len(table.fours) == 15
    assert table.head == [(10**x).bit_length() - 1 for x in range(64)]
    top = table.bounds[-1]
    for last, ok in ((top - 1, True), (top, False), (top + 9, False)):
        limbs = np.zeros(last // 9 + 1, dtype=np.int32)
        limbs[0], limbs[-1] = 1, 10 ** (last % 9)
        if ok:
            assert tuple(check_positions(limbs, last + 1, table)) == (False, False, False)
        else:
            with pytest.raises(ValueError, match="not below B_15 = 25731874"):
                check_positions(limbs, last + 1, table)


def test_gap_check_across_zero_limbs():
    # digits at 0..10, then limbs 2 and 3 all zero: the pair (10, e) lies
    # past the first nine pairs and spans the zero limbs; gap[11] = 36
    for e, ok in ((36, True), (37, False), (41, False)):
        v = int("1" * 11) + 10**e
        assert all(gap_inequality_check(v)) is ok
        assert positions(v).gap_ok is ok


def test_position_checks_at_the_bounds():
    # e_3 = 13 = B_3 passes; 14 and 15 break B_3 but stay below 4**2;
    # 16 breaks both
    for e3, bound_ok, fourpow_ok in ((13, True, True), (14, False, True),
                                     (15, False, True), (16, False, False)):
        v = 10**e3 + 10**3 + 1
        r = positions(v)
        assert (r.bound_ok, r.fourpow_ok) == (bound_ok, fourpow_ok)
        assert iterated_bound_check(v) is bound_ok
        assert four_power_bound_check(v) is fourpow_ok


@pytest.mark.parametrize("limb", [0, 1, 2])
@pytest.mark.parametrize("bad", [10**9, 2**30 + 1, 2**31 - 1, -1, -(2**31)])
def test_position_checks_fail_an_expanded_limb_out_of_range(limb, bad):
    # 2**200 has 7 limbs, all among the lowest ten that the walk may
    # expand; a value outside 0..10**9-1 in any of them fails every
    # position check by the range rule, checked before either route,
    # instead of reading past, or from the end of, the chunk tables.
    # Limb 0 (835301376) meets the shortcut's condition, and the walk
    # would not reach limb 2: only the range rule catches it
    x = dp.from_decimal_string(str(2**200))
    table = PositionTable()
    assert all(check_positions(x.limbs, 61, table))
    x.limbs[limb] = bad
    assert tuple(check_positions(x.limbs, 61, table)) == (False, False, False)


def shortcut_limbs(size, density, seed):
    """size limbs whose digits are each nonzero with probability density,
    then set to meet the shortcut's condition: digits 0 and 5 of limb 0
    and one of its digits 1..3 nonzero, and no zero limb."""
    rng = np.random.default_rng(seed)
    digits = rng.integers(1, 10, (size, 9)) * (rng.random((size, 9)) < density)
    digits[0, [0, 5, rng.integers(1, 4)]] = rng.integers(1, 10, 3)
    empty = np.flatnonzero(~digits.any(axis=1))
    digits[empty, rng.integers(0, 9, empty.size)] = rng.integers(1, 10, empty.size)
    return (digits * 10 ** np.arange(9)).sum(axis=1).astype(np.int32)


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 3000), st.floats(0.05, 1.0), st.integers(0, 2**32 - 1))
def test_shortcut_matches_oracles(size, density, seed):
    # every value that meets the condition passes all three checks, as
    # the oracles find from its digits
    limbs = shortcut_limbs(size, density, seed)
    text = "".join(f"{x:09d}" for x in reversed(limbs.tolist())).lstrip("0")
    v = int(text)
    verdicts = (all(gap_inequality_check(v)), four_power_bound_check(v), iterated_bound_check(v))
    assert tuple(check_positions(limbs, len(text), SHARED_TABLE)) == verdicts == (True,) * 3


def count_walks(monkeypatch) -> list[None]:
    """One entry per call of low_digit_positions, the walk's expansion."""
    calls = []
    real = digitpow.checks.low_digit_positions

    def spy(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(digitpow.checks, "low_digit_positions", spy)
    return calls


# limb 0 of 2**200 is 835301376, digits 6 7 3 1 0 3 5 3 8 from position 0
HIGH_200 = 2**200 - 2**200 % 10**9


@pytest.mark.parametrize("v,walks", [
    pytest.param(2**200, False, id="shortcut"),
    # d4 but not d5: the pair (4, 17) breaks g(5) = 16
    pytest.param(10**17 + 10011, True, id="d5=0"),
    # e_2 = 5 breaks all three
    pytest.param(HIGH_200 + 835300006, True, id="d1=d2=d3=0"),
    pytest.param(HIGH_200 + 835301370, True, id="d0=0"),
    # the pair (5, 20) spans the zero limb 1 and breaks g(6) = 19
    pytest.param(10**20 + 100111, True, id="zero-limb-1"),
    pytest.param(2**200 - 2**200 // 10**45 % 10**9 * 10**45, True, id="zero-limb-5-of-10"),
])
def test_shortcut_boundaries(monkeypatch, v, walks):
    calls = count_walks(monkeypatch)
    r = positions(v)
    assert bool(calls) is walks
    assert r.gap_ok == all(gap_inequality_check(v))
    assert r.fourpow_ok == four_power_bound_check(v)
    assert r.bound_ok == iterated_bound_check(v)


def test_shortcut_decides_most_sweep_rows(monkeypatch, tmp_path):
    # 346 of the rows n <= 3000 walk: the values below 10**5, and rows
    # with a zero digit where the shortcut reads one or with a zero limb
    calls = count_walks(monkeypatch)
    argv = ["verify", "--max-n", "3000", "--jobs", "1", "--out", str(tmp_path / "rows.csv")]
    assert main(argv) == 0
    assert 0 < len(calls) < 3000 / 5


def test_decompose_matches_oracle_digit_sums():
    state = dp.PowerState.start()
    for n in range(1, 120):
        state.step()
        assert dp.digit_tally(state.value)[0] == oracle_digit_sum(n)
        assert sum(d for d, _ in decompose(2**n)) == oracle_digit_sum(n)

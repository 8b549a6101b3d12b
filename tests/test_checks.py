import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import digitpow as dp
import digitpow.checks
from digitpow.checks import PositionTable, check_positions, split_verdict
from oracles import (
    decompose,
    four_power_bound_check,
    gap_inequality_check,
    iterated_bound_check,
    oracle_digit_sum,
    verify_split,
)

positives = st.integers(min_value=1, max_value=10**45)


def power_state(n: int, multiplier: int = 2) -> dp.PowerState:
    st_ = dp.PowerState.start(multiplier)
    for _ in range(n):
        st_.step()
    return st_


def scan(state: dp.PowerState, kmax: int) -> tuple[int, list[int]]:
    """The split verdicts of one value, decided with no row before it."""
    return kmax, split_verdict(state.value.limbs, kmax)[0]


def positions(v: int):
    """check_positions on v, set up as a sweep row sets it up."""
    x = dp.from_decimal_string(str(v))
    return check_positions(x.limbs, PositionTable(dp.floor_log2_pow10(dp.digit_count(x))))


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
    state = power_state(10)
    assert scan(state, 2) == (2, [])


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
    for n in (5, 17, 64, 100, 212):
        state = power_state(n)
        dc = dp.digit_count(state.value)
        kmax = min(n, dc - 1)
        assert scan(state, kmax) == (kmax, [])
        assert all(verify_split(2**n, k).ok for k in range(1, kmax + 1))


def test_scan_detects_tampering():
    # a value that is not a power of two fails the divisibility side
    state = dp.PowerState(10, dp.from_small(1025), 2)
    checked, failed = scan(state, 3)
    assert checked == 3
    assert 1 in failed  # low digit 5 is odd
    assert verify_split(1025, 1).ok is False


def split_state(v: int) -> dp.PowerState:
    # n does not enter the split verdicts; the value need not be 2**n
    x = dp.from_decimal_string(str(v))
    return dp.PowerState(dp.digit_count(x), x, 2)


split_values = st.one_of(
    # not a power of two: an odd factor above 1 times 2**t
    st.builds(lambda a, t: (2 * a + 1) * 2**t,
              st.integers(1, 10**40), st.integers(0, 150)),
    # trailing decimal zeros: the low part is 0 for k up to z
    st.builds(lambda a, z: a * 10**z, st.integers(1, 10**40), st.integers(1, 40)),
    # more than one 64-limb conversion leaf, so every split level runs
    st.builds(lambda a, t, z: a * 2**t * 10**z,
              st.integers(10**600, 10**1300), st.integers(0, 3000), st.integers(0, 5)),
)


@settings(deadline=None)
@given(split_values, st.data())
def test_scan_failures_match_verify_split(v, data):
    state = split_state(v)
    dc = dp.digit_count(state.value)
    assume(dc >= 2)
    kmax = data.draw(st.integers(1, dc - 1))
    checked, failed = scan(state, kmax)
    assert checked == kmax
    assert failed == [k for k in range(1, kmax + 1) if verify_split(v, k).ok is False]


def test_scan_empty_and_errors():
    state = power_state(10)
    assert scan(state, 0) == (0, [])
    # a zero value has low part 0 at every position
    assert scan(dp.PowerState(3, dp.zero(), 2), 2) == (2, [1, 2])


def split_row(v: int, kmax: int | None = None) -> tuple:
    """(limbs, kmax) of v as a sweep row holds it; kmax defaults to the
    highest split position, digit_count - 1."""
    x = dp.from_decimal_string(str(v))
    if kmax is None:
        kmax = dp.digit_count(x) - 1 if v else 3
    return x.limbs, kmax


def one_row(row: tuple) -> tuple[int, list[int]]:
    limbs, kmax = row
    return kmax, split_verdict(limbs, kmax)[0]


def chain(rows: list) -> list[tuple[int, list[int]]]:
    """(kmax, failed positions) of rows decided one after the other,
    each passed the base the row before returned."""
    out, base = [], None
    for limbs, kmax in rows:
        failed, base = split_verdict(limbs, kmax, base)
        out.append((kmax, failed))
        # the base is a private, read-only copy of the row
        assert base.limbs is not limbs and not base.limbs.flags.writeable
        assert np.array_equal(base.limbs, limbs)
    return out


def oracle_row(v: int, kmax: int) -> tuple[int, list[int]]:
    """The verdicts of v at positions 1..kmax, each low part formed
    directly; 0, whose low part is 0 everywhere, fails at every k."""
    if not v:
        return kmax, list(range(1, kmax + 1))
    return kmax, [k for k in range(1, kmax + 1) if verify_split(v, k).ok is False]


def doubling_runs(segments, data) -> tuple[list[tuple], list[tuple[int, int]]]:
    """Rows in doubling runs x0 * 2**j, j < count, for each (x0, count)
    of segments (a run may happen to continue the one before), each
    with any kmax in 0..digit_count-1; returns the rows and their
    (value, kmax)."""
    rows, values = [], []
    for x0, count in segments:
        for j in range(count):
            v = x0 << j
            kmax = data.draw(st.integers(0, len(str(v)) - 1 if v else 5))
            rows.append(split_row(v, kmax))
            values.append((v, kmax))
    return rows, values


@pytest.mark.parametrize("x0", [3 * 2**40, 5**30, 7 * 10**12, 3**50 * 10**3, 2**50, 0])
def test_split_verdicts_equal_per_row(x0):
    # chains x0 * 2**j of non-powers (and of 0, and of a power), cut at
    # every position: rows c.. come from the chain of y0, so the link
    # into row c is no doubling, and row c must convert on its own
    y0 = 3 * x0 if x0 else 1
    length = 32
    chain_x = [split_row(x0 << j) for j in range(length)]
    chain_y = [split_row(y0 << j) for j in range(length)]
    expect_x = [one_row(row) for row in chain_x]
    expect_y = [one_row(row) for row in chain_y]
    for v, (kmax, failed) in zip([x0 << j for j in range(length)], expect_x):
        if v:  # the per-row route against low parts formed directly
            assert failed == [k for k in range(1, kmax + 1) if verify_split(v, k).ok is False]
    assert chain(chain_x) == expect_x
    for cut in range(1, length):
        assert chain(chain_x[:cut] + chain_y[cut:]) == expect_x[:cut] + expect_y[cut:], cut


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(st.one_of(st.just(0), split_values), st.integers(1, 16)),
                min_size=1, max_size=4),
       st.data())
def test_split_verdicts_equal_per_row_on_any_rows(segments, data):
    # doubling runs from arbitrary starts, zeros and non-powers among
    # them, decided one after the other against the low parts formed
    # directly: a run may start anywhere, so the base before it does
    # not double into it
    rows, values = doubling_runs(segments, data)
    assert chain(rows) == [oracle_row(v, kmax) for v, kmax in values]


def test_split_verdicts_zero_rows_and_empty():
    zero = split_row(0)
    assert zero[0].size == 0  # zero has no limbs
    assert chain([zero, zero]) == [(3, [1, 2, 3])] * 2
    # 2 * 5 * 10**20 is no zero: the link into the zero row fails
    assert chain([split_row(5 * 10**20), zero]) == [
        one_row(split_row(5 * 10**20)), (3, [1, 2, 3])
    ]
    # no split position to check
    assert chain([split_row(0, 0), split_row(1024, 0)]) == [(0, []), (0, [])]


def test_split_verdicts_convert_once_per_unbroken_chain(monkeypatch):
    # rows 2**1..2**300 with a sweep's kmax: the first row converts,
    # and every later one follows from the row before
    conversions = []
    real = digitpow.checks.mod_pow2
    monkeypatch.setattr(digitpow.checks, "mod_pow2",
                        lambda x, bits: conversions.append(bits) or real(x, bits))
    rows = [split_row(2**n, min(n, len(str(2**n)) - 1)) for n in range(1, 301)]
    assert chain(rows) == [(kmax, []) for _, kmax in rows]
    assert conversions == [0]
    # a base that knows too few bits for the next row's kmax: that row
    # converts on its own
    conversions.clear()
    rows = [split_row(3 * 2**40, 0), split_row(3 * 2**41, 12)]
    assert chain(rows) == [(0, []), one_row(rows[1])] == [(0, []), (12, [])]
    assert conversions == [0, 12, 12]  # one_row converts too
    # a base with an exact v2 (3) that does not double into the next
    # row, whose v2 is 10: that row converts on its own
    conversions.clear()
    rows = [split_row(8 * (10**20 + 1)), split_row(2**10 * (10**20 + 1))]
    assert chain(rows) == [(20, list(range(4, 21))), (23, list(range(11, 24)))]
    assert len(conversions) == 2


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


# one table for every value, as a sweep has it: larger than any value
# needs, with B_k running past every value's top digit
SHARED_TABLE = PositionTable(dp.floor_log2_pow10(5000))
# lowest nonzero digits past gap's first 64 entries, which the table
# holds as a Python list; gap[63] = 209, gap[71] = 235
HIGH_PAIRS = [10**70 + 10**75, 10**70 + 10**235, 10**70 + 10**236, 10**63 + 10**300,
              10**64 + 10**65 + 10**400, 10**62 + 10**209, 10**62 + 10**210,
              10**9 * (10**54 + 10**80)]


@settings(deadline=None, max_examples=300)
@given(st.one_of(position_values, st.sampled_from(HIGH_PAIRS)))
def test_position_table_gives_the_same_verdicts(v):
    x = dp.from_decimal_string(str(v))
    assert check_positions(x.limbs, SHARED_TABLE) == positions(v)


@pytest.mark.parametrize("v", HIGH_PAIRS)
def test_position_checks_past_the_table_head(v):
    r = check_positions(dp.from_decimal_string(str(v)).limbs, SHARED_TABLE)
    assert r.gap_ok == all(gap_inequality_check(v))
    assert r.fourpow_ok == four_power_bound_check(v) is False
    assert r.bound_ok == iterated_bound_check(v) is False


def test_position_table_covers_the_value():
    # a table must reach index digit_count
    x = dp.from_decimal_string(str(2**100))
    short = PositionTable(dp.floor_log2_pow10(dp.digit_count(x) - 1))
    with pytest.raises(ValueError, match="floor table"):
        check_positions(x.limbs, short)
    table = PositionTable(dp.floor_log2_pow10(100))
    assert table.bounds == [0, 3, 13, 46, 156]
    assert table.fours == (1, 4, 16, 64, 256) and len(table.head) == 64


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


def test_decompose_matches_oracle_digit_sums():
    state = dp.PowerState.start()
    for n in range(1, 120):
        state.step()
        assert dp.digit_tally(state.value)[0] == oracle_digit_sum(n)
        assert sum(d for d, _ in decompose(2**n)) == oracle_digit_sum(n)

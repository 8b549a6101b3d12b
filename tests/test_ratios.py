from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import digitpow as dp
from digitpow.sweep import _RatioWindow
from oracles import oracle_digit_sum


def test_render_fraction_basic():
    assert dp.render_fraction(Fraction(7, 10), 10) == "0.7000000000"
    assert dp.render_fraction(Fraction(2, 1), 10) == "2.0000000000"
    assert dp.render_fraction(Fraction(8, 3), 4) == "2.6667"
    assert dp.render_fraction(Fraction(0), 3) == "0.000"


def test_render_fraction_half_even():
    assert dp.render_fraction(Fraction(1, 8), 2) == "0.12"  # 0.125 -> even
    assert dp.render_fraction(Fraction(3, 8), 2) == "0.38"  # 0.375 -> even
    assert dp.render_fraction(Fraction(5, 100), 1) == "0.0"
    assert dp.render_fraction(Fraction(15, 100), 1) == "0.2"
    assert dp.render_fraction(Fraction(1, 2), 0) == "0"
    assert dp.render_fraction(Fraction(3, 2), 0) == "2"


def test_render_fraction_errors():
    with pytest.raises(ValueError):
        dp.render_fraction(Fraction(1, 2), -1)
    with pytest.raises(ValueError):
        dp.render_fraction(Fraction(-1, 2), 2)


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=0, max_value=12),
)
def test_render_fraction_accuracy(num, den, places):
    f = Fraction(num, den)
    rendered = dp.render_fraction(f, places)
    scaled = Fraction(rendered)
    assert abs(scaled - f) <= Fraction(1, 2 * 10**places)


def test_ratio_sample():
    ratio, mean = _RatioWindow(1).push(10, 7)
    assert ratio == mean == Fraction(7, 10)
    assert dp.render_fraction(ratio, 3) == "0.700"


def test_ratio_samples_respect_lower_bound():
    # the stats layer never contradicts the verifier
    state = dp.PowerState.start()
    for n in range(1, 301):
        state.step()
        assert dp.digit_sum_exceeds_log4(n, dp.digit_sum(state.value))


# the running_mean column: _RatioWindow keeps the trailing window of
# the emitted ratios, truncated to the rows so far at the start


def means(pairs, window: int) -> list[tuple[int, Fraction]]:
    w = _RatioWindow(window)
    return [(n, w.push(n, s)[1]) for n, s in pairs]


def test_running_mean_window_one_is_identity():
    pairs = [(n, oracle_digit_sum(n)) for n in range(1, 11)]
    assert means(pairs, 1) == [(n, Fraction(s, n)) for n, s in pairs]


def test_running_mean_constant():
    pairs = [(n, 3 * n) for n in range(1, 9)]
    for window in (1, 2, 5):
        assert all(m == Fraction(3) for _, m in means(pairs, window))


def test_running_mean_full_range_when_window_exceeds():
    pairs = [(n, oracle_digit_sum(n)) for n in range(1, 11)]
    out = means(pairs, 50)
    expected = sum((Fraction(s, n) for n, s in pairs), Fraction(0)) / 10
    assert out[-1] == (10, expected)
    assert out[1] == (2, (Fraction(2, 1) + Fraction(4, 2)) / 2)
    # hand values: s(2**n) for n = 1..10 is 2,4,8,7,5,10,11,13,8,7
    hand = [2, 4, 8, 7, 5, 10, 11, 13, 8, 7]
    assert [s for _, s in pairs] == hand
    assert expected == sum(Fraction(s, n) for n, s in enumerate(hand, 1)) / 10


def test_running_mean_window_errors():
    with pytest.raises(ValueError):
        _RatioWindow(0)


@given(
    st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 500)), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=8),
)
def test_running_mean_split_concat_invariant(pairs, window):
    pairs = [(n + i * 1001, s) for i, (n, s) in enumerate(pairs)]
    whole = dict(means(pairs, window))
    for j in range(len(pairs) // window):
        chunk = pairs[j * window:(j + 1) * window]
        n_end, mean = means(chunk, window)[-1]
        assert whole[n_end] == mean


def test_conjecture_constant_examples():
    assert dp.conjecture_constant(0) == "1"
    assert dp.conjecture_constant(1) == "1.4"
    assert dp.conjecture_constant(6) == "1.354635"
    assert dp.conjecture_constant(10) == "1.3546349805"


def test_conjecture_constant_against_mpmath():
    mp.dps = 80
    exact = mp.mpf(9) / 2 * mp.log(2) / mp.log(10)
    for places in (5, 17, 33, 50):
        got = dp.conjecture_constant(places)
        assert abs(mp.mpf(got) - exact) < mp.mpf(10) ** (-places) / 2 * mp.mpf("1.0000001")


def test_conjecture_constant_errors():
    with pytest.raises(ValueError):
        dp.conjecture_constant(-1)
    with pytest.raises(ValueError):
        dp.conjecture_constant(51)

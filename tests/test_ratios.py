import io
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

import digitpow as dp
import digitpow.sweep
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
    assert ratio == mean == "0.7000000000" == dp.render_fraction(Fraction(7, 10), 10)
    assert dp.render_fraction(Fraction(7, 10), 3) == "0.700"


def test_ratio_samples_respect_lower_bound():
    # the stats layer never contradicts the verifier
    state = dp.PowerState.start()
    for n in range(1, 301):
        state.step()
        assert dp.digit_sum_exceeds_log4(n, dp.digit_sum(state.value))


# the ratio and running_mean columns: _RatioWindow renders each row's
# s/n and the mean of the trailing window of them, truncated to the
# rows so far at the start; both must read as render_fraction of the
# exact oracle Fractions


def render(value: Fraction) -> str:
    return dp.render_fraction(value, 10)


def pushed(pairs, window: int) -> list[tuple[int, str, str]]:
    w = _RatioWindow(window)
    return [(n, *w.push(n, s)) for n, s in pairs]


def oracle_rows(pairs, window: int) -> list[tuple[int, str, str]]:
    rows = []
    for i, (n, s) in enumerate(pairs):
        tail = pairs[max(0, i - window + 1):i + 1]
        mean = sum((Fraction(s2, n2) for n2, s2 in tail), Fraction(0)) / len(tail)
        rows.append((n, render(Fraction(s, n)), render(mean)))
    return rows


def test_running_mean_window_one_is_identity():
    pairs = [(n, oracle_digit_sum(n)) for n in range(1, 11)]
    assert pushed(pairs, 1) == [(n, render(Fraction(s, n)), render(Fraction(s, n)))
                                for n, s in pairs]


def test_running_mean_constant():
    pairs = [(n, 3 * n) for n in range(1, 9)]
    for window in (1, 2, 5):
        assert all(r == m == "3.0000000000" for _, r, m in pushed(pairs, window))


def test_running_mean_full_range_when_window_exceeds():
    pairs = [(n, oracle_digit_sum(n)) for n in range(1, 11)]
    out = pushed(pairs, 50)
    expected = sum((Fraction(s, n) for n, s in pairs), Fraction(0)) / 10
    assert out[-1][2] == render(expected)
    assert out[1][2] == render((Fraction(2, 1) + Fraction(4, 2)) / 2) == "2.0000000000"
    # hand values: s(2**n) for n = 1..10 is 2,4,8,7,5,10,11,13,8,7
    hand = [2, 4, 8, 7, 5, 10, 11, 13, 8, 7]
    assert [s for _, s in pairs] == hand
    assert expected == sum(Fraction(s, n) for n, s in enumerate(hand, 1)) / 10
    assert out == oracle_rows(pairs, 50)


def test_running_mean_window_errors():
    # a window below 1 is refused with the sweep's other settings
    for window in (0, -3):
        with pytest.raises(ValueError, match="window"):
            dp.run_sweep(dp.SweepConfig(max_n=10, window=window), out=io.StringIO())


@given(
    st.lists(st.tuples(st.integers(1, 1000), st.integers(1, 500)), min_size=1, max_size=40),
    st.integers(min_value=1, max_value=8),
)
def test_running_mean_split_concat_invariant(pairs, window):
    pairs = [(n + i * 1001, s) for i, (n, s) in enumerate(pairs)]
    whole = {n: mean for n, _, mean in pushed(pairs, window)}
    for j in range(len(pairs) // window):
        chunk = pairs[j * window:(j + 1) * window]
        n_end, _, mean = pushed(chunk, window)[-1]
        assert whole[n_end] == mean


@given(
    st.lists(st.tuples(st.integers(1, 10**6), st.integers(0, 10**5)), min_size=1, max_size=60),
    st.sampled_from([1, 2, 3, 7, 100]),
)
def test_running_mean_matches_oracle(pairs, window):
    assert pushed(pairs, window) == oracle_rows(pairs, window)


def count_fallbacks(monkeypatch) -> list[Fraction]:
    calls = []

    def counted(value, places):
        calls.append(value)
        return dp.render_fraction(value, places)

    monkeypatch.setattr(digitpow.sweep, "render_fraction", counted)
    return calls


@pytest.mark.parametrize("guard", [0, 1])
@pytest.mark.parametrize("window", [2, 5, 100])
def test_running_mean_exact_fallback_matches_oracle(monkeypatch, guard, window):
    # GUARD 0 leaves a midpoint inside every bracket, so every mean is
    # summed from exact Fractions; GUARD 1 sends about one row in ten
    # there and decides the rest from the bracket
    monkeypatch.setattr(_RatioWindow, "GUARD", guard)
    calls = count_fallbacks(monkeypatch)
    state, pairs = dp.PowerState.start(), []
    for n in range(1, 601):
        state.step()
        pairs.append((n, dp.digit_sum(state.value)))
    assert pushed(pairs, window) == oracle_rows(pairs, window)
    if guard == 0:
        assert len(calls) == len(pairs)
    else:
        assert 0 < len(calls) < len(pairs) // 2


@pytest.mark.parametrize("window", [1, 2, 5])
def test_running_mean_ties_round_half_even(monkeypatch, window):
    # s/n = 1/(2 * 10**10) and 3/(2 * 10**10) sit exactly on midpoints
    # at 10 places, and so does every mean of them whose s sum over c
    # rows is c times an odd number
    calls = count_fallbacks(monkeypatch)
    pairs = [(2 * 10**10, 1)] * 6 + [(2 * 10**10, 3)] * 6
    rows = pushed(pairs, window)
    assert rows == oracle_rows(pairs, window)
    assert rows[0][1:] == ("0.0000000000", "0.0000000000")
    assert rows[-1][1:] == ("0.0000000002", "0.0000000002")
    if window > 1:
        assert calls  # a tie always lies inside the bracket


@pytest.mark.parametrize("guard", [1, _RatioWindow.GUARD])
def test_stats_sweep_columns_match_oracle(monkeypatch, guard):
    # the ratio and running_mean cells of a sharded stats sweep, against
    # render_fraction of the oracle's exact Fractions; at GUARD 1 about
    # one row in ten takes the exact route
    monkeypatch.setattr(_RatioWindow, "GUARD", guard)
    buf = io.StringIO()
    cfg = dp.SweepConfig(max_n=700, window=7, split_checks="off", emit_range=(150, 700), jobs=2)
    summary, _ = dp.run_sweep(cfg, out=buf)
    assert summary.ok and summary.jobs == 2
    pairs = [(n, oracle_digit_sum(n)) for n in range(144, 701)]
    expected = [f"{n},{ratio},{mean}" for n, ratio, mean in oracle_rows(pairs, 7)[6:]]
    cells = [",".join(line.split(",")[i] for i in (0, 3, 4))
             for line in buf.getvalue().splitlines()[1:]]
    assert cells == expected


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

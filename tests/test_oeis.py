import io

import pytest

import digitpow as dp
from oracles import bfile_text, oracle_digit_sum


def parse_text(text: str) -> dp.OeisSeries:
    return dp.parse_bfile(io.StringIO(text))


def test_parse_basic():
    series = parse_text("0 1\n1 2\n2 4\n")
    assert series.offset == 0
    assert series.values == (1, 2, 4)
    assert series[2] == 4
    assert series.last == 2
    assert {n: series[n] for n in range(3)} == {0: 1, 1: 2, 2: 4}
    assert 3 not in series


def test_parse_comments_and_whitespace():
    series = parse_text("# comment\n\n  5   7\n6\t9\n")
    assert series.offset == 5
    assert series.values == (7, 9)


def test_parse_malformed_value():
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text("0 one\n")
    assert "line 1" in str(exc.value)


def test_parse_malformed_arity():
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text("0 1\n1 2 3\n")
    assert "line 2" in str(exc.value)


def test_parse_non_contiguous():
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text("0 1\n2 4\n")
    assert "non-contiguous" in str(exc.value)


def test_parse_rejects_nonpositive_values():
    with pytest.raises(dp.BFileFormatError):
        parse_text("0 0\n")


def test_parse_empty():
    with pytest.raises(dp.BFileFormatError):
        parse_text("# only a comment\n")


def test_parse_from_path(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("3 8\n4 7\n", encoding="utf-8")
    series = dp.parse_bfile(path)
    assert series.offset == 3 and series.values == (8, 7)


def test_cross_check_identical():
    series = parse_text("0 1\n1 2\n2 4\n")
    report = dp.cross_check(series, {0: 1, 1: 2, 2: 4})
    assert report.ok and report.compared == 3 and report.mismatches == ()


def test_cross_check_single_mismatch():
    series = parse_text("0 1\n1 2\n2 4\n")
    report = dp.cross_check(series, {0: 1, 1: 3, 2: 4})
    assert not report.ok
    assert report.mismatches == ((1, 2, 3),)


def test_cross_check_empty_overlap():
    series = parse_text("10 5\n11 6\n")
    report = dp.cross_check(series, {0: 1, 1: 2})
    assert report.overlap_empty and not report.ok and report.compared == 0


def test_cross_check_against_oracle_series():
    values = {n: oracle_digit_sum(n) for n in range(51)}
    series = parse_text(bfile_text(values))
    state = dp.PowerState.start()
    computed = {0: dp.digit_sum(state.value)}
    for n in range(1, 51):
        state.step()
        computed[n] = dp.digit_sum(state.value)
    report = dp.cross_check(series, computed)
    assert report.ok and report.compared == 51

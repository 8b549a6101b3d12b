import pytest

import digitpow as dp
from digitpow.cli import main
from oracles import bfile_text, oracle_digit_sum


def parse_text(tmp_path, text: str) -> dict[int, int]:
    path = tmp_path / "b.txt"
    path.write_text(text, encoding="utf-8")
    return dp.parse_bfile(str(path))


def test_parse_basic(tmp_path):
    series = parse_text(tmp_path, "0 1\n1 2\n2 4\n")
    assert series == {0: 1, 1: 2, 2: 4}
    assert list(series) == [0, 1, 2]


def test_parse_comments_and_whitespace(tmp_path):
    assert parse_text(tmp_path, "# comment\n\n  5   7\n6\t9\n") == {5: 7, 6: 9}


def test_parse_malformed_value(tmp_path):
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text(tmp_path, "0 one\n")
    assert "line 1" in str(exc.value) and exc.value.line_no == 1


def test_parse_malformed_arity(tmp_path):
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text(tmp_path, "0 1\n1 2 3\n")
    assert "line 2" in str(exc.value) and exc.value.line_no == 2


def test_parse_non_contiguous(tmp_path):
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text(tmp_path, "0 1\n2 4\n")
    assert "line 2: non-contiguous index: expected 1, got 2" in str(exc.value)


def test_parse_rejects_nonpositive_values(tmp_path):
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text(tmp_path, "0 1\n\n1 0\n")
    assert "line 3: value must be >= 1, got 0" in str(exc.value)


def test_parse_empty(tmp_path):
    with pytest.raises(dp.BFileFormatError) as exc:
        parse_text(tmp_path, "# only a comment\n")
    assert "no data lines" in str(exc.value) and exc.value.line_no == 0


def test_parse_from_path(tmp_path):
    path = tmp_path / "b.txt"
    path.write_text("3 8\n4 7\n", encoding="utf-8")
    assert dp.parse_bfile(path) == {3: 8, 4: 7}


def cross_check(tmp_path, capsys, text: str, *flags: str) -> tuple[int, list[str]]:
    """Run the oeis comparison on a b-file's text; its exit code and stderr lines."""
    path = tmp_path / "b.txt"
    path.write_text(text, encoding="utf-8")
    code = main(["oeis", str(path), *flags])
    return code, capsys.readouterr().err.splitlines()


def test_cross_check_identical(tmp_path, capsys):
    assert cross_check(tmp_path, capsys, "0 1\n1 2\n2 4\n") == (
        0, ["oeis: compared 3 entries, 0 mismatches"])


def test_cross_check_single_mismatch(tmp_path, capsys):
    assert cross_check(tmp_path, capsys, "0 1\n1 3\n2 4\n") == (
        1, ["MISMATCH n=1: b-file 3, computed 2", "oeis: compared 3 entries, 1 mismatches"])


def test_cross_check_empty_overlap(tmp_path, capsys):
    assert cross_check(tmp_path, capsys, "10 5\n11 6\n", "--max-n", "1") == (
        2, ["oeis: empty overlap between the b-file and computed range"])


def test_cross_check_against_oracle_series(tmp_path, capsys):
    values = {n: oracle_digit_sum(n) for n in range(51)}
    state = dp.PowerState.start()
    computed = {0: dp.digit_sum(state.value)}
    for n in range(1, 51):
        state.step()
        computed[n] = dp.digit_sum(state.value)
    assert computed == values
    assert cross_check(tmp_path, capsys, bfile_text(values)) == (
        0, ["oeis: compared 51 entries, 0 mismatches"])

import pytest

import digitpow as dp
from digitpow.power import _payload_digest
from oracles import checkpoint_text, oracle_value_str, swap_adjacent_digits


@pytest.mark.parametrize("multiplier", [2, 3, 7, 99])
def test_state_matches_exponentiation(multiplier):
    state = dp.PowerState.start(multiplier)
    assert dp.to_decimal_string(state.value) == "1"
    for n in range(1, 40):
        state.step()
        assert state.n == n
        assert dp.to_decimal_string(state.value) == oracle_value_str(n, multiplier)


@pytest.mark.parametrize("multiplier", [2, 3, 99])
def test_is_exact(multiplier, monkeypatch):
    state = dp.PowerState.start(multiplier)
    for n in range(60):
        assert state.is_exact(), n
        state.step()
    value = swap_adjacent_digits(str(multiplier**60))
    assert not dp.PowerState(60, dp.from_decimal_string(value), multiplier).is_exact()
    assert not dp.PowerState(60, dp.from_small(0), multiplier).is_exact()
    # a value too short for a**n is refused before pow builds a**n
    monkeypatch.setattr("builtins.pow", None)  # a call would raise
    assert not dp.PowerState(10**12, dp.from_small(1), multiplier).is_exact()


@pytest.mark.parametrize("bad", [-2, 0, 1, 10, 100, 1000])
def test_multiplier_validation(bad):
    with pytest.raises(ValueError):
        dp.validate_multiplier(bad)


def test_power_of_ten_message():
    with pytest.raises(ValueError) as exc:
        dp.PowerState.start(10)
    assert "power of ten" in str(exc.value)
    assert "digit sum 1" in str(exc.value)


def test_non_power_of_ten_trailing_zero_ok():
    assert dp.validate_multiplier(20) == 20
    assert dp.validate_multiplier(40) == 40


def test_step_back():
    for multiplier in (2, 3):
        state = dp.PowerState.start(multiplier)
        for _ in range(25):
            state.step()
        snapshot = dp.to_decimal_string(state.value)
        state.step_back()
        assert dp.to_decimal_string(state.value) == oracle_value_str(24, multiplier)
        state.step()
        assert dp.to_decimal_string(state.value) == snapshot
    with pytest.raises(ValueError):
        dp.PowerState.start().step_back()


def test_step_back_detects_corruption():
    state = dp.PowerState(3, dp.from_small(9), 2)
    with pytest.raises(dp.CheckpointError):
        state.step_back()


@pytest.mark.parametrize("multiplier", [2, 3, 7, 20, 99])
def test_step_back_many(multiplier):
    # several steps per division for multipliers other than 2
    state = dp.PowerState(60, dp.from_decimal_string(oracle_value_str(60, multiplier)), multiplier)
    state.step_back(57)
    assert state.n == 3
    assert dp.to_decimal_string(state.value) == oracle_value_str(3, multiplier)
    state.step_back(0)
    assert state.n == 3
    with pytest.raises(ValueError):
        state.step_back(4)


@pytest.mark.parametrize("multiplier", [2, 3, 7, 20, 99])
def test_step_forward_matches_single_steps(multiplier):
    # 2**29 and 99**4 per multiplication, then the remainder one at a time
    for start, steps in ((0, 0), (0, 1), (5, 28), (5, 29), (1, 100)):
        state = dp.PowerState(start, dp.from_decimal_string(oracle_value_str(start, multiplier)),
                              multiplier)
        state.step_forward(steps)
        assert state.n == start + steps
        assert dp.to_decimal_string(state.value) == oracle_value_str(start + steps, multiplier)
    with pytest.raises(ValueError):
        dp.PowerState.start(multiplier).step_forward(-1)


@pytest.mark.parametrize("multiplier,good", [(3, 5), (3, 20), (7, 1), (2, 4)])
def test_step_back_names_first_bad_n(multiplier, good):
    # divisible by exactly multiplier**good: the value at n = 40 - good is
    # the first one that does not divide, as stepping one at a time finds
    value = multiplier**good * (multiplier**30 + 1)
    messages = []
    for steps in (40, 1):
        state = dp.PowerState(40, dp.from_decimal_string(str(value)), multiplier)
        with pytest.raises(dp.CheckpointError) as exc:
            while True:
                state.step_back(steps)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert f"value at n={40 - good} is not divisible by {multiplier}" in messages[0]


def test_residue_mod9():
    state = dp.PowerState.start(7)
    for n in range(30):
        assert dp.digit_sum(state.value) % 9 == pow(7, n, 9)
        state.step()


def test_checkpoint_round_trip(tmp_path):
    state = dp.PowerState.start()
    for _ in range(137):
        state.step()
    path = tmp_path / "ck.txt"
    dp.save_checkpoint(state, path)
    loaded = dp.load_checkpoint(path)
    assert loaded.n == 137
    assert loaded.multiplier == 2
    assert loaded.value == state.value
    # no temp droppings from the atomic write
    assert [p.name for p in tmp_path.iterdir()] == ["ck.txt"]


def test_checkpoint_file_format(tmp_path):
    state = dp.PowerState.start(3)
    for _ in range(5):
        state.step()
    path = dp.save_checkpoint(state, tmp_path / "ck.txt")
    text = path.read_text(encoding="ascii")
    lines = text.split("\n")
    assert lines[0] == "DIGITPOW-CKPT v1"
    assert lines[1] == "multiplier=3"
    assert lines[2] == "n=5"
    assert lines[3] == "digest=" + _payload_digest(3, 5, "243")
    assert lines[4] == "243"
    assert text.endswith("\n") and "\r" not in text


def test_checkpoint_digest_tamper(tmp_path):
    state = dp.PowerState.start()
    for _ in range(20):
        state.step()
    path = dp.save_checkpoint(state, tmp_path / "ck.txt")
    text = path.read_text()
    tampered = text.replace("1048576", "1048578")
    path.write_text(tampered)
    with pytest.raises(dp.CheckpointError) as exc:
        dp.load_checkpoint(path)
    assert "digest" in str(exc.value)


def test_checkpoint_field_tamper(tmp_path):
    state = dp.PowerState.start()
    for _ in range(20):
        state.step()
    path = dp.save_checkpoint(state, tmp_path / "ck.txt")
    text = path.read_text()
    path.write_text(text.replace("n=20", "n=21"))
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(path)


def test_checkpoint_bad_header(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("DIGITPOW-CKPT v9\nmultiplier=2\nn=1\ndigest=00\n2\n")
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(path)


def test_checkpoint_truncated(tmp_path):
    path = tmp_path / "ck.txt"
    path.write_text("DIGITPOW-CKPT v1\nmultiplier=2\n")
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(path)


def test_checkpoint_missing(tmp_path):
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(tmp_path / "absent.txt")


def test_checkpoint_rejects_bad_multiplier(tmp_path):
    # digest valid, but the multiplier violates the state invariant
    value = "1000"
    digest = _payload_digest(10, 3, value)
    path = tmp_path / "ck.txt"
    path.write_text(
        f"DIGITPOW-CKPT v1\nmultiplier=10\nn=3\ndigest={digest}\n{value}\n"
    )
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(path)


def test_checkpoint_rejects_inconsistent_value(tmp_path):
    # digest matches the payload, but the value cannot be 2**10
    value = "1025"
    digest = _payload_digest(2, 10, value)
    path = tmp_path / "ck.txt"
    path.write_text(
        f"DIGITPOW-CKPT v1\nmultiplier=2\nn=10\ndigest={digest}\n{value}\n"
    )
    with pytest.raises(dp.CheckpointError):
        dp.load_checkpoint(path)


def test_checkpoint_rejects_swapped_digits(tmp_path):
    forged = swap_adjacent_digits(str(2**200))
    assert forged != str(2**200)
    path = tmp_path / "ck.txt"
    path.write_text(checkpoint_text(2, 200, forged))
    with pytest.raises(dp.CheckpointError) as exc:
        dp.load_checkpoint(path)
    assert "2**200" in str(exc.value)


def test_checkpoint_rejects_a_leading_zero(tmp_path):
    # the digest matches, and the digits read as 2**200, but a value
    # line is the canonical decimal text or nothing
    path = tmp_path / "ck.txt"
    path.write_text(checkpoint_text(2, 200, "0" + str(2**200)))
    with pytest.raises(dp.CheckpointError) as exc:
        dp.load_checkpoint(path)
    assert "leading zero" in str(exc.value)


@pytest.mark.parametrize("line,text", [
    ("multiplier=2", "multiplier=+2"), ("multiplier=2", "multiplier=02"),
    ("n=100", "n=1_00"), ("n=100", "n=+100"), ("n=100", "n=0100"), ("n=100", "n= 100"),
])
def test_checkpoint_rejects_a_field_not_in_canonical_form(tmp_path, line, text):
    # the digest covers "multiplier=2\nn=100\n...", and int() reads the
    # field as 2 or 100; but a field is its canonical decimal or nothing
    path = tmp_path / "ck.txt"
    path.write_text(checkpoint_text(2, 100, str(2**100)).replace(f"\n{line}\n", f"\n{text}\n"))
    with pytest.raises(dp.CheckpointError) as exc:
        dp.load_checkpoint(path)
    assert "not a canonical integer" in str(exc.value)


def test_checkpoint_loads_every_multiplier(tmp_path):
    # the bit-length screen in front of the exact check passes every a**n
    path = tmp_path / "ck.txt"
    for a in range(dp.power.MULTIPLIER_MIN, dp.power.MULTIPLIER_MAX + 1):
        if a == 10:
            continue
        for n in (0, 1, 2, 37):
            path.write_text(checkpoint_text(a, n, str(a**n)))
            loaded = dp.load_checkpoint(path)
            assert (loaded.n, dp.to_decimal_string(loaded.value)) == (n, str(a**n))


"""Power-chain state and checkpoint files.

A checkpoint is a small text file:

    DIGITPOW-CKPT v1
    multiplier=<a>
    n=<n>
    digest=<sha256 hex>
    <decimal value of a**n>

LF line endings, ASCII.  The digest is sha256 over the string
"multiplier=<a>\\nn=<n>\\n<value>\\n" and is verified before the value is
decoded, so a corrupted file aborts a resume before any compute starts.
Each of multiplier, n and the value must be written as its canonical
decimal, so the digest covers the file's own text.
The decoded value is then compared exactly with a**n, which also rejects
a wrong value whose digest was recomputed.

A save renders the value once, computes the digest, and writes the
file's bytes with os.write to a temp file beside the target, named
<name>.<pid>.tmp so that no two live processes share one.  The temp
file is created afresh with mode 0o600 (a leftover of that name, from
a crashed process that had the same pid, is removed first, so its mode
or a symlink there is never reused).  Every byte is written, the file
is fsynced, and only then renamed over the target, so a crash never
leaves a half-written checkpoint behind; a failed save removes its
temp file.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from pathlib import Path

from .bignum import (
    LIMB_BASE,
    DecimalNat,
    div_small,
    double_in_place,
    from_decimal_string,
    from_small,
    mul_small,
    to_decimal_string,
    to_int,
)

CHECKPOINT_MAGIC = "DIGITPOW-CKPT v1"

MULTIPLIER_MIN = 2
MULTIPLIER_MAX = 99


class CheckpointError(RuntimeError):
    """Unreadable, corrupt or inconsistent checkpoint file or chain state."""


def validate_multiplier(a: int) -> int:
    if not MULTIPLIER_MIN <= a <= MULTIPLIER_MAX:
        raise ValueError(
            f"multiplier must be in {MULTIPLIER_MIN}..{MULTIPLIER_MAX}, got {a}"
        )
    t = a
    while t % 10 == 0:
        t //= 10
    if t == 1:
        raise ValueError(
            f"multiplier {a} is a power of ten: every one of its powers has "
            "digit sum 1, so digit-sum growth has nothing to verify"
        )
    return a


@dataclass
class PowerState:
    """The pair (n, multiplier**n), advanced one multiplication at a time."""

    n: int
    value: DecimalNat
    multiplier: int = 2

    @classmethod
    def start(cls, multiplier: int = 2) -> "PowerState":
        validate_multiplier(multiplier)
        return cls(0, from_small(1), multiplier)

    def is_exact(self) -> bool:
        """Whether value is exactly multiplier**n, compared as Python ints.

        multiplier**n has floor(n*log2 a) + 1 bits, so a value of any
        other length is refused before pow builds multiplier**n, which
        a forged n could make arbitrarily large.
        """
        x = to_int(self.value)
        bits = self.multiplier.bit_length()
        return (
            self.n * (bits - 1) < x.bit_length() <= max(1, self.n * bits)
            and x == pow(self.multiplier, self.n)
        )

    def step(self) -> None:
        if self.multiplier == 2:
            double_in_place(self.value)
        else:
            self.value = mul_small(self.value, self.multiplier)
        self.n += 1

    def step_forward(self, steps: int) -> None:
        """Take `steps` steps, by the largest a**j below the limb base per
        multiplication, the same j as step_back's, then one at a time."""
        if steps < 0:
            raise ValueError(f"cannot step forward {steps} steps")
        a = self.multiplier
        j = _max_exponent_below(a, LIMB_BASE)
        while steps >= j:
            self.value = mul_small(self.value, a**j)
            self.n += j
            steps -= j
        for _ in range(steps):
            self.step()

    def step_back(self, steps: int = 1) -> None:
        """Undo `steps` steps exactly; raises CheckpointError naming the
        first n whose value does not divide, which only a corrupt start
        state can cause.

        A multiplier other than 2 divides by the largest a**j below the
        limb base per call, since each call is a per-limb Python loop;
        a**j divides the value exactly when each of the j steps would.
        """
        if not 0 <= steps <= self.n:
            raise ValueError(f"cannot step back {steps} steps from n={self.n}")
        a = self.multiplier
        per_call = 1 if a == 2 else _max_exponent_below(a, LIMB_BASE)
        while steps:
            j = min(per_call, steps)
            q, r = div_small(self.value, a**j)
            if r:
                # a**i divides the value exactly when it divides r
                i = 0
                while r % a ** (i + 1) == 0:
                    i += 1
                raise CheckpointError(
                    f"value at n={self.n - i} is not divisible by {a}; "
                    "state is corrupt"
                )
            self.value = q
            self.n -= j
            steps -= j


def _max_exponent_below(a: int, bound: int) -> int:
    j = 1
    while a ** (j + 1) < bound:
        j += 1
    return j


def _payload_digest(multiplier: int, n: int, value_str: str) -> str:
    payload = f"multiplier={multiplier}\nn={n}\n{value_str}\n"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


# O_EXCL creates the temp file afresh, with mode 0o600, or fails; it
# never opens a file or a symlink already at the temp name
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


def _atomic_write(path: Path, data: bytes) -> None:
    """Write data to path through <name>.<pid>.tmp beside it: every byte,
    then fsync, then rename over path.  A failure removes the temp file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, _TEMP_FLAGS, 0o600)
    except FileExistsError:
        # left by a crashed process that had this pid
        os.unlink(tmp)
        fd = os.open(tmp, _TEMP_FLAGS, 0o600)
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint(state: PowerState, path: str | Path) -> Path:
    path = Path(path)
    value_str = to_decimal_string(state.value)
    digest = _payload_digest(state.multiplier, state.n, value_str)
    text = (
        f"{CHECKPOINT_MAGIC}\n"
        f"multiplier={state.multiplier}\n"
        f"n={state.n}\n"
        f"digest={digest}\n"
        f"{value_str}\n"
    )
    _atomic_write(path, text.encode("ascii"))
    return path


def _field(line: str, name: str) -> str:
    prefix = name + "="
    if not line.startswith(prefix):
        raise CheckpointError(f"expected '{name}=...', got: {line[:40]!r}")
    return line[len(prefix):]


def _int_field(line: str, name: str) -> int:
    """The integer of a name=<int> line.  Its text must be the integer's
    canonical decimal, as save_checkpoint writes it and the digest covers
    it: int() alone would also read "+2", "02", " 2" or "1_00"."""
    text = _field(line, name)
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{name}={text!r} is not a canonical integer")
    return value


def load_checkpoint(path: str | Path) -> PowerState:
    """Load and verify a checkpoint; digest mismatch aborts before decoding."""
    try:
        text = Path(path).read_text(encoding="ascii")
    except (OSError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if len(lines) != 5:
        raise CheckpointError(f"checkpoint {path} has {len(lines)} lines, expected 5")
    if lines[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad header {lines[0]!r} in {path}")
    try:
        multiplier = _int_field(lines[1], "multiplier")
        n = _int_field(lines[2], "n")
    except ValueError as exc:
        raise CheckpointError(f"bad field in {path}: {exc}") from exc
    digest = _field(lines[3], "digest")
    value_str = lines[4]
    if digest != _payload_digest(multiplier, n, value_str):
        raise CheckpointError(f"digest mismatch in {path}")
    if n < 0:
        raise CheckpointError(f"negative n in {path}")
    try:
        validate_multiplier(multiplier)
        value = from_decimal_string(value_str)
    except ValueError as exc:
        raise CheckpointError(f"invalid checkpoint {path}: {exc}") from exc
    # exact: a value with a valid digest but not equal to multiplier**n
    # (say, two digits swapped) must not seed a sweep
    state = PowerState(n, value, multiplier)
    if not state.is_exact():
        raise CheckpointError(f"value is not {multiplier}**{n} in {path}")
    return state

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
The decoded value is then compared exactly with a**n, which also rejects
a wrong value whose digest was recomputed.  Writes go through a temp
file plus rename, so a crash never leaves a half-written checkpoint
behind.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .bignum import (
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

    def step(self) -> None:
        if self.multiplier == 2:
            double_in_place(self.value)
        else:
            self.value = mul_small(self.value, self.multiplier)
        self.n += 1

    def step_back(self) -> None:
        """Undo one step exactly; raises CheckpointError if the value does
        not divide, which only a corrupt start state can cause."""
        if self.n == 0:
            raise ValueError("cannot step back from n=0")
        q, r = div_small(self.value, self.multiplier)
        if r:
            raise CheckpointError(
                f"value at n={self.n} is not divisible by {self.multiplier}; "
                "state is corrupt"
            )
        self.value = q
        self.n -= 1


def _payload_digest(multiplier: int, n: int, value_str: str) -> str:
    payload = f"multiplier={multiplier}\nn={n}\n{value_str}\n"
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="\n") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
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
    _atomic_write_text(path, text)
    return path


def _field(line: str, name: str) -> str:
    prefix = name + "="
    if not line.startswith(prefix):
        raise CheckpointError(f"expected '{name}=...', got: {line[:40]!r}")
    return line[len(prefix):]


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
        multiplier = int(_field(lines[1], "multiplier"))
        n = int(_field(lines[2], "n"))
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
    if to_decimal_string(value) != value_str:
        raise CheckpointError(f"value does not round-trip in {path}")
    # exact: a value with a valid digest but not equal to multiplier**n
    # (say, two digits swapped) must not seed a sweep.  a**n has
    # floor(n*log2 a) + 1 bits, so any other length is rejected before
    # pow builds a**n, which a forged n could make arbitrarily large
    x = to_int(value)
    bits = multiplier.bit_length()
    if not n * (bits - 1) < x.bit_length() <= max(1, n * bits) or x != pow(multiplier, n):
        raise CheckpointError(f"value is not {multiplier}**{n} in {path}")
    return PowerState(n, value, multiplier)

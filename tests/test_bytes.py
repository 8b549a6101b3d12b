"""One table of byte identity: a sweep writes the same bytes however it
is run.  A row of SHAPES is a sweep shape: a SweepConfig, a format, an
optional resume point r and the sha256 of its checkpoint files (names
and bytes), fresh and resumed; GOLDEN holds that of its fresh output.
The columns are jobs 1, 2 and 3, fresh and resumed from a**r.  A fresh
cell matches its row's goldens, a resumed one writes the fresh output
past r, and every cell passes every check, logs nothing and runs `jobs`
shards.  A golden moves only with the sweep's bytes."""

import functools
import hashlib
import io
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

import digitpow as dp
from digitpow import SweepConfig

JOBS = (1, 2, 3)
FORMATS = ("csv", "json")
# the checkpoint files, fresh and resumed at r; no window or format moves them
V700_CKPTS = ("3aaea8531c4e8ab29408e716e0386173cd5f7276eae63ee9a7fb4cd428f2c9cf",
              "702677c21def322377c70a87cd830862b71bb3f0ec312e87b621b552c2965844")
S900_CKPTS = {
    2: ("9a77a8287f05cda8bc97896eb4e398e5dfae7f0a4f0fa100054348606b6da151",
        "9aa8408b866d201fabcbbffa5ec154a57f47929e79c0ed9c60451d07471293cb"),
    3: ("74f730f7cf16c95fedbb8e0b3c1d87aa8dbe0a7f6029934f23ad72ae14364e60",
        "d6b9be863132b93b0f27c9fb94e04bd9fd466d6248c000d509f5d1e2b450bb06"),
}
V3000_CKPTS = ("ac23c52f14e7558c5814ec0b4c60c689fb55be3aeebc835addd18b95939a54f1",
               "dda748efeaaa38fd08054e8999e5feb8a6be6eb47c5ce5ce33f976ff243fd467")


def stats(lo: int, hi: int, window: int = 100, multiplier: int | None = None) -> SweepConfig:
    """The sweep of `stats --range lo:hi`."""
    return SweepConfig(max_n=hi, multiplier=multiplier, window=window, split_checks="off",
                       emit_range=(lo, hi))


SHAPES = {  # row: (sweep, format, r, checkpoint goldens)
    # the emitted rows start inside the run and end below max_n, which
    # the last band walks on to for its checkpoint; stats sweeps check
    # no splits, and neither do sweeps of 3**n
    **{f"v700-w{w}-{fmt}": (
        SweepConfig(max_n=700, window=w, emit_range=(230, 640), checkpoint_every=70),
        fmt, 300, V700_CKPTS,
    ) for w in (1, 5, 100) for fmt in FORMATS},
    **{f"s900-a{a}-w{w}-{fmt}": (
        SweepConfig(max_n=900, multiplier=a, window=w, split_checks="off",
                    emit_range=(330, 860), checkpoint_every=200),
        fmt, 400, S900_CKPTS[a],
    ) for a in (2, 3) for w in (1, 5, 100) for fmt in FORMATS},
    "v3000-json": (SweepConfig(max_n=3000, checkpoint_every=700), "json", 1400, V3000_CKPTS),
    # each child band walks below its first row and steps the window's
    # rows before it proves its start state; resumed, the first band
    # steps back 6 rows
    "v3000-w7": (SweepConfig(max_n=3000, window=7), "csv", 1400, None),
    "s1:5000-w100": (stats(1, 5000), "csv", None, None),
    "s1401:3000-w100": (stats(1401, 3000), "csv", 1400, None),
    "s2050:2600-w300-json": (stats(2050, 2600, 300), "json", 2000, None),
    "s301:600-a3-w50": (stats(301, 600, 50, multiplier=3), "csv", 300, None),
    "s5000:9000-w100": (stats(5000, 9000), "csv", None, None),
    # the benchmark's stats band, about 2700 limbs a row
    "s80001:83000-w100": (stats(80001, 83000), "csv", 80000, None),
    # bands walk forward by 3**18 per multiplication; 99's limb products
    # and walk factor 99**4 are formed in int64
    "s2000:4000-a3-w7": (stats(2000, 4000, 7, multiplier=3), "csv", None, None),
    "s2000:4000-a99-w7": (stats(2000, 4000, 7, multiplier=99), "csv", None, None),
}

GOLDEN = {  # row: sha256 of the fresh output
    "v700-w1-csv": "e488c9536bef68b1be46cd045e329c884c062ebbbfaa2a9e6a205eb91fe8ec68",
    "v700-w1-json": "e4fbf0dfc4e8616ab78db451c64205c7ae5a97b8c651d616dc416017bad2067c",
    "v700-w5-csv": "9b727d40771bc4fcdca98e2e8a8b13008a2f348a46591975f16aa7dfe2bbea5e",
    "v700-w5-json": "599a8d6ff696d7678ee5c4633b71ee726ea58ccc19c2b0a7995f969538b55ec5",
    "v700-w100-csv": "bb709cc59ff9660c4f9e9987dea38dfb8c08397746f9576f1f1eccb171fcd33d",
    "v700-w100-json": "66875fc16a3dd3cea65f9b99a2c2954e390557ea897e69f9d6f131bc16f90f46",
    "s900-a2-w1-csv": "7cf9f5eb8ae97d43ee342bc23cb48aceabe3e33b2e4064ee336643a7c1eebf43",
    "s900-a2-w1-json": "3140f89fd6244ccfb29cf0a44ee93a07a041960d96a5df242a0193ce18f1007e",
    "s900-a2-w5-csv": "e0857ca41c8a0334cc3d077a9915bc421f130049c61779e77a8cbb165a2fbe03",
    "s900-a2-w5-json": "52f8668fd418f9bda8ca10cf1d731e1ed17feec86bf2f9497ab569c559969941",
    "s900-a2-w100-csv": "40a8e8672750fa13fb44719323fd235da23b054029bb497568ce50f96eb653c5",
    "s900-a2-w100-json": "2cf9fecce9a869ba6ed7c7dd53c35cde9a9167a9fe0cb8421f76015f18124f6c",
    "s900-a3-w1-csv": "771dabfbfaeda7e63c7e66145946a70eb67eb28d17f1a0f7050a81dc0ea1d631",
    "s900-a3-w1-json": "758a69c1790d1d48258a767dd501513d911119c666e500fefc3a805d7215fb59",
    "s900-a3-w5-csv": "f53d764401f70494d6667f637a370ff1cf4a129ced99c4c64d1fd4fbd2184048",
    "s900-a3-w5-json": "29e3700e96292e0e28fd2f5c640aeca8028c717f1a1b9dcd85391809a369bc49",
    "s900-a3-w100-csv": "aa2d80ba69c8f804b76f27de56d373cb5919ebf631f0438e8042bfecd0c33873",
    "s900-a3-w100-json": "2f97e7fec2918ff0d0fc2de1c4e17d19866f454b9f0e1270c3f4b8c3528214e8",
    "v3000-json": "0c826dc9bf3412dbb517a6b425f09105e9f676f59c169b7726e746f4200e720d",
    "v3000-w7": "a3c7b46ac48a53c39c48b693a3a57a2a079cd30128f1cea1d5e4ce9a2381f6e7",
    "s1:5000-w100": "50390595a0fb1dddf6894f95b0d1785f7df8f4175001adf9e5e10452a7f52736",
    "s1401:3000-w100": "e1638d354fd0df021f53f9248461d207bd0563ce2fe2d82090559012585e5a8b",
    "s2050:2600-w300-json": "b6cd19f66feefe3e160359c3720bc0e6dc16d8a9cc4cd55972545f6454cad73c",
    "s301:600-a3-w50": "0335df873c8795c3c6984e8dfa8b1e222973af5a8cc4b93c0d2a1efa7e1c6066",
    "s5000:9000-w100": "d0562109e1810c8d354f76eeefe6bb02e0d7b28ac1833f3cbbb5e4e891256813",
    "s80001:83000-w100": "bd3ba4de6737a41813da2c440be4181b9231ba86597b3525e812ce0e80c1c983",
    "s2000:4000-a3-w7": "bf608464abab6ee473f11bf099c67f0c47ace2c30c43fa25f13111a67faa0962",
    "s2000:4000-a99-w7": "ac45f6239f899eaec84593ad78dfa7b96bacf4a9293233376940b5af46d30bce",
}


@functools.cache
def sweep(row: str, jobs: int, resumed: bool) -> tuple[str, dp.SweepSummary, list[str], str]:
    """A row's sweep: its output, summary, log lines and the sha256 of
    its checkpoint files ("" for a row that does not checkpoint)."""
    cfg, fmt, r, ckpts = SHAPES[row]
    a = cfg.multiplier or 2
    with tempfile.TemporaryDirectory() as tmp:
        start = None
        if resumed:
            start = dp.save_checkpoint(dp.PowerState(r, dp.from_small(a**r), a), f"{tmp}/start")
        ckdir = Path(tmp, "ck") if ckpts else None
        buf, logs = io.StringIO(), []
        summary, _ = dp.run_sweep(
            replace(cfg, jobs=jobs, start_checkpoint=start, checkpoint_dir=ckdir),
            out=buf, fmt=fmt, log=logs.append,
        )
        lines = buf.getvalue().splitlines()
        ns = ([int(line.split(",")[0]) for line in lines[1:]] if fmt == "csv"
              else [json.loads(line)["n"] for line in lines])
        assert ns == list(range(summary.first_n, summary.last_n + 1))
        files = sorted(ckdir.iterdir()) if ckdir else []
        ckpt = b"".join(p.name.encode() + b"\n" + p.read_bytes() for p in files)
    return buf.getvalue(), summary, logs, hashlib.sha256(ckpt).hexdigest() if ckdir else ""


@pytest.mark.parametrize("row,jobs,resumed", [
    pytest.param(row, jobs, resumed, id=f"{row}-jobs{jobs}-{'resumed' if resumed else 'fresh'}")
    for row, (_, _, r, _) in SHAPES.items()
    for resumed in (False, True)[:1 + (r is not None)]
    for jobs in JOBS
])
def test_bytes(row, jobs, resumed):
    cfg, fmt, r, ckpts = SHAPES[row]
    text, summary, logs, ckpt = sweep(row, jobs, resumed)
    assert summary.ok and not logs and summary.jobs == jobs
    assert ckpt == (ckpts[resumed] if ckpts else "")
    if not resumed:
        assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[row]
        return
    lines = sweep(row, 1, False)[0].splitlines(keepends=True)
    head = lines[:1] if fmt == "csv" else []
    first = cfg.emit_range[0] if cfg.emit_range else 1
    assert text == "".join(head + lines[len(head) + max(0, r + 1 - first):])

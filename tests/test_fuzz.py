"""Seeded input fuzz: mutated trace and configuration files through in-process `ncring analyze`.

Every input must end in exit 0 (the command ran) or exit 2 (bad input); exit 1
is a defect.  Sizes are not fuzzed here: test_cli's test_absurd_size_request_allocates_nothing
takes every size argument at an absurd value under tracemalloc.
"""

import random
import re

from ncring import cli
from ncring.dataio import serialize_config, write_trace_csv
from ncring.pipeline import RunConfig, synthesize_trace

INPUTS = 1000  # half trace files, half configuration files
CELLS = (b"nan", b"inf", b"1e308", b"-0", b"abc", b"\xef\xbb\xbf", b"\xff", b"\xc3")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """`data` after one to three seeded edits: a line deleted, repeated or
    truncated, a cell (between `,` or `=`) replaced from CELLS, or a bit flipped.
    Each edit leaves at least one line, since the files start with 18 or more."""
    lines = data.split(b"\n")
    for _ in range(rng.randint(1, 3)):
        i, edit = rng.randrange(len(lines)), rng.randrange(5)
        if edit == 0:
            del lines[i]
        elif edit == 1:
            lines.insert(i, lines[i])
        elif edit == 2:
            lines[i] = lines[i][:rng.randrange(len(lines[i]) + 1)]
        elif edit == 3:
            cells = re.split(rb"([,=])", lines[i])
            cells[2 * rng.randrange(len(cells) // 2 + 1)] = rng.choice(CELLS)
            lines[i] = b"".join(cells)
        else:
            flipped = bytearray(b"\n".join(lines))
            flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
            lines = bytes(flipped).split(b"\n")
    return b"\n".join(lines)


def test_mutated_inputs_exit_zero_or_two(tmp_path, capsys):
    run = RunConfig(n_electrons=3, n_points=64, noise_sigma=1e-6, seed=1)
    trace, config = tmp_path / "trace.csv", tmp_path / "run.cfg"
    write_trace_csv(synthesize_trace(run.ring(), run.f_min, run.f_max, run.n_points,
                                     noise_sigma=run.noise_sigma, seed=run.seed),
                    trace, ring=run.ring())
    config.write_text(serialize_config(run))
    base = {trace: trace.read_bytes(), config: config.read_bytes()}
    rng = random.Random(INPUTS)
    bad, exits = tmp_path / "bad", []
    for i in range(INPUTS):
        target = (trace, config)[i % 2]
        bad.write_bytes(mutate(base[target], rng))
        files = [bad, config] if target is trace else [trace, bad]
        rc = cli.main(["analyze", str(files[0]), "--config", str(files[1]),
                       "--out", str(tmp_path / "out")])
        exits.append(rc)
        err = capsys.readouterr().err
        assert rc in (0, 2), f"input {i} ({target.name}) exited {rc}: {err!r} {bad.read_bytes()!r}"
    assert exits.count(0) > 100 and exits.count(2) > 100  # both outcomes are exercised

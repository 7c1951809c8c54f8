"""The benchmark's workloads: inputs from a seed, one timed op, a correctness check.

Each workload has the same three steps:

* ``build(seed, work)``: import ncring and build the inputs (this is set-up);
* ``op(k, span)``: one unit of work, timed from outside.  ``span(name)`` is a
  context manager; it records a span in a traced run and does nothing
  otherwise;
* ``check(k, record)``: ``(attempted, failed)`` for that op, from its outputs.

``ops_per_call`` is how many checked ops one call of ``op`` attempts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import re
import shutil
from pathlib import Path

HBAR = 1.054571817e-34  # J s, CODATA 2018; the expected f_nc is computed here, not by ncring


class CliLarge:
    """`ncring simulate` then `ncring analyze` on a 1e5-point log-grid trace."""

    n_electrons = 10001
    theta_tilde = 1.76e-61
    radius = 1e-6
    noise_sigma = 1e-6
    points = 100_000
    ops_per_call = 1

    def build(self, seed: int, work: Path) -> None:
        from ncring import cli

        self.cli = cli
        self.work = work
        self.noise_seed = random.Random(seed).randrange(2**31)
        ring_flags = [
            "--n-electrons", str(self.n_electrons),
            "--theta-tilde", repr(self.theta_tilde),
            "--radius", repr(self.radius),
        ]
        self.simulate_argv = ["simulate", *ring_flags,
                              "--noise-sigma", repr(self.noise_sigma),
                              "--seed", str(self.noise_seed),
                              "--points", str(self.points), "--grid", "log"]
        self.analyze_flags = ring_flags
        self.f_nc = self.radius**2 * self.theta_tilde / HBAR**2
        self.previous_tree: dict[str, str] | None = None

    def op(self, k: int, span) -> dict:
        out = self.work / f"op{k}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with span("cli.simulate"):
                rc_sim = self.cli.main([*self.simulate_argv, "--out", str(out)])
            with span("cli.analyze"):
                rc_ana = self.cli.main(["analyze", str(out / "trace.csv"),
                                        *self.analyze_flags, "--out", str(out)])
        return {"out": out, "rc": (rc_sim, rc_ana)}

    def check(self, k: int, record: dict) -> tuple[int, int]:
        out = record["out"]
        try:
            ok = record["rc"] == (0, 0)
            report = dict(
                line.split(": ", 1)
                for line in (out / "report.txt").read_text().splitlines()
            )
            ok = ok and report["verdict"] == "OddNcDetected"
            ok = ok and int(report["estimated_n"]) == self.n_electrons
            ok = ok and abs(float(report["f_nc_hat"]) - self.f_nc) <= 5e-3 * self.f_nc
            tree = {
                str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.rglob("*")) if p.is_file()
            }
            if self.previous_tree is not None:
                ok = ok and tree == self.previous_tree
            self.previous_tree = tree
            record["counts"] = {
                "cli.out_bytes": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
                "cli.derived_csv_bytes": (out / "derived_signatures.csv").stat().st_size,
            }
        except (OSError, KeyError, ValueError):
            ok = False
        finally:
            previous = self.work / f"op{k - 1}"
            if previous.exists():
                shutil.rmtree(previous)
        return 1, 0 if ok else 1


class BatchSmall:
    """3000 short traces through synthesize_trace + analyze_trace, no files."""

    points = 128
    f_max = 0.4
    # The 600-trace mix below is drawn this many times, with fresh noise seeds,
    # so that one op lasts about 2 s.
    copies = 5

    def build(self, seed: int, work: Path) -> None:
        from ncring import pipeline
        from ncring.model import RingSystem

        self.pipeline = pipeline
        rng = random.Random(seed)
        specs = []
        # Criterion 7: commutative rings must never read as a detection.
        for n in (3, 4):
            for mult in (0.0, 0.01, 0.1):
                for _ in range(50 * self.copies):
                    specs.append((n, 0.0, mult * n, rng.randrange(2**31)))
        # Criterion 6: noiseless noncommutative rings must be recovered exactly.
        for n in (3, 4, 101, 10000, 10001):
            for f_nc in (1e-5, 1e-3, 1e-2):
                specs.extend([(n, f_nc, 0.0, None)] * (20 * self.copies))
        rng.shuffle(specs)
        rings = {}
        self.inputs = []
        for n, f_nc, sigma, noise_seed in specs:
            ring = rings.setdefault((n, f_nc), RingSystem.from_f_nc(n_electrons=n, f_nc=f_nc))
            f_min = max(1e-3, f_nc) if n % 2 == 0 else 1e-3
            self.inputs.append((ring, f_min, sigma, noise_seed, n, f_nc))
        self.detections = {"OddNcDetected", "EvenNcDetected"}
        self.ops_per_call = len(self.inputs)

    def op(self, k: int, span) -> dict:
        synthesize = self.pipeline.synthesize_trace
        analyze = self.pipeline.analyze_trace
        verdicts = []
        for ring, f_min, sigma, noise_seed, _, _ in self.inputs:
            try:
                trace = synthesize(ring, f_min, self.f_max, self.points,
                                   noise_sigma=sigma, seed=noise_seed)
                verdicts.append(analyze(trace).verdict)
            except Exception as exc:  # a raising trace is a failed op, not a crash
                verdicts.append(exc)
        return {"verdicts": verdicts}

    def check(self, k: int, record: dict) -> tuple[int, int]:
        failed = 0
        for (_, _, _, _, n, f_nc), verdict in zip(self.inputs, record["verdicts"]):
            if isinstance(verdict, Exception):
                failed += 1
            elif f_nc == 0.0:
                failed += verdict.kind.value in self.detections
            else:
                expected = "OddNcDetected" if n % 2 else "EvenNcDetected"
                ok = (
                    verdict.kind.value == expected
                    and verdict.estimated_n == n
                    and verdict.estimated_parity == ("odd" if n % 2 else "even")
                    and abs(verdict.estimated_f_nc - f_nc) < 5e-3 * f_nc
                )
                failed += not ok
        return len(record["verdicts"]), failed


_SUMMARY = re.compile(r"over (\d+) points, .*\[(OK|FAIL)\]$")


class VerifyOracles:
    """`ncring verify` with the full default sweeps."""

    ops_per_call = 1

    def build(self, seed: int, work: Path) -> None:
        from ncring import cli

        self.cli = cli

    def op(self, k: int, span) -> dict:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            with span("cli.verify"):
                rc = self.cli.main(["verify"])
        sweeps = [m.groups() for m in map(_SUMMARY.search, buf.getvalue().splitlines()) if m]
        return {"rc": rc, "sweeps": sweeps}

    def check(self, k: int, record: dict) -> tuple[int, int]:
        ok = (
            record["rc"] == 0
            and len(record["sweeps"]) == 3
            and all(status == "OK" for _, status in record["sweeps"])
        )
        return 1, 0 if ok else 1


WORKLOADS = {
    "cli_large": CliLarge,
    "batch_small": BatchSmall,
    "verify_oracles": VerifyOracles,
}

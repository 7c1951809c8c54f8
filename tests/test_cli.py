"""Command-line interface: exit codes, outputs, determinism."""

import argparse
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import ncring
from ncring import cli
from ncring.cli import build_parser, main
from ncring.dataio import write_config
from ncring.errors import InputError, NcRingError
from ncring.pipeline import MAX_ROWS, RunConfig
from ncring.svgplot import emit_plot


# report.txt of the overflowing trace in test_overflowing_signatures_still_written,
# as written before numpy's overflow warnings were silenced
OVERFLOW_REPORT = """\
diagnostic_01: lambda: no usable signal above the noise floor
diagnostic_02: sigma: no usable signal above the noise floor
diagnostic_03: electron number estimate: 3 (even)
diagnostic_04: no criterion case matches the observed divergence pattern
estimated_n: 3
estimated_parity: even
f_nc_hat: none
fit_window_hi: 1.0000e-01
fit_window_lo: 1.0000e-03
lambda_amplitude: none
lambda_exponent: none
lambda_points_used: 0
lambda_r_squared: none
residual_floor: 0.0000e+00
sigma_amplitude: none
sigma_exponent: none
sigma_points_used: 0
sigma_r_squared: none
theta_tilde_hat: none
thresholds_amplitude_floor_mult: 3.0000e+00
thresholds_exponent_tol: 3.0000e-01
trace_noise_rms: 2.7337e-07
verdict: Inconclusive
"""


def run_cli(*args: str) -> int:
    return main(list(args))


def run_module(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    """`python -m ncring ...` in a child that imports the same package as the tests."""
    src = str(Path(ncring.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "ncring", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        cwd=cwd,
    )


def ncring_errors(base: type = NcRingError) -> list[type]:
    """Every subclass of `base`, found recursively."""
    return [c for sub in base.__subclasses__() for c in (sub, *ncring_errors(sub))]


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


class TestExitCodes:
    def test_unknown_command_exits_two(self):
        assert run_module("frobnicate").returncode == 2

    def test_missing_trace_exits_two(self, tmp_path):
        assert run_cli("analyze", str(tmp_path / "nope.csv"), "--out", str(tmp_path)) == 2

    def test_invalid_range_exits_two(self, tmp_path, capsys):
        # f_max beyond the zone boundary is an input error
        assert (
            run_cli("simulate", "--f-max", "0.9", "--out", str(tmp_path)) == 2
        )
        # so is an alpha outside the map's (0, 1], caught by the ring's own check
        assert run_cli("constants", "--alpha", "1.5") == 2
        assert "alpha must lie in (0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--points", "1000000000000"],
         "need at most 10000000 points, got 1000000000000"),
        (["spectrum", "--n-levels", "1000000000000000000"],
         "--points x (2 --n-levels + 1) must be at most 10000000, got 512000000000000000256"),
    ])
    def test_oversized_request_exits_two_before_allocating(self, tmp_path, capsys, argv,
                                                           message):
        # they ended as "internal error: MemoryError" and "ValueError: array is too big", exit 1
        build_parser()  # built once per process; its tree is not the request's allocation
        tracemalloc.start()
        try:
            rc = run_cli(*argv, "--out", str(tmp_path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 2
        assert capsys.readouterr().err == f"ncring: error: {message}\n"
        assert peak < 1 << 20
        assert not any(tmp_path.iterdir())
        assert RunConfig(n_points=MAX_ROWS).n_points == MAX_ROWS  # the cap itself is allowed

    def test_non_utf8_trace_or_config_exits_two(self, tmp_path, capsys):
        # each ended as "internal error: UnicodeDecodeError", exit 1
        trace, config = tmp_path / "bad.csv", tmp_path / "bad.cfg"
        trace.write_bytes(b"f,J\n\xff\xfe,1\n")
        config.write_bytes(b"alpha = \xff\n")
        assert run_cli("analyze", str(trace), "--out", str(tmp_path)) == 2
        assert run_cli("constants", "--config", str(config)) == 2
        assert capsys.readouterr().err == (
            "ncring: error: line 2: not UTF-8 text: invalid start byte at byte 0\n"
            "ncring: error: line 1: not UTF-8 text: invalid start byte at byte 8\n"
        )

    @pytest.mark.parametrize("command", ["spectrum", "signatures", "simulate"])
    def test_grid_without_distinct_points_exits_two(self, tmp_path, capsys, command):
        # bounds 1e-15 apart round 8 log points onto repeated values
        args = ("--f-min", "0.001", "--f-max", "0.001000000000000001", "--points", "8")
        assert run_cli(command, *args, "--out", str(tmp_path)) == 2
        assert "flux values must be strictly increasing" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_non_finite_trace_exits_two(self, tmp_path, capsys):
        assert run_cli("simulate", "--n-electrons", "3", "--out", str(tmp_path)) == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        row = lines.index("f,J") + 5
        lines[row] = lines[row].split(",")[0] + ",nan"
        (tmp_path / "trace.csv").write_text("\n".join(lines) + "\n")
        assert run_cli("analyze", str(tmp_path / "trace.csv"), "--out", str(tmp_path)) == 2
        assert f"line {row + 1}: non-finite value" in capsys.readouterr().err

    def test_si_ring_mismatch_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "si.cfg"
        write_config(RunConfig(radius_m=2e-6, n_electrons=3, units="si"), cfg)
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 0
        trace = str(tmp_path / "trace.csv")
        # the default config's ring (R = 1 um) disagrees with the file's
        assert run_cli("analyze", trace, "--out", str(tmp_path)) == 2
        assert "current scale" in capsys.readouterr().err
        # with the file's radius the scales agree and N is recovered
        assert run_cli("analyze", trace, "--radius", "2e-6", "--out", str(tmp_path)) == 0
        assert "estimated_n: 3\n" in (tmp_path / "report.txt").read_text()

    def test_reduced_trace_ring_mismatch_exits_two(self, tmp_path, capsys):
        # theta_tilde_hat is f_nc_hat converted with the config's radius: a
        # reduced trace whose metadata names another ring would get a wrong one
        assert run_cli(
            "simulate", "--radius", "2e-6", "--n-electrons", "3", "--out", str(tmp_path)
        ) == 0
        trace = str(tmp_path / "trace.csv")
        assert run_cli("analyze", trace, "--n-electrons", "3", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "radius_m = 2e-06" in err and err.count("\n") == 1
        assert not (tmp_path / "report.txt").exists()
        args = ("analyze", trace, "--n-electrons", "3", "--radius", "2e-6")
        assert run_cli(*args, "--out", str(tmp_path)) == 0
        assert "theta_tilde_hat: 1.7610e-61\n" in (tmp_path / "report.txt").read_text()

    def test_partial_ring_metadata_still_checked(self, tmp_path, capsys):
        # a stated radius is checked even when the file's ring is incomplete
        assert run_cli(
            "simulate", "--radius", "2e-6", "--n-electrons", "3", "--out", str(tmp_path)
        ) == 0
        trace = tmp_path / "trace.csv"
        lines = trace.read_text().splitlines()
        trace.write_text("".join(
            line + "\n" for line in lines
            if not line.startswith(("# n_electrons", "# theta_tilde"))
        ))
        assert run_cli("analyze", str(trace), "--n-electrons", "3", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert "radius_m = 2e-06" in err and err.count("\n") == 1
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("dropped, stated", [((), 101), (("# theta_tilde",), 101),
                                                 (("# theta_tilde", "# n_electrons"), None)],
                             ids=["full_ring", "n_only", "no_n"])
    def test_no_blind_takes_the_stated_electron_number(self, tmp_path, capsys, dropped, stated):
        # J doubled, so the fit reads N = 202; --no-blind reads the file's n_electrons,
        # and a file that states none is bad input
        assert run_cli("simulate", "--n-electrons", "101", "--noise-sigma", "0.3", "--seed", "4",
                       "--points", "64", "--out", str(tmp_path)) == 0
        trace, out = tmp_path / "trace.csv", tmp_path / "analysis"
        lines = trace.read_text().splitlines()
        header = lines.index("f,J")
        rows = [f"{f},{2.0 * float(j)!r}"
                for f, j in (row.split(",") for row in lines[header + 1:])]
        kept = [line for line in lines[:header + 1] if not line.startswith(dropped)]
        trace.write_text("\n".join(kept + rows) + "\n")
        capsys.readouterr()
        rc = run_cli("analyze", str(trace), "--no-blind", "--out", str(out))
        if stated is None:
            err = capsys.readouterr().err
            assert rc == 2 and "n_electrons" in err and err.count("\n") == 1
            assert not (out / "report.txt").exists()
        else:
            assert rc == 0 and f"estimated_n: {stated}\n" in (out / "report.txt").read_text()

    def test_invalid_ring_metadata_exits_two(self, tmp_path, capsys):
        assert run_cli("simulate", "--n-electrons", "3", "--out", str(tmp_path)) == 0
        trace = tmp_path / "trace.csv"
        trace.write_text(trace.read_text().replace("# alpha: 1.0\n", "# alpha: 1.5\n"))
        assert run_cli("analyze", str(trace), "--n-electrons", "3", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == "ncring: error: trace metadata alpha: alpha must lie in (0, 1], got 1.5\n"
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize(
        "args, message",
        [(("simulate", "--theta-tilde", "nan"), "theta_tilde must be finite, got nan"),
         (("simulate", "--noise-sigma", "nan"), "noise_sigma must be finite, got nan"),
         (("constants", "--radius", "inf"), "radius_m must be finite, got inf"),
         (("simulate", "--seed", "-1", "--noise-sigma", "0.1"),
          "seed must be non-negative, got -1")],
    )
    def test_non_finite_or_negative_seed_flag_exits_two(self, tmp_path, capsys, args, message):
        out = () if args[0] == "constants" else ("--out", str(tmp_path))  # constants writes none
        assert run_cli(*args, *out) == 2
        assert capsys.readouterr().err == f"ncring: error: {message}\n"
        assert not (tmp_path / "trace.csv").exists()

    def test_negative_seed_in_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "neg.cfg"
        cfg.write_text("seed = -2\nnoise_sigma = 0.1\n")
        assert run_cli("simulate", "--config", str(cfg), "--out", str(tmp_path)) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_malformed_noise_metadata_exits_two(self, tmp_path, capsys):
        args = ("--n-electrons", "3", "--out", str(tmp_path))
        assert run_cli("simulate", *args, "--noise-sigma", "0.01") == 0
        trace = tmp_path / "trace.csv"
        trace.write_text(trace.read_text().replace("# seed: 42\n", "# seed: nine\n"))
        assert run_cli("analyze", str(trace), *args) == 2
        err = capsys.readouterr().err
        assert err.startswith("ncring: error: trace metadata seed: ") and err.count("\n") == 1
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, out):
        (tmp_path / "taken").write_text("")
        assert run_cli("current", "--out", str(tmp_path / out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("ncring: error: ") and err.count("\n") == 1

    def test_unexpected_exception_is_one_line_exit_one(self, monkeypatch, capsys):
        def broken(args):
            raise ZeroDivisionError("float division by zero")

        monkeypatch.setitem(cli._COMMANDS, "constants", (broken, *cli._COMMANDS["constants"][1:]))
        assert run_cli("constants") == 1
        err = capsys.readouterr().err
        assert err == "ncring: internal error: ZeroDivisionError: float division by zero\n"

    @pytest.mark.parametrize("error", ncring_errors(), ids=lambda c: c.__name__)
    def test_error_class_decides_exit_code(self, monkeypatch, capsys, error):
        def failing(args):
            raise error("boom")

        monkeypatch.setitem(cli._COMMANDS, "constants", (failing, *cli._COMMANDS["constants"][1:]))
        if issubclass(error, InputError):
            assert run_cli("constants") == 2
            assert capsys.readouterr().err == "ncring: error: boom\n"
        else:
            assert run_cli("constants") == 1
            assert capsys.readouterr().err == "ncring: internal error: boom\n"

    @pytest.mark.parametrize(
        "args, message",
        [(("--f-min", "1", "--f-max", "2"), "f_max = 2.0 leaves the zone"),
         # f_nc ~ 9e-3 lies above the default f_min = 1e-3
         (("--n-electrons", "4", "--theta-tilde", "1e-58"), "even ring: f_min = 0.001 is below f_nc")],
        ids=["past_crossing", "even_below_f_nc"],
    )
    def test_signatures_off_the_zone_exits_two(self, tmp_path, capsys, args, message):
        assert run_cli("signatures", *args, "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"ncring: error: {message}") and err.count("\n") == 1
        assert not (tmp_path / "signatures.csv").exists()

    def test_overflowing_line_fit_exits_two(self, tmp_path):
        f = [1e-3 + 1e-13 * i for i in range(16)]
        rows = "".join(f"{x!r},{-1e300 * i!r}\n" for i, x in enumerate(f))
        (tmp_path / "trace.csv").write_text("f,J\n" + rows)
        proc = run_module("analyze", str(tmp_path / "trace.csv"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1].startswith("ncring: error:")

    def test_header_only_trace_exits_two_quietly(self, tmp_path):
        # numpy warns when the bulk row parse finds no rows; the error alone
        # reaches stderr (a child process, outside the suite's warning filters)
        (tmp_path / "trace.csv").write_text("# source: hand\nf,J\n")
        proc = run_module("analyze", str(tmp_path / "trace.csv"), "--out", str(tmp_path))
        assert proc.returncode == 2
        assert proc.stderr == "ncring: error: trace needs at least 8 data rows, found 0\n"

    def test_overflowing_signatures_still_written(self, tmp_path):
        # J/f overflows near f = 1e-300; the inf and NaN signatures are dropped
        # from the log-log plot, not an internal error, and numpy's overflow
        # warnings stay silent (a child process, so its real stderr is seen)
        f = np.geomspace(1e-300, 0.4, 64)
        rows = "".join(f"{x!r},{y!r}\n" for x, y in zip(f.tolist(), (1e10 - 6 * f).tolist()))
        (tmp_path / "trace.csv").write_text("f,J\n" + rows)
        proc = run_module(
            "analyze", str(tmp_path / "trace.csv"), "--n-electrons", "3", "--out", str(tmp_path)
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout.startswith("verdict: Inconclusive\n")
        for name in ("report.txt", "derived_signatures.csv", "derived_signatures.svg"):
            assert (tmp_path / name).is_file()
        assert (tmp_path / "report.txt").read_text() == OVERFLOW_REPORT

    def test_repeated_metadata_key_exits_two(self, tmp_path, capsys):
        assert run_cli("simulate", "--n-electrons", "3", "--out", str(tmp_path)) == 0
        trace = tmp_path / "trace.csv"
        lines = trace.read_text().splitlines()
        row = lines.index("# radius_m: 1e-06")
        lines.insert(row, "# radius_m: 5e-06")
        trace.write_text("\n".join(lines) + "\n")
        assert run_cli("analyze", str(trace), "--n-electrons", "3", "--out", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert err == f"ncring: error: line {row + 2}: repeated trace metadata key 'radius_m'\n"
        assert not (tmp_path / "report.txt").exists()

    @pytest.mark.parametrize(
        "flag, value, scale",
        [("--radius", "1e200", "f_nc is inf"),  # radius**2 overflows
         ("--radius", "1e-200", "epsilon0 is inf"),  # radius**2 underflows to zero
         ("--alpha", "1e-200", "f_nc is inf"),  # (hbar alpha)**2 underflows to zero
         ("--theta-tilde", "1e300", "f_nc is inf")],
    )
    def test_out_of_range_ring_scale_exits_two(self, capsys, flag, value, scale):
        assert run_cli("constants", flag, value) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"ncring: error: the ring's {scale}: ")
        assert captured.err.count("\n") == 1

    def test_console_entry_point(self):
        proc = run_module("constants", "--n-electrons", "3")
        assert proc.returncode == 0
        assert "flux_quantum_Wb" in proc.stdout


RING_FLAGS = ["--radius", "--n-electrons", "--theta-tilde", "--alpha"]
GRID_FLAGS = ["--f-min", "--f-max", "--points", "--grid"]
# each command's options, in the order --help lists them
OPTIONS = {
    "constants": ["--config", *RING_FLAGS],
    "spectrum": ["--config", "--out", *RING_FLAGS, *GRID_FLAGS, "--n-levels"],
    "current": ["--config", "--out", *RING_FLAGS, *GRID_FLAGS],
    "signatures": ["--config", "--out", *RING_FLAGS, *GRID_FLAGS],
    "simulate": ["--config", "--out", *RING_FLAGS, *GRID_FLAGS, "--seed", "--noise-sigma"],
    "analyze": ["--config", "--out", *RING_FLAGS, "--smoothing-window", "--no-blind"],
    "verify": ["--quick"],
}
SWITCHES = {"--no-blind", "--quick"}  # flags that take no value


def subcommands() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOptionTable:
    def test_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_each_command_takes_only_the_flags_it_reads(self):
        parsed = {
            name: [s for a in p._actions for s in a.option_strings if s not in ("-h", "--help")]
            for name, p in subcommands().items()
        }
        tabled = {
            name: [flag for group in groups for flag, _ in group if flag.startswith("--")]
            for name, (_, _, groups) in cli._COMMANDS.items()
        }
        assert parsed == tabled == OPTIONS
        assert sum(map(len, parsed.values())) == 57

    @pytest.mark.parametrize("command", OPTIONS)
    def test_every_other_flag_is_refused(self, capsys, command):
        # each flag gets a value that the commands reading it accept
        positional = ["t.csv"] if command == "analyze" else []
        for flag in sorted({flag for flags in OPTIONS.values() for flag in flags}):
            value = [] if flag in SWITCHES else ["log" if flag == "--grid" else "1"]
            argv = [command, *positional, flag, *value]
            if flag in OPTIONS[command]:
                build_parser().parse_args(argv)
                continue
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [("verify", "--config", "/nonexistent.cfg"),
         ("analyze", "t.csv", "--points", "9"),
         ("simulate", "--smoothing-window", "3"),
         ("constants", "--out", "x")],
    )
    def test_unread_flag_exits_two(self, tmp_path, args):
        proc = run_module(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert f"unrecognized arguments: {' '.join(args[-2:])}" in proc.stderr
        assert proc.stdout == "" and not any(tmp_path.iterdir())


class TestCommands:
    def test_constants_stdout(self, capsys):
        assert run_cli("constants", "--n-electrons", "3", "--theta-tilde", "1.76e-61") == 0
        out = capsys.readouterr().out
        assert "f_nc: 1.58" in out
        assert "parity: odd" in out

    def test_spectrum_table(self, tmp_path):
        assert (
            run_cli(
                "spectrum", "--n-electrons", "3", "--points", "16",
                "--n-levels", "2", "--out", str(tmp_path),
            )
            == 0
        )
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert lines[0] == "f,n,E_reduced"
        assert len(lines) == 1 + 16 * 5

    def test_current_trace(self, tmp_path):
        assert run_cli("current", "--n-electrons", "3", "--out", str(tmp_path)) == 0
        assert (tmp_path / "current.csv").exists()

    def test_signatures_outputs(self, tmp_path, capsys):
        assert (
            run_cli(
                "signatures", "--n-electrons", "3", "--theta-tilde", "1.76e-61",
                "--out", str(tmp_path),
            )
            == 0
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["signatures.csv", "signatures.svg"]
        assert capsys.readouterr().out == (
            f"wrote {tmp_path / 'signatures.csv'}\nwrote {tmp_path / 'signatures.svg'}\n"
        )

    def test_simulate_analyze_detection(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert (
            run_cli(
                "simulate", "--n-electrons", "3", "--theta-tilde", "1.76e-61",
                "--radius", "1e-6", "--seed", "42", "--out", str(out),
            )
            == 0
        )
        assert run_cli("analyze", str(out / "trace.csv"), "--out", str(out)) == 0
        report = (out / "report.txt").read_text()
        assert "verdict: OddNcDetected" in report
        f_nc_hat = float(
            next(l for l in report.splitlines() if l.startswith("f_nc_hat:")).split(":")[1]
        )
        assert f_nc_hat == pytest.approx(1.5828e-5, rel=5e-3)

    def test_analyze_commutative_trace(self, tmp_path):
        out = tmp_path / "run"
        assert (
            run_cli(
                "simulate", "--n-electrons", "3", "--theta-tilde", "0.0",
                "--out", str(out),
            )
            == 0
        )
        assert run_cli("analyze", str(out / "trace.csv"), "--out", str(out)) == 0
        assert "verdict: NoNcDetected" in (out / "report.txt").read_text()

    def test_config_file_with_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        write_config(RunConfig(n_electrons=4, theta_tilde=0.0, n_points=64), cfg)
        out = tmp_path / "out"
        assert (
            run_cli("simulate", "--config", str(cfg), "--seed", "1", "--out", str(out))
            == 0
        )
        header = (out / "trace.csv").read_text().splitlines()
        assert "# n_electrons: 4" in header
        assert "# seed: 1" in header

    def test_verify_quick(self, capsys):
        assert run_cli("verify", "--quick") == 0
        assert capsys.readouterr().out == (
            "ground-state closed form vs filling oracle: max dev 1.888e-16 (tol 1e-14) "
            "over 1470 points, worst at N=2, f_nc=1e-05, f=-0.1875  [OK]\n"
            "current closed form vs -dE/df oracle: max dev 2.220e-15 (tol 1e-12) "
            "over 1470 points, worst at N=11, f_nc=0.3, f=-0.75  [OK]\n"
            "signature closed forms vs filling oracle: max dev 2.198e-16 (tol 1e-14) "
            "over 168 points, worst at N=4, f_nc=1e-05, f=0.4  [OK]\n"
            "verification passed\n"
        )

    def test_verify_full(self, capsys):
        assert run_cli("verify") == 0
        assert capsys.readouterr().out == (
            "ground-state closed form vs filling oracle: max dev 2.977e-16 (tol 1e-14) "
            "over 24210 points, worst at N=2, f_nc=0.3, f=-0.803922  [OK]\n"
            "current closed form vs -dE/df oracle: max dev 1.310e-14 (tol 1e-12) "
            "over 24210 points, worst at N=59, f_nc=0.3, f=-0.705882  [OK]\n"
            "signature closed forms vs filling oracle: max dev 2.198e-16 (tol 1e-14) "
            "over 450 points, worst at N=4, f_nc=1e-05, f=0.4  [OK]\n"
            "verification passed\n"
        )

    def test_env_var_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NCRING_OUT", str(tmp_path / "envout"))
        assert run_cli("current", "--n-electrons", "3", "--points", "16") == 0
        assert (tmp_path / "envout" / "current.csv").exists()


def read_table(path: Path) -> tuple[str, np.ndarray]:
    """The header and the float rows of a data CSV; `#` lines are skipped."""
    header, *rows = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return header, np.array([[float(v) for v in row.split(",")] for row in rows])


def assert_plot_of_table(stem: Path, tmp_path: Path) -> None:
    """stem.svg is the plot of |lambda| and |sigma| from the stem.csv table, byte for byte."""
    header, table = read_table(stem.with_suffix(".csv"))
    assert header == "f,lambda,sigma"
    f, lam, sig = table.T
    redrawn = emit_plot(
        [("|lambda|", np.transpose((f, np.abs(lam)))),
         ("|sigma|", np.transpose((f, np.abs(sig))))],
        tmp_path / "redrawn" / "plot.svg",
    )
    assert redrawn.read_bytes() == stem.with_suffix(".svg").read_bytes()


class TestFileContract:
    """Each derived dataset is one <stem>.csv table with its plot <stem>.svg beside it."""

    def test_analyze_writes_report_table_and_plot(self, tmp_path, capsys):
        run = tmp_path / "run"
        args = ("--n-electrons", "3", "--out", str(run))
        assert run_cli("simulate", *args, "--noise-sigma", "1e-4") == 0
        assert run_cli("analyze", str(run / "trace.csv"), *args) == 0
        assert sorted(p.name for p in run.iterdir()) == [
            "derived_signatures.csv", "derived_signatures.svg", "report.txt", "trace.csv",
        ]
        assert_plot_of_table(run / "derived_signatures", tmp_path)

    def test_analyze_holds_no_trace_while_writing(self, tmp_path, monkeypatch, capsys):
        # the trace, with its current and grid plan, is freed before the files set the peak
        run = tmp_path / "run"
        assert run_cli("simulate", "--n-electrons", "3", "--out", str(run)) == 0
        read, write = cli.read_trace_csv, cli._write_signatures
        traces, alive = [], []

        def recorded_read(*args, **kwargs):
            trace = read(*args, **kwargs)
            traces.append(weakref.ref(trace))
            return trace

        def checked_write(*args, **kwargs):
            alive.append(traces[0]() is not None)  # no gc.collect: freed by its last reference
            return write(*args, **kwargs)

        monkeypatch.setattr(cli, "read_trace_csv", recorded_read)
        monkeypatch.setattr(cli, "_write_signatures", checked_write)
        assert run_cli("analyze", str(run / "trace.csv"), "--out", str(run)) == 0
        assert alive == [False]

    def test_signatures_plot_is_drawn_from_its_table(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("signatures", "--n-electrons", "4", "--f-min", "0.02",
                       "--out", str(out)) == 0
        assert_plot_of_table(out / "signatures", tmp_path)


class TestDeterminism:
    def test_identical_runs_identical_trees(self, tmp_path):
        trees = []
        for name in ("a", "b"):
            out = tmp_path / name
            run_cli(
                "simulate", "--n-electrons", "3", "--theta-tilde", "1.76e-61",
                "--seed", "42", "--noise-sigma", "0.003", "--out", str(out),
            )
            run_cli("analyze", str(out / "trace.csv"), "--out", str(out))
            trees.append(tree_bytes(out))
        assert trees[0].keys() == trees[1].keys()
        assert trees[0] == trees[1]

"""The benchmark's tracer wraps ncring functions by module attribute name.

perfbench/tracer.py lists those names in WRAPPED; a refactor that drops one
would break traced benchmark runs without any other test noticing.  Its
per-op counts also read the arguments and results of what it wraps (the
points handed to emit_plot, the files written, the points each oracle
sweep checked), so a change of signature or of a sweep's result must keep
them right.  The CLI workloads of perfbench/workloads.py run fixed command
lines, so the parser must keep accepting them.
"""

import contextlib
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from ncring.cli import build_parser, main
from ncring.oracle import current_sweep, ground_state_sweep, signature_sweep

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_tracer():
    return load_perfbench("tracer")


def test_wrapped_names_resolve():
    tracer = load_tracer()
    assert tracer.WRAPPED
    for module_name, attr in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def traced_counts(*argvs: list[str]) -> dict:
    """Run the CLI commands as one traced op; the op's counts, files read by size."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        first = tracer.begin_op(0)
        for argv in argvs:
            assert main(argv) == 0
        return tracer.summarize_op(first)["counts"]
    finally:
        tracer.uninstall()


def test_tracer_counts_signatures(tmp_path, capsys):
    counts = traced_counts(["signatures", "--n-electrons", "3", "--points", "64",
                            "--out", str(tmp_path)])
    assert counts["svgplot.points_in"] == 2 * 64
    assert counts["svgplot.svg_bytes"] == (tmp_path / "signatures.svg").stat().st_size
    # the plot's stem names its table, so the tracer's csv_bytes measures it
    assert counts["svgplot.csv_bytes"] == (tmp_path / "signatures.csv").stat().st_size


def test_tracer_counts_simulate_analyze(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    counts = traced_counts(
        ["simulate", "--n-electrons", "3", "--noise-sigma", "1e-6", "--points", "200",
         "--out", str(tmp_path)],
        ["analyze", str(trace), "--n-electrons", "3", "--out", str(tmp_path)],
    )
    table = tmp_path / "derived_signatures.csv"
    points = len(table.read_text().splitlines()) - 2  # the method comment and the header
    assert points == 200
    assert counts["svgplot.points_in"] == 2 * points
    assert counts["svgplot.svg_bytes"] == (tmp_path / "derived_signatures.svg").stat().st_size
    assert counts["svgplot.csv_bytes"] == table.stat().st_size
    assert counts["dataio.write_trace_csv.bytes"] == trace.stat().st_size
    assert counts["dataio.read_trace_csv.bytes"] == trace.stat().st_size


def test_tracer_counts_verify(capsys):
    # the sweeps that `verify` runs, called directly
    filling = [ground_state_sweep(), current_sweep()]
    signature = signature_sweep()
    counts = traced_counts(["verify"])
    filling_points = sum(sweep.n_points for sweep in filling)
    assert counts["oracle.points_checked"] == filling_points + signature.n_points == 48870
    assert counts["oracle.filling_points"] == filling_points == 48420


@pytest.mark.parametrize(
    "workload, commands",
    [("cli_large", ["simulate", "analyze"]), ("verify_oracles", ["verify"])],
)
def test_workload_command_lines_parse(tmp_path, workload, commands):
    # each op's command lines go to the parser instead of running
    bench = load_perfbench("workloads").WORKLOADS[workload]()
    bench.build(1, tmp_path)
    parsed = []
    bench.cli = SimpleNamespace(main=lambda argv: parsed.append(build_parser().parse_args(argv)))
    bench.op(0, lambda name: contextlib.nullcontext())
    assert [args.command for args in parsed] == commands
    if workload == "cli_large":
        simulate, analyze = parsed
        assert simulate.n_points == 100_000 and simulate.noise_sigma == 1e-6
        assert analyze.trace == str(tmp_path / "op0" / "trace.csv")
        assert simulate.n_electrons == analyze.n_electrons == 10001

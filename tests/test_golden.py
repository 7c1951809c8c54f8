"""Golden outputs: scripts/output_digest.py's run set and the verdicts of its
2400-trace mix, rerun in-process, against their committed files."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "output_digest.txt"
VERDICTS = ROOT / "tests" / "golden" / "verdicts.csv"


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script():
    return load_script(ROOT / "scripts" / "output_digest.py")


@pytest.fixture(scope="module")
def mix(script):
    """The mix's two digest rows and its verdict table, from one pass."""
    return script.analysis_digests()


def versions(lines: list[str]) -> list[str]:
    """The header's Python and numpy versions and numpy's SIMD dispatch line."""
    return [line for line in lines if line.startswith(("# python ", "# numpy "))]


def test_every_output_matches_the_golden_digest(tmp_path, script, mix):
    # a trace's result must not depend on whether it shares its grid: checked before
    # the golden file, so that no regeneration records the two grids apart
    (shared, _), (copied, _) = mix[0]
    assert shared == copied, "the mix's analyses differ between shared and copied grids"
    rows = script.digests(tmp_path) + mix[0] + script.fit_digest()
    lines = script.header() + [f"{digest}  {name}" for digest, name in rows]
    golden = GOLDEN.read_text().splitlines()
    moved = sorted({line.split("  ", 1)[1] for line in set(lines) ^ set(golden)
                    if not line.startswith("#")})
    assert lines == golden, (
        f"golden digest made with {versions(golden)}, this run with {versions(lines)}; "
        f"{len(moved)} outputs differ: {moved}"
    )


def test_every_verdict_matches_the_golden_table(tmp_path, mix):
    table = mix[1]
    fresh = tmp_path / "verdicts.csv"
    fresh.write_text("".join(row + "\n" for row in table))
    golden = VERDICTS.read_text().splitlines()
    moved = [(old, new) for old, new in zip(golden, table) if old != new]
    assert table == golden, (
        f"{len(moved)} rows differ (golden {len(golden)} lines, this run {len(table)}), "
        f"the first five as (golden, now): {moved[:5]}; this run's table is {fresh}"
    )

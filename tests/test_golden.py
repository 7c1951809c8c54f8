"""Golden outputs: scripts/output_digest.py's run set, rerun in-process, against its committed lines."""

import importlib.util
import platform
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "output_digest.txt"


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_golden() -> tuple[dict[str, str], list[str]]:
    """The versions the header names (`# python X`, `# numpy Y`) and the digest lines."""
    versions, lines = {}, []
    for line in GOLDEN.read_text().splitlines():
        key, _, value = line.removeprefix("# ").partition(" ")
        if not line.startswith("#"):
            lines.append(line)
        elif key in ("python", "numpy"):
            versions[key] = value
    return versions, lines


def test_every_output_matches_the_golden_digest(tmp_path):
    script = load_script(ROOT / "scripts" / "output_digest.py")
    rows = script.digests(tmp_path) + script.analysis_digests() + script.fit_digest()
    lines = [f"{digest}  {name}" for digest, name in rows]
    versions, golden = read_golden()
    here = {"python": platform.python_version(), "numpy": np.__version__}
    moved = sorted({line.split("  ", 1)[1] for line in set(lines) ^ set(golden)})
    assert (here, lines) == (versions, golden), (
        f"golden digest made with {versions}, this run with {here}; "
        f"{len(moved)} outputs differ: {moved}"
    )

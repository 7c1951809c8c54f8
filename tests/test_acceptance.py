"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see a pass line per
criterion; any failure shows up as an ordinary pytest failure.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from ncring.cli import _write_signatures as write_signatures
from ncring.cli import main as cli_main
from ncring.dataio import (
    parse_config,
    read_trace_csv,
    serialize_config,
    write_trace_csv,
)
from ncring.model import (
    RingSystem,
    lambda_signature,
    sigma_signature,
)
from ncring.oracle import current_sweep, ground_state_sweep, signature_by_finite_difference
from ncring.pipeline import RunConfig, VerdictKind, analyze_trace, synthesize_trace


def _report(criterion: int, message: str) -> None:
    print(f"[criterion {criterion}] {message}: PASS")


def ring_with(n_electrons: int, f_nc: float) -> RingSystem:
    return RingSystem.from_f_nc(n_electrons=n_electrons, f_nc=f_nc)


def test_criterion_1_reference_flux_value():
    ring = RingSystem(radius=1e-6, n_electrons=3, theta_tilde=1.76e-61)
    f_nc = ring.f_nc
    rel = abs(f_nc - 1.5828e-5) / 1.5828e-5
    assert rel <= 1e-3, f"f_nc = {f_nc} deviates {rel:.2e} from 1.5828e-5"
    _report(1, f"f_nc = {f_nc:.6e} matches 1.5828e-5 within {rel:.1e} (tol 1e-3)")


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    result = ground_state_sweep()
    elapsed = time.perf_counter() - start
    assert result.tol <= 1e-14 and result.passed, result.summary()
    assert (result.n_points, result.rows_filled) == (24210, 24240)
    assert elapsed < 2.0, f"sweep took {elapsed:.1f}s, budget 2s"
    _report(2, f"max normalized deviation {result.max_dev:.2e} <= {result.tol:.0e} "
               f"in {elapsed:.1f}s")


def test_criterion_3_thermodynamic_consistency():
    start = time.perf_counter()
    result = current_sweep()
    elapsed = time.perf_counter() - start
    assert result.tol <= 1e-12 and result.passed, result.summary()
    assert (result.n_points, result.rows_filled) == (24210, 24240)
    assert elapsed < 2.0, f"sweep took {elapsed:.1f}s, budget 2s"
    _report(3, f"max normalized deviation {result.max_dev:.2e} <= {result.tol:.0e} "
               f"in {elapsed:.1f}s")


def test_criterion_4_signature_closed_forms():
    grid = np.geomspace(1e-3, 0.4, 40)
    max_dev = 0.0
    for n, f_nc in [
        (3, 0.0), (3, 1e-5), (3, 1e-2),
        (4, 0.0), (4, 1e-5), (4, 1e-2),
        (5, 1e-5), (8, 1e-2),
    ]:
        ring = ring_with(n, f_nc)
        for f in grid:
            f = float(f)
            h = max(1e-7, 1e-4 * f)
            if ring.parity == "even" and f <= ring.f_nc + 10.0 * h:
                continue  # wrapped branch: closed forms apply above f_nc only
            lam_fd, sig_fd = signature_by_finite_difference(ring, f, h=h)
            lam, sig = lambda_signature(ring, f), sigma_signature(ring, f)
            scale = n / f**2
            for fd, closed in ((lam_fd, lam), (sig_fd, sig)):
                dev = abs(fd - closed) / (abs(closed) if closed != 0.0 else scale)
                assert dev <= 1e-6, (
                    f"N={n}, f_nc={f_nc}, f={f}: fd {fd} vs closed {closed}"
                )
                max_dev = max(max_dev, dev)
            # parity sign and ordering checks
            if ring.parity == "odd" and ring.f_nc > 0.0:
                assert lam < 0.0 < sig
            if ring.parity == "even":
                assert lam < sig <= 0.0
    _report(4, f"finite differences reproduce closed forms, max rel dev {max_dev:.2e} <= 1e-6")


def test_criterion_5_figure_power_laws(tmp_path):
    # the figure is <stem>.svg drawn from the <stem>.csv table beside it;
    # its data is read back from that table
    start = time.perf_counter()
    f = np.geomspace(1e-3, 1e-1, 200)
    cases = [
        ("odd-lambda-1e4", ring_with(10001, 1.5828e-5), "lambda"),
        ("odd-lambda-1e5", ring_with(100001, 1.5828e-5), "lambda"),
        ("even-sigma-1e4", ring_with(10000, 1.5828e-5), "sigma"),
        ("even-sigma-1e5", ring_with(100000, 1.5828e-5), "sigma"),
    ]
    for label, ring, column in cases:
        stem = tmp_path / label
        svg = write_signatures(stem, f, lambda_signature(ring, f), sigma_signature(ring, f))
        assert svg == stem.with_suffix(".svg") and svg.exists()
        header, *rows = stem.with_suffix(".csv").read_text().splitlines()
        k = header.split(",").index(column)
        table = np.array([[float(v) for v in row.split(",")] for row in rows])
        x = np.log10(table[:, 0])
        y = np.log10(np.abs(table[:, k]))
        design = np.column_stack([np.ones_like(x), x])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        res = y - design @ coef
        r2 = 1.0 - float(res @ res) / float(np.sum((y - y.mean()) ** 2))
        assert abs(coef[1] + 2.0) <= 0.01, f"{label}: slope {coef[1]}"
        assert r2 > 0.9999, f"{label}: r^2 {r2}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    _report(5, f"log-log slope -2 +- 0.01 with r^2 > 0.9999 for all four rings in {elapsed:.1f}s")


def test_criterion_6_end_to_end_recovery():
    worst = 0.0
    for n in (3, 4, 101, 10000):
        for f_nc in (1e-5, 1e-3, 1e-2):
            ring = ring_with(n, f_nc)
            f_min = max(1e-3, ring.f_nc) if ring.parity == "even" else 1e-3
            trace = synthesize_trace(ring, f_min, 0.4, 512, noise_sigma=0.0)
            verdict = analyze_trace(trace).verdict
            expected_kind = (
                VerdictKind.ODD_NC_DETECTED
                if ring.parity == "odd"
                else VerdictKind.EVEN_NC_DETECTED
            )
            assert verdict.kind is expected_kind, (n, f_nc, verdict.kind)
            assert verdict.estimated_n == n, (n, f_nc, verdict.estimated_n)
            assert verdict.estimated_parity == ring.parity
            rel = abs(verdict.estimated_f_nc - ring.f_nc) / ring.f_nc
            assert rel < 5e-3, f"N={n}, f_nc={f_nc}: recovered {verdict.estimated_f_nc} ({rel:.2e})"
            worst = max(worst, rel)
    _report(6, f"N, parity exact and f_nc within {worst:.2e} (tol 5e-3) over 12 rings")


def test_criterion_7_false_positive_guard():
    detections = (VerdictKind.ODD_NC_DETECTED, VerdictKind.EVEN_NC_DETECTED)
    runs = 0
    for n in (3, 4):
        ring = ring_with(n, 0.0)
        for sigma_mult in (0.0, 0.01, 0.1):
            for seed in range(100):
                trace = synthesize_trace(
                    ring, 1e-3, 0.4, 128, noise_sigma=sigma_mult * n, seed=seed
                )
                kind = analyze_trace(trace).verdict.kind
                assert kind not in detections, (
                    f"false positive at N={n}, sigma={sigma_mult}*N, seed={seed}: {kind}"
                )
                runs += 1
    _report(7, f"no false positives over {runs} commutative runs at 3 noise levels")


def test_criterion_8_byte_identical_runs(tmp_path):
    def run(out: Path) -> dict[str, bytes]:
        rc = cli_main(
            ["simulate", "--n-electrons", "3", "--theta-tilde", "1.76e-61",
             "--seed", "42", "--noise-sigma", "0.001", "--out", str(out)]
        )
        assert rc == 0
        rc = cli_main(["analyze", str(out / "trace.csv"), "--out", str(out)])
        assert rc == 0
        return {
            str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*"))
            if p.is_file()
        }

    tree_a = run(tmp_path / "a")
    tree_b = run(tmp_path / "b")
    assert tree_a.keys() == tree_b.keys()
    for name in tree_a:
        assert tree_a[name] == tree_b[name], f"{name} differs between runs"
    _report(8, f"two seeded simulate+analyze runs produced {len(tree_a)} identical files")


def test_criterion_9_format_round_trips(tmp_path):
    # trace CSV: write -> read must be an identity on the float payload
    ring = ring_with(3, 1e-5)
    trace = synthesize_trace(ring, 1e-3, 0.4, 128, noise_sigma=0.01, seed=3)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    back = read_trace_csv(path)
    assert np.array_equal(back.f, trace.f)
    assert np.array_equal(back.j, trace.j)

    # configuration: parse -> serialize is idempotent
    config = RunConfig(n_electrons=101, theta_tilde=1.76e-61, noise_sigma=0.125, seed=9)
    text = serialize_config(config)
    assert parse_config(text) == config
    assert serialize_config(parse_config(text)) == text
    _report(9, "trace CSV and configuration round trips are exact")

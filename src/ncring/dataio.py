"""Bit-exact file formats: trace CSV, run configuration, result reports.

All writers are deterministic functions of their inputs: no timestamps, no
locale-dependent formatting, `.` as the decimal separator, LF endings.
Every data CSV (traces and the CLI's tables, among them the table each
plot is drawn from) is written by :func:`write_table`, the one row writer:
comma-joined shortest round-trip floats, converted and written one block of
`_BLOCK` rows at a time, so no whole column is held as a Python list (a
3-column table peaks at about 1 MB under tracemalloc at any number of
rows).  Human-facing reports use %.4e.  A trace's ring metadata lines are
its writer's `ring`; its reader keeps their `n_electrons` on the trace.
SI-to-reduced conversion happens here and nowhere else, and so do the
parsing and serializing of :class:`ncring.pipeline.RunConfig`'s file form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from ncring.constants import FLUX_QUANTUM
from ncring.errors import InvalidRange, ParseError, UnitMismatch
from ncring.model import RingSystem
from ncring.pipeline import MIN_TRACE_POINTS, AnalysisResult, CurrentTrace, RunConfig

__all__ = [
    "parse_config",
    "serialize_config",
    "read_config",
    "write_config",
    "read_trace_csv",
    "write_trace_csv",
    "write_results_report",
    "write_table",
]

_HEADER_REDUCED = "f,J"
_HEADER_SI = "phi_wb,J_A"

_RING_KEYS = ("n_electrons", "radius_m", "alpha", "theta_tilde", "mass_kg")  # RunConfig names
_FILE_RING_KEYS = set(_RING_KEYS[:4])  # the keys a file's ring needs; mass_kg has a default
_META_KEYS = ("source", "seed", "noise_sigma", *_RING_KEYS)  # the keys the reader interprets

_CONFIG_TYPES = get_type_hints(RunConfig)  # field name -> int, float or str
_BLOCK = 4096  # rows that write_table converts to Python objects at a time


def parse_config(text: str) -> RunConfig:
    """Parse `key = value` lines; `#` starts a comment, blank lines ignored."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", line=lineno)
        key, _, token = (part.strip() for part in line.partition("="))
        if key not in _CONFIG_TYPES:
            raise ParseError(f"unknown configuration key {key!r}", line=lineno)
        if key in values:
            raise ParseError(f"duplicate configuration key {key!r}", line=lineno)
        try:
            values[key] = _CONFIG_TYPES[key](token)
        except ValueError as exc:
            raise ParseError(f"bad value for {key!r}: {exc}", line=lineno) from None
    try:
        return RunConfig(**values)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def serialize_config(config: RunConfig) -> str:
    """Canonical text form: declaration order, shortest-repr floats, LF endings."""
    lines = []
    for f in fields(RunConfig):
        lines.append(f"{f.name} = {getattr(config, f.name)}")
    return "\n".join(lines) + "\n"


def _not_utf8(path: str | Path) -> ParseError:
    """The ParseError naming the first line of `path` that is not UTF-8, found in its bytes."""
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", line=lineno)
    return ParseError("not UTF-8 text")  # the file changed since it was read


def read_config(path: str | Path) -> RunConfig:
    """Parse a UTF-8 configuration file with :func:`parse_config`."""
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:  # parse_config raises only ParseError
        raise _not_utf8(path) from None


def write_config(config: RunConfig, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(serialize_config(config))


def _meta_lines(trace: CurrentTrace, ring: RingSystem | None) -> list[str]:
    lines = [f"# source: {trace.source}"]
    if trace.seed is not None:
        lines.append(f"# seed: {trace.seed}")
    lines.append(f"# noise_sigma: {trace.noise_sigma!r}")
    if ring is not None:
        values = (int(ring.n_electrons), ring.radius, ring.alpha, ring.theta_tilde, ring.mass)
        lines += [f"# {key}: {value!r}" for key, value in zip(_RING_KEYS, values)]
    return lines


def write_table(path: str | Path, header: str, columns, comments=()) -> None:
    """Write `comments` lines, then `header`, then one row per index of `columns`.

    This is the one row writer for every data CSV.  `columns` are 1-D numpy
    arrays of one length; before the file is opened, InvalidRange names each
    column's shape or type when one is not, and the lengths when there are
    none or they differ.  A row is its values `%s`-joined by commas; each
    block of `_BLOCK` rows of a column goes through `.tolist()` first, so
    each float is written as a Python float, whose str is its shortest
    round-trip repr (numpy 2's repr of its scalars is `np.float64(...)`).
    """
    if not all(isinstance(c, np.ndarray) and c.ndim == 1 for c in columns):
        got = [c.shape if isinstance(c, np.ndarray) else type(c).__name__ for c in columns]
        raise InvalidRange(f"write_table needs 1-D numpy array columns, got {got}")
    lengths = [len(c) for c in columns]
    if len(set(lengths)) != 1:
        raise InvalidRange(f"write_table needs columns of one length, got lengths {lengths}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = ",".join(["%s"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write("".join(line + "\n" for line in (*comments, header)))
        for i in range(0, lengths[0], _BLOCK):  # bounded memory, few writes
            fh.write("".join(map(row.__mod__, zip(*(c[i:i + _BLOCK].tolist() for c in columns)))))


def write_trace_csv(
    trace: CurrentTrace,
    path: str | Path,
    units: str = "reduced",
    ring: RingSystem | None = None,
) -> None:
    """Write a trace as CSV with `# key: value` metadata comments.

    Reduced units use the `f,J` header; SI output (`phi_wb,J_A`) scales the
    flux by the flux quantum and needs a ring to supply the current scale.
    The ring metadata lines are `ring`'s, and there are none without one.
    """
    if units == "reduced":
        header, f, j = _HEADER_REDUCED, trace.f, trace.j
    elif units == "si":
        if ring is None:
            raise UnitMismatch("SI output needs a ring to fix the current scale")
        header, f, j = _HEADER_SI, trace.f * FLUX_QUANTUM, trace.j * ring.j0
    else:
        raise InvalidRange(f"units must be 'reduced' or 'si', got {units!r}")
    write_table(path, header, (f, j), comments=_meta_lines(trace, ring))


def _stated(meta: dict[str, str], keys) -> dict[str, float | int]:
    """The values of `keys` the metadata states, each parsed and checked on its own.

    A stated value that does not parse, or that :class:`RunConfig` (and so
    the ring) would reject, is a ParseError naming the key.
    """
    stated: dict[str, float | int] = {}
    for key in keys:
        if key in meta:
            try:
                stated[key] = _CONFIG_TYPES[key](meta[key])
                RunConfig(**{key: stated[key]})  # its own and the ring's checks
            except ValueError as exc:
                raise ParseError(f"trace metadata {key}: {exc}") from None
    return stated


def _row(line: str, lineno: int) -> tuple[float, float]:
    """The (f, J) of one stripped data row; ParseError naming `lineno` if malformed."""
    parts = line.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected two comma-separated fields, got {line!r}", line=lineno)
    try:
        f_val, j_val = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"bad float in {line!r}", line=lineno) from None
    if not (math.isfinite(f_val) and math.isfinite(j_val)):
        raise ParseError(f"non-finite value in {line!r}", line=lineno)
    return f_val, j_val


def _bulk_rows(fh) -> np.ndarray | None:
    """The rest of `fh` as an (n, 2) array of finite floats, parsed in one call.

    None when numpy refuses the rows, finds none, or finds a non-finite
    value: the caller then reads the file row by row, which accepts what
    only numpy refuses (a `#` comment or a whitespace-only line between
    rows, `1_0`, non-ASCII digits) and names the line of any error.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            xy = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
        except (ValueError, UserWarning):
            return None
    if xy.shape[1] != 2 or not np.isfinite(xy).all():
        return None
    return xy


def _scan(fh, bulk: bool) -> tuple[dict[str, str], str | None, np.ndarray | None]:
    """The metadata comments, the header and the (n, 2) data rows of a trace CSV.

    Comments and the header are read line by line.  With `bulk`, the rows
    after the header go to :func:`_bulk_rows`, and the data is None when it
    gives up; otherwise each row goes through :func:`_row`.
    """
    meta: dict[str, str] = {}
    header: str | None = None
    rows: list[tuple[float, float]] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if ":" in body:
                key, _, value = (part.strip() for part in body.partition(":"))
                if key in meta and key in _META_KEYS:
                    raise ParseError(f"repeated trace metadata key {key!r}", line=lineno)
                meta[key] = value
            continue
        if header is None:
            header = line
            if header not in (_HEADER_REDUCED, _HEADER_SI):
                raise ParseError(
                    f"unrecognized header {line!r}; expected "
                    f"{_HEADER_REDUCED!r} or {_HEADER_SI!r}",
                    line=lineno,
                )
            if bulk:
                return meta, header, _bulk_rows(fh)
            continue
        rows.append(_row(line, lineno))
    return meta, header, np.array(rows, dtype=float).reshape(-1, 2)


def read_trace_csv(
    path: str | Path,
    ring: RingSystem | None = None,
) -> CurrentTrace:
    """Parse a UTF-8 trace CSV written by :func:`write_trace_csv` (or compatible).

    Accepts the reduced header `f,J` or the SI header `phi_wb,J_A`; SI data
    is converted on load by the flux quantum and by the current scale of
    `ring`, or of the ring in the file's own metadata comments when no ring
    is passed.  The data rows are parsed in one numpy call; when that call
    refuses them, the file is read again row by row, which gives the same
    values and the errors below with the line they occur on.  Raises
    ParseError with a line number for bytes that are not UTF-8, for
    malformed or non-finite content or for a repeated source, seed,
    noise_sigma or ring key, and naming the key for a ring, seed or
    noise_sigma value in the metadata that does not parse or is invalid;
    UnitMismatch when SI data has no usable scale, when the two rings give
    different scales, or when the file states a radius or alpha that
    differs from `ring`'s.  CurrentTrace checks the flux: NonMonotonicFlux
    when unsorted, InvalidRange when not positive.  The trace keeps the
    file's source (else "ingested"), seed, noise_sigma and n_electrons.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            meta, header, xy = _scan(fh, bulk=True)
        if xy is None:  # the row loop finds the offending line and names it
            with open(path, "r", encoding="utf-8", newline="") as fh:
                meta, header, xy = _scan(fh, bulk=False)
    except UnicodeDecodeError:
        raise _not_utf8(path) from None
    if header is None:
        raise ParseError("no header line found (empty file?)")
    if len(xy) < MIN_TRACE_POINTS:
        raise ParseError(f"trace needs at least {MIN_TRACE_POINTS} data rows, found {len(xy)}")

    f, j = xy[:, 0], xy[:, 1]
    stated = _stated(meta, _RING_KEYS)
    file_ring = RunConfig(**stated).ring() if stated.keys() >= _FILE_RING_KEYS else None
    if header == _HEADER_SI:
        scale_ring = ring if ring is not None else file_ring
        if scale_ring is None:
            raise UnitMismatch(
                "SI trace has no current scale: pass a ring or include ring metadata"
            )
        if file_ring is not None and not math.isclose(file_ring.j0, scale_ring.j0, rel_tol=1e-9):
            raise UnitMismatch(
                f"SI trace metadata gives current scale j0 = {file_ring.j0!r} A, "
                f"but the configured ring gives j0 = {scale_ring.j0!r} A"
            )
        f = f / FLUX_QUANTUM
        j = j / scale_ring.j0
    if ring is not None:
        # radius and alpha turn the fitted f_nc into theta_tilde
        for key, given in (("radius_m", ring.radius), ("alpha", ring.alpha)):
            if key in stated and not math.isclose(stated[key], given, rel_tol=1e-9):
                raise UnitMismatch(
                    f"trace metadata gives {key} = {stated[key]!r}, "
                    f"but the configured ring has {key} = {given!r}"
                )

    noise = _stated(meta, ("seed", "noise_sigma"))
    return CurrentTrace(f=f, j=j, source=meta.get("source", "ingested"), seed=noise.get("seed"),
                        noise_sigma=noise.get("noise_sigma", 0.0),
                        n_electrons=stated.get("n_electrons"))


def _fmt_report_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return f"{value:.4e}"
    return str(value)


def write_results_report(result: AnalysisResult, config: RunConfig, path: str | Path) -> None:
    """Write the analysis outcome as deterministic key-sorted `key: value` text."""
    verdict = result.verdict
    entries: dict[str, object] = {
        "verdict": verdict.kind.value,
        "estimated_n": verdict.estimated_n,
        "estimated_parity": verdict.estimated_parity,
        "f_nc_hat": verdict.estimated_f_nc,
        "theta_tilde_hat": verdict.estimated_theta_tilde,
        "thresholds_exponent_tol": config.exponent_tol,
        "thresholds_amplitude_floor_mult": config.amplitude_floor_mult,
        "fit_window_lo": config.fit_f_lo,
        "fit_window_hi": config.fit_f_hi,
        "trace_noise_rms": result.trace_noise_rms,
        "residual_floor": result.residual_floor,
    }
    for name, fit in (("lambda", verdict.lambda_fit), ("sigma", verdict.sigma_fit)):
        for key in ("amplitude", "exponent", "r_squared"):
            entries[f"{name}_{key}"] = None if fit is None else getattr(fit, key)
        entries[f"{name}_points_used"] = 0 if fit is None else fit.n_points_used
    for i, note in enumerate(verdict.diagnostics, start=1):
        entries[f"diagnostic_{i:02d}"] = note

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for key in sorted(entries):
            fh.write(f"{key}: {_fmt_report_value(entries[key])}\n")

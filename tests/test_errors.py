"""The error contract: every check in the package raises a typed NcRingError."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

import ncring
from ncring.errors import InvalidRange
from ncring.model import RingSystem
from ncring.oracle import zone_flux_grid
from ncring.pipeline import (
    CurrentTrace,
    PowerLawFit,
    RunConfig,
    VerdictKind,
    differentiate_trace,
    estimate_theta_tilde,
    synthesize_trace,
)

BUILTIN_EXCEPTIONS = {
    name for name, obj in vars(builtins).items()
    if isinstance(obj, type) and issubclass(obj, BaseException)
}


def builtin_raises(source: str) -> list[str]:
    """`raise X` / `raise X(...)` statements in `source` whose X is a builtin exception."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_EXCEPTIONS:
                found.append((node.lineno, exc.id))
    return [f"line {lineno}: raise {name}" for lineno, name in sorted(found)]


def test_finder_sees_builtin_raises():
    source = "def f(x):\n    if x:\n        raise ValueError('x')\n    raise KeyError\n"
    assert builtin_raises(source) == ["line 3: raise ValueError", "line 4: raise KeyError"]
    assert builtin_raises("try:\n    pass\nexcept ValueError as exc:\n    raise\n") == []


def test_package_raises_no_builtin_exception():
    src = Path(ncring.__file__).resolve().parent
    found = {
        path.name: hits
        for path in sorted(src.glob("*.py"))
        if (hits := builtin_raises(path.read_text()))
    }
    assert found == {}


RING = RingSystem.from_f_nc(n_electrons=3, f_nc=1e-3)


@pytest.mark.parametrize(
    "name, call",
    # operator.index(True) is 1, so each bool was once taken for the integer 1
    [("seed", lambda: RunConfig(seed=True)),
     ("seed", lambda: synthesize_trace(RING, 1e-3, 0.4, 64, noise_sigma=0.1, seed=True)),
     ("smoothing_window", lambda: RunConfig(smoothing_window=True)),
     ("smoothing_window", lambda: differentiate_trace(
         synthesize_trace(RING, 1e-3, 0.4, 64), 3, smoothing_window=True)),
     ("n_points", lambda: RunConfig(n_points=True)),
     ("n_electrons", lambda: RunConfig(n_electrons=True)),
     ("n_electrons", lambda: RingSystem(radius=1e-6, n_electrons=True)),
     ("n_flux", lambda: zone_flux_grid(True))],
)
def test_bool_is_not_an_integer(name, call):
    with pytest.raises(InvalidRange, match=f"^{name} must be an integer, got True$"):
        call()


FIT = PowerLawFit(amplitude=-1e-3, exponent=-2.0, r_squared=1.0, n_points_used=50,
                  residual_floor=0.0)


@pytest.mark.parametrize(
    "call, message",
    # numpy's untyped ValueError, and a ZeroDivisionError, before each was checked by name
    [(lambda: CurrentTrace(["a"] * 8, np.ones(8)),
      "^f must hold real numbers: could not convert string to float: 'a'$"),
     (lambda: CurrentTrace(np.geomspace(1e-3, 0.4, 8), [[1.0], [2.0, 3.0]] * 4),
      "^j must hold real numbers: "),
     (lambda: estimate_theta_tilde(VerdictKind.ODD_NC_DETECTED, FIT, FIT, 0, radius=1e-6,
                                   alpha=1.0),
      "^n_electrons must be a positive integer, got 0$")],
    ids=["text_flux", "ragged_current", "zero_electrons"],
)
def test_public_entry_points_refuse_by_name(call, message):
    with pytest.raises(InvalidRange, match=message):
        call()

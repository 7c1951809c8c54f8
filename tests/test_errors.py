"""The error contract: every check in the package raises a typed NcRingError."""

import ast
import builtins
from pathlib import Path

import ncring

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

"""The error contract: the package raises only its own error classes, so the
CLI's one error line covers every failure it means to raise, and each of
those classes is raised somewhere."""

import ast
import pathlib

import acsp
from acsp import errors

SRC = pathlib.Path(acsp.__file__).parent
# the entry points may end the process; the CLI's argument types report
# through argparse, whose `error` the parser turns into BadParams
ALLOWED = {"cli.py": {"SystemExit", "argparse.ArgumentTypeError"},
           "__main__.py": {"SystemExit"}}


def _raised_names(path):
    """(line, dotted name) of each raise in `path`; a bare re-raise names ''."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, ast.unparse(exc) if exc is not None else ""


def test_every_raise_names_a_package_error_and_every_error_is_raised():
    own = {name for name, obj in vars(errors).items()
           if isinstance(obj, type) and issubclass(obj, errors.AcspError)
           and obj is not errors.AcspError}
    foreign, raised = [], set()
    for path in sorted(SRC.glob("*.py")):
        for line, name in _raised_names(path):
            raised.add(name)
            if name not in own and name not in ALLOWED.get(path.name, ()):
                foreign.append(f"{path.name}:{line} raises {name or 'a bare re-raise'}")
    assert foreign == []
    assert sorted(own - raised) == []

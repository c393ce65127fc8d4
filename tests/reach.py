"""Pytest plugin: fail the session if a statement of ``src/pnpuct`` never ran.

Load it with ``-p reach`` (``tests`` on ``PYTHONPATH``)::

    PYTHONPATH=src:tests python -m pytest -q -p reach --hypothesis-seed 0

Every line that runs in a file of the package is recorded through
``sys.settrace`` and ``threading.settrace``. At the end of the session
the recorded lines are compared with every statement inside a function
body, found with ``ast``: docstrings, the ``def`` and ``class`` lines of
nested definitions and ``global`` and ``nonlocal`` declarations are left
out, as they run no code of their own. Each statement that never ran is
printed as ``file:line``, and the session fails if there is one.
"""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

import pnpuct

ROOT = Path(pnpuct.__file__).resolve().parent
_PREFIX = str(ROOT) + os.sep
_ran = set()
_missed = pytest.StashKey()


def _local(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    return _local if frame.f_code.co_filename.startswith(_PREFIX) else None


def _skipped(node):
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef, ast.Global, ast.Nonlocal))
            or isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant))


def statements(path):
    """Line numbers of the statements inside the function bodies of ``path``."""
    lines = set()
    for func in ast.walk(ast.parse(Path(path).read_text(encoding="utf-8"))):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for top in func.body:
                lines.update(node.lineno for node in ast.walk(top)
                             if isinstance(node, ast.stmt)
                             and not _skipped(node))
    return lines


def unreached():
    """``file:line`` of each statement of the package that never ran."""
    return [f"{path.relative_to(ROOT.parent.parent)}:{line}"
            for path in sorted(ROOT.glob("*.py"))
            for line in sorted(statements(path)
                               - {n for f, n in _ran if f == str(path)})]


def pytest_configure(config):
    sys.settrace(_global)
    threading.settrace(_global)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    threading.settrace(None)
    session.config.stash[_missed] = missed = unreached()
    if missed and session.exitstatus == 0:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    missed = config.stash.get(_missed, [])
    terminalreporter.write_sep(
        "-", f"reach: {len(missed)} statement(s) of src/pnpuct never ran")
    for entry in missed:
        terminalreporter.write_line(entry)

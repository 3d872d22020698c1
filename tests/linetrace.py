"""Statement gate for tier-1: ``PYTHONPATH=src:tests python -m pytest -q -p linetrace``.

Traces the lines run in ``src/stabrec`` with ``sys.settrace`` and maps them onto
the AST statements of each file; a statement has run when any line of its span
ran (for a compound statement, the lines of its header).  The session fails
when the unrun statements differ from ``tests/unreached.txt``, whose entries
read ``file::function::first line of the statement``, with ``function#n`` for
the n-th repeat of the same text, so that they survive edits elsewhere.
"""
import ast
import os
import pathlib
import sys
import threading

from hypothesis import settings

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "stabrec"
LISTED = pathlib.Path(__file__).with_name("unreached.txt")
hits = {}  # co_filename -> its file's set in `runs`, or None outside src/stabrec
runs = {}  # file name in src/stabrec -> set of lines run
diff = []  # the difference the last session found, for the summary


def _call(frame, event, arg):
    path = frame.f_code.co_filename
    if path not in hits:
        real = pathlib.Path(os.path.realpath(path))
        hits[path] = runs.setdefault(real.name, set()) if real.parent == SRC else None
    lines = hits[path]
    if lines is None:
        return None

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line
    return line


sys.settrace(_call)
threading.settrace(_call)
# examples drawn afresh each run would change which statements run
settings.register_profile("linetrace", derandomize=True, database=None)
settings.load_profile("linetrace")


def statements(path):
    """Yield (key, lines) for every statement of `path` but docstrings."""
    text = path.read_text()
    lines, seen = text.splitlines(), {}

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.stmt) and not (isinstance(child, ast.Expr)
                                                     and isinstance(child.value, ast.Constant)
                                                     and isinstance(child.value.value, str)):
                first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                body = getattr(child, "body", None)
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                key = (scope, lines[child.lineno - 1].strip())
                seen[key] = seen.get(key, 0) + 1
                n = f"#{seen[key]}" if seen[key] > 1 else ""
                yield f"{path.name}::{scope}{n}::{key[1]}", range(first, last + 1)
            yield from walk(child, inner)
    yield from walk(ast.parse(text), "<module>")


def unrun():
    return {key for path in sorted(SRC.glob("*.py")) for key, span in statements(path)
            if not runs.get(path.name, set()).intersection(span)}


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    listed = {ln for ln in LISTED.read_text().splitlines() if ln.strip() and not ln.startswith("#")}
    now = unrun()
    diff[:] = sorted(f"+ {k}" for k in now - listed) + sorted(f"- {k}" for k in listed - now)
    if diff:
        session.exitstatus = 1


def pytest_terminal_summary(terminalreporter, config):
    if diff:
        terminalreporter.write_line("linetrace: unrun statements differ from tests/unreached.txt "
                                    "(+ newly unrun, - now run):", red=True)
        for entry in diff:
            terminalreporter.write_line(entry)

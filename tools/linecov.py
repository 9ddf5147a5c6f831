"""Line coverage of src/sdpmix from the standard library alone.

    python tools/linecov.py pytest|sdpmix [arguments ...]

Runs pytest or the sdpmix CLI in this process under sys.settrace and
threading.settrace, then prints each statement of src/sdpmix that never ran,
docstrings excluded, and exits with the command's status. A compound
statement (def, if, for, ...) has run when its header or body has.
"""

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sdpmix"


def statements(path: Path):
    """(first line, last line) of every statement but a docstring or a
    global/nonlocal declaration (no code); a decorator is its first line."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        doc = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
        if isinstance(node, ast.stmt) and not doc and not isinstance(node, (ast.Global, ast.Nonlocal)):
            yield min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])]), node.end_lineno


def main(argv) -> int:
    if not argv or argv[0] not in ("pytest", "sdpmix"):
        sys.exit(__doc__)
    sys.path.insert(0, str(ROOT / "src"))
    ran = set()  # (file name, line)
    def trace(frame, event, arg):  # any event of a frame in the package marks its line
        if frame.f_code.co_filename.startswith(str(PACKAGE)):
            ran.add((frame.f_code.co_filename, frame.f_lineno))
            return trace

    sys.settrace(trace)
    threading.settrace(trace)
    if argv[0] == "pytest":
        status = pytest.main(["-p", "no:cacheprovider", *argv[1:]])
    else:
        from sdpmix.cli import main as sdpmix  # imported under the tracer, so that its module lines count
        status = sdpmix(argv[1:])
    sys.settrace(None)
    threading.settrace(None)
    missed = [(path, start) for path in sorted(PACKAGE.glob("*.py")) for start, end in sorted(set(statements(path)))
              if not any((str(path), line) in ran for line in range(start, end + 1))]
    for path, start in missed:
        print(f"{path.relative_to(ROOT)}:{start}: {path.read_text().splitlines()[start - 1].strip()}")
    print(f"{len(missed)} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""tools/linecov.py: the statements of src/sdpmix that a pytest run never ran."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_linecov_counts_statements_not_docstrings(tmp_path):
    spec = importlib.util.spec_from_file_location("linecov", ROOT / "tools" / "linecov.py")
    linecov = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(linecov)
    source = tmp_path / "m.py"
    source.write_text('"""doc"""\n\n@staticmethod\n@property\ndef f():\n    """doc"""\n    x = "text"\n'
                      '    def g():\n        nonlocal x\n        return x\n')
    assert sorted(linecov.statements(source)) == [(3, 10), (7, 7), (8, 10), (10, 10)]


def test_linecov_lists_the_statements_test_precision_never_runs():
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "linecov.py"), "pytest", "-q", "tests/test_precision.py"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr
    missed = re.findall(r"^(src/sdpmix/\w+\.py):(\d+): (.*)$", done.stdout, flags=re.M)
    assert done.stdout.splitlines()[-1] == f"{len(missed)} statements never ran" and missed
    for path, line, source in missed:
        assert (ROOT / path).read_text().splitlines()[int(line) - 1].strip() == source
    # its own tests run every statement of precision.py, the stage-2 time budget included
    assert not [m for m in missed if m[0] == "src/sdpmix/precision.py"]

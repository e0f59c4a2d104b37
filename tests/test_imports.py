import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_import_modules(package):
    """Names of the loaded modules whose top-level package is ``package``, after ``import specgap``."""
    # A fresh interpreter: this test session has imported scipy already.
    code = (
        "import sys, specgap; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.strip()


def test_import_needs_no_scipy():
    assert fresh_import_modules("scipy") == "[]"


def test_import_loads_no_thread_pool():
    # Collection runs in the calling thread; the pool machinery costs import time.
    assert fresh_import_modules("concurrent") == "[]"


def test_import_loads_no_multiprocessing():
    # The fork pool is imported when a collection first uses it: about 16 ms.
    assert fresh_import_modules("multiprocessing") == "[]"

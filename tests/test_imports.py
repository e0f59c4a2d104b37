import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(code):
    """What ``code`` prints in a fresh interpreter: this test session has imported scipy already."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return result.stdout.strip()


def fresh_import_modules(package):
    """Names of the loaded modules whose top-level package is ``package``, after ``import specgap``."""
    return run_fresh(
        "import sys, specgap; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )


def test_import_needs_no_scipy():
    assert fresh_import_modules("scipy") == "[]"


def test_import_loads_no_thread_pool():
    # Collection runs in the calling thread; the pool machinery costs import time.
    assert fresh_import_modules("concurrent") == "[]"


def test_import_loads_no_multiprocessing():
    # multiprocessing is imported when a collection first forks children for its blocks.
    assert fresh_import_modules("multiprocessing") == "[]"


POOLED_COLLECTION = """
import sys, threading
started = []
start = threading.Thread.start
def spy(thread):
    started.append(thread.name)
    start(thread)
threading.Thread.start = spy
import specgap
cfg = specgap.UcpiConfig(20, 3000, 5, 0.1)  # 3 blocks over 2 children
chain = specgap.BiasedLineChain(20, 0.7)
specgap.rtf_collect(specgap.RtfEngine(chain, specgap.UniformSampler(20), cfg, 5, worker_count=2))
print(started, "multiprocessing.pool" in sys.modules)
"""


def test_pooled_collection_starts_no_thread_and_no_pool():
    # One forked child and one pipe per run of blocks: no handler threads in the parent.
    assert run_fresh(POOLED_COLLECTION) == "[] False"


SCALAR_COLLECTION = """
import sys, specgap
class ScalarOnly:
    def __init__(self, inner):
        self.inner = inner
    def state_space_size(self):
        return self.inner.state_space_size()
    def next_state(self, x, rng):
        return self.inner.next_state(x, rng)
cfg = specgap.UcpiConfig(20, 3000, 5, 0.1)  # 3 blocks
oracle = ScalarOnly(specgap.BiasedLineChain(20, 0.7))
specgap.rtf_collect(specgap.RtfEngine(oracle, specgap.UniformSampler(20), cfg, 5, worker_count=2))
print("multiprocessing" in sys.modules)
"""


def test_scalar_collection_never_imports_multiprocessing():
    # A scalar-only oracle gets one worker whatever worker_count asks for.
    assert run_fresh(SCALAR_COLLECTION) == "False"

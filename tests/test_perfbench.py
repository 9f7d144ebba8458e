import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_perfbench_selftest_passes():
    # the benchmark wraps model methods and reads trainer state by name, so a
    # rename or move in src/ shows here before a benchmark run breaks on it
    run = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                         capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr

import csv
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run_script(name, out, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name),
                          "--out", str(out), *args],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    with open(out) as fh:
        return list(csv.reader(fh))


def test_estimator_variance_script_writes_one_row_per_estimator_and_size(tmp_path):
    table = _run_script("run_estimator_variance.py", tmp_path / "variance.csv",
                        "--seeds", "2", "--reps", "3", "--S-list", "5")
    assert table[0] == ["estimator", "S", "K", "beta1", "iteration", "avg_std"]
    assert [row[:5] for row in table[1:]] == [[kind, "5", "", "", "0"] for kind in
                                             ("reparam", "cov", "reinforce-baseline", "reinforce")]
    assert all(float(row[5]) > 0 for row in table[1:])


def test_crn_study_script_writes_one_row_per_trial(tmp_path):
    table = _run_script("run_crn_study.py", tmp_path / "crn.csv",
                        "--trials", "2", "--pretrain-iters", "20")
    assert table[0] == ["trial", "std_with_crn", "std_without_crn", "ratio"]
    assert [row[0] for row in table[1:]] == ["0", "1"]
    for _, with_crn, without, ratio in table[1:]:
        assert float(with_crn) > 0 and float(without) > 0
        assert float(ratio) == pytest.approx(float(without) / float(with_crn), rel=1e-12)

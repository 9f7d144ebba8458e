import hashlib
import json
import os
import subprocess
import sys

import numpy as np

from tvo.estimators import BLOCK

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def fingerprint(config, dump):
    """(digest of `config` as printed, its dumped arrays), run as a script."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "fingerprint.py"),
                          "--config", config, "--dump", str(dump)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert list(result) == [config]
    arrays = np.load(dump / f"{config}.npz")
    h = hashlib.sha256()
    for name in arrays.files:
        h.update(np.ascontiguousarray(arrays[name]).tobytes())
    assert h.hexdigest() == result[config]["sha256"]
    assert len(arrays.files) == result[config]["arrays"]
    return result[config], arrays


def test_fingerprint_of_the_desk_config_matches_its_dump(tmp_path):
    result, dump = fingerprint("desk", tmp_path)
    assert result["arrays"] == 3 * 5 + 5
    assert dump.files[-2:] == ["table.zs", "table.log_w"]


def test_fingerprint_of_the_estimators_config_matches_its_dump(tmp_path):
    _, dump = fingerprint("estimators", tmp_path)
    cases = ("toy", "gaussian", "sbn3", "vae")
    assert {name.split(".")[0] for name in dump.files} \
        == {*cases, "tvo_eval", *(f"network{i}" for i in range(50))}
    assert [name for name in dump.files if name.startswith("tvo_eval.")] \
        == [f"tvo_eval.{kind}" for kind in ("elbo", "eubo", "iwae", "tvo_lower", "tvo_upper")]
    for case in cases:
        assert {f"{case}.{kind}.crn0.grad" for kind in ("elbo", "eubo", "tvo_lower", "tvo_upper")} \
            < set(dump.files)
        assert dump[f"{case}.table.multi_block.log_w"].size > BLOCK  # several item blocks
    assert {f"{case}.reparam.iwae.grad" for case in cases} & set(dump.files) \
        == {"gaussian.reparam.iwae.grad", "vae.reparam.iwae.grad"}


def test_compare_reports_perturbed_arrays_and_fails_on_other_shapes(tmp_path):
    fingerprint("desk", tmp_path / "a")
    arrays = dict(np.load(tmp_path / "a" / "desk.npz"))

    def compare(b):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "fingerprint.py"),
                               "--compare", str(tmp_path / "a"), str(b)],
                              capture_output=True, text=True, env=env, timeout=60)

    same = compare(tmp_path / "a")
    assert (same.returncode, same.stdout) == (0, f"0 of {len(arrays)} arrays differ in value\n")
    (tmp_path / "b").mkdir()
    arrays["step0.value"] = arrays["step0.value"] * 2.0  # a 0-d array
    arrays["step1.grad"] = arrays["step1.grad"] * (1.0 + 1e-3)
    np.savez(tmp_path / "b" / "desk.npz", **arrays)
    perturbed = compare(tmp_path / "b")
    assert perturbed.returncode == 0
    scalar, vector, summary = perturbed.stdout.splitlines()
    assert scalar == "desk.step0.value: largest relative difference 0.5"
    assert vector.startswith("desk.step1.grad: largest relative difference ")
    assert abs(float(vector.split()[-1]) - 1e-3 / (1.0 + 1e-3)) < 1e-12
    assert summary == f"2 of {len(arrays)} arrays differ in value"
    arrays["step1.grad"] = arrays["step1.grad"][:-1]
    np.savez(tmp_path / "b" / "desk.npz", **arrays)
    assert compare(tmp_path / "b").returncode == 1
    del arrays["step1.grad"]
    np.savez(tmp_path / "b" / "desk.npz", **arrays)
    assert compare(tmp_path / "b").returncode == 1

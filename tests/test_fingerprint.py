import hashlib
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_fingerprint_of_the_desk_config_matches_its_dump(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "fingerprint.py"),
                          "--config", "desk", "--dump", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert list(result) == ["desk"] and result["desk"]["arrays"] == 3 * 5 + 5
    dump = np.load(tmp_path / "desk.npz")
    assert dump.files[-2:] == ["table.zs", "table.log_w"]
    h = hashlib.sha256()
    for name in dump.files:
        h.update(np.ascontiguousarray(dump[name]).tobytes())
    assert h.hexdigest() == result["desk"]["sha256"]

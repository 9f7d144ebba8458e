import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_step_memory_probe_runs_three_desk_steps():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "step_memory.py"),
                          "--config", "desk", "--batch", "8", "--steps", "3"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    rows = [line.split() for line in lines if not line.startswith(("#", "{"))]
    assert [(r[0], r[1]) for r in rows] == [("step", "1"), ("step", "2"), ("step", "3"),
                                            ("evaluate", "3"), ("curve", "3")]
    for _, _, ms, cpu_ms, rss, faults in rows:
        assert float(ms) > 0 and float(cpu_ms) >= 0 and float(rss) > 0 and int(faults) >= 0
    summary = json.loads(lines[-1])
    assert summary["config"] == "desk" and summary["batch"] == 8 and summary["steps"] == 3
    assert summary["lanes"] in (1, 2)
    for name in ("step", "evaluate", "curve"):
        assert summary[f"{name}_cpu_ms_p50"] >= 0 and summary[f"{name}_ms_p50"] > 0
    assert summary["rss_mb_max"] > 0 and summary["maxrss_mb"] > 0
    assert summary["synth_ms"] > 0 and summary["synth_peak_mb"] > 0

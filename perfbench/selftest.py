"""Smoke test of the benchmark itself, at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Runs every workload shrunk to a few steps, untraced once and traced with two
seeds, and checks that
  - BENCHMARK.json is well formed, and every metric it declares is emitted
    with its declared unit, a direction, and a finite value;
  - every output check passes;
  - every tvo namespace is unchanged after a traced run (no wrapper left);
  - the count metrics repeat exactly from one seed to the next.
Exits 1 and lists the problems when any check fails.
"""
import json
import math
import os
import re
import sys
from dataclasses import replace

import run

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SMALL = dict(n_train=48, n_test=8, eval_items=8, eval_S=20, curve_items=4,
             steps_per_round=3, min_rounds=2, grid=11)
TINY = {
    "desk-sbn": SMALL,
    "full-sbn": dict(SMALL, d_x=48, d_z=8, generator={"d_z": 8}),
    "vae-iwae": dict(SMALL, d_x=48, d_z=4, generator={"d_z": 8}),
    "score-sbn": dict(n_test=8, eval_S=50, min_iters=3, grid=11),
}


def is_count(name):
    return (name.endswith(".calls") or name.startswith("autodiff.nodes.")
            or name in ("autodiff.tape_nodes", "autodiff.tape_mb"))


def check_declaration(bench):
    problems = []
    if set(bench) != {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}:
        problems.append(f"BENCHMARK.json keys: {sorted(bench)}")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    problems += [f"bad or repeated name {n!r}" for n in names
                 if not NAME_RE.match(n) or names.count(n) > 1]
    for m in bench["end_to_end"] + bench["per_layer"]:
        if not UNIT_RE.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            problems.append(f"{m['name']}: unit {m['unit']!r}, better {m['better']!r}")
    for m in bench["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            problems.append(f"{m['name']}: end-to-end entry {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in bench["end_to_end"]):
        problems.append("no setup_s metric in seconds, lower is better")
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            problems.append(f"workload entry {w}")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(run.WORKLOAD_NAMES):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOAD_NAMES")
    return problems


def check_emitted(label, declared, metrics):
    problems = []
    for m in declared:
        if m["name"] not in metrics:
            problems.append(f"{label}: {m['name']} not emitted")
            continue
        value, unit = metrics[m["name"]]
        if unit != m["unit"]:
            problems.append(f"{label}: {m['name']} emitted in {unit}, declared {m['unit']}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{label}: {m['name']} = {value!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{label}: undeclared metrics {sorted(extra)}")
    return problems


def main():
    run.pin_threads()
    run.import_tvo()
    import workloads as wl
    from tracer import namespace_snapshot

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    problems = check_declaration(bench)
    before = namespace_snapshot()
    for name, w in wl.WORKLOADS.items():
        tiny = replace(w, **TINY[name])
        checks, metrics, _ = run.measure(tiny, 1, 0.0, trace=0)
        problems += [f"{name}: {msg}" for msg in checks.messages]
        problems += check_emitted(f"{name} trace 0", bench["end_to_end"], metrics)
        problems += [f"{name}: end-to-end {k} is 0" for k, (v, _) in metrics.items() if v == 0]
        counts = []
        for seed in (1, 2):
            checks, metrics, _ = run.measure(tiny, seed, 0.0, trace=1)
            problems += [f"{name} traced: {msg}" for msg in checks.messages]
            problems += check_emitted(f"{name} trace 1", bench["per_layer"], metrics)
            if namespace_snapshot() != before:
                problems.append(f"{name}: tvo namespaces changed by the traced run")
            counts.append({k: v for k, (v, _) in metrics.items() if is_count(k)})
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1].get(k)) for k in counts[0]
                    if counts[0][k] != counts[1].get(k)}
            problems.append(f"{name}: count metrics differ between seeds: {diff}")
        print(f"selftest {name}: done", flush=True)
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

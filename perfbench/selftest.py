"""Self-test of the benchmark, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

For every workload it runs ``run.py --size tiny`` untraced at two seeds and
traced at one, each in its own process, and checks that each run exits 0,
ends with a result line that has exactly the contract keys, reports no
failure, and prints exactly the metrics that ``BENCHMARK.json`` declares for
that mode, with the declared units. It also checks that the benchmark exits
non-zero without a result line in a directory that holds only
``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
TIMEOUT_S = 180


def run(cmd, cwd):
    return subprocess.run(
        cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=TIMEOUT_S,
    )


def result_line(stdout):
    lines = stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def check_run(spec, workload, seed, trace):
    """Problems with one tiny run; an empty list means it passed."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = run(cmd, ROOT)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    doc = result_line(proc.stdout)
    if doc is None or set(doc) != RESULT_KEYS:
        return ["last line is not a result object with the contract keys"]
    problems = []
    if not (doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1):
        failed = [ln for ln in proc.stdout.splitlines() if "FAILED" in ln]
        problems.append(f"run not clean: {failed[:3]}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in doc["metrics"].items()}
    undeclared = sorted(set(printed) - set(declared))
    missing = sorted(set(declared) - set(printed))
    if undeclared:
        problems.append(f"printed but not declared: {undeclared}")
    if missing:
        problems.append(f"declared but not printed: {missing}")
    problems += [
        f"{name}: unit {unit!r}, declared {declared[name]!r}"
        for name, unit in printed.items()
        if name in declared and unit != declared[name]
    ]
    problems += [
        f"{name}: value {m['value']!r} is not a number"
        for name, m in doc["metrics"].items()
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool)
    ]
    return problems


def check_bare_directory(spec):
    """Without the library sources the benchmark must fail, printing no
    result."""
    bare = os.path.join(ROOT, ".perfbench_work", f"bare-{os.getpid()}")
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(
                os.path.join(ROOT, path), os.path.join(bare, path),
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = run(cmd, bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bare))
        except OSError:  # a benchmark run still uses it
            pass
    if proc.returncode == 0:
        return ["exit code 0 without the library sources"]
    if result_line(proc.stdout) is not None:
        return ["printed a result without the library sources"]
    return []


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for seed, trace in ((1, 0), (2, 0), (1, 1)):
            problems = check_run(spec, workload, seed, trace)
            ok &= not problems
            status = "FAIL" if problems else "PASS"
            print(f"{status} {workload} seed={seed} trace={trace}", flush=True)
            for p in problems:
                print(f"    {p}")
    problems = check_bare_directory(spec)
    ok &= not problems
    print(f"{'FAIL' if problems else 'PASS'} bare directory exits non-zero")
    for p in problems:
        print(f"    {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

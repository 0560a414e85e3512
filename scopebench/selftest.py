"""Self-test of the benchmark at the smallest sizes (about a minute).

    python3 scopebench/selftest.py

Runs every workload untraced and traced with ``--tiny`` and checks that the
result line names exactly the metrics ``BENCHMARK.json`` lists, with their
units, that ``error_rate`` is 0 and that nothing failed. It also checks that
the benchmark refuses to run, printing no result, from a directory that holds
only ``BENCHMARK.json`` and the benchmark's own files.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "scopebench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    p = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--tiny")
    assert p.returncode == 0, p.stderr[-2000:]
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (workload, trace, set(got) ^ set(want))
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0, p.stderr[-2000:]
    assert result["attempted"] >= 1
    printed = {ln.split()[1]: ln.split()[2] for ln in lines if ln.startswith("metric ")}
    assert printed["error_rate"] == "0", printed
    for name in [m["name"] for m in spec["end_to_end"]]:
        assert name in printed, (workload, name)
    alias = "train_s" if workload == "compredict-train" else "plan_s"
    assert alias in printed and (workload != "compredict-train" or "ratio_r2" in printed)
    print(f"ok {workload} trace={trace} attempted={result['attempted']}")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".scopebench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        p = run(bare, "--workload", "tpch-grid", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert p.returncode != 0 and not p.stdout.strip(), (p.returncode, p.stdout)
    print("ok bare directory exits", p.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Short self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at seed 0 for one second, untraced and traced, and
checks that each metric named in BENCHMARK.json is printed with its unit,
that nothing failed, and that a directory holding only the benchmark (no
``src/``) makes the run fail without a result line. Takes about a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_result(spec: dict, workload: str, trace: int) -> None:
    child = run(workload, trace)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, child.stdout
    assert result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, (workload, trace, set(got) ^ set(units))
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (name, metric)
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0  # fail_ratio 0
    print(f"ok {workload} trace={trace}: {len(got)} metrics, {result['attempted']} attempted")


def check_bare_directory(spec: dict) -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    try:
        child = run("infinite_spectra", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert child.returncode != 0, child.stdout
    assert '"metrics"' not in child.stdout, child.stdout
    print("ok bare directory: exit", child.returncode)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_result(spec, workload, trace)
    check_bare_directory(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke run of the benchmark: every workload at tiny sizes, untraced and traced.

    python3 perfbench/smoke.py

Run from the root of a checkout; it takes a few seconds.  Each run must
exit 0, report every metric that BENCHMARK.json names with the unit it
names, and pass every output check.  The traced runs must also report
every per-layer metric and their tracing overhead.  Last, a copy of the
benchmark without ``src/`` must exit non-zero without a result.
"""

import contextlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, "perfbench/run.py"]


def _run(cwd: Path, workload: str, trace: int):
    cmd = RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def _check_result(where: str, lines: list[str], expected: dict[str, str]) -> list[str]:
    errors = []
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
        return errors
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{where}: correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    got = result["metrics"]
    if set(got) != set(expected):
        errors.append(f"{where}: metrics differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}")
    for name, unit in expected.items():
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit:
            errors.append(f"{where}: {name} unit {m.get('unit')!r}, want {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{where}: {name} value {value!r}")
        elif value <= 0 and unit != "%":
            errors.append(f"{where}: {name} is {value}, not a positive measurement")
    return errors


def _check_tails(where: str, tails: dict, want_p90: bool) -> list[str]:
    """A p90 is a positive number where its run has 100 captions, else None.
    desk_mix plans 104 captions of each kind in its two minimum rounds; a
    traced run times only every other one untraced, so it may have fewer."""
    errors = []
    for p90, count in (("greedy_ms_p90", "greedy_captions"), ("beam5_ms_p90", "beam5_captions")):
        value, n = tails.get(p90), tails.get(count, 0)
        if want_p90 and n < 100:
            errors.append(f"{where}: {n} captions for {p90}, want at least 100")
        if n >= 100:
            if not (isinstance(value, float) and math.isfinite(value) and value > 0):
                errors.append(f"{where}: {p90} is {value!r} over {n} captions")
        elif value is not None:
            errors.append(f"{where}: {p90} is {value!r} over only {n} captions")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from tracer import PER_LAYER_UNITS

    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = [f"BENCHMARK.json: {n} is not a per-layer metric with unit {u!r}"
              for n, u in per_layer.items() if PER_LAYER_UNITS.get(n) != u]
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            where = f"{wl} trace={trace}"
            proc = _run(ROOT, wl, trace)
            if proc.returncode != 0:
                errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            lines = proc.stdout.strip().splitlines()
            errors += _check_result(where, lines, expected)
            info = json.loads(lines[-2])
            if info["error_rate"] != 0:
                errors.append(f"{where}: error_rate {info['error_rate']}")
            errors += _check_tails(where, info["tails"], wl == "desk_mix" and not trace)
            if trace:
                missing = set(PER_LAYER_UNITS) - set(info["per_layer"])
                if missing or not info["trace_overhead_pct"]:
                    errors.append(f"{where}: traced run lacks {sorted(missing)} or its overhead")
            print(f"ok  {where}: {info['samples']}")

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "desk_mix", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            errors.append(f"without src/: exit {proc.returncode}, stdout {proc.stdout!r}")
        else:
            print(f"ok  without src/: exit {proc.returncode}, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()

    for e in errors:
        print(f"FAIL {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

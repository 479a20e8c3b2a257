"""Run one capgen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper_mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/``.
With ``--trace 0`` the last stdout line holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  The
line before it records the environment, sample counts and, for a traced
run, its tracing overhead.  ``--tiny`` shrinks every size for the smoke
run.  Without a loadable ``src/capgen`` the run exits with code 2 and
prints no result.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on the 2-core reference machine it was as fast as two
# and steadier.  It must be set before numpy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 3   # set-ups per run; setup_s reports their median

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "pairs/s",
    "scst_samples_per_s": "steps/s",
    "greedy_ms_p50": "ms",
    "beam5_ms_p50": "ms",
    "evaluate_ms_per_1k": "ms",
    "peak_rss_mb": "MB",
}
# Per-layer metrics left off the result line.  da.step_ms is measured only
# where the deliberation decoder runs (desk_mix), so it is reported on the
# line before, with every other per-layer metric.
RESULT_PER_LAYER_EXCLUDED = ("da.step_ms",)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("paper_mix", "desk_mix"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[len("ref: "):]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def _environment(np, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "capgen").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_id, "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(), "commit": _commit(),
        "source_sha256": digest.hexdigest(), "seed": seed,
    }


def _overhead(traced: dict, untraced: dict) -> dict[str, float]:
    """Tracing overhead per timing metric, as % more time per unit of work."""
    out = {}
    for name, t in traced.items():
        u = untraced[name]
        if t and u:
            ratio = u / t if name.endswith("_per_s") else t / u
            out[name] = 100.0 * (ratio - 1.0)
    return out


def main(argv=None) -> int:
    args = _args(argv)
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import capgen  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import capgen from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    from tracer import PER_LAYER_UNITS, Tracer

    import_s = time.perf_counter() - _T0
    wl = workloads.WORKLOADS[args.workload]
    sizes = wl.tiny if args.tiny else wl.sizes
    scratch = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = []
        for k in range(SETUPS):
            ctx = None   # release the previous set-up's models first
            t0 = time.perf_counter()
            ctx = workloads.setup(sizes, args.seed, workloads.fresh_dir(scratch / f"setup{k}"))
            setup_s.append(time.perf_counter() - t0)
        tracer = Tracer() if args.trace else None
        records, collections = workloads.measure(ctx, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            scratch.parent.rmdir()

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    common = {
        "setup_s": import_s + statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "tiny": args.tiny, "environment": _environment(np, args.seed),
        "samples": workloads.sample_counts(records),
        "tails": workloads.tails([r for r in records if not r.traced]),
        "error_rate": failed / attempted if attempted else 1.0,
        "import_s": import_s, "setup_runs_s": setup_s,
        "cold_setup_s": import_s + setup_s[0],
        "untimed_collections": workloads.collection_summary(collections), **common,
    }
    OUT.mkdir(exist_ok=True)
    if tracer is None:
        values = {**common, **workloads.end_to_end(records)}
        metrics = {n: {"value": values[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    else:
        traced = workloads.end_to_end([r for r in records if r.traced])
        untraced = workloads.end_to_end([r for r in records if not r.traced])
        overhead = _overhead(traced, untraced)
        layers = tracer.per_layer()
        layers["trace.overhead_pct"] = statistics.median(overhead.values()) if overhead else None
        info.update(traced_end_to_end=traced, untraced_end_to_end=untraced,
                    trace_overhead_pct=overhead, per_layer=layers)
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER_UNITS.items()
                   if n not in RESULT_PER_LAYER_EXCLUDED}
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"info": info, "result": result,
                   "op_seconds": workloads.op_seconds(records)}, fh, indent=1)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

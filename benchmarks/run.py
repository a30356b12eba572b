"""gpsauth benchmark: three closed-loop workloads against the package in src/.

    python3 benchmarks/run.py --workload verify_tcp --seed 1 --seconds 10 --trace 0

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it runs the workload half untraced and half traced, replays the
recorded inputs through each layer and prints the per-layer metrics. Spans
and the full result go to benchmarks/out/. The last stdout line is the
result object; the exit code is non-zero if any op or invariant failed.
See benchmarks/README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def use_source_tree(root: Path = ROOT) -> None:
    """Import gpsauth from root/src; the benchmark never measures another copy."""
    if not (root / "src" / "gpsauth" / "__init__.py").is_file():
        raise SystemExit(f"error: no gpsauth sources under {root / 'src'}")
    sys.path.insert(0, str(root / "src"))


def git_commit(root: Path = ROOT) -> str:
    """HEAD of the checkout, read without starting git; 'unknown' outside a clone."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def timings(phase, normalize: bool = True) -> dict:
    """Op rate and latency percentiles of one timed phase, each segment
    scaled by its measured host speed (see tracing.PROBES) unless
    normalize is False."""
    from tracing import median, percentile

    def scale(seg):
        return seg.speed / 1e6 if normalize else 1e-6  # ns -> reference-host ms

    lat_ms = [ns * scale(seg) for seg in phase.segments for ns in seg.latencies_ns]
    elapsed_ms = sum(seg.elapsed_ns * scale(seg) for seg in phase.segments)
    return {
        "ops_per_s": (len(lat_ms) * 1e3 / elapsed_ms, "op/s"),
        "op_p50_ms": (median(lat_ms), "ms"),
        "op_p90_ms": (percentile(lat_ms, 90), "ms"),
        "op_p99_ms": (percentile(lat_ms, 99), "ms"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, scale=None):
    """One benchmark run. Returns (result object, run record, spans or None)."""
    from layers import REFERENCE, modeled_invariants, sweep
    from tracing import SpanLog, median, peak_rss_mib
    from workloads import FULL, WORKLOADS

    scale = scale or FULL
    invariants, mismatches = modeled_invariants(seed, REFERENCE)
    wl = WORKLOADS[workload](seed, scale)
    spans = SpanLog() if trace else None
    try:
        gc.collect()
        gc.freeze()  # keep the fixture out of every timed collection
        if not trace:
            phase = wl.run(seconds, None)
            # at a fixed round count on verify_tcp, else before the
            # statistics allocate per-op lists
            rss = phase.rss_mib or peak_rss_mib()
            failed = phase.errors + phase.failed
            attempted = phase.attempted
            topups = phase.topups
            metrics = timings(phase)
            del metrics["op_p99_ms"]  # a diagnostic of the traced run only
            metrics["setup_s"] = (wl.setup_s, "s")
            metrics["peak_rss_mb"] = (rss, "MiB")
            raw = {k: v for k, (v, _) in timings(phase, normalize=False).items()}
            speeds = [seg.speed for seg in phase.segments]
            host = {"raw_wall_clock": raw, "median_speed": median(speeds),
                    "min_speed": min(speeds), "max_speed": max(speeds)}
        else:
            base = wl.run(seconds / 2, None)
            traced = wl.run(seconds / 2, spans)
            failed = sum(p.errors + p.failed for p in (base, traced))
            attempted = base.attempted + traced.attempted
            topups = base.topups + traced.topups
            untraced_t, traced_t = timings(base), timings(traced)
            metrics = {f"traced.{k}": v for k, v in traced_t.items()}
            metrics["trace.overhead_p50_ms"] = (
                traced_t["op_p50_ms"][0] - untraced_t["op_p50_ms"][0], "ms")
            metrics["trace.overhead_ops_per_s"] = (
                traced_t["ops_per_s"][0] - untraced_t["ops_per_s"][0], "op/s")
            metrics["trace.spans"] = (len(spans.rows), "count")
            metrics["params.make_profile_s"] = (median(wl.times.make_profile), "s")
            metrics["params.keygen_ms"] = (median(wl.times.keygen) * 1e3, "ms")
            layer_metrics, layer_attempted, layer_failed = sweep(
                wl, base.sample + traced.sample, seed, scale)
            metrics.update(layer_metrics)
            metrics.update(invariants)
            attempted += layer_attempted
            failed += layer_failed
            host = {"median_speed": median(seg.speed for seg in traced.segments)}
    finally:
        gc.unfreeze()
        wl.close()
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": attempted,
        "setup_reps": scale.setup_reps,
        "pool_topups": topups,
        "sweep_reps": scale.sweep_reps,
        "profiles": list(scale.profiles),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "host": host,
        "invariant_mismatches": mismatches,
    }
    return result, record, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_tcp", "prover_sim", "coupon_issue"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    result, record, spans = run(args.workload, args.seed, args.seconds, bool(args.trace))

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        spans.write(OUT_DIR / f"spans-{stem}.jsonl")
    (OUT_DIR / f"result-{stem}.json").write_text(
        json.dumps({"run": record, "result": result}, indent=1) + "\n")

    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    for line in record["invariant_mismatches"]:
        print(f"invariant: {line}", file=sys.stderr)
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""fuzzint benchmark: one command for every workload.

    python3 perfbench/run.py --workload laws-exhaustive --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole passes over the workload's fixed request
list until ``--seconds`` have passed (at least two passes) and reports the
end-to-end metrics.  With ``--trace 1`` it runs one untraced pass and two
traced passes and reports the per-layer metrics; the two traced passes must
agree exactly on every count.  Every output is checked outside the timed
region; the last line of stdout is the JSON result.

Times are normalized to a reference speed (see ``speed.py``); the raw
seconds are printed alongside.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import Block, SpeedProbe  # noqa: E402
from tracing import PRIMARY_WORKLOAD, TraceError, Tracer, layer_metrics  # noqa: E402
from workloads import OUT, WORKLOADS, SetupError  # noqa: E402

SETUP_REPEATS = 21
MIN_PASSES = 2
BLOCK_S = 0.25              # request seconds charged to one speed measurement

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "request_p50_ms": "ms",
                    "request_p99_ms": "ms", "requests_per_s": "1/s", "peak_rss_mb": "MB"}


def timed_setup(workload, probe) -> tuple[float, float]:
    """Median (normalized, raw) seconds to import fuzzint afresh and build
    the carriers."""
    block = Block(probe)
    for _ in range(SETUP_REPEATS):
        block.timed(workload.setup)
    return statistics.median(block.normalized()), statistics.median(block.work)


def run_pass(workload, requests, probe, tracer=None) -> dict:
    """Send every request in order; check the outputs after the clock stops."""
    raw, normalized, outputs = [], [], []
    block = Block(probe)
    for rid, request in enumerate(requests):
        if tracer is None:
            call = lambda: workload.execute(request)  # noqa: E731
        else:
            call = lambda: tracer.request(  # noqa: E731
                rid, workload.label(request), lambda: workload.execute(request))
        try:
            out = block.timed(call)
        except Exception:  # one failed request must not stop the run
            traceback.print_exc(file=sys.stderr)
            out = None
        outputs.append(out)
        if sum(block.work) >= BLOCK_S or rid == len(requests) - 1:
            raw.extend(block.work)
            normalized.extend(block.normalized())
            block = Block(probe)
    failed = 0
    for request, out in zip(requests, outputs):
        if out is None or not workload.check(request, out):
            failed += 1
            print(f"wrong output: {workload.label(request)}", file=sys.stderr)
    return {"wall": sum(normalized), "raw_wall": sum(raw),
            "latencies": normalized, "raw_latencies": raw, "failed": failed}


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(passes, setup_s, raw=False) -> dict:
    """The end-to-end metrics; ``raw=True`` uses the unnormalized seconds."""
    wall, lat = ("raw_wall", "raw_latencies") if raw else ("wall", "latencies")
    latencies = sorted(x for p in passes for x in p[lat])
    return {"setup_s": setup_s,
            "wall_s": statistics.median(p[wall] for p in passes),
            "request_p50_ms": statistics.median(latencies) * 1e3,
            "request_p99_ms": percentile(latencies, 0.99) * 1e3,
            "requests_per_s": len(latencies) / sum(p[wall] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(workload, requests, probe, name: str, seed: int):
    """One untraced and two traced passes -> (passes, per-layer metrics)."""
    tracer = Tracer()
    untraced = run_pass(workload, requests, probe)
    tracer.install()
    try:
        first = run_pass(workload, requests, probe, tracer)
        first_metrics, first_calls = layer_metrics(tracer), dict(tracer.calls)
        tracer.reset()
        second = run_pass(workload, requests, probe, tracer)
        second_metrics, second_calls = layer_metrics(tracer), dict(tracer.calls)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"trace-{name}-seed{seed}.json")

    counts = [{**calls, **{k: v for k, v in m.items() if not k.endswith(".s")}}
              for calls, m in ((first_calls, first_metrics), (second_calls, second_metrics))]
    differ = sorted(k for k in counts[0].keys() | counts[1].keys()
                    if counts[0].get(k) != counts[1].get(k))
    if differ:
        raise TraceError("counts differ between the two traced passes: " + ", ".join(differ))
    metrics = {k: (v + second_metrics[k]) / 2 if k.endswith(".s") else v
               for k, v in first_metrics.items()}
    zero = [k for k, v in metrics.items() if PRIMARY_WORKLOAD.get(k) == name and not v]
    if zero:
        raise TraceError(f"zero on {name}, the workload that exercises them most: "
                         + ", ".join(zero))
    metrics["trace.overhead_s"] = (first["wall"] + second["wall"]) / 2 - untraced["wall"]
    return [untraced, first, second], metrics


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith(".s") or metric.endswith("_s"):
        return "s"
    if metric == "laws.checked_per_table_pair":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    raw = {}
    try:
        requests = workload.requests(args.seed)        # input generation: not set-up
        with SpeedProbe() as probe:
            setup_s, raw_setup_s = timed_setup(workload, probe)
            if args.trace:
                passes, metrics = traced(workload, requests, probe, args.workload, args.seed)
            else:
                passes = []
                start = perf_counter()
                while len(passes) < MIN_PASSES or perf_counter() - start < args.seconds:
                    passes.append(run_pass(workload, requests, probe))
                metrics = end_to_end(passes, setup_s)
                raw = end_to_end(passes, raw_setup_s, raw=True)
    except (SetupError, TraceError, ImportError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        cleanup = getattr(workload, "cleanup", None)
        if cleanup is not None:
            cleanup()

    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(requests)} requests, one closed-loop client")
    print(f"  error_rate = {failed / attempted:.6f} (failed {failed} of {attempted})")
    for name, value in metrics.items():
        shown = f" (raw {raw[name]:.6g})" if name in raw and raw[name] != value else ""
        print(f"  {name} = {value:.6g} {unit_of(name)}{shown}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit_of(name)}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

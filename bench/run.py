"""Benchmark for qmono.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (classify-composed, exact-algebra or cli-session) for
S seconds in one process, closed loop with one client, on inputs made
from the seed, and checks every output.  With --trace 1 it also times
the calls into each layer and writes the spans to
bench/out/trace-NAME-N.json.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md for the workloads and metrics.
"""

import os

# One process, single-threaded BLAS (set before numpy loads; the CLI
# children inherit it), and the program's default tolerance.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("QMONO_TOL", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 9
PROBE_PASSES = 3

# Per-layer metric: (span name, unit, whether divided by the span's items).
PER_LAYER = {
    "loops.classify_ms": ("loops.classify", "ms", False),
    "loops.classify_us_per_sample": ("loops.classify", "us", True),
    "loops.concat_ms": ("loops.concat", "ms", False),
    "loops.closure_scale_ms": ("loops.closure_scale", "ms", False),
    "loops.kappa_bit_ms": ("loops.kappa_bit", "ms", False),
    "loops.fiber_word_ms": ("loops.fiber_word", "ms", False),
    "loops.continue_sqrt_branch_ms": ("loops.continue_sqrt_branch", "ms", False),
    "loops.loop_from_dict_ms": ("loops.loop_from_dict", "ms", False),
    "loops.loop_to_dict_ms": ("loops.loop_to_dict", "ms", False),
    "loops.make_loop_ms": ("loops.make_loop", "ms", False),
    "geometry.normalized_us": ("geometry.normalized", "us", True),
    "geometry.quad_form_us": ("geometry.quad_form", "us", True),
    "geometry.in_general_position_us": ("geometry.in_general_position", "us", True),
    "geometry.discriminant_margin_us": ("geometry.discriminant_margin", "us", True),
    "group.normalize_us_per_letter": ("group.normalize", "us", True),
    "group.multiply_us_per_letter": ("group.multiply", "us", True),
    "group.invert_us_per_letter": ("group.invert", "us", True),
    "group.parse_word_us_per_letter": ("group.parse_word", "us", True),
    "group.format_word_us_per_letter": ("group.format_word", "us", True),
    "representation.matrix_of_even_us_per_letter": ("representation.matrix_of_even", "us", True),
    "representation.matrix_of_odd_us_per_letter": ("representation.matrix_of_odd", "us", True),
    "orbits.orbit_bfs_ms": ("orbits.orbit_bfs", "ms", False),
    "orbits.verify_orbit_claim_ms": ("orbits.verify_orbit_claim", "ms", False),
    "homology.homology_table_us": ("homology.homology_table", "us", True),
    "cli.interpreter_ms": ("cli.interpreter", "ms", False),
    "cli.import_ms": ("cli.import", "ms", False),
    **{f"cli.{kind}_ms": (f"cli.{kind}", "ms", False)
       for kind in ("normalize", "multiply", "invert", "rep", "orbit", "homology",
                    "make-loop", "classify", "classify-tangent", "classify-nan")},
}
SCALE = {"ms": 1e3, "us": 1e6}


def end_to_end(workload, setup_times, results):
    times = [r.seconds for r in results]
    rss_kb = resource.getrusage(workload.rss_who).ru_maxrss
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
    }


def per_layer(spans):
    samples = {}
    for name, start, end, items, _ in spans:
        samples.setdefault(name, []).append((end - start, items))
    metrics = {}
    for metric, (span, unit, per_item) in PER_LAYER.items():
        values = [SCALE[unit] * seconds / (items if per_item else 1)
                  for seconds, items in samples[span]]
        metrics[metric] = (statistics.median(values), unit)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("classify-composed", "exact-algebra", "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "qmono" / "__init__.py").is_file():
        print(f"qmono sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    import reference
    import workloads

    property_failures = reference.property_failures(random.Random(args.seed))
    tracer = workloads.Tracer(on=bool(args.trace))
    workdir = OUT / f"work-{os.getpid()}"
    try:
        def make(cls):
            return cls(args.seed, tracer, workdir)

        workload = make(workloads.WORKLOADS[args.workload])
        setup_times = []

        def setup():
            start = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - start)
            gc.collect()

        # The set-ups are spread evenly over the run, between rounds, so
        # that their median sees the same host speed as the ops do.
        setup()
        results = []
        start = time.perf_counter()
        while len(results) < 2 or time.perf_counter() - start < args.seconds:
            if len(setup_times) < SETUP_REPEATS * (time.perf_counter() - start) / args.seconds:
                setup()
            results.extend(workload.round())
        while len(setup_times) < SETUP_REPEATS:
            setup()

        used = [workload]
        if args.trace:
            # Every per-layer metric in every traced run: after the
            # workload's own rounds, time each layer on each workload's
            # inputs a few times.
            used += [make(cls) for cls in workloads.WORKLOADS.values()
                     if cls is not type(workload)]
            for other in used[1:]:
                other.setup()
            for _ in range(PROBE_PASSES):
                for w in used:
                    w.round()
                    w.detail()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = property_failures + [m for w in used for m in w.mismatches]
    for message in mismatches[:20]:
        print(f"mismatch: {message}", file=sys.stderr)
    p90 = statistics.quantiles((r.seconds for r in results), n=10)[8]
    print(f"{args.workload}: {len(results)} ops, p90 {p90 * 1e3:.1f} ms, "
          f"setup {statistics.median(setup_times):.4f} s, trace {args.trace}", file=sys.stderr)
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "spans": tracer.spans}))
        metrics = per_layer(tracer.spans)
    else:
        metrics = end_to_end(workload, setup_times, results)
    print(json.dumps({
        "correct": not mismatches,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

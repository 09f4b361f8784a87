"""Layer-attributed simulator benchmark.

Runs one workload in this process, one simulation at a time, and prints
every metric by name and unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

    python3 perfbench/run.py --workload fig10-generated --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the workload once untraced (timing the build phases)
and once under ``cProfile`` and reports the per-layer metrics.  See
``perfbench/README.md`` for the metric table and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import checkout
import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fresh-process set-up samples per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 120

UNITS = {
    "sim_kcps_ref": "kcycles/ref-s",
    "sim_kips_ref": "kinstr/ref-s",
    "ratio_vs_simplescalar": "x",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

NOTE = (
    "note: the timing model is unvalidated against hardware; "
    "no error figure is given. Simulated counts are checked for "
    "repeatability and against the functional simulator only."
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--smoke", action="store_true", help="a shortened workload, for the self-tests"
    )
    return parser.parse_args(argv)


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(args, count):
    """``count`` fresh-process set-up samples, each with an empty codegen cache.

    Each is ``{"seconds", "probe_seconds"}``, as ``setup_worker.py`` prints it.
    """
    samples = []
    for _ in range(count):
        cache_dir = tempfile.mkdtemp(prefix="setup-", dir=checkout.WORK_DIR)
        command = [
            sys.executable,
            os.path.join(HERE, "setup_worker.py"),
            "--workload",
            args.workload,
            "--seed",
            str(args.seed),
        ] + (["--smoke"] if args.smoke else [])
        env = dict(os.environ, REPRO_CODEGEN_CACHE=cache_dir)
        try:
            done = subprocess.run(
                command,
                cwd=checkout.ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=SETUP_TIMEOUT_S,
                check=False,
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if done.returncode != 0:
            raise RuntimeError("set-up worker failed:\n%s" % done.stderr)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def measure_end_to_end(args, plan, checker):
    """Throughput over ``--seconds`` of repeated runs; set-up time and memory."""
    import cells

    setup = setup_samples(args, 1 if args.smoke else SETUP_SAMPLES)
    cells.warm_up(plan, checker)
    start = time.perf_counter()
    throughput = cells.measure(plan, checker, args.seconds)
    measured = time.perf_counter() - start
    metrics = {
        "sim_kcps_ref": throughput.kcps_ref,
        "sim_kips_ref": throughput.kips_ref,
        "ratio_vs_simplescalar": throughput.ratio,
        "setup_s": statistics.median(
            hostspeed.to_reference(sample["seconds"], sample["probe_seconds"]) for sample in setup
        ),
        # Read before the cross-check, whose seed-dependent cells would
        # otherwise make the high-water mark vary with the seed.
        "peak_rss_mb": peak_rss_mb(),
    }
    if plan.cross_backend:
        cells.cross_check(plan, checker, args.seed)
    details = {
        "passes": throughput.passes,
        "timed_runs": throughput.samples,
        "measured_s": round(measured, 3),
        "probe_ms": round(throughput.probe_seconds * 1000, 3),
        "host_sim_kcps": round(throughput.kcps, 4),
        "host_sim_kips": round(throughput.kips, 4),
        "host_setup_samples_s": [round(sample["seconds"], 4) for sample in setup],
        "setup_probe_ms": [round(sample["probe_seconds"] * 1000, 3) for sample in setup],
    }
    return {name: (value, UNITS[name]) for name, value in metrics.items()}, details


def measure_layers(plan, checker, cache_dir):
    """One untraced round (build phases) and one ``cProfile`` round (layers)."""
    import cProfile

    import cells
    import layers
    import phases

    with phases.recording() as phase_log:
        untraced = cells.run_round(plan, checker)
    profiler = cProfile.Profile()
    traced = cells.run_round(plan, checker, profiler=profiler)
    attribution = layers.attribute(profiler, cache_dir)

    metrics = {}
    for layer in layers.LAYERS:
        metrics[layer + ".self_s"] = (attribution.self_s[layer], "s")
        metrics[layer + ".calls"] = (attribution.calls[layer], "count")
        metrics[layer + ".share"] = (attribution.share(layer), "ratio")
    hits = sum(record.decoder.get("hits", 0) for record in traced.rcpn)
    lookups = hits + sum(record.decoder.get("misses", 0) for record in traced.rcpn)
    guards = attribution.guard_calls
    metrics.update(
        {
            "core.token.getattr_calls": (attribution.token_getattr_calls, "count"),
            "core.decoder.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "describe.semantics.guard_pass_ratio": (
                attribution.action_calls / guards if guards else 0.0,
                "ratio",
            ),
            "trace_overhead_ratio": (traced.wall_seconds / untraced.wall_seconds, "x"),
            # Per host second, from the untraced round: not corrected for host speed.
            "sim_kcps": (cells.median_rate(untraced.rcpn, "cycles"), "kcycles/s"),
            "sim_kips": (cells.median_rate(untraced.rcpn, "instructions"), "kinstr/s"),
        }
    )
    for phase in phases.PHASES:
        metrics[phase + ".s"] = (phase_log.seconds[phase], "s")
    metrics["codegen.cache.hit_ratio"] = (phase_log.cache_hit_ratio(), "ratio")

    runs = [record for record in traced.rcpn if record.ok]
    for name, unit in (
        ("cycles", "cycles"),
        ("instructions", "instr"),
        ("stalls", "count"),
        ("squashed", "count"),
    ):
        metrics["sim." + name] = (sum(getattr(record, name) for record in runs), unit)
    for level in cells.CACHE_LEVELS:
        counts = [record.cache[level] for record in runs if level in record.cache]
        accesses = sum(count[0] for count in counts)
        misses = sum(count[1] for count in counts)
        metrics["memory.%s.miss_ratio" % level] = (misses / accesses if accesses else 0.0, "ratio")
        metrics["memory.%s.writebacks" % level] = (sum(count[2] for count in counts), "count")
    details = {
        "untraced_wall_s": round(untraced.wall_seconds, 3),
        "traced_wall_s": round(traced.wall_seconds, 3),
        "unmapped_modules": sorted(attribution.unmapped),
    }
    return metrics, details


def main(argv=None):
    args = parse_args(argv)
    load_start = os.getloadavg()
    try:
        repro = checkout.use_checkout_source()
    except (checkout.MissingSource, ImportError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 2
    import cells

    if args.workload not in cells.WORKLOAD_NAMES:
        print(
            "perfbench: unknown workload %r; expected one of %s"
            % (args.workload, ", ".join(cells.WORKLOAD_NAMES)),
            file=sys.stderr,
        )
        return 2

    os.makedirs(checkout.WORK_DIR, exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="codegen-", dir=checkout.WORK_DIR)
    os.environ["REPRO_CODEGEN_CACHE"] = cache_dir
    try:
        plan = cells.make_plan(args.workload, args.seed, smoke=args.smoke)
        references = {p.name: cells.functional_reference(p) for p in plan.programs}
        checker = cells.Checker(references)
        if args.trace:
            metrics, details = measure_layers(plan, checker, cache_dir)
        else:
            metrics, details = measure_end_to_end(args, plan, checker)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    host = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "python": "%s %s" % (platform.python_implementation(), platform.python_version()),
        "repro_version": repro.__version__,
        "git_commit": checkout.git_commit(),
        "codegen_cache_dir": os.path.relpath(cache_dir, checkout.ROOT),
        "backend": plan.backend,
        "models": list(plan.models),
        "programs": [program.name for program in plan.programs],
    }
    print("host %s" % json.dumps(host))
    print(NOTE)
    print("details %s" % json.dumps(details))
    failed_ratio = checker.failed / checker.attempted if checker.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print("%-44s %14.6g  %s" % (name, value, unit))
    print(
        "%-44s %14.6g  %s  (%d of %d runs failed)"
        % ("runs_failed_ratio", failed_ratio, "ratio", checker.failed, checker.attempted)
    )
    if details.get("unmapped_modules"):
        print("unmapped src/repro modules (counted as other): %s" % ", ".join(details["unmapped_modules"]))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

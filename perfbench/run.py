"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload train_v4_64 --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`. A workload runs in
fresh processes of its own (see SETUP_PROCESSES); records go to
perfbench/out/. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
OUT = BENCH / "out"
NAMES = ("train_tiny", "train_v4_64", "predict_paper", "evaluate_brats")
# One BLAS thread for every workload: on the 2-core reference machine a
# second thread made the v4 step no faster (0.84 s either way).
BLAS_THREADS = 1
# setup_s is the median over this many fresh workload processes, each timed
# from its spawn to the start of its first timed op (interpreter start,
# imports, set-up and the warm-up op). The last one also runs the timed ops.
SETUP_PROCESSES = 3
E2E_UNITS = {"setup_s": "s", "voxels_per_s": "1/s", "op_s_p50": "s", "peak_rss_mb": "MB"}


def set_thread_env() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as one workload process ("setup": stop after the warm-up op).
    p.add_argument("--process", choices=("setup", "full"), help=argparse.SUPPRESS)
    return p.parse_args(argv)


def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{workload}-seed{seed}-trace{trace}.json"


def run_process(args) -> int:
    """One workload process: set-up, the warm-up op and, unless `--process
    setup`, the timed ops. Prints the trace report, if any, then its record
    as one JSON line."""
    started_at = time.monotonic()
    set_thread_env()
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

    import harness  # imported after the thread settings, as they pull in numpy
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    calibrate = functools.partial(harness.host_speed_sample, workload.HOST_KERNEL)
    # Host speed at the start of set-up; the sample's own time is not set-up.
    t_host = time.monotonic()
    setup_host = [calibrate()]
    setup_host_s = time.monotonic() - t_host
    input_id = workloads.input_set(args.seed)
    ref = json.loads((BENCH / "reference.json").read_text())[workload.name][str(input_id)]

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    clock = time.perf_counter
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"work-{workload.name}-") as tmp:
        t0 = clock()
        st = workload.setup(input_id, Path(tmp))
        t1 = clock()
        st["ref"] = ref
        stats = harness.Stats(tracer, clock, calibrate)
        if tracer:
            tracer.phase = "warmup"
        workload.warmup(st, stats, clock)
        stats.warmup = False
        first_op_at = time.monotonic()
        t2 = clock()
        setup_host.append(calibrate())
        if args.process == "full":
            if tracer:
                tracer.phase = "timed"
            workload.run(st, stats, t2 + args.seconds, clock)
            stats.finish()
        timed_wall = clock() - t2
        del st

    record = {
        "first_op_at": first_op_at - setup_host_s,
        "started_at": started_at,
        "setup_host_slowness": setup_host,
        "host_kernel": workload.HOST_KERNEL,
        "setup_call_s": t1 - t0,
        "warmup_s": t2 - t1,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "errors": stats.errors,
    }
    if args.process == "full":
        record.update({
            "env": harness.environment(args.seed, input_id),
            "op_latencies_s": stats.latencies,
            "op_latencies_scaled_s": stats.scaled,
            "host_slowness": stats.host,
            "voxels_per_s_samples": stats.rates,
            "voxels_per_s_raw_samples": [v / t for v, t, _, _ in stats.work],
            "peak_rss_mb": tracing.maxrss_mb(),
            "timed_wall_s": timed_wall,
        })
    if tracer and args.process == "full":
        record.update(trace_report(tracer, stats, args))
    print(json.dumps(record))
    return 0


def trace_report(tracer, stats, args) -> dict:
    """Print the per-layer report of a traced run; return its record fields."""
    import tracing

    timed_ops = len(stats.latencies)
    metrics = tracer.per_layer(timed_ops)
    coverage = tracer.op_coverage()
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans)
    print(f"self time over {timed_ops} timed ops (spans in {spans.relative_to(ROOT)}):")
    print(f"  {'span':<30} {'calls':>7} {'self s':>10} {'s/op':>10} {'share':>7}")
    wall = sum(stats.latencies) or 1.0
    for name, calls, own, per_op in tracer.self_time_table(timed_ops):
        print(f"  {name:<30} {calls:>7d} {own:>10.4f} {per_op:>10.5f} {own / wall:>7.1%}")
    fields = {
        "per_layer": metrics,
        "op_coverage_min": min(coverage) if coverage else None,
        "op_coverage_median": statistics.median(coverage) if coverage else None,
    }
    if coverage:
        print(f"top-level spans cover {fields['op_coverage_min']:.2%} (min) / "
              f"{fields['op_coverage_median']:.2%} (median) of op wall time")
    for name, value in metrics.items():
        print(f"  {name:<26} {value:>14.6g} {tracing.PER_LAYER_UNITS[name]}")
    return fields


def spawn(args, process: str) -> dict | None:
    """Run one workload process; return its record with `setup_raw_s` (spawn
    to first timed op, less the first calibration sample) and `spawn_s`
    (spawn to its first line of Python), or None if it failed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--process", process]
    spawned_at = time.monotonic()  # CLOCK_MONOTONIC: one clock for every process
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    sys.stdout.writelines(line + "\n" for line in lines[:-1])
    if proc.returncode != 0 or not lines:
        print(f"perfbench: {process} process of {args.workload} exited with code {proc.returncode}",
              file=sys.stderr)
        return None
    rec = json.loads(lines[-1])
    rec["setup_raw_s"] = rec.pop("first_op_at") - spawned_at
    rec["spawn_s"] = rec.pop("started_at") - spawned_at
    return rec


def run_one(args) -> int:
    import harness

    procs = []
    for k in range(SETUP_PROCESSES):
        rec = spawn(args, "full" if k == SETUP_PROCESSES - 1 else "setup")
        if rec is None:
            return 1
        rec["setup_s"] = rec["setup_raw_s"] * harness.host_scale(*rec["setup_host_slowness"])
        procs.append(rec)
    record = procs[-1]
    latencies, rates = record["op_latencies_scaled_s"], record["voxels_per_s_samples"]
    raw_latencies, raw_rates = record["op_latencies_s"], record["voxels_per_s_raw_samples"]
    samples = len(latencies)
    attempted = sum(p["attempted"] for p in procs)
    failed = sum(p["failed"] for p in procs)

    def median(xs):
        return statistics.median(xs) if xs else 0.0

    e2e = {
        "setup_s": median([p["setup_s"] for p in procs]),
        "voxels_per_s": median(rates),
        "op_s_p50": median(latencies),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    tail = harness.tail_percentile(samples)
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "e2e": e2e,
        "e2e_raw": {
            "setup_s": median([p["setup_raw_s"] for p in procs]),
            "voxels_per_s": median(raw_rates),
            "op_s_p50": median(raw_latencies),
        },
        "host_slowness_p50": median(record["host_slowness"]),
        "op_samples": samples,
        "op_s_tail": {f"op_s_p{tail:g}": harness.percentile(latencies, tail)} if tail else {},
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": [e for p in procs for e in p["errors"]][:20],
        "setup_processes": [{k: p[k] for k in ("setup_s", "setup_raw_s", "spawn_s", "setup_call_s", "warmup_s")}
                            for p in procs],
    })
    if args.trace:
        untraced = result_path(args.workload, args.seed, 0)
        if untraced.exists():
            base = json.loads(untraced.read_text())["e2e"]
            record["tracing_overhead"] = {k: e2e[k] - base[k] for k in ("op_s_p50", "setup_s")}

    print(f"workload {args.workload}  seed {args.seed} (input set {record['env']['input_set']})  "
          f"trace {args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    for p in record["setup_processes"]:
        imports = p["setup_raw_s"] - p["spawn_s"] - p["setup_call_s"] - p["warmup_s"]
        print(f"setup process: {p['setup_raw_s']:.3f} s = interpreter start {p['spawn_s']:.3f} + imports "
              f"{imports:.3f} + set-up {p['setup_call_s']:.3f} + warm-up op {p['warmup_s']:.3f} "
              f"(reference host: {p['setup_s']:.3f} s)")
    print(f"host slowness ({record['host_kernel']} kernel, 1 on the reference host): median "
          f"{record['host_slowness_p50']:.4f} over the timed ops; times in reference-host seconds, raw in brackets")
    for name, value in e2e.items():
        raw = record["e2e_raw"].get(name)
        print(f"  {name:<14} {value:>14.6g} {E2E_UNITS[name]}" + (f"  ({raw:.6g} raw)" if raw is not None else ""))
    for name, value in record["op_s_tail"].items():
        print(f"  {name:<14} {value:>14.6g} s")
    print(f"  {'op_samples':<14} {samples:>14d} count")
    print(f"  {'error_rate':<14} {record['error_rate']:>14.6g} ({failed}/{attempted})")
    for err in record["errors"]:
        print(f"  error: {err}")
    for name, delta in record.get("tracing_overhead", {}).items():
        print(f"tracing overhead {name}: {delta:+.6f} s (traced minus untraced)")

    if args.trace:
        import tracing

        report = {n: {"value": v, "unit": tracing.PER_LAYER_UNITS[n]} for n, v in record["per_layer"].items()}
    else:
        report = {name: {"value": v, "unit": E2E_UNITS[name]} for name, v in e2e.items()}
    result_path(args.workload, args.seed, args.trace).write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in processes of its own."""
    status = 0
    rows = []
    for name in NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                status = proc.returncode
                continue
            record = json.loads(result_path(name, args.seed, trace).read_text())
            rows.append(record)
    print("summary (untraced end-to-end metrics; tracing overhead from the traced run):")
    for rec in rows:
        if rec["trace"] == 1:
            over = rec.get("tracing_overhead", {}).get("op_s_p50")
            if over is not None:
                print(f"  {rec['workload']:<15} tracing overhead op_s_p50 {over:+.6f} s, "
                      f"op coverage min {rec['op_coverage_min']:.2%}")
            continue
        cells = [f"{k} {v:.6g} {E2E_UNITS[k]}" for k, v in rec["e2e"].items()]
        cells += [f"{k} {v:.6g} s" for k, v in rec["op_s_tail"].items()]
        cells.append(f"error_rate {rec['error_rate']:.6g} ({rec['failed']}/{rec['attempted']})")
        print(f"  {rec['workload']:<15} " + ", ".join(cells))
        if rec["failed"]:
            status = status or 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hrstnet" / "__init__.py").is_file():
        print(f"perfbench: no engine sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be > 0", file=sys.stderr)
        return 2
    if args.process:
        return run_process(args)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Run one vtl benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify_diagram --seed 1 --seconds 30 --trace 0

Run from the repository root; `vtl` is imported from `src/` next to this
directory.  One run is one fresh, single-threaded process and a closed loop:
whole passes of the workload's operations (see `workloads.py`), one
operation at a time, until `--seconds` have passed and at least two passes
are done.  Each item's time is its median over the passes, in CPU seconds
at a reference speed of the host (see `speedprobe.py`).
Every output is checked after the timed region; a failed check or an
exception counts in `failed`.

With `--trace 0` the last stdout line holds the end-to-end metrics named in
BENCHMARK.json.  With `--trace 1` the run makes one untraced pass and the same
pass again under `tracer.Tracer`, prints the per-layer metrics named in
BENCHMARK.json, and writes the full per-layer table to
`perfbench/results/trace-<workload>-seed<seed>.json`.  A human-readable
summary goes to stderr in both modes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import workloads as wl
from speedprobe import SpeedProbe, clock, slowdown_now

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_SAMPLES = 11
MIN_PASSES = 2


@dataclass
class Record:
    pass_index: int
    op: wl.Op
    start: float  # CPU time of this thread, `speedprobe.clock`
    end: float
    rc: int | None
    output: object  # stdout text, or the bool from `expand`
    error: str | None = None
    failed: bool = False


def run_op(op: wl.Op, params) -> tuple[int | None, object, str | None]:
    """Run one operation through the public entry point; never raises."""
    import vtl.cli
    import vtl.expand

    try:
        if op.kind == "expand":
            return 0, vtl.expand.braid_matches_registry(params), None
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = vtl.cli.main(list(op.argv))
        return rc, out.getvalue(), err.getvalue() or None
    except (Exception, SystemExit):
        return None, None, traceback.format_exc()


def run_pass(workload: wl.Workload, index: int, params, tracer=None) -> list[Record]:
    records = []
    for op in workload.pass_ops(index):
        start = clock()
        rc, output, error = run_op(op, params)
        records.append(Record(index, op, start, clock(), rc, output, error))
        if tracer is not None:
            tracer.end_item()
    return records


def check(records: list[Record], reference: dict | None) -> tuple[int, int]:
    """Mark failed records; return (verify checks, checks reported `fail`)."""
    first: dict[str, str] = {}
    summaries: dict[str, dict] = {}
    traces: dict[str, list[Record]] = {}
    checks = mismatches = 0
    for rec in records:
        if rec.rc is None:
            rec.failed = True
            continue
        op = rec.op
        try:
            if op.kind == "verify":
                if op.key not in first:
                    report = json.loads(rec.output)
                    summary = wl.verify_summary(report)
                    summary["rc"] = 0 if report["ok"] else 1
                    first[op.key] = rec.output
                    summaries[op.key] = summary
                summary = summaries[op.key]
                rec.failed = (
                    rec.output != first[op.key]
                    or rec.rc != summary["rc"]
                    or summary["digest"] != reference[op.key]["digest"]
                )
                checks += summary["checks"]
                mismatches += summary["mismatches"]
            elif op.kind == "eval":
                rec.failed = rec.rc != 0 or not wl.is_identity_eval(json.loads(rec.output))
            elif op.kind == "trace":
                rec.failed = rec.rc != 0
                traces.setdefault(f"{rec.pass_index}/{op.group}", []).append(rec)
            else:
                rec.failed = rec.output is not True
        except (ValueError, KeyError, TypeError):
            rec.failed = True
            rec.error = traceback.format_exc()
    for pair in traces.values():
        values = {json.dumps(json.loads(r.output)["trace"]) for r in pair if not r.failed}
        if len(pair) != 2 or len(values) != 1:
            for r in pair:
                r.failed = True
    return checks, mismatches


def measure_setup(args) -> list[float]:
    """Time from interpreter start to the first operation, in fresh processes.

    Each process reports the CPU time it took to get ready, and the host's
    slowdown, timed at its start and right after on the same CPU; like the
    item times, a sample is their quotient (see `speedprobe.py`).
    """
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
        "--setup-probe",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.read().split()
        if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(float(line[1]) / float(line[2]))
    return samples


def tail(samples: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.4f} s"
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        value = sorted(samples)[math.ceil(pct * n / 100) - 1]
        text += f", p{pct} {value:.4f} s"
    return text + f" ({n} samples)"


def report_errors(records: list[Record]) -> None:
    for rec in records:
        if rec.failed:
            print(f"FAILED {rec.op.key} (pass {rec.pass_index}, rc={rec.rc})", file=sys.stderr)
            if rec.error:
                print(rec.error, file=sys.stderr)


def emit(records: list[Record], metrics: dict, units: dict) -> None:
    failed = sum(1 for r in records if r.failed)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        probe_start = time.process_time()
        slowdown = slowdown_now()
        probe_s = time.process_time() - probe_start

    if not (SRC / "vtl" / "__init__.py").is_file():
        print(f"error: no vtl package at {SRC}; run from a vtl checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vtl

    if Path(vtl.__file__).resolve().parent != (SRC / "vtl").resolve():
        print(f"error: imported vtl from {vtl.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    workload = wl.Workload(args.workload, args.seed)
    workload.pass_ops(0)
    reference = wl.load_reference() if args.workload != "word_algebra" else None
    params = wl.expand_params()
    if args.setup_probe:
        cpu_s = time.process_time() - probe_s
        print("ready", cpu_s, (slowdown + slowdown_now()) / 2)
        return 0

    if args.trace:
        return traced_run(args, workload, reference, params, spec)

    setup = measure_setup(args)
    gc.collect()
    records = []
    pass_walls = []
    probe = SpeedProbe()
    start = time.perf_counter()
    # Start a pass only if it should end within --seconds; always make two.
    while len(pass_walls) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(pass_walls) <= args.seconds
    ):
        begin = time.perf_counter()
        with probe:
            records += run_pass(workload, len(pass_walls), params)
        pass_walls.append(time.perf_counter() - begin)
        if len(pass_walls) == 1:
            # The records keep every output for the checks, so later passes
            # would make the peak depend on how many passes fit in the run.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall = time.perf_counter() - start
    passes = len(pass_walls)

    checks, mismatches = check(records, reference)
    report_errors(records)
    failed = sum(1 for r in records if r.failed)
    seconds = [probe.normalise(rec.start, rec.end) for rec in records]
    by_key: dict[str, list[float]] = {}
    for rec, item_s in zip(records, seconds):
        by_key.setdefault(rec.op.key, []).append(item_s)
    medians = {key: statistics.median(times) for key, times in by_key.items()}
    slowest_key = max(medians, key=medians.get)
    metrics = {
        # One pass at each item's median time, times the share that did not fail.
        "ops_per_s": len(medians) / sum(medians.values()) * (1 - failed / len(records)),
        "slowest_item_s": medians[slowest_key],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb,
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    log = sys.stderr
    print(f"workload {args.workload} seed {args.seed}: {passes} passes, {len(records)} operations"
          f" in {wall:.2f} s, {failed} failed", file=log)
    print(f"  item time: {tail(seconds)}", file=log)
    print(f"  slowest item: {slowest_key}", file=log)
    cpu = sum(rec.end - rec.start for rec in records)
    print(f"  host slowdown: {cpu / sum(seconds):.3f} CPU s per reference s"
          f" ({len(probe.costs)} probe samples)", file=log)
    print(f"  error_share {failed / len(records):.4f}", file=log)
    if checks:
        print(f"  mismatch_share {mismatches / checks:.6f} ({mismatches} of {checks} checks)", file=log)
    for name, unit in units.items():
        print(f"  {name} {metrics[name]:.6g} {unit}", file=log)
    emit(records, metrics, units)
    return 0


def traced_run(args, workload, reference, params, spec) -> int:
    from tracer import Tracer

    gc.collect()
    start = clock()
    plain = run_pass(workload, 0, params)
    untraced = clock() - start
    gc.collect()
    with Tracer() as tracer:
        start = clock()
        traced = run_pass(workload, 0, params, tracer)
        traced_s = clock() - start

    check(plain, reference)
    checks, mismatches = check(traced, reference)
    # Tracing must not change a single output byte.
    for a, b in zip(plain, traced):
        if a.output != b.output or a.rc != b.rc:
            b.failed = True
    report_errors(plain + traced)

    table = tracer.table()
    table["trace.overhead_share"] = traced_s / untraced - 1
    table["verify.mismatch_share"] = mismatches / checks if checks else 0.0
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
    with open(out, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "untraced_s": untraced,
                   "traced_s": traced_s, "operations": len(traced), "layers": table},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, value in sorted(table.items()):
        print(f"  {name:48s} {value:.6g}", file=sys.stderr)
    print(f"per-layer table written to {out}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emit(plain + traced, table, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())

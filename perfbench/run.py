#!/usr/bin/env python3
"""Runs one workload of the hgmine benchmark and prints its metrics.

    python3 perfbench/run.py --workload quest_batch --seed 1 --seconds 12 --trace 0

Run from the repository root.  The script builds perfbench/ (the
hgm_perfbench executable and the hgmine library from src/) into
.bench_build, or $CARGO_TARGET_DIR when set, runs the workload, prints a
report, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 is a separate traced
run that reports the per-layer metrics and the reconciliation ladder.  A
run whose checks fail prints the failures, exits 1 and writes no result.
Results (hgm.run_report envelopes) and span logs land in .perfbench_out/.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import stats  # noqa: E402

# Per workload: the recorded operation behind p50_ms and tail_ms, the one
# behind alt_p50_ms, and what ops_per_s counts (README.md has the table).
WORKLOADS = {
    "quest_batch": ("apriori", "partition", "rows mined"),
    "long_borders": ("dualize", "verify", "oracle queries"),
    "stream_window": ("boundary", "window_mine", "rows streamed"),
    "serve_mixed": ("support", "mine_miss", "requests"),
}
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "alt_p50_ms": "ms",
    "ops_per_s": "1/s",
}
PER_LAYER = {
    "common.kernel_ns_per_word": "ns",
    "common.pool_busy_share": "share",
    "counting.vertical_ms": "ms",
    "counting.sets": "count",
    "miner.evaluations": "count",
    "miner.reuse_share": "share",
    "ladder.residual_share": "share",
    "obs.trace_overhead_share": "ratio",
}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds hgm_perfbench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no hgmine sources at src/ beside perfbench/")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", build_dir, "--target", "hgm_perfbench", "-j", jobs])
    log_path = os.path.join(build_dir, "perfbench-build.log")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "ab") as out:
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=out, stderr=subprocess.STDOUT,
                                  timeout=max(1.0, deadline - time.monotonic()))
            if done.returncode != 0:
                with open(log_path, "rb") as f:
                    log(f.read()[-4000:].decode(errors="replace"))
                raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "hgm_perfbench")


def run_workload(exe, args, deadline):
    """Runs hgm_perfbench; returns (envelope, path written, final path)."""
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}")
    partial = stem + ".json.partial"
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", partial, "--spans", stem + ".spans.json", "--scratch", out_dir]
    done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise SystemExit(f"perfbench: hgm_perfbench exited with {done.returncode}")
    with open(partial) as f:
        envelope = json.load(f)
    return envelope, partial, stem + ".json"


def end_to_end(payload, workload):
    """The end-to-end metrics of an untraced run's payload."""
    head, alt, _ = WORKLOADS[workload]
    ops = payload["ops_ms"]
    return {
        "setup_s": stats.median(payload["setup_s"]),
        "peak_rss_mb": payload["peak_rss_kb"] / 1024.0,
        "p50_ms": stats.median(ops[head]),
        "tail_ms": stats.tail(ops[head])[0],
        "alt_p50_ms": stats.median(ops[alt]),
        "ops_per_s": payload["work_units"] / payload["work_seconds"],
    }


def print_ladder(rows):
    """Each group lists its layer rows and named residual, then the traced
    total and the untraced reference; shares are of the untraced figure."""
    groups = {}
    for name, ms in rows:
        group, row = name.split("|", 1)
        groups.setdefault(group, []).append((row, ms))
    for group, members in groups.items():
        reference = dict(members).get("untraced")
        print(f"reconciliation ladder: {group}")
        for row, ms in members:
            share = f"{100.0 * ms / reference:8.1f}%" if reference else ""
            print(f"  {row:<48}{ms:>14.4f} ms{share}")


def print_report(envelope, payload, workload, trace):
    host, build = envelope["host"], envelope["build"]
    print(f"provenance: workload={workload} seed={payload['seed']} trace={trace} "
          f"nproc={host['nproc']} compiler={build['compiler']} "
          f"build_type={build['build_type']} git_rev={build['git_rev']}")
    head, alt, unit = WORKLOADS[workload]
    print(f"p50_ms/tail_ms = {head}, alt_p50_ms = {alt}, ops_per_s = {unit}/s")
    print(f"{'operation':<22}{'n':>7}{'p50 ms':>13}{'tail ms':>13}  tail at")
    for name, samples in sorted(payload["ops_ms"].items()):
        value, pct, beyond = stats.tail(samples)
        print(f"{name:<22}{len(samples):>7}{stats.median(samples):>13.4f}"
              f"{value:>13.4f}  p{pct:.1f}, {beyond} beyond")
    failed, attempted = len(payload["failures"]), int(payload["attempted"])
    print(f"failed_share = {stats.failed_share(failed, attempted):.4f} "
          f"({failed} of {attempted} operations and checks)")
    for key, value in sorted(payload["detail"].items()):
        print(f"  {key} = {value:.6g}")
    if trace:
        print_ladder(payload["ladder"])


def main(argv=None):
    parser = argparse.ArgumentParser(description="Runs one hgmine benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")

    exe = build()
    envelope, partial, final = run_workload(exe, args, time.monotonic() + RUN_TIMEOUT_S)
    payload = envelope["payload"]
    failures = payload["failures"]
    attempted = int(payload["attempted"])
    if failures or attempted < 1:
        for failure in failures[:20]:
            log("FAILED " + failure)
        if len(failures) > 20:
            log(f"... and {len(failures) - 20} more")
        log(f"perfbench: {len(failures)} of {attempted} operations and checks failed; "
            "no result written")
        os.remove(partial)
        return 1

    if args.trace:
        values, names = payload["layers"], PER_LAYER
    else:
        values, names = end_to_end(payload, args.workload), END_TO_END
    missing = sorted(set(names) - set(values))
    if missing:
        os.remove(partial)
        raise SystemExit(f"perfbench: the run did not measure {missing}")
    print_report(envelope, payload, args.workload, args.trace)
    os.replace(partial, final)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names.items()}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

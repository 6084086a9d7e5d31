#!/usr/bin/env python3
"""Runs one workload of the rackfabric benchmark and prints its result.

    python3 perfbench/run.py --workload NAME [--seed N] --seconds S --trace 0|1

The seed defaults to 1.

Run from the repository root. The script builds the benchmark binary
(`perfbench/Cargo.toml`, a package of its own that depends on the
repository's crates by path) into `$CARGO_TARGET_DIR` (default
`.bench_build`), runs the workload in a process of its own, and prints as
its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` list of BENCHMARK.json,
with `--trace 1` the `per_layer` list; a metric the workload did not
report is an error (exit status 5). The line before it is the machine
fingerprint, and standard error lists every metric measured, by name and
unit. The full record (every metric the binary measured, the fingerprint
and any failed check) is written to
`perfbench/results/<workload>-seed<N>-trace<T>.json`; a traced run also
leaves a Perfetto trace there.

Exit status: 0 when every correctness check passed; 1 when one failed
(the result is still printed, with "correct": false); 2 or more, with no
result printed, when the benchmark could not run (bad arguments, missing
sources, a failed build, a crash or a timeout).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RESULTS = BENCH_DIR / "results"
MANIFEST = BENCH_DIR / "Cargo.toml"
BINARY = "rackfabric-perfbench"
PROFILE = "release"
# The workload process must end well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
# Inputs to the build whose contents identify the code measured, for
# checkouts that carry no git metadata.
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml",
                "src/**/*.rs", "perfbench/Cargo.toml", "perfbench/src/*.rs"]


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse_args(benchmark):
    workloads = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    # BENCHMARK.json's `command` records the default as `--seed 1`; a
    # later `--seed N` on the command line overrides it.
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default: 1)")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def command_output(argv):
    try:
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def source_digest():
    digest = hashlib.sha256()
    files = sorted({p for pattern in SOURCE_GLOBS for p in ROOT.glob(pattern) if p.is_file()})
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint():
    """What a result must be compared under: like machine, like build."""
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "rustc": command_output(["rustc", "-V"]),
        "git_commit": command_output(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
        "profile": PROFILE,
    }


def build(env):
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        fail(3, f"the repository's sources are not in {ROOT}; nothing to build")
    argv = ["cargo", "build", "--offline", "--quiet", f"--profile={PROFILE}",
            "--manifest-path", str(MANIFEST)]
    if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail(3, "build failed")
    target = Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = ROOT / target
    return target / PROFILE / BINARY


def run_workload(binary, args):
    argv = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(RESULTS)]
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(4, f"{args.workload} exited with status {proc.returncode} and no result")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(4, f"{args.workload} printed no JSON result")


def select(record, wanted):
    """The metrics BENCHMARK.json asks for, with the units it names."""
    metrics = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        got = record["metrics"].get(name)
        if got is None:
            fail(5, f"the workload did not measure {name}")
        if got["unit"] != unit:
            fail(5, f"{name} measured in {got['unit']}, BENCHMARK.json says {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def main():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(benchmark)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    binary = build(env)
    RESULTS.mkdir(parents=True, exist_ok=True)
    machine = fingerprint()
    # Flush writes left by the build and by earlier runs, so their
    # write-back does not stall this run's fsyncs.
    os.sync()
    record = run_workload(binary, args)

    wanted = benchmark["per_layer"] if args.trace == 1 else benchmark["end_to_end"]
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": select(record, wanted),
    }
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "fingerprint": machine,
            "error_rate": result["failed"] / max(result["attempted"], 1),
            "failures": record["failures"], "measured": record["metrics"], "result": result}
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(full, indent=2) + "\n")

    # Every metric measured, by name and unit, for a reader; standard
    # output carries only the ones BENCHMARK.json names.
    for name, metric in sorted(record["metrics"].items()):
        print(f"perfbench: {name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(f"perfbench: full record in {out.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps({"fingerprint": machine}))
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""The repo's benchmark: one command per workload run.

    python3 perfbench/run.py --workload paper-offline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It builds the library and the benchmark
from source into $CARGO_TARGET_DIR (default .bench_build), runs the
arithmetic self-tests, trains any missing model once into
<build>/models_cache, then runs the workload in its own process with the
frozen parameters of perfbench/workloads.json.

The benchmark binary prints its report and writes a result file under
<build>/results; this script checks it against BENCHMARK.json, adds host
metadata and prints, as the last line of stdout, one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Exit status 0 only when every correctness check passed.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170    # one workload run; it measures for --seconds plus set-up
BUILD_BUDGET_S = 700   # configure + build + self-tests + model training, first run only


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def read_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def contract_metrics(contract, trace):
    """{name: unit} of the metrics a run must report."""
    return {m["name"]: m["unit"] for m in contract["per_layer" if trace else "end_to_end"]}


def final_result(result, wanted):
    """The contract's last-line object built from a benchmark result.

    Raises BenchError when the result lacks a metric, carries a different
    unit, or holds a value that is not a finite number.
    """
    for key in ("correct", "attempted", "failed", "metrics"):
        if key not in result:
            raise BenchError(f"result has no '{key}'")
    if not isinstance(result["correct"], bool):
        raise BenchError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            raise BenchError(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise BenchError("'attempted' is below 1")
    metrics = {}
    for name, unit in wanted.items():
        m = result["metrics"].get(name)
        if m is None:
            raise BenchError(f"metric '{name}' was not measured")
        if m.get("unit") != unit:
            raise BenchError(f"metric '{name}' has unit {m.get('unit')!r}, expected {unit!r}")
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric '{name}' is not a finite number")
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def source_id():
    """The commit when the checkout is a git work tree, else a hash of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_checked(cmd, timeout, what):
    if timeout <= 0:
        raise BenchError(f"no time left for {what}")
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} timed out after {timeout} s")
    except OSError as e:
        raise BenchError(f"{what} could not start: {e}")
    if proc.returncode != 0:
        raise BenchError(f"{what} failed with exit status {proc.returncode}")


def build(workloads):
    """Configure, build, self-test and warm the model cache (once per checkout)."""
    if not (ROOT / "src").is_dir() or not (ROOT / "tests" / "seed_interpreter_ref.hpp").is_file():
        raise BenchError(f"no library sources under {ROOT} (src/ and tests/ are required)")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + BUILD_BUDGET_S
    left = lambda: deadline - time.monotonic()
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            run_checked(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                        left(), "cmake configure")
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_checked(["cmake", "--build", str(out), "-j", jobs], left(), "build")
        run_checked([str(out / "perfbench_selftest")], min(60, left()), "arithmetic self-test")
        run_checked([sys.executable, "-B", "-m", "unittest", "discover", "-q",
                     "-s", str(HERE / "tests")], min(60, left()), "result-schema self-test")
        models = sorted({m for w in workloads["workloads"].values() for m in w.get("models", [])})
        run_checked([str(out / "perfbench"), "--warm", "--models", str(out / "models_cache"),
                     "--param", "models=" + ",".join(models)], left(), "model warm-up")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        contract = read_json(ROOT / "BENCHMARK.json")
        workloads = read_json(HERE / "workloads.json")
        spec = workloads["workloads"].get(args.workload)
        if spec is None:
            raise BenchError(f"unknown workload '{args.workload}'")
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        build(workloads)

        out = build_dir()
        results = out / "results"
        results.mkdir(exist_ok=True)
        result_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        result_path.unlink(missing_ok=True)
        cmd = [str(out / "perfbench"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--nominal-seconds", str(contract["run_seconds"]), "--trace", str(args.trace),
               "--models", str(out / "models_cache"), "--out", str(result_path)]
        for key, value in spec["params"].items():
            cmd += ["--param", f"{key}={value}"]
        sys.stdout.flush()
        try:
            proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload timed out after {RUN_TIMEOUT_S} s")
        if proc.returncode not in (0, 1) or not result_path.exists():
            raise BenchError(f"workload failed with exit status {proc.returncode}")

        result = read_json(result_path)
        final = final_result(result, contract_metrics(contract, args.trace))
        result["info"]["commit"] = source_id()
        result["info"]["nproc_os"] = str(os.cpu_count())
        result_path.write_text(json.dumps(result, indent=1) + "\n")
        for check in result.get("checks", []):
            if not check["passed"]:
                log(f"check failed: {check['name']}: {check['detail']}")
    except BenchError as e:
        log(str(e))
        return 1
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

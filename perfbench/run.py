"""Benchmark of the qsqg Carleson-sweep and Picard paths.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all     # every workload, one at a time

Run it from the root of a source checkout.  Each timed pass runs in a fresh
interpreter (``worker.py``) with ``src`` on PYTHONPATH and every thread pool
pinned to one thread, because CLI users pay imports and cache fills on every
run.  Passes run one at a time, closed loop, for as long as the next one is
expected to end within ``--seconds``; the first always runs.

--trace 0 reports the end-to-end metrics of BENCHMARK.json as medians over
the passes; the two timings are in reference-speed seconds (``speed.py``),
and their wall-clock values are printed beside them.  --trace 1 runs an untraced and a traced pass, reports the
per-layer metrics of the traced one and the difference of the two wall
times, and checks that both wrote byte-identical artifacts.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Above it: a table of every metric with its
unit and sample count, and the run's provenance (git SHA, versions, nproc,
1-minute load average), which is also written under .perfbench-out/.
"""
from __future__ import annotations

import argparse
import compileall
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "QSQG_THREADS": "1"}
RUN_BUDGET_S = 170.0           # a run must end within 180 s
SETUP_SAMPLES = 5              # set-ups timed per run, at least
DEFAULT_SEED = 8191            # the library's corpus seed
PICARD_WORKLOADS = ("picard-ladder", "picard-fine")


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return proc.stdout.strip() if proc.returncode == 0 else "unavailable"


def run_pass(workload: str, seed: int, out: Path, mode: "str | None", timeout: float) -> dict:
    """One worker process (``mode`` "--trace", "--setup-only" or None);
    returns its result with setup_s added, or a result whose problems say
    why there is none."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if mode is not None:
        cmd.append(mode)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"problems": [f"pass timed out after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"problems": [f"worker exited {proc.returncode} without a result"]}
    if "ready" in result:
        result["setup_raw_s"] = result["ready"] - spawned - result["setup_probe_s"]
        result["setup_s"] = result["setup_raw_s"] * result["setup_speed"]
    return result


def same_tree(a: Path, b: Path) -> bool:
    """True when both directories hold the same files with the same bytes."""
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a
    )


def median_of(passes: list[dict], key: str) -> "float | None":
    values = [p[key] for p in passes if p.get(key) is not None]
    return statistics.median(values) if values else None


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float):
    """Run passes while another one is expected to end within ``seconds``
    (the first always runs); returns (passes, metric values).

    With ``trace`` the passes come in (untraced, traced) pairs; a problem
    found by comparing the pair is charged to its traced pass."""
    wdir = OUT / workload
    shutil.rmtree(wdir, ignore_errors=True)
    start = time.monotonic()
    passes, plain, traced = [], [], []
    took = 0.0                      # the last pass (or pair) took this long
    while not passes or time.monotonic() - start + took <= seconds:
        began = time.monotonic()
        if not trace:
            passes.append(run_pass(workload, seed, wdir / "pass", None, deadline - time.monotonic()))
        else:
            plain.append(run_pass(workload, seed, wdir / "untraced", None, deadline - time.monotonic()))
            traced.append(run_pass(workload, seed, wdir / "traced", "--trace",
                                   deadline - time.monotonic()))
            passes += [plain[-1], traced[-1]]
            if not same_tree(wdir / "untraced", wdir / "traced"):
                traced[-1].setdefault("problems", []).append(
                    "traced and untraced passes wrote different artifacts")
        if any(p.get("problems") or "wall_s" not in p for p in passes):
            break
        took = time.monotonic() - began

    values = {"ref_err": median_of(passes, "ref_err")}
    if not trace:
        for key in ("wall_s", "peak_rss_mb", "wall_raw_s"):
            values[key] = median_of(passes, key)
        # set-up is cheap: top its samples up from processes that stop there
        setups = [p for p in passes if "setup_s" in p]
        while len(setups) < SETUP_SAMPLES and passes[-1].get("wall_s") is not None:
            setups.append(run_pass(workload, seed, wdir / "setup", "--setup-only",
                                   deadline - time.monotonic()))
        for key in ("setup_s", "setup_raw_s"):
            values[key] = median_of(setups, key)
        values["setup_samples"] = sum(1 for p in setups if "setup_s" in p)
        return passes, values
    layers = [p["layers"] for p in traced if "layers" in p]
    for key in (layers[0] if layers else {}):
        samples = [layer[key] for layer in layers]
        if not key.endswith("_s") and len(set(samples)) > 1:
            traced[-1].setdefault("problems", []).append(
                f"{key} did not repeat across traced passes: {samples}")
        values[key] = statistics.median(samples)
    traced_wall, plain_wall = median_of(traced, "wall_s"), median_of(plain, "wall_s")
    if layers and plain_wall is not None:
        values["trace.overhead_s"] = traced_wall - plain_wall
        values["solver.ref_err"] = median_of(traced, "ref_err") or 0.0
    return passes, values


def summarize(workload: str, seed: int, trace: bool, declared: list, passes, values) -> dict:
    """Print the table and the provenance, keep them under .perfbench-out/,
    and return the result object."""
    n = len(passes)
    failed = sum(1 for p in passes if p.get("problems") or "wall_s" not in p)
    meta = {
        "workload": workload, "seed": seed, "trace": int(trace), "git_sha": git_sha(),
        "versions": next((p["versions"] for p in passes if "versions" in p), None),
        "nproc": os.cpu_count(), "loadavg_1m": os.getloadavg()[0], "threads": PINNED,
    }
    print(f"== {workload}  seed {seed}  trace {int(trace)}  passes {n}")
    print("   provenance " + json.dumps(meta, sort_keys=True))
    for p in passes:
        for msg in p.get("problems", []):
            print(f"   FAIL: {msg}")
    samples = sum(1 for p in passes if ("layers" in p) == trace and "wall_s" in p)

    def count(name):
        return values["setup_samples"] if name.startswith("setup") else samples

    for m in declared:
        print(f"   {m['name']:<40} {values.get(m['name'])!s:>24} {m['unit']:<8} "
              f"n={count(m['name'])}")
    extra = [("fail_rate", failed / n, "ratio", f"n={n} ({failed} failed)")]
    if not trace:
        extra += [(key, values.get(key), "s", f"n={count(key)} (wall clock)")
                  for key in ("wall_raw_s", "setup_raw_s")]
        if workload in PICARD_WORKLOADS:
            extra.append(("ref_err", values["ref_err"], "ratio", f"n={n}"))
    for name, value, unit, note in extra:
        print(f"   {name:<40} {value!s:>24} {unit:<8} {note}")

    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in declared}
    complete = all(v["value"] is not None for v in metrics.values())
    result = {"correct": failed == 0 and complete, "attempted": n, "failed": failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{workload}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(meta, result=result, values=values, passes=passes), indent=1,
                   sort_keys=True) + "\n")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="workload seed; the held-out one is workloads.HELD_OUT_SEED")
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "qsqg" / "__init__.py").is_file():
        print(f"no package source at {SRC}/qsqg; run from a source checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)

    trace = bool(args.trace)
    declared = spec["per_layer" if trace else "end_to_end"]
    results, complete = {}, True
    for name in (names if args.workload == "all" else [args.workload]):
        deadline = time.monotonic() + RUN_BUDGET_S
        passes, values = measure(name, args.seed, args.seconds, trace, deadline)
        missing = [m["name"] for m in declared if values.get(m["name"]) is None]
        if missing:
            # no pass gave a value: report the failed passes, with null
            # metrics, and exit non-zero once every workload has run
            print(f"{name}: no value for {missing}", file=sys.stderr)
            complete = False
        results[name] = summarize(name, args.seed, trace, declared, passes, values)

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0 if complete else 1
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())

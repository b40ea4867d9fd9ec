"""One pass of one workload, in the fresh interpreter that times it.

    python3 perfbench/worker.py --workload NAME --seed N --out DIR
                                [--trace | --setup-only]

``run.py`` starts this with ``src`` on PYTHONPATH and thread counts pinned;
the package must be imported from the ``src`` next to this directory.
The last line of standard output is one JSON object: the monotonic time at
which imports and inputs were done (``ready``), the probe speed during that
set-up, the pass time raw and at reference speed (see ``speed.py``), the
peak resident set, the gate's problems and, with --trace, the per-layer
metrics.

The package is imported inside ``main``, after the speed probe has started,
because import time is part of the set-up being measured.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy

from spans import LAYER_FUNCTIONS, ROOT_SPAN, Recorder
from speed import SpeedSampler

SETUP_PROBE_INTERVAL_S = 0.05   # set-up lasts well under a second
PASS_PROBE_INTERVAL_S = 0.25    # probes cost ~1% of a pass
SRC = Path(__file__).resolve().parent.parent / "src"


def layer_metrics(rec: Recorder) -> dict:
    """Per-layer metrics of one traced pass (trace.overhead_s and
    solver.ref_err are added by run.py)."""
    out = {
        "fft.transforms": rec.counters.get("fft.transforms", 0),
        "fft.calls": rec.calls("fft"),
        "fft.self_s": rec.self_seconds("fft"),
        "fft.bytes_computed": rec.counters.get("fft.bytes_computed", 0),
    }
    for layer, names in LAYER_FUNCTIONS.items():
        for fname in names:
            span = f"{layer}.{fname}"
            out[f"{span}.calls"] = rec.calls(span)
            out[f"{span}.self_s"] = rec.self_seconds(span)
    for key in ("fields.write_field.bytes", "fields.read_field.bytes",
                "experiments.persist.bytes", "solver.picard.iterations"):
        out[key] = rec.counters.get(key, 0)
    solves = out["solver.picard_solve.calls"]
    converged = rec.counters.get("solver.picard.converged", 0)
    out["solver.picard.converged_frac"] = converged / solves if solves else 0.0
    out[f"{ROOT_SPAN}.self_s"] = rec.self_seconds(ROOT_SPAN)
    return out


def end_setup(sampler: SpeedSampler) -> dict:
    """Close the set-up window: its end time and its probe readings."""
    sampler.stop()
    setup_speed, setup_probe_s = sampler.lap()
    return {"ready": time.monotonic(), "setup_probe_s": setup_probe_s,
            "setup_speed": setup_speed}


def run_pass(workload, inputs, out: Path, traced: bool, sampler: SpeedSampler) -> dict:
    rec = Recorder() if traced else None
    if rec is not None:
        rec.install()
    out.mkdir(parents=True, exist_ok=True)
    result = end_setup(sampler)
    ready = result["ready"]
    sampler.start(PASS_PROBE_INTERVAL_S)
    root = rec.begin(ROOT_SPAN) if rec is not None else None
    outcome = workload.run(inputs, out)
    if rec is not None:
        rec.finish(root)
    sampler.stop()
    if rec is not None:
        rec.discount_probes(sampler.intervals)
    end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_speed, pass_probe_s = sampler.lap(workload.speed_probe)
    if rec is not None:
        rec.uninstall()

    wall_raw = end - ready - pass_probe_s
    problems = workload.check(inputs, outcome)
    result.update({
        "wall_raw_s": wall_raw,
        "wall_s": wall_raw * pass_speed,
        "peak_rss_mb": peak_rss_mb,
        "ref_err": outcome.values.get("ref_err"),
        "problems": problems,
    })
    if rec is not None:
        layers = layer_metrics(rec)
        for key, want in workload.expected_calls.items():
            if layers[key] != want:
                problems.append(f"coverage: {key} = {layers[key]}, expected {want}")
        result["layers"] = layers
        rec.dump(out.parent / f"spans-{out.name}.npz")
    return result


def main() -> int:
    sampler = SpeedSampler()
    sampler.start(SETUP_PROBE_INTERVAL_S)
    ap = argparse.ArgumentParser(description="one timed benchmark pass")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true",
                    help="stop once imports and inputs are done")
    args = ap.parse_args()

    import scipy

    import qsqg
    from workloads import WORKLOADS

    if Path(qsqg.__file__).resolve().parent != SRC / "qsqg":
        sampler.stop()
        print(f"qsqg imported from {qsqg.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    try:
        workload = WORKLOADS[args.workload]
        inputs = workload.build(args.seed)
        if args.setup_only:
            print(json.dumps(end_setup(sampler)))
            return 0
        result = run_pass(workload, inputs, args.out, args.trace, sampler)
    except Exception as exc:  # a pass that raises is a failed pass, reported
        sampler.stop()
        traceback.print_exc()
        print(json.dumps({"problems": [f"pass raised {type(exc).__name__}: {exc}"]}))
        return 1
    result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                          "scipy": scipy.__version__}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

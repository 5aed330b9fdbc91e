"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload walks-2x10k --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout; it uses the package under ``src`` and
needs nothing installed but numpy. It writes the workload's input files
into ``.perfbench_work/`` (outside the timed region), then runs the
workload in fresh single-threaded worker processes, one repetition each,
until ``--seconds`` have passed and the workload's minimum repetitions are
done. Every result is checked; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics (aggregated over the repetitions) with
``--trace 0``, the per-layer metrics of one traced repetition with
``--trace 1``. Timings are corrected for contention from other tenants of
the host (see worker.ContentionProbe). See README.md for the metric
definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from tracing import METHODS, PER_LAYER  # noqa: E402
from workloads import WORKLOADS, scored  # noqa: E402

# name -> (unit, better, aggregate over the repetitions of a run). Set-up
# time is a median. The other timings are means: a shared host switches
# between a fast and a slow state that lasts several repetitions, and the
# contention correction leaves the slow state ~15% high, so the median of
# 4-5 repetitions jumps between states while the mean moves smoothly
# (spread across seeds 0.06 against 0.12 on walks-2x10k).
END_TO_END = {
    "setup_s": ("s", "lower", statistics.median),
    "total_s": ("s", "lower", statistics.fmean),
    "samples_per_s": ("1/s", "higher", statistics.fmean),
    "nrmse": ("ratio", "lower", statistics.median),
    "queries_per_sample": ("count", "lower", statistics.median),
    "peak_rss_mb": ("MB", "lower", statistics.median),
}

# Per-layer metrics plus the per-method break-down of the end-to-end ones,
# which the traced run reports from its untraced repetition.
PER_LAYER_ALL = {
    **PER_LAYER,
    **{f"samples_per_s.{m}": ("1/s", "higher") for m in METHODS},
    **{f"nrmse.{m}": ("ratio", "lower") for m in METHODS},
    "failed_frac": ("ratio", "lower"),
    "host.wall_total_s": ("s", "lower"),
    "host.slowdown": ("ratio", "lower"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
DEADLINE_S = 170.0      # the whole run must end within 180 s
# Time of worker.ContentionProbe's fixed work on an idle core of the 2-vCPU
# Xeon VM the benchmark was defined on (its fastest probes there measured
# 0.327-0.335 ms). Timings are reported in seconds of that idle core.
PROBE_IDLE_S = 0.33e-3
WORK_DIR = ROOT / ".perfbench_work"


class BenchError(RuntimeError):
    """A step of the benchmark itself broke (not an experiment failure)."""


def run_worker(step: str, workload: str, seed: int, work: Path, tiny: bool,
           deadline: float, trace: int = 0) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"), step, workload, str(seed), str(work),
           "--trace", str(trace)] + (["--tiny"] if tiny else [])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0", **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {step} ran past the deadline") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {step} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1]) if step == "run" else None


def rep_summary(workload: str, rep: dict) -> dict:
    """End-to-end metrics and failure counts of one repetition.

    Each phase's wall time is scaled by PROBE_IDLE_S / (mean probe time
    during the phase): the time the phase would have taken on an idle core.
    """
    exps = rep["experiments"]
    for e in exps:
        e["seconds"] = {name: wall * PROBE_IDLE_S / probe
                        for name, (wall, probe) in e["phases"].items()}
    ok = [e for e in exps if e["error"] is None]
    counted = [e for e in ok if scored(workload, e["method"])]
    samples = sum(e["samples"] for e in counted)
    run_s = math.fsum(e["seconds"]["run"] for e in counted)
    setup_s = math.fsum(e["seconds"]["setup"] for e in exps)
    # an unscored experiment counts with its set-up only: its replications
    # run on some seeds and not on others
    total_s = setup_s + math.fsum(e["seconds"]["run"] + e["seconds"]["format"] for e in counted)
    wall_s = math.fsum(wall for e in exps for wall, _ in e["phases"].values())
    corrected_s = math.fsum(t for e in exps for t in e["seconds"].values())
    return {
        "setup_s": setup_s,
        "total_s": total_s,
        "samples_per_s": samples / run_s if run_s else 0.0,
        "nrmse": statistics.fmean(e["nrmse"] for e in counted) if counted else 0.0,
        "queries_per_sample": math.fsum(e["queries"] for e in counted) / samples if samples else 0.0,
        "peak_rss_mb": rep["peak_rss_mb"],
        "wall_total_s": wall_s,
        "slowdown": wall_s / corrected_s,
        "per_method": {e["method"]: e for e in ok},
        "attempted": sum(1 + (e["runs"] if "budget" in e else 0) for e in exps),
        "failed": sum(1 for e in exps if e["error"] is not None or e["violations"]),
        "correct": not any(e["violations"] for e in exps),
        "tables": [e.get("csv_sha256") for e in exps],
    }


def describe(rep: dict, summary: dict) -> str:
    parts = []
    for e in rep["experiments"]:
        status = e["error"] or ("; ".join(e["violations"]) or "ok")
        wall = {name: w for name, (w, _) in e["phases"].items()}
        parts.append(f"{e['method']}: setup {wall['setup']:.3f}s run {wall.get('run', 0.0):.3f}s [{status}]")
    return (" | ".join(parts) + f" | wall {summary['wall_total_s']:.3f}s, slowdown "
            f"{summary['slowdown']:.3f}, rss {rep['peak_rss_mb']:.0f} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hybridsample" / "__init__.py").is_file():
        print(f"perfbench: no package at {ROOT / 'src' / 'hybridsample'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run_worker("generate", args.workload, args.seed, work, args.tiny, deadline)
        if args.trace:
            plain = run_worker("run", args.workload, args.seed, work, args.tiny, deadline)
            traced = run_worker("run", args.workload, args.seed, work, args.tiny, deadline, trace=1)
            reps = [plain, traced]
        else:
            reps = []
            start = time.monotonic()
            while True:
                reps.append(run_worker("run", args.workload, args.seed, work, args.tiny, deadline))
                elapsed = time.monotonic() - start
                per_rep = elapsed / len(reps)
                if len(reps) >= WORKLOADS[args.workload]["min_reps"] and elapsed >= args.seconds:
                    break
                if time.monotonic() + 1.5 * per_rep > deadline:
                    break
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    env = reps[0]["env"]
    print(f"perfbench env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"workload={args.workload} seed={args.seed} trace={args.trace} reps={len(reps)} "
          f"probe_min={min(rep['probe_min_s'] for rep in reps) * 1e3:.4f}ms")
    summaries = [rep_summary(args.workload, rep) for rep in reps]
    for i, (rep, summary) in enumerate(zip(reps, summaries)):
        print(f"perfbench rep {i}: {describe(rep, summary)}")
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    # one seed gives one result: every repetition must produce the same tables
    deterministic = all(s["tables"] == summaries[0]["tables"] for s in summaries)
    if not deterministic:
        print("perfbench: result tables differ between repetitions of one seed")
    correct = deterministic and all(s["correct"] for s in summaries)

    if args.trace:
        plain, traced = summaries
        layers = dict(reps[1]["layers"])
        layers["trace.overhead_s"] = traced["total_s"] - plain["total_s"]
        for meth in METHODS:
            exp = plain["per_method"].get(meth)
            layers[f"samples_per_s.{meth}"] = exp["samples"] / exp["seconds"]["run"] if exp else 0.0
            layers[f"nrmse.{meth}"] = exp["nrmse"] if exp else 0.0
        layers["failed_frac"] = failed / attempted
        layers["host.wall_total_s"] = plain["wall_total_s"]
        layers["host.slowdown"] = plain["slowdown"]
        for note in reps[1]["absent"]:
            print(f"perfbench absent boundary: {note}")
        for name, (calls, incl, own) in sorted(reps[1]["spans"].items(), key=lambda kv: -kv[1][2]):
            print(f"perfbench span {name}: calls={calls} incl={incl:.4f}s self={own:.4f}s")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER_ALL.items()}
    else:
        metrics = {
            name: {"value": aggregate([s[name] for s in summaries]), "unit": unit}
            for name, (unit, _, aggregate) in END_TO_END.items()
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

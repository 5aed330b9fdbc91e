"""One benchmark step in a fresh process.

    python3 perfbench/worker.py generate WORKLOAD SEED WORKDIR [--tiny]
    python3 perfbench/worker.py run WORKLOAD SEED WORKDIR --trace 0|1 [--tiny]

``generate`` writes the workload's input files into WORKDIR. ``run`` drives
``prepare_experiment``, ``run_experiment`` and ``format_result_csv`` for each
of the workload's experiments, as `hybridsample run` does, checks every
result, and prints one JSON object of measurements. run.py starts it with
PYTHONPATH set to the checkout's ``src`` and every thread pool sized to 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from tracing import ROOT_SPAN, Tracer
from workloads import experiment_configs, generate_inputs

NRMSE_MIN_THETA = 0.01
SUM_TOLERANCE = 1e-9
PROBE_INTERVAL_S = 0.05


def _probe_work() -> int:
    """Fixed pure-Python work: about 0.5 ms on an idle core."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        table[i * 7919 % 100003] = i
        acc += table.get(i * 31 % 100003, 0)
    return acc


class ContentionProbe:
    """Times a fixed piece of work every PROBE_INTERVAL_S while the workload
    runs, in this process and on this core (SIGALRM).

    On a shared host the same code runs up to 1.7x slower while other
    tenants are busy, and such spells last from seconds to minutes. The
    probe's time at a moment says how slow the core is then; run.py divides
    each phase's wall time by the probe's slowdown during that phase.
    """

    def __init__(self):
        self.samples: list = []     # (start, seconds)

    def _sample(self, _signum=None, _frame=None) -> None:
        start = perf_counter()
        _probe_work()
        self.samples.append((start, perf_counter() - start))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._sample()

    def mean_during(self, t0: float, t1: float) -> float:
        """Mean probe time in [t0, t1], or the nearest sample's for a
        phase shorter than the sampling interval."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if inside:
            return statistics.fmean(inside)
        mid = (t0 + t1) / 2.0
        return min(self.samples, key=lambda s: abs(s[0] - mid))[1]


def check_outputs(experiment, table, text: str, csv_path: Path) -> list[str]:
    """Violations of the result contract; an empty list when the table is sound."""
    problems = []
    if not table.rows:
        return ["empty result table"]
    for row in table.rows:
        if not (math.isfinite(row.mean_estimate) and 0.0 <= row.mean_estimate <= 1.0):
            problems.append(f"label {row.label}: mean_estimate {row.mean_estimate!r} not in [0, 1]")
    for field in ("mean_estimate", "theta_true"):
        total = math.fsum(getattr(row, field) for row in table.rows)
        if abs(total - 1.0) > SUM_TOLERANCE:
            problems.append(f"{field} sums to {total!r}, not 1")
    csv_path.write_text(text, encoding="utf-8")
    try:
        if experiment.read_result_csv(csv_path).rows != table.rows:
            problems.append("result CSV does not round-trip through read_result_csv")
    finally:
        csv_path.unlink()
    return problems


def run_workload(name: str, seed: int, work: Path, tiny: bool, tracer) -> list[dict]:
    """Run the workload's experiments once; one record per experiment, with
    the start and end of each timed phase."""
    from hybridsample import experiment

    span = tracer.span if tracer is not None else (lambda _name: nullcontext())
    records = []
    for mapping in experiment_configs(name, seed, work, tiny):
        cfg = experiment.make_config(mapping)
        phases: dict = {}
        rec = {"method": cfg.method, "runs": cfg.runs, "phases": phases,
               "error": None, "violations": []}
        records.append(rec)
        t0 = perf_counter()
        try:
            with span(ROOT_SPAN):
                prep = experiment.prepare_experiment(cfg)
        except Exception as exc:  # recorded as a failed experiment
            phases["setup"] = (t0, perf_counter())
            rec["error"] = f"prepare_experiment: {type(exc).__name__}: {exc}"
            continue
        t1 = perf_counter()
        phases["setup"] = (t0, t1)
        rec["budget"] = prep.budget
        try:
            with span(ROOT_SPAN):
                table = experiment.run_experiment(cfg, prep)
                t2 = perf_counter()
                text = experiment.format_result_csv(table)
        except Exception as exc:  # recorded as a failed experiment
            phases["run"] = (t1, perf_counter())
            rec["error"] = f"run_experiment: {type(exc).__name__}: {exc}"
            continue
        finally:
            prep = None  # release the network before the next experiment builds its own
        phases["run"] = (t1, t2)
        phases["format"] = (t2, perf_counter())
        rec["violations"] = check_outputs(experiment, table, text, work / f"check-{os.getpid()}.csv")
        rec["csv_sha256"] = hashlib.sha256(text.encode()).hexdigest()
        rec["samples"] = rec["budget"] * cfg.runs
        rec["queries"] = table.rows[0].query_count * cfg.runs if table.rows else 0.0
        scored = [r.nrmse for r in table.rows if r.theta_true >= NRMSE_MIN_THETA]
        rec["nrmse"] = math.fsum(scored) / len(scored) if scored else 0.0
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("generate", "run"))
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("work", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    if args.step == "generate":
        generate_inputs(args.workload, args.seed, args.work, args.tiny)
        return 0

    import numpy

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    probe = ContentionProbe()
    probe.start()
    try:
        records = run_workload(args.workload, args.seed, args.work, args.tiny, tracer)
    finally:
        probe.stop()
    for rec in records:
        # phase -> [wall seconds, mean probe seconds during the phase]
        rec["phases"] = {name: [t1 - t0, probe.mean_during(t0, t1)]
                         for name, (t0, t1) in rec["phases"].items()}
    out = {
        "experiments": records,
        "probe_min_s": min(d for _, d in probe.samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
    }
    if tracer is not None:
        wall_s = math.fsum(wall for r in records for wall, _ in r["phases"].values())
        out["layers"] = tracer.metrics(wall_s)
        out["spans"] = tracer.summary()
        out["absent"] = tracer.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

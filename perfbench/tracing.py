"""Outside-in layer tracing: spans and counts recorded around the package.

The package is not changed. Each boundary below names the attribute a
caller looks up (a module global or a class attribute) and the layer it
belongs to. ``Tracer.install`` replaces each one with a wrapper that records
a span (name, start, end, parent) and, through an optional hook, counts
taken from the call's arguments and result. A boundary whose module or
attribute no longer exists is reported as absent, and the metrics it feeds
read 0, so a later refactor cannot crash the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

METHODS = ("SRW", "VS-A", "RWT-VSA", "RWT-RWA", "RRZI-VSA")
LAYERS = ("synth", "graphs", "ingest", "geo", "samplers", "estimators", "experiment", "seeds")
ROOT_SPAN = "benchmark"


# Hooks: (tracer, args, kwargs, result, seconds) -> None. They read only
# what the call returns or receives.

def _count_edges(tr, args, kwargs, result, seconds):
    tr.add("synth.generate_ba.edges", result.num_edges)


def _count_bytes(tr, args, kwargs, result, seconds):
    tr.add("ingest.bytes_read", os.path.getsize(args[0]))


def _count_query(tr, args, kwargs, result, seconds):
    k = args[2] if len(args) > 2 else kwargs["k"]
    if k == 1:
        tr.add("geo.probes")
        tr.add("geo.probes_nonempty", bool(result[0]))


def _count_draw(tr, args, kwargs, result, seconds):
    tr.sample("geo.rrzi_draw.ms", seconds * 1e3)
    tr.sample("geo.rrzi_draw.api_calls", result.api_calls)
    tr.sample("geo.rrzi_draw.zoom_depth", len(result.zoom_path))


def _count_walk(name):
    def hook(tr, args, kwargs, result, seconds):
        tr.add(f"{name}.steps", len(result))
        tr.add(f"{name}.jumps", sum(result.jumped))
    return hook


_count_rwa_walk = _count_walk("samplers.rwt_rwa_run")


def _count_rwa(tr, args, kwargs, result, seconds):
    _count_rwa_walk(tr, args, kwargs, result, seconds)
    detail = kwargs.get("detail")
    if detail is not None:
        mh = detail.mh_nodes
        tr.add("samplers.rwt_rwa_run.mh_moves", sum(a != b for a, b in zip(mh, mh[1:])))
        tr.add("samplers.rwt_rwa_run.mh_rounds", len(mh) - 1)
        tr.add("samplers.rwt_rwa_run.fallback_jumps", detail.fallback_jumps)


def _count_harvest(tr, args, kwargs, result, seconds):
    tr.add("samplers.vs_a_collect.draws", result.b_prime)
    tr.add("samplers.vs_a_collect.empty_draws", sum(not d.neighbors for d in result.draws))
    tr.add("samplers.vs_a_collect.harvested", result.harvested)


def _count_visits(tr, args, kwargs, result, seconds):
    tr.add("estimators.walk_theta.visits", len(args[0]))


def _time_replication(tr, args, kwargs, result, seconds):
    tr.sample(f"run_replication.ms.{args[0].cfg.method}", seconds * 1e3)


def _rwa_detail(fn):
    """Pass a fresh RwtRwaDetail to rwt_rwa_run so the hook can read the MH
    chain and the fallback count; None when the side channel is gone."""
    samplers = importlib.import_module("hybridsample.samplers")
    detail_cls = getattr(samplers, "RwtRwaDetail", None)
    if detail_cls is None or "detail" not in inspect.signature(fn).parameters:
        return None

    def prepare(kwargs):
        if kwargs.get("detail") is None:
            kwargs["detail"] = detail_cls()
    return prepare


# (span name, layer, lookup sites as (module, attribute path), hook, prepare)
BOUNDARIES = [
    ("synth.generate_ba", "synth", [("hybridsample.synth", "generate_ba")], _count_edges, None),
    ("synth.build_synthetic_hybrid", "synth",
     [("hybridsample.experiment", "build_synthetic_hybrid")], None, None),
    ("graphs.Graph.__init__", "graphs", [("hybridsample.graphs", "Graph.__init__")], None, None),
    ("graphs.BipartiteGraph.__init__", "graphs",
     [("hybridsample.graphs", "BipartiteGraph.__init__")], None, None),
    ("graphs.ground_truth_theta", "graphs",
     [("hybridsample.experiment", "ground_truth_theta")], None, None),
    ("graphs.covered_targets", "graphs",
     [("hybridsample.graphs", "HybridNetwork.covered_targets")], None, None),
    ("ingest.load_edge_list", "ingest", [("hybridsample.ingest", "load_edge_list")],
     _count_bytes, None),
    ("ingest.load_affiliation", "ingest", [("hybridsample.ingest", "load_affiliation")],
     _count_bytes, None),
    ("geo.load_venues", "ingest", [("hybridsample.geo", "load_venues")], _count_bytes, None),
    ("geo.VenueIndex.__init__", "geo", [("hybridsample.geo", "VenueIndex.__init__")], None, None),
    ("geo.VenueIndex.query", "geo", [("hybridsample.geo", "VenueIndex.query")],
     _count_query, None),
    ("geo.rrzi_draw", "geo", [("hybridsample.geo", "rrzi_draw")], _count_draw, None),
    ("geo.rrzi_vsa_estimate", "geo", [("hybridsample.geo", "rrzi_vsa_estimate")],
     None, None),
    ("samplers.compute_qu", "samplers", [("hybridsample.experiment", "compute_qu")], None, None),
    ("samplers.fixed_weight_scheme", "samplers",
     [("hybridsample.experiment", "fixed_weight_scheme")], None, None),
    ("samplers.AuxDistribution.__init__", "samplers",
     [("hybridsample.samplers", "AuxDistribution.__init__")], None, None),
    ("samplers.simple_rw_run", "samplers", [("hybridsample.experiment", "simple_rw_run")],
     _count_walk("samplers.simple_rw_run"), None),
    ("samplers.rwt_vsa_run", "samplers", [("hybridsample.experiment", "rwt_vsa_run")],
     _count_walk("samplers.rwt_vsa_run"), None),
    ("samplers.rwt_rwa_run", "samplers", [("hybridsample.experiment", "rwt_rwa_run")],
     _count_rwa, _rwa_detail),
    ("samplers.vs_a_collect", "samplers", [("hybridsample.experiment", "vs_a_collect")],
     _count_harvest, None),
    ("estimators.walk_theta", "estimators", [("hybridsample.experiment", "walk_theta")],
     _count_visits, None),
    ("estimators.vsa_theta_unknown_n", "estimators",
     [("hybridsample.experiment", "vsa_theta_unknown_n"),
      ("hybridsample.geo", "vsa_theta_unknown_n")], None, None),
    ("estimators.vsa_theta_known_n", "estimators",
     [("hybridsample.experiment", "vsa_theta_known_n"),
      ("hybridsample.geo", "vsa_theta_known_n")], None, None),
    ("estimators.nrmse", "estimators", [("hybridsample.experiment", "nrmse")], None, None),
    ("experiment.prepare_experiment", "experiment",
     [("hybridsample.experiment", "prepare_experiment")], None, None),
    ("experiment.build_network", "experiment",
     [("hybridsample.experiment", "build_network")], None, None),
    ("experiment.run_replication", "experiment",
     [("hybridsample.experiment", "run_replication")], _time_replication, None),
    ("experiment.run_experiment", "experiment",
     [("hybridsample.experiment", "run_experiment")], None, None),
    ("experiment.format_result_csv", "experiment",
     [("hybridsample.experiment", "format_result_csv")], None, None),
    ("seeds.spawn_rng", "seeds",
     [(m, "spawn_rng") for m in ("hybridsample.experiment", "hybridsample.samplers",
                                 "hybridsample.geo", "hybridsample.synth")], None, None),
]

SPAN_LAYER = {name: layer for name, layer, *_ in BOUNDARIES}

# Per-layer metrics: name -> (unit, better). The ones that depend on a
# method or a layer are listed for all of them; a workload that does not
# run a method reads 0 there.
PER_LAYER = {
    "synth.generate_ba.s": ("s", "lower"),
    "synth.generate_ba.edges": ("count", "lower"),
    "synth.build_synthetic_hybrid.self_s": ("s", "lower"),
    "graphs.Graph.init_s": ("s", "lower"),
    "graphs.BipartiteGraph.init_s": ("s", "lower"),
    "graphs.ground_truth_theta.s": ("s", "lower"),
    "graphs.covered_targets.s": ("s", "lower"),
    "ingest.load_edge_list.s": ("s", "lower"),
    "ingest.load_affiliation.s": ("s", "lower"),
    "geo.load_venues.s": ("s", "lower"),
    "ingest.bytes_read": ("B", "lower"),
    "ingest.mb_per_s": ("MB/s", "higher"),
    "geo.VenueIndex.init_s": ("s", "lower"),
    "geo.VenueIndex.query.calls": ("count", "lower"),
    "geo.VenueIndex.query.s": ("s", "lower"),
    "geo.rrzi_draw.ms.p50": ("ms", "lower"),
    "geo.rrzi_draw.ms.p99": ("ms", "lower"),
    "geo.rrzi_draw.api_calls_per_draw": ("count", "lower"),
    "geo.rrzi_draw.zoom_depth_mean": ("count", "lower"),
    "geo.probe_nonempty_frac": ("ratio", "higher"),
    "samplers.compute_qu.s": ("s", "lower"),
    "samplers.fixed_weight_scheme.s": ("s", "lower"),
    "samplers.AuxDistribution.init_s": ("s", "lower"),
    "samplers.simple_rw_run.steps_per_s": ("1/s", "higher"),
    "samplers.rwt_vsa_run.steps_per_s": ("1/s", "higher"),
    "samplers.rwt_rwa_run.rounds_per_s": ("1/s", "higher"),
    "samplers.rwt_vsa_run.jump_frac": ("ratio", "higher"),
    "samplers.rwt_rwa_run.jump_frac": ("ratio", "higher"),
    "samplers.rwt_rwa_run.mh_move_frac": ("ratio", "higher"),
    "samplers.rwt_rwa_run.fallback_jumps": ("count", "lower"),
    "samplers.vs_a_collect.draws_per_s": ("1/s", "higher"),
    "samplers.vs_a_collect.empty_draw_frac": ("ratio", "lower"),
    "samplers.vs_a_collect.harvested_per_draw": ("count", "higher"),
    "estimators.walk_theta.s": ("s", "lower"),
    "estimators.walk_theta.visits_per_s": ("1/s", "higher"),
    "estimators.vsa_theta_unknown_n.s": ("s", "lower"),
    "estimators.vsa_theta_known_n.s": ("s", "lower"),
    "estimators.nrmse.s": ("s", "lower"),
    "experiment.prepare_experiment.self_s": ("s", "lower"),
    "experiment.build_network.self_s": ("s", "lower"),
    **{f"experiment.run_replication.ms.p50.{m}": ("ms", "lower") for m in METHODS},
    "experiment.run_experiment.self_s": ("s", "lower"),
    "seeds.spawn_rng.calls": ("count", "lower"),
    "seeds.spawn_rng.s": ("s", "lower"),
    **{f"layer.{layer}.self_frac": ("ratio", "lower") for layer in LAYERS},
    "trace.unattributed_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.absent_boundaries": ("count", "lower"),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list = []       # [name, start, end, parent index or -1]
        self._stack: list = []
        self.counts: dict = {}
        self.samples: dict = {}
        self.absent: list = []

    def add(self, key: str, value=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _exit(self, idx: int) -> float:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        return end - span[1]

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    def _wrap(self, name: str, fn, hook, prepare):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                prepare(kwargs)
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds = self._exit(idx)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result, seconds)
                except Exception as exc:  # a changed return type must not stop the run
                    note = f"{name} hook: {type(exc).__name__}: {exc}"
                    if note not in self.absent:
                        self.absent.append(note)
            return result
        return traced

    def install(self) -> None:
        """Wrap every boundary that still exists; note the others as absent."""
        for name, _layer, sites, hook, make_prepare in BOUNDARIES:
            for module_name, path in sites:
                try:
                    owner = importlib.import_module(module_name)
                    *parents, attr = path.split(".")
                    for part in parents:
                        owner = getattr(owner, part)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}:{path}")
                    continue
                prepare = make_prepare(fn) if make_prepare else None
                if make_prepare and prepare is None:
                    self.absent.append(f"{name}: RwtRwaDetail side channel")
                setattr(owner, attr, self._wrap(name, fn, hook, prepare))

    def summary(self) -> dict:
        """Per span name: [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for (name, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - covered
        return out

    def metrics(self, total_s: float) -> dict:
        """Every PER_LAYER metric except trace.overhead_s, which needs the
        untraced run."""
        spans = self.summary()
        c = self.counts

        def calls(name):
            return spans.get(name, [0, 0.0, 0.0])[0]

        def incl(name):
            return spans.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return spans.get(name, [0, 0.0, 0.0])[2]

        def ratio(a, b):
            return a / b if b else 0.0

        def pct(key, q):
            values = self.samples.get(key, [])
            if len(values) < 2:
                return values[0] if values else 0.0
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        def mean(key):
            values = self.samples.get(key, [])
            return statistics.fmean(values) if values else 0.0

        load_s = incl("ingest.load_edge_list") + incl("ingest.load_affiliation") + incl("geo.load_venues")
        m = {
            "synth.generate_ba.s": incl("synth.generate_ba"),
            "synth.generate_ba.edges": c.get("synth.generate_ba.edges", 0),
            "synth.build_synthetic_hybrid.self_s": self_s("synth.build_synthetic_hybrid"),
            "graphs.Graph.init_s": incl("graphs.Graph.__init__"),
            "graphs.BipartiteGraph.init_s": incl("graphs.BipartiteGraph.__init__"),
            "graphs.ground_truth_theta.s": incl("graphs.ground_truth_theta"),
            "graphs.covered_targets.s": incl("graphs.covered_targets"),
            "ingest.load_edge_list.s": incl("ingest.load_edge_list"),
            "ingest.load_affiliation.s": incl("ingest.load_affiliation"),
            "geo.load_venues.s": incl("geo.load_venues"),
            "ingest.bytes_read": c.get("ingest.bytes_read", 0),
            "ingest.mb_per_s": ratio(c.get("ingest.bytes_read", 0) / 1e6, load_s),
            "geo.VenueIndex.init_s": incl("geo.VenueIndex.__init__"),
            "geo.VenueIndex.query.calls": calls("geo.VenueIndex.query"),
            "geo.VenueIndex.query.s": incl("geo.VenueIndex.query"),
            "geo.rrzi_draw.ms.p50": pct("geo.rrzi_draw.ms", 50),
            "geo.rrzi_draw.ms.p99": pct("geo.rrzi_draw.ms", 99),
            "geo.rrzi_draw.api_calls_per_draw": mean("geo.rrzi_draw.api_calls"),
            "geo.rrzi_draw.zoom_depth_mean": mean("geo.rrzi_draw.zoom_depth"),
            "geo.probe_nonempty_frac": ratio(c.get("geo.probes_nonempty", 0), c.get("geo.probes", 0)),
            "samplers.compute_qu.s": incl("samplers.compute_qu"),
            "samplers.fixed_weight_scheme.s": incl("samplers.fixed_weight_scheme"),
            "samplers.AuxDistribution.init_s": incl("samplers.AuxDistribution.__init__"),
            "samplers.simple_rw_run.steps_per_s": ratio(
                c.get("samplers.simple_rw_run.steps", 0), incl("samplers.simple_rw_run")),
            "samplers.rwt_vsa_run.steps_per_s": ratio(
                c.get("samplers.rwt_vsa_run.steps", 0), incl("samplers.rwt_vsa_run")),
            "samplers.rwt_rwa_run.rounds_per_s": ratio(
                c.get("samplers.rwt_rwa_run.steps", 0), incl("samplers.rwt_rwa_run")),
            "samplers.rwt_vsa_run.jump_frac": ratio(
                c.get("samplers.rwt_vsa_run.jumps", 0), c.get("samplers.rwt_vsa_run.steps", 0)),
            "samplers.rwt_rwa_run.jump_frac": ratio(
                c.get("samplers.rwt_rwa_run.jumps", 0), c.get("samplers.rwt_rwa_run.steps", 0)),
            "samplers.rwt_rwa_run.mh_move_frac": ratio(
                c.get("samplers.rwt_rwa_run.mh_moves", 0), c.get("samplers.rwt_rwa_run.mh_rounds", 0)),
            "samplers.rwt_rwa_run.fallback_jumps": c.get("samplers.rwt_rwa_run.fallback_jumps", 0),
            "samplers.vs_a_collect.draws_per_s": ratio(
                c.get("samplers.vs_a_collect.draws", 0), incl("samplers.vs_a_collect")),
            "samplers.vs_a_collect.empty_draw_frac": ratio(
                c.get("samplers.vs_a_collect.empty_draws", 0), c.get("samplers.vs_a_collect.draws", 0)),
            "samplers.vs_a_collect.harvested_per_draw": ratio(
                c.get("samplers.vs_a_collect.harvested", 0), c.get("samplers.vs_a_collect.draws", 0)),
            "estimators.walk_theta.s": incl("estimators.walk_theta"),
            "estimators.walk_theta.visits_per_s": ratio(
                c.get("estimators.walk_theta.visits", 0), incl("estimators.walk_theta")),
            "estimators.vsa_theta_unknown_n.s": incl("estimators.vsa_theta_unknown_n"),
            "estimators.vsa_theta_known_n.s": incl("estimators.vsa_theta_known_n"),
            "estimators.nrmse.s": incl("estimators.nrmse"),
            "experiment.prepare_experiment.self_s": self_s("experiment.prepare_experiment"),
            "experiment.build_network.self_s": self_s("experiment.build_network"),
            **{f"experiment.run_replication.ms.p50.{meth}": pct(f"run_replication.ms.{meth}", 50)
               for meth in METHODS},
            "experiment.run_experiment.self_s": self_s("experiment.run_experiment"),
            "seeds.spawn_rng.calls": calls("seeds.spawn_rng"),
            "seeds.spawn_rng.s": incl("seeds.spawn_rng"),
            "trace.unattributed_s": self_s(ROOT_SPAN),
            "trace.absent_boundaries": len(self.absent),
        }
        for layer in LAYERS:
            layer_self = math.fsum(
                row[2] for name, row in spans.items() if SPAN_LAYER.get(name) == layer
            )
            m[f"layer.{layer}.self_frac"] = ratio(layer_self, total_s)
        return m

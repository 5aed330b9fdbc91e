"""Experiment orchestration: configs, replication runs, aggregation.

A config names a network source (synthetic, plain files, or LBSN-style
files), one sampling method, its parameters, and the replication count.
``run_experiment`` builds the network once, computes ground truth, runs the
replications with seeds derived from the master seed (the walk methods'
in lockstep batches, the harvest methods' one after another), and
aggregates per-label mean estimates and NRMSE.  Consecutive experiments on
one synthetic network or one set of files share one build (``shared_network``).

Jump-strength units: config ``alpha``/``beta`` are per-node (an alpha of 1
gives a node of degree d a jump probability of about 1/(d+1), the scale the
method comparisons are run at).  Internally the samplers work with total
jumper mass, so the harness multiplies by the number of affiliation-covered
target nodes (alpha) or auxiliary nodes (beta).
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import get_args, get_type_hints

import numpy as np

from . import geo, ingest
from ._tokens import InputError
from .estimators import nrmse, vsa_theta_unknown_n, walk_theta
from .graphs import HybridNetwork, LabelTable, degree_labels, ground_truth_theta
from .samplers import (
    AuxDistribution,
    JumpLaw,
    WalkError,
    WeightSystem,
    fixed_weight_scheme,
    jump_law,
    rwt_rwa_run,
    rwt_vsa_run,
    target_share,
    vs_a_collect,
    write_trace,
)
from .seeds import STREAM_VENUES, STREAM_WALK_START, replication_seeds, spawn_generator
from .synth import SynthConfig, build_synthetic_hybrid, orient_edges

METHODS = ("SRW", "VS-A", "RWT-VSA", "RWT-RWA", "RRZI-VSA")
HARVEST_METHODS = ("VS-A", "RRZI-VSA")  # independent auxiliary draws; the rest walk
LABEL_KINDS = ("degree", "in-degree", "out-degree")
CHUNK_VISITS = 1 << 20  # most visits (budget x replications) of one lockstep batch
STALL_VISITS = 0.01  # fewest expected target visits of an RWT-RWA run: one in 100 runs
SOURCES = ("synthetic", "files", "lbsn")
# config key -> the one source that reads it
SOURCE_KEYS = {**dict.fromkeys(("target_path", "auxiliary_path", "affiliation_path", "venues_path"), "files"),
               **dict.fromkeys(("social_path", "checkins_path", "bbox"), "lbsn")}


@dataclass
class ExperimentConfig:
    source: str = "synthetic"
    method: str = "SRW"
    # synthetic source
    n_per_graph: int = 10_000
    m1: int = 2
    m2: int = 5
    m3: int = 10
    extra_pairs: int | None = None  # None: min(20000, 2n(n-1)), see build_network
    # files source
    target_path: str = ""
    auxiliary_path: str = ""
    affiliation_path: str = ""
    venues_path: str = ""
    # lbsn source
    social_path: str = ""
    checkins_path: str = ""
    bbox: str = ""
    # sampling
    alpha: float = 1.0
    beta: float = 1.0
    budget: str = "2%"
    runs: int = 200
    seed: int = 1
    label: str = "degree"
    rrzi_k: int = 25
    workers: int = 1
    # outputs
    raw_out: str = ""
    trace_out: str = ""

    def validate(self) -> None:
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}; expected one of {SOURCES}")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.label not in LABEL_KINDS:
            raise ValueError(f"unknown label kind {self.label!r}")
        if self.label != "degree" and self.source != "synthetic":
            raise ValueError(f"label={self.label} needs source=synthetic, got {self.source}")
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        for key in ("alpha", "beta"):
            value = getattr(self, key)
            if not 0 <= value < math.inf:
                raise ValueError(f"{key}={value!r}: must be a finite number >= 0")
        if self.seed < 0:
            raise ValueError(f"seed={self.seed!r}: must be >= 0")
        if self.method == "RWT-RWA" and self.alpha > 0 and self.beta == 0:
            raise ValueError(f"beta=0 with alpha={self.alpha!r}: an RWT-RWA walk on an "
                             "auxiliary node returns to the target only through jump mass")
        if self.rrzi_k < 1:
            raise ValueError("rrzi_k must be >= 1")
        if self.workers != 1:
            raise ValueError(f"workers={self.workers!r}: replications run serially, only 1 is accepted")
        if self.trace_out and self.method in HARVEST_METHODS:
            raise ValueError(f"trace_out: {self.method} draws no walk, so there is no trace")
        resolve_budget(self.budget, 10**6)  # syntax check; real n applied later
        for key, source in SOURCE_KEYS.items():
            if getattr(self, key) and self.source != source:
                raise ValueError(f"{key} is read by source={source}, not by source={self.source}")
        if self.bbox:
            _parse_bbox(self.bbox)


# config key -> the type a string value converts to (int for ``int | None``)
_KEY_TYPES = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(ExperimentConfig).items()
}


def parse_config_file(path) -> dict:
    """Flat "key = value" config format, one experiment per file."""
    mapping: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            mapping[key.strip()] = value.strip()
    return mapping


def make_config(mapping: dict, overrides: dict | None = None) -> ExperimentConfig:
    merged = dict(mapping)
    merged.update(overrides or {})
    kwargs = {}
    for key, value in merged.items():
        if key not in _KEY_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        kind = _KEY_TYPES[key]
        if isinstance(value, str) and kind is not str:
            try:
                value = kind(value)
            except ValueError:
                raise ValueError(
                    f"config key {key!r} expects {kind.__name__}, got {value!r}"
                ) from None
        kwargs[key] = value
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def resolve_budget(budget, n: int) -> int:
    """Budget as absolute count ("2000"), percent ("2%"), or fraction ("0.02")."""
    if isinstance(budget, int):
        value = budget
    else:
        text = str(budget).strip()
        try:
            if text.endswith("%"):
                value = round(float(text[:-1]) / 100.0 * n)
            elif "." in text:
                value = round(float(text) * n)
            else:
                value = int(text)
        except (ValueError, OverflowError):
            raise ValueError(
                f"budget {budget!r}: expected a count (2000), percent (2%) or fraction (0.02)"
            ) from None
    if value < 1:
        raise ValueError(f"budget {budget!r} resolves to {value}; must be >= 1")
    return value


@dataclass
class PreparedExperiment:
    """Everything shared across replications of one experiment."""

    cfg: ExperimentConfig
    hybrid: HybridNetwork
    labels: LabelTable
    truth: dict  # {label: theta}
    budget: int
    alpha_total: float
    beta_total: float
    # the method's law: auxiliary draws (VS-A, RRZI-VSA), the target walk's
    # jumps (RWT-VSA) or the weighted hybrid graph (RWT-RWA); None for SRW
    law: AuxDistribution | JumpLaw | WeightSystem | None = None


def _parse_bbox(text: str) -> geo.Region:
    if text.lower() == "nyc":
        return geo.NYC_REGION
    try:
        parts = [float(x) for x in text.split(",")]
        if len(parts) == 4:
            return geo.Region(*parts)
    except ValueError:  # not a number, or an empty region
        pass
    raise ValueError(f"bbox {text!r}: expected 'lat_min,lat_max,lon_min,lon_max' or 'nyc'")


def synthetic_venues(n: int, region: geo.Region, seed: int) -> tuple:
    """Uniform venue coordinates inside a region, one per auxiliary node:
    the (lats, lons) arrays."""
    u = spawn_generator(seed, STREAM_VENUES).random((n, 2))
    lat = region.lat_min + u[:, 0] * (region.lat_max - region.lat_min)
    lon = region.lon_min + u[:, 1] * (region.lon_max - region.lon_min)
    return lat, lon


@functools.lru_cache(maxsize=1)
def shared_network(inputs, digests: tuple = ()) -> HybridNetwork:
    """The network of a ``SynthConfig``, or of the files at the paths ``inputs``
    with the sha256 ``digests`` (a rewritten file is read again), kept until
    a different one is built.  Its arrays are read-only, so experiments on
    one network share one build; ``cache_clear()`` drops it."""
    if isinstance(inputs, SynthConfig):
        return build_synthetic_hybrid(inputs)
    target, auxiliary = map(ingest.load_edge_list, inputs[:2])
    return HybridNetwork(target, auxiliary, ingest.load_affiliation(inputs[2], target, auxiliary))


def _read_network(paths: tuple) -> HybridNetwork:
    """``shared_network`` of files and their content; a file that cannot be
    read is left to its loader, to fail in the usual order."""
    try:
        digests = []
        for path in paths:
            with open(path, "rb") as fh:
                digests.append(hashlib.file_digest(fh, "sha256").digest())
    except OSError:
        return shared_network.__wrapped__(paths)
    return shared_network(paths, tuple(digests))


def build_network(cfg: ExperimentConfig, venues: bool = False):
    """Build or load the hybrid network named by the config.

    Returns (hybrid, coords): with ``venues``, the venues' (lats, lons) over
    the auxiliary nodes, NaN where a node has none (None for a files source
    without venues_path); else None.
    A synthetic network is built once for its keys, a files network once
    for its files' content (``shared_network``); check-ins are read again
    on every call.
    """
    coords = None
    if cfg.source == "synthetic":
        n = cfg.n_per_graph
        extra_pairs = min(20_000, 2 * n * (n - 1)) if cfg.extra_pairs is None else cfg.extra_pairs
        hybrid = shared_network(SynthConfig(n_per_graph=n, m1=cfg.m1, m2=cfg.m2, m3=cfg.m3,
                                            extra_pairs=extra_pairs, seed=cfg.seed))
        if venues:
            coords = synthetic_venues(hybrid.auxiliary.n, geo.NYC_REGION, cfg.seed)
    elif cfg.source == "files":
        if not (cfg.target_path and cfg.auxiliary_path and cfg.affiliation_path):
            raise ValueError("files source needs target_path, auxiliary_path, affiliation_path")
        hybrid = _read_network((cfg.target_path, cfg.auxiliary_path, cfg.affiliation_path))
        if venues and cfg.venues_path:
            coords = geo.load_venues(cfg.venues_path, hybrid.auxiliary.node_names)
    else:  # lbsn
        if not (cfg.social_path and cfg.checkins_path):
            raise ValueError("lbsn source needs social_path and checkins_path")
        social = ingest.load_edge_list(cfg.social_path)
        bbox = _parse_bbox(cfg.bbox) if cfg.bbox else None
        hybrid, coords = ingest.load_checkins(cfg.checkins_path, social, bbox)
    return hybrid, coords if venues else None


def label_truth(cfg: ExperimentConfig, target) -> tuple:
    """The target graph's node labels of kind ``cfg.label`` and their ground truth."""
    if cfg.label == "degree":
        degrees = target.degrees
    else:
        # follower-style labels: arc (u, v) adds to u's out- and v's in-degree
        arcs = orient_edges(target, cfg.seed)
        degrees = np.bincount(arcs[:, 1 if cfg.label == "in-degree" else 0], minlength=target.n)
    labels = degree_labels(degrees)
    return labels, ground_truth_theta(target, labels)


def prepare_experiment(cfg: ExperimentConfig) -> PreparedExperiment:
    cfg.validate()
    hybrid, venues = build_network(cfg, venues=cfg.method == "RRZI-VSA")
    labels, truth = label_truth(cfg, hybrid.target)

    budget = resolve_budget(cfg.budget, hybrid.target.n)
    alpha_total = cfg.alpha * max(1, int(np.count_nonzero(hybrid.affiliation.left_degrees)))
    beta_total = cfg.beta * max(1, hybrid.auxiliary.n)
    prep = PreparedExperiment(cfg, hybrid, labels, truth, budget, alpha_total, beta_total)
    for key in {"RWT-VSA": ("alpha",), "RWT-RWA": ("alpha", "beta")}.get(cfg.method, ()):
        if getattr(prep, f"{key}_total") == math.inf:
            raise ValueError(f"{key}={getattr(cfg, key)!r}: its total over the nodes overflows a float")

    if cfg.method == "VS-A":
        prep.law = AuxDistribution(hybrid.auxiliary.n)
    elif cfg.method == "RWT-VSA":
        prep.law = jump_law(hybrid, alpha_total)
    elif cfg.method == "RWT-RWA":
        prep.law = fixed_weight_scheme(hybrid, alpha_total, beta_total)
        visits = budget * target_share(prep.law, hybrid.target.n, alpha_total, beta_total)
        if visits < STALL_VISITS:
            raise ValueError(f"alpha={cfg.alpha!r}, beta={cfg.beta!r}: an RWT-RWA walk of budget "
                             f"{budget} expects {visits:.3g} target visits, below {STALL_VISITS}")
    elif cfg.method == "RRZI-VSA":
        if venues is None:
            raise ValueError("RRZI-VSA needs venue coordinates (venues_path or lbsn source)")
        law = geo.zoom_in_law(*venues, geo.bounding_region(*venues), cfg.rrzi_k)
        prep.law = AuxDistribution(hybrid.auxiliary.n, *law)
    return prep


def _walk_batch(prep: PreparedExperiment, seeds: list):
    """Run the walk replications of ``seeds`` as one lockstep batch.

    Each replication starts at a target node of positive visit weight,
    picked by u_0, the first uniform of its seed's STREAM_WALK_START,
    separate from the walk's streams: entry floor(u_0 * c) of the c such
    nodes.  With none the batch raises WalkError.
    """
    target, law = prep.hybrid.target, prep.law
    # both laws' total starts with the target nodes' visit weights
    pool = np.flatnonzero((target.degrees if law is None else law.total[:target.n]) > 0)
    if not len(pool):
        raise WalkError(0, "no usable start node")
    u = np.array([spawn_generator(rep_seed, STREAM_WALK_START).random() for rep_seed in seeds])
    starts = pool[(u * len(pool)).astype(np.int64)]
    if isinstance(law, WeightSystem):
        return rwt_rwa_run(prep.hybrid, law, prep.budget, starts, seeds)
    # SRW is the target walk without a jump law
    return rwt_vsa_run(target, prep.budget, starts, seeds, law)


def replicate(prep: PreparedExperiment, seeds: list) -> list:
    """Estimates of the replications of ``seeds``, in order.

    A harvest method runs them one after another (vs_a_collect, then
    vsa_theta_unknown_n); a walk method in lockstep batches of at most
    CHUNK_VISITS visits, and writes replication 0's trace to trace_out.
    A failure raises RuntimeError naming the replication and its seed.
    """
    cfg = prep.cfg
    walk = not isinstance(prep.law, AuxDistribution)
    per_batch = max(1, CHUNK_VISITS // prep.budget) if walk else 1
    reports = []
    for lo in range(0, len(seeds), per_batch):
        chunk = seeds[lo:lo + per_batch]
        r = 0
        try:
            if walk:
                batch = _walk_batch(prep, chunk)
                for r in range(len(chunk)):
                    reports.append(walk_theta(batch, r, prep.labels))
            else:
                reports.append(vsa_theta_unknown_n(
                    vs_a_collect(prep.hybrid, prep.law, prep.budget, chunk[0]), prep.labels))
        except Exception as exc:
            reason = exc
            if isinstance(exc, WalkError):
                r, reason = exc.replication, exc.reason
            raise RuntimeError(f"replication {lo + r} (seed {chunk[r]}) failed: {reason}") from exc
        if lo == 0 and walk and cfg.trace_out:
            write_trace(batch, cfg.trace_out)
    return reports


@dataclass
class ResultRow:
    method: str
    label: int
    theta_true: float
    mean_estimate: float
    nrmse: float
    runs: int
    budget: int
    alpha: float
    beta: float
    seed: int
    target_samples: float
    query_count: float


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRow))
_COLUMN_TYPES = list(get_type_hints(ResultRow).values())


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)

    def label_axis(self) -> list:
        return sorted({row.label for row in self.rows})


def run_experiment(cfg: ExperimentConfig, prep: PreparedExperiment | None = None) -> ResultTable:
    """Run all replications of a configured experiment and aggregate, on
    ``prep`` when given, which must come from an equal config.  Any
    replication failure aborts the experiment naming its seed.
    """
    if prep is None:
        prep = prepare_experiment(cfg)
    elif prep.cfg != cfg:
        keys = [f.name for f in fields(cfg) if getattr(cfg, f.name) != getattr(prep.cfg, f.name)]
        raise ValueError(f"prep was prepared from a config that differs in {', '.join(keys)}")
    seeds = replication_seeds(cfg.seed, cfg.runs)
    reports = replicate(prep, seeds)

    if cfg.raw_out:
        with open(cfg.raw_out, "w", encoding="utf-8") as fh:
            fh.write("method,label,theta_hat,theta_true,budget,seed\n")
            for rep_seed, rep in zip(seeds, reports):
                for l in sorted(rep.theta):
                    fh.write(f"{cfg.method},{l},{rep.theta[l]!r},{prep.truth[l]!r},"
                             f"{prep.budget},{rep_seed}\n")

    runs = len(reports)
    samples = math.fsum(rep.target_samples for rep in reports) / runs
    queries = math.fsum(rep.query_count for rep in reports) / runs
    rows = []
    for label in sorted(prep.truth):
        t_true = prep.truth[label]
        estimates = [rep.theta.get(label, 0.0) for rep in reports]
        rows.append(
            ResultRow(
                method=cfg.method,
                label=label,
                theta_true=t_true,
                mean_estimate=math.fsum(estimates) / runs,
                nrmse=nrmse(estimates, t_true),
                runs=cfg.runs,
                budget=prep.budget,
                alpha=cfg.alpha,
                beta=cfg.beta,
                seed=cfg.seed,
                target_samples=samples,
                query_count=queries,
            )
        )
    return ResultTable(rows)


def format_result_csv(table: ResultTable) -> str:
    """The header and one line per row; str of a float is its repr."""
    lines = [",".join(RESULT_COLUMNS)]
    lines += (",".join(str(getattr(row, c)) for c in RESULT_COLUMNS) for row in table.rows)
    return "\n".join(lines) + "\n"


def read_result_csv(path) -> ResultTable:
    """The rows of a result CSV; a bad row or value fails naming ``path:line``."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != ",".join(RESULT_COLUMNS):
            raise InputError(f"{path}:1: unexpected result header {header!r}")
        rows = []
        for lineno, line in enumerate(map(str.strip, fh), 2):
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(RESULT_COLUMNS):
                raise InputError(f"{path}:{lineno}: malformed result row {line!r}")
            values = []
            for name, kind, text in zip(RESULT_COLUMNS, _COLUMN_TYPES, parts):
                try:
                    values.append(kind(text))
                except ValueError:
                    raise InputError(f"{path}:{lineno}: {name} {text!r} is not "
                                     f"{'an' if kind is int else 'a'} {kind.__name__}") from None
            rows.append(ResultRow(*values))
    return ResultTable(rows)


FIGURE_KINDS = {
    "fig2-convergence": ("budget", "mean_estimate"),
    "fig3-nrmse": ("alpha", "nrmse"),
}


def emit_figure_data(kind: str, tables, out_path) -> None:
    """Project result tables into a tidy plot-ready CSV.

    Columns are method,param,label,value; the param column carries the
    swept quantity (budget for convergence plots, alpha otherwise).
    """
    if kind not in FIGURE_KINDS:
        raise ValueError(f"unknown figure kind {kind!r}; expected one of {sorted(FIGURE_KINDS)}")
    tables = list(tables)
    if not tables:
        raise ValueError("empty sweep: no result tables given")
    param_field, value_field = FIGURE_KINDS[kind]
    axis = tables[0].label_axis()
    for t in tables[1:]:
        if t.label_axis() != axis:
            raise ValueError("mismatched label axes across result tables")
    out_rows = []
    for t in tables:
        for r in t.rows:
            out_rows.append(
                (r.method, getattr(r, param_field), r.label, getattr(r, value_field))
            )
    out_rows.sort(key=lambda row: row[:3])
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write("method,param,label,value\n")
        for method, param, label, value in out_rows:
            fh.write(f"{method},{param},{label},{value!r}\n")

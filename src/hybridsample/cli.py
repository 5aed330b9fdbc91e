"""Command-line experiment runner.

Subcommands:

* generate  - write a synthetic hybrid network to edge-list files
* truth     - ground-truth label distribution as CSV
* run       - run a configured experiment, write the aggregated result CSV
* figdata   - merge result CSVs into tidy figure data

Exit codes: 0 success, 1 configuration or input-file error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import experiment, geo, ingest
from ._tokens import InputError


def _split_sets(pairs) -> dict:
    overrides = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def _load_cfg(args) -> experiment.ExperimentConfig:
    mapping = experiment.parse_config_file(args.config) if args.config else {}
    return experiment.make_config(mapping, _split_sets(args.set))


def cmd_generate(args) -> int:
    cfg = _load_cfg(args)
    if cfg.source != "synthetic":
        raise ValueError("generate only writes synthetic networks")
    hybrid, venues = experiment.build_network(cfg, venues=True)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ingest.write_edge_list(hybrid.target, out_dir / "target.txt")
    ingest.write_edge_list(hybrid.auxiliary, out_dir / "auxiliary.txt")
    ingest.write_affiliation(hybrid.affiliation, out_dir / "affiliation.txt")
    geo.write_venues(venues, out_dir / "venues.txt")
    print(
        f"wrote {out_dir}/: target n={hybrid.target.n} m={hybrid.target.num_edges}, "
        f"auxiliary n={hybrid.auxiliary.n} m={hybrid.auxiliary.num_edges}, "
        f"affiliation m={hybrid.affiliation.num_edges}"
    )
    return 0


def cmd_truth(args) -> int:
    cfg = _load_cfg(args)
    hybrid, _ = experiment.build_network(cfg)
    _, truth = experiment.label_truth(cfg, hybrid.target)
    lines = ["label,theta"] + [f"{label},{truth[label]!r}" for label in sorted(truth)]
    return _emit(args.out, "\n".join(lines) + "\n")


def cmd_run(args) -> int:
    cfg = _load_cfg(args)
    return _emit(args.out, experiment.format_result_csv(experiment.run_experiment(cfg)))


def _emit(out, text: str) -> int:
    """Write text to the path ``out`` (-o), else to stdout."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def cmd_figdata(args) -> int:
    tables = [experiment.read_result_csv(p) for p in args.results]
    experiment.emit_figure_data(args.kind, tables, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hybridsample", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value config file")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")

    p_gen = sub.add_parser("generate", parents=[common],
                           help="write a synthetic network to files")
    p_gen.add_argument("--out-dir", default="network", help="output directory")
    p_gen.set_defaults(func=cmd_generate)

    p_truth = sub.add_parser("truth", parents=[common],
                             help="ground-truth label distribution")
    p_truth.set_defaults(func=cmd_truth)

    p_run = sub.add_parser("run", parents=[common], help="run an experiment")
    p_run.set_defaults(func=cmd_run)
    for p in (p_truth, p_run):
        p.add_argument("-o", "--out", help="output path (default: stdout)")

    p_fig = sub.add_parser("figdata", help="merge result CSVs into figure data")
    p_fig.add_argument("--kind", required=True, choices=sorted(experiment.FIGURE_KINDS))
    p_fig.add_argument("results", nargs="+", help="result CSV files from 'run'")
    p_fig.add_argument("-o", "--out", required=True, help="output CSV path")
    p_fig.set_defaults(func=cmd_figdata)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        kind = "input" if isinstance(exc, InputError) else "config"
        print(f"{kind} error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

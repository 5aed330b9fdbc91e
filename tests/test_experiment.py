import collections
import hashlib
import math
import os
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from helpers import labels_of
from hybridsample import cli, experiment as ex, geo, ingest
from hybridsample.samplers import AuxDistribution, JumpLaw, WeightSystem
from hybridsample.seeds import replication_seeds
from hybridsample.synth import SynthConfig, build_synthetic_hybrid, orient_edges

SMALL = dict(n_per_graph=60, m1=2, m2=3, m3=4, extra_pairs=40, runs=2, seed=5, budget="2%")


def small_cfg(**kw):
    merged = {**SMALL, **kw}
    return ex.ExperimentConfig(**merged)


def uncached_network(cfg):
    """A build of the config's synthetic network that shares nothing with
    the one prepare_experiment reuses."""
    return build_synthetic_hybrid(SynthConfig(**{f.name: getattr(cfg, f.name)
                                                 for f in fields(SynthConfig)}))


def small_files(out) -> dict:
    """The config keys of a files source holding small_cfg()'s network and
    venues, written as generate writes them."""
    hybrid, venues = ex.build_network(small_cfg(), venues=True)
    ingest.write_edge_list(hybrid.target, out / "target.txt")
    ingest.write_edge_list(hybrid.auxiliary, out / "auxiliary.txt")
    ingest.write_affiliation(hybrid.affiliation, out / "affiliation.txt")
    geo.write_venues(venues, out / "venues.txt")
    return {"source": "files", **{f"{part}_path": str(out / f"{part}.txt")
                                  for part in ("target", "auxiliary", "affiliation", "venues")}}


def test_budget_resolution():
    assert ex.resolve_budget("2%", 20_000) == 400
    assert ex.resolve_budget("0.02", 20_000) == 400
    assert ex.resolve_budget("1500", 20_000) == 1500
    assert ex.resolve_budget(7, 100) == 7
    with pytest.raises(ValueError):
        ex.resolve_budget("0", 100)


def test_config_validation_errors():
    with pytest.raises(ValueError, match="unknown method"):
        ex.make_config({"method": "bogus"})
    with pytest.raises(ValueError, match="unknown config key"):
        ex.make_config({"nope": "1"})
    with pytest.raises(ValueError, match="workers"):
        ex.make_config({"workers": "2"})
    # an RWT-RWA walk on the auxiliary side returns only through jump mass
    with pytest.raises(ValueError, match="beta=0 with alpha=1.0"):
        ex.make_config({"method": "RWT-RWA", "beta": "0"})
    assert ex.make_config({"method": "RWT-RWA", "alpha": "0", "beta": "0"}).beta == 0.0
    assert ex.make_config({"method": "RWT-VSA", "beta": "0"}).beta == 0.0


@pytest.mark.parametrize("key,value", [
    ("runs", "abc"), ("alpha", "x"), ("budget", "1e3"), ("bbox", "1,2,a,4"), ("bbox", "2,1,3,4"),
    ("alpha", "nan"), ("alpha", "inf"), ("beta", "nan"), ("beta", "inf"), ("budget", "inf%"),
    ("seed", "-1"),
])
def test_config_value_that_fails_to_convert_names_its_key(key, value):
    with pytest.raises(ValueError, match=key):
        ex.make_config({key: value})


@pytest.mark.parametrize("value", ["1,2,a,4", "2,1,3,4", "1,2,3"])
def test_bbox_parse_error_names_bbox_on_lbsn_source(value):
    with pytest.raises(ValueError, match="bbox .*expected 'lat_min,lat_max,lon_min,lon_max'"):
        ex.make_config({"source": "lbsn", "bbox": value})


@pytest.mark.parametrize("key,reader,source", [
    *(pytest.param("bbox", "lbsn", source, id=source) for source in ("synthetic", "files")),
    *((key, "files", source) for key in ("target_path", "auxiliary_path", "affiliation_path", "venues_path")
      for source in ("synthetic", "lbsn")),
    *((key, "lbsn", source) for key in ("social_path", "checkins_path") for source in ("synthetic", "files")),
])
def test_bbox_rejected_for_sources_without_checkins(key, reader, source):
    # a key of one source is refused under the others, naming it and both sources
    with pytest.raises(ValueError, match=f"{key}.*source={reader}.*source={source}"):
        ex.make_config({"source": source, key: "nyc" if key == "bbox" else "/nonexistent/t.txt"})


@pytest.mark.parametrize("method", ex.HARVEST_METHODS)
def test_trace_out_rejected_for_harvest_methods(method):
    with pytest.raises(ValueError, match="trace_out"):
        ex.make_config({"method": method, "trace_out": "trace.csv"})


def test_config_defaults_survive_string_coercion():
    # every value typed into a config file arrives as a string; the field
    # annotations decide what it becomes
    for f in fields(ex.ExperimentConfig):
        if f.default is None:
            continue
        value = getattr(ex.make_config({f.name: str(f.default)}), f.name)
        assert value == f.default and type(value) is type(f.default), f.name
    assert ex.make_config({"extra_pairs": "12"}).extra_pairs == 12


def test_config_file_parse_and_overrides(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text("# demo\nmethod = SRW\nruns = 3\nseed = 9\nbudget = 5%\n")
    mapping = ex.parse_config_file(p)
    cfg = ex.make_config(mapping, {"runs": "7"})
    assert cfg.method == "SRW" and cfg.runs == 7 and cfg.seed == 9


def test_replication_seeds_distinct():
    seeds = replication_seeds(3, 500)
    assert len(set(seeds)) == 500
    assert seeds == replication_seeds(3, 500)
    assert seeds != replication_seeds(4, 500)


def test_run_experiment_srw_structure():
    cfg = small_cfg(method="SRW")
    table = ex.run_experiment(cfg)
    prep = ex.prepare_experiment(cfg)
    populated = [l for l in sorted(prep.truth) if prep.truth[l] > 0]
    assert [r.label for r in table.rows] == sorted(populated)
    for row in table.rows:
        assert row.runs == 2 and row.method == "SRW"
        assert row.budget == ex.resolve_budget("2%", prep.hybrid.target.n)


@pytest.mark.parametrize("method", ["VS-A", "RWT-VSA", "RWT-RWA", "RRZI-VSA"])
def test_run_experiment_all_methods_execute(method):
    cfg = small_cfg(method=method, alpha=1.0, beta=1.0)
    table = ex.run_experiment(cfg)
    assert table.rows
    assert all(r.nrmse >= 0 for r in table.rows)


@pytest.mark.parametrize("method", ex.METHODS)
def test_list_views_built_in_prepare_only(method):
    # every method reads the CSR arrays: neither prepare nor a replication
    # caches a row view, or anything else, on the graphs
    prep = ex.prepare_experiment(small_cfg(method=method))
    parts = ("target", "auxiliary", "affiliation")

    def attributes(hybrid):
        return [set(vars(getattr(hybrid, part))) for part in parts]

    fresh = uncached_network(prep.cfg)
    assert attributes(prep.hybrid) == attributes(fresh)
    ex.run_experiment(prep.cfg, prep)
    assert attributes(prep.hybrid) == attributes(fresh)


@pytest.mark.parametrize("method", ["SRW", "RWT-VSA", "RWT-RWA"])
def test_walk_batches_do_not_move_results(tmp_path, monkeypatch, method):
    cfg = small_cfg(method=method, runs=5, raw_out=str(tmp_path / "raw.csv"))
    whole = ex.format_result_csv(ex.run_experiment(cfg))
    raw = (tmp_path / "raw.csv").read_text()
    monkeypatch.setattr(ex, "CHUNK_VISITS", 2 * ex.prepare_experiment(cfg).budget)
    assert ex.format_result_csv(ex.run_experiment(cfg)) == whole  # batches of 2, 2, 1
    assert (tmp_path / "raw.csv").read_text() == raw


def test_zero_jump_walks_start_where_the_plain_walk_does(tmp_path):
    # check-in-only users c, d and e are covered but isolated target nodes,
    # with no visit weight at zero jump strength: no walk starts there, so
    # the three walks are the same plain walk from the same starts
    (tmp_path / "social.txt").write_text("a b\n")
    checkins = [("a", "v1"), ("b", "v1"), ("c", "v2"), ("d", "v2"), ("e", "v3")]
    (tmp_path / "checkins.tsv").write_text(
        "".join(f"{user}\tts\t40.7\t-74.0\t{venue}\n" for user, venue in checkins))
    raws = []
    for method in ("SRW", "RWT-VSA", "RWT-RWA"):
        raw = tmp_path / f"{method}.csv"
        ex.run_experiment(ex.make_config({
            "source": "lbsn", "social_path": str(tmp_path / "social.txt"),
            "checkins_path": str(tmp_path / "checkins.tsv"), "method": method,
            "alpha": "0", "beta": "0", "budget": "20", "runs": "5", "seed": "2",
            "raw_out": str(raw),
        }))
        raws.append([line.split(",", 1)[1] for line in raw.read_text().splitlines()])
    assert len(raws[0]) > 1
    assert raws[0] == raws[1] == raws[2]


def test_walk_failure_names_replication_across_batches(monkeypatch):
    cfg = small_cfg(method="SRW", runs=5)
    prep = ex.prepare_experiment(cfg)
    failing_seed = replication_seeds(cfg.seed, cfg.runs)[3]
    monkeypatch.setattr(ex, "CHUNK_VISITS", 2 * prep.budget)
    walk = ex.rwt_vsa_run

    def fail_replication_3(graph, budget, starts, seeds, jumps=None):
        if failing_seed in seeds:
            raise ex.WalkError(seeds.index(failing_seed),
                               "absorbing node 9: zero visit weight, so the walk cannot leave it")
        return walk(graph, budget, starts, seeds, jumps)

    monkeypatch.setattr(ex, "rwt_vsa_run", fail_replication_3)
    with pytest.raises(RuntimeError, match=rf"^replication 3 \(seed {failing_seed}\) failed: "
                                           r"absorbing node 9: zero visit weight, so the walk "
                                           r"cannot leave it$"):
        ex.run_experiment(cfg, prep)


def test_run_experiment_deterministic_csv(tmp_path):
    cfg = small_cfg(method="RWT-VSA", alpha=2.0)
    a = ex.format_result_csv(ex.run_experiment(cfg))
    b = ex.format_result_csv(ex.run_experiment(cfg))
    assert a == b


def test_directed_target_labels():
    # in/out-degree label the arcs of the oriented target; the walk runs on
    # the undirected target as built
    for label in ("in-degree", "out-degree"):
        cfg = small_cfg(method="SRW", label=label)
        prep = ex.prepare_experiment(cfg)
        built = uncached_network(cfg)
        assert np.array_equal(prep.hybrid.target.indices, built.target.indices)
        assert ex.run_experiment(cfg, prep).rows
    with pytest.raises(ValueError, match="label=in-degree"):
        small_cfg(label="in-degree", source="files").validate()


def test_experiments_on_one_network_share_its_build():
    ex.shared_network.cache_clear()
    first = ex.prepare_experiment(small_cfg())
    # method, jump strengths, budget, runs and label are not network keys;
    # labels and truth are still the experiment's own
    for kw in ({"method": "RWT-RWA"}, {"alpha": 3.0, "beta": 2.0}, {"budget": "5%"},
               {"runs": 7}, {"method": "RRZI-VSA"}):
        assert ex.prepare_experiment(small_cfg(**kw)).hybrid is first.hybrid
    oriented = ex.prepare_experiment(small_cfg(label="in-degree"))
    assert oriented.hybrid is first.hybrid
    assert oriented.truth != first.truth
    assert ex.shared_network.cache_info().misses == 1


@pytest.mark.parametrize("key", [f.name for f in fields(SynthConfig)])
def test_each_network_key_builds_a_new_network(key):
    base = small_cfg()
    changed = small_cfg(**{key: getattr(base, key) + 1})
    ex.shared_network.cache_clear()
    old = ex.prepare_experiment(base).hybrid
    new = ex.prepare_experiment(changed).hybrid
    assert new is not old

    def arrays(h):
        return (h.target.indices, h.auxiliary.indices, h.affiliation.left_indices)

    def same(a, b):
        return all(np.array_equal(x, y) for x, y in zip(arrays(a), arrays(b)))

    assert same(new, uncached_network(changed)) and not same(new, old)
    # one network stays resident: going back builds the first again
    assert ex.prepare_experiment(base).hybrid is not old
    assert ex.shared_network.cache_info().hits == 0


def test_shared_network_gives_the_bytes_of_a_fresh_build(tmp_path):
    def run(source, method, name):
        raw = tmp_path / name
        cfg = small_cfg(**source, method=method, alpha=2.0, runs=3, raw_out=str(raw))
        return ex.format_result_csv(ex.run_experiment(cfg)), raw.read_bytes()

    for source in ({}, small_files(tmp_path)):
        ex.shared_network.cache_clear()
        warm = {method: run(source, method, f"warm-{method}.csv") for method in ex.METHODS}
        assert ex.shared_network.cache_info().hits == len(ex.METHODS) - 1
        for method in ex.METHODS:
            ex.shared_network.cache_clear()
            assert run(source, method, f"cold-{method}.csv") == warm[method]


def test_experiments_on_one_file_set_parse_it_once(tmp_path, monkeypatch):
    files = small_files(tmp_path)
    ex.shared_network.cache_clear()
    parsed = []
    load = ingest.load_edge_list
    monkeypatch.setattr(ingest, "load_edge_list", lambda path: parsed.append(path) or load(path))
    rrzi = ex.prepare_experiment(small_cfg(**files, method="RRZI-VSA"))
    vsa = ex.prepare_experiment(small_cfg(**files, method="VS-A"))
    assert parsed == [files["target_path"], files["auxiliary_path"]]
    assert vsa.hybrid is rrzi.hybrid


def test_files_network_is_read_again_on_every_build(tmp_path):
    (tmp_path / "target.txt").write_text("a b\nb c\n")
    (tmp_path / "auxiliary.txt").write_text("v w\n")
    (tmp_path / "affiliation.txt").write_text("a v\nc w\n")
    cfg = ex.make_config({"source": "files", **{f"{part}_path": str(tmp_path / f"{part}.txt")
                                                for part in ("target", "auxiliary", "affiliation")}})
    first, _ = ex.build_network(cfg)
    (tmp_path / "target.txt").write_text("a b\nb c\nc a\n")
    second, _ = ex.build_network(cfg)
    assert (first.target.num_edges, second.target.num_edges) == (2, 3)
    # bytes of the same length and mtime, which a stat key would take as unchanged
    (tmp_path / "target.txt").write_text("a b\nb c\n")
    ex.build_network(cfg)
    stat = os.stat(tmp_path / "target.txt")
    (tmp_path / "target.txt").write_text("a c\nb c\n")
    os.utime(tmp_path / "target.txt", ns=(stat.st_atime_ns, stat.st_mtime_ns))
    third, _ = ex.build_network(cfg)
    names = third.target.node_names
    assert {(names[u], names[v]) for u, v in third.target.edge_array().tolist()} == {
        ("a", "c"), ("c", "b")}


@pytest.mark.parametrize("label,end", [("in-degree", 1), ("out-degree", 0)])
def test_orientation_label_truth_counts_arcs(label, end):
    cfg = small_cfg(label=label)
    prep = ex.prepare_experiment(cfg)
    n = prep.hybrid.target.n
    arcs = orient_edges(prep.hybrid.target, cfg.seed)
    per_node = collections.Counter(arcs[:, end].tolist())
    assert all(labels_of(prep.labels, u) == (per_node[u],) for u in range(n))
    counts = collections.Counter(per_node[u] for u in range(n))
    assert prep.truth == {d: c / n for d, c in counts.items()}
    assert sum(d * c for d, c in counts.items()) == len(arcs)


def test_result_csv_roundtrip(tmp_path):
    table = ex.run_experiment(small_cfg(method="SRW"))
    path = tmp_path / "res.csv"
    path.write_text(ex.format_result_csv(table), encoding="utf-8")
    back = ex.read_result_csv(path)
    assert back.label_axis() == table.label_axis()
    assert [r.nrmse for r in back.rows] == [r.nrmse for r in table.rows]


@pytest.mark.parametrize("column,text,message", [
    ("nrmse", "abc", "nrmse 'abc' is not a float"),
    ("label", "2x", "label '2x' is not an int"),
    ("runs", "3.0", "runs '3.0' is not an int"),
])
def test_result_csv_names_the_bad_value(tmp_path, capsys, column, text, message):
    row = ex.ResultRow("SRW", 2, 0.5, 0.4, 0.1, 3, 80, 10.0, 1.0, 7, 80.0, 80.0)
    lines = ex.format_result_csv(ex.ResultTable([row, row])).splitlines()
    fields = lines[2].split(",")
    fields[ex.RESULT_COLUMNS.index(column)] = text
    path = tmp_path / "r.csv"
    path.write_text("\n".join(lines[:2] + [",".join(fields)]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        ex.read_result_csv(path)
    assert str(exc.value) == f"{path}:3: {message}"
    # figdata reports it as an input error naming the file and line
    assert cli.main(["figdata", "--kind", "fig3-nrmse", str(path), "-o", str(tmp_path / "f.csv")]) == 1
    assert f"{path}:3: {message}" in capsys.readouterr().err


def test_result_csv_names_a_malformed_row(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text(",".join(ex.RESULT_COLUMNS) + "\n\nSRW,2,0.5\n", encoding="utf-8")
    with pytest.raises(ValueError) as exc:
        ex.read_result_csv(path)
    assert str(exc.value) == f"{path}:3: malformed result row 'SRW,2,0.5'"


def test_emit_figure_data(tmp_path):
    tables = [ex.run_experiment(small_cfg(method="SRW", budget=b)) for b in ("2%", "5%", "10%")]
    out = tmp_path / "fig2.csv"
    ex.emit_figure_data("fig2-convergence", tables, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "method,param,label,value"
    per_label = {}
    for line in lines[1:]:
        method, param, label, value = line.split(",")
        per_label.setdefault(label, []).append(param)
    assert all(len(v) == 3 for v in per_label.values())
    # round trip: emitted values sum to the source tables' column sums
    total = sum(float(l.split(",")[3]) for l in lines[1:])
    expect = sum(r.mean_estimate for t in tables for r in t.rows)
    assert total == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("kind,key,values,order", [
    ("fig2-convergence", "budget", ("40", "100", "8"), ["8", "40", "100"]),
    ("fig3-nrmse", "alpha", (2.0, 10.0, 0.5), ["0.5", "2.0", "10.0"]),
])
def test_emit_figure_data_sorts_params_as_numbers(tmp_path, kind, key, values, order):
    tables = [ex.run_experiment(small_cfg(method="SRW", **{key: v})) for v in values]
    out = tmp_path / "fig.csv"
    ex.emit_figure_data(kind, tables, out)
    params = [line.split(",")[1] for line in out.read_text().splitlines()[1:]]
    assert list(dict.fromkeys(params)) == order


def test_emit_figure_data_errors(tmp_path):
    with pytest.raises(ValueError, match="empty sweep"):
        ex.emit_figure_data("fig3-nrmse", [], tmp_path / "x.csv")
    with pytest.raises(ValueError, match="unknown figure kind"):
        ex.emit_figure_data("fig9", [ex.ResultTable([])], tmp_path / "x.csv")
    a = ex.run_experiment(small_cfg(method="SRW"))
    b = ex.run_experiment(small_cfg(method="SRW", seed=77))  # different network
    if a.label_axis() != b.label_axis():
        with pytest.raises(ValueError, match="mismatched label axes"):
            ex.emit_figure_data("fig3-nrmse", [a, b], tmp_path / "x.csv")


def test_raw_and_trace_outputs(tmp_path):
    raw = tmp_path / "raw.csv"
    trace = tmp_path / "trace.csv"
    cfg = small_cfg(method="RWT-VSA", raw_out=str(raw), trace_out=str(trace))
    ex.run_experiment(cfg)
    raw_lines = raw.read_text().splitlines()
    assert raw_lines[0] == "method,label,theta_hat,theta_true,budget,seed"
    assert len(raw_lines) > 2
    assert trace.read_text().startswith("step,node,weight,jumped")


# ------------------------------------------------------------------- CLI


def _write_cfg(tmp_path, **extra):
    lines = [f"{k} = {v}" for k, v in {**SMALL, **extra}.items()]
    p = tmp_path / "exp.cfg"
    p.write_text("\n".join(lines) + "\n")
    return p


def test_cli_truth_and_run(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, method="SRW")
    assert cli.main(["truth", "--config", str(cfgp)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("label,theta")
    res = tmp_path / "res.csv"
    assert cli.main(["run", "--config", str(cfgp), "-o", str(res)]) == 0
    assert res.read_text().startswith(",".join(ex.RESULT_COLUMNS))


def test_result_path_is_not_a_config_key(tmp_path):
    # the result CSV goes to the CLI's -o only
    with pytest.raises(ValueError, match="unknown config key 'out'"):
        ex.make_config({"out": str(tmp_path / "res.csv")})


def test_cli_truth_small_network_default_extra_pairs(capsys):
    # the default extra_pairs shrinks to the 2n(n-1) free pairs of a small network
    assert cli.main(["truth", "--set", "n_per_graph=100"]) == 0
    assert capsys.readouterr().out.startswith("label,theta")


def test_cli_bbox_on_synthetic_source_is_config_error(capsys):
    assert cli.main(["truth", "--set", "n_per_graph=100", "--set", "bbox=nyc"]) == 1
    err = capsys.readouterr().err
    assert "bbox" in err and "source=synthetic" in err


def test_cli_run_twice_byte_identical(tmp_path):
    cfgp = _write_cfg(tmp_path, method="VS-A")
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(["run", "--config", str(cfgp), "-o", str(r1)]) == 0
    assert cli.main(["run", "--config", str(cfgp), "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_cli_generate_then_run_from_files(tmp_path):
    cfgp = _write_cfg(tmp_path)
    net = tmp_path / "net"
    assert cli.main(["generate", "--config", str(cfgp), "--out-dir", str(net)]) == 0
    for name in ("target.txt", "auxiliary.txt", "affiliation.txt", "venues.txt"):
        assert (net / name).exists()
    res = tmp_path / "res.csv"
    code = cli.main([
        "run",
        "--config", str(cfgp),
        "--set", "source=files",
        "--set", f"target_path={net/'target.txt'}",
        "--set", f"auxiliary_path={net/'auxiliary.txt'}",
        "--set", f"affiliation_path={net/'affiliation.txt'}",
        "--set", f"venues_path={net/'venues.txt'}",
        "--set", "method=RRZI-VSA",
        "--set", "budget=20",
        "-o", str(res),
    ])
    assert code == 0
    assert res.read_text().count("RRZI-VSA") > 0


def test_cli_figdata(tmp_path):
    cfgp = _write_cfg(tmp_path, method="SRW")
    r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    cli.main(["run", "--config", str(cfgp), "-o", str(r1)])
    cli.main(["run", "--config", str(cfgp), "--set", "alpha=9", "-o", str(r2)])
    out = tmp_path / "fig3.csv"
    code = cli.main(["figdata", "--kind", "fig3-nrmse", str(r1), str(r2), "-o", str(out)])
    assert code == 0
    assert out.read_text().startswith("method,param,label,value")


def test_cli_exit_codes(tmp_path, capsys):
    badcfg = tmp_path / "bad.cfg"
    badcfg.write_text("method = WRONG\n")
    assert cli.main(["run", "--config", str(badcfg)]) == 1
    assert "config error" in capsys.readouterr().err
    # lbsn source without paths is a config error too
    assert cli.main(["run", "--set", "source=lbsn"]) == 1


def test_cli_path_that_is_a_directory_is_config_error(tmp_path, capsys):
    # a path that cannot be read or written is the caller's to fix
    cfgp = _write_cfg(tmp_path, method="SRW")
    folder = tmp_path / "folder"
    folder.mkdir()
    for args in (["truth", "--set", "source=files", "--set", f"target_path={folder}",
                  "--set", f"auxiliary_path={folder}", "--set", f"affiliation_path={folder}"],
                 ["run", "--config", str(cfgp), "--set", f"raw_out={folder}"],
                 ["run", "--config", str(folder)]):
        assert cli.main(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(folder) in err


def test_cli_rwt_rwa_that_would_stall_on_the_auxiliary_side_is_config_error(capsys):
    # the demo network at (1e8, 1e-8) per node: 8.0e-8 expected target
    # visits in 80 steps, so the run is refused before any walk
    demo = str(Path(__file__).resolve().parents[1] / "configs" / "demo.cfg")
    args = ["run", "--config", demo, "--set", "method=RWT-RWA", "--set", "runs=3"]
    assert cli.main(args + ["--set", "alpha=1e8", "--set", "beta=1e-8"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: alpha=100000000.0, beta=1e-08: ")
    assert "budget 80 expects 8.01e-08 target visits" in err
    # at (1, 1e-3) 0.104 visits are expected, above the floor of 0.01
    assert cli.main(args + ["--set", "alpha=1", "--set", "beta=1e-3"]) == 0


def test_run_experiment_refuses_a_prep_of_another_config():
    # the rows would carry one config's alpha and the other's estimates
    prep = ex.prepare_experiment(small_cfg(method="RWT-VSA", alpha=1.0))
    with pytest.raises(ValueError, match="prep was prepared from a config that differs in alpha$"):
        ex.run_experiment(small_cfg(method="RWT-VSA", alpha=5.0), prep)
    assert ex.run_experiment(small_cfg(method="RWT-VSA", alpha=1.0), prep).rows


def test_cli_data_file_errors_are_input_errors(tmp_path, capsys):
    # a bad line of a data file is an input error; a bad config value, or a
    # file that is not there, stays a config error
    bad = tmp_path / "r.csv"
    bad.write_text(",".join(ex.RESULT_COLUMNS) + "\nSRW,2,0.5,0.4,abc,3,80,10.0,1.0,7,80.0,80.0\n")
    assert cli.main(["figdata", "--kind", "fig3-nrmse", str(bad), "-o", str(tmp_path / "f")]) == 1
    assert capsys.readouterr().err == f"input error: {bad}:2: nrmse 'abc' is not a float\n"
    (tmp_path / "target.txt").write_text("a b\nb\n")
    files = ["--set", "source=files", "--set", f"target_path={tmp_path / 'target.txt'}",
             "--set", f"auxiliary_path={tmp_path / 'aux.txt'}",
             "--set", f"affiliation_path={tmp_path / 'aff.txt'}"]
    assert cli.main(["truth"] + files) == 1
    assert capsys.readouterr().err.startswith(f"input error: {tmp_path / 'target.txt'}:2: ")
    (tmp_path / "target.txt").write_text("a b\n")
    assert cli.main(["truth"] + files) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert cli.main(["truth", "--set", "runs=0"]) == 1
    assert capsys.readouterr().err.startswith("config error: runs")


def test_cli_non_finite_beta_is_config_error(tmp_path, capsys):
    # a NaN jump mass would let RWT-RWA drift through rows of NaN weight
    cfgp = _write_cfg(tmp_path, method="RWT-RWA")
    assert cli.main(["run", "--config", str(cfgp), "--set", "beta=nan"]) == 1
    assert "beta=nan" in capsys.readouterr().err


@pytest.mark.parametrize("method,key", [("RWT-VSA", "alpha"), ("RWT-RWA", "alpha"), ("RWT-RWA", "beta")])
def test_cli_jump_total_that_overflows_is_config_error(capsys, method, key):
    # 1e306 per node passes validate, but its total over the demo's nodes is inf
    demo = str(Path(__file__).resolve().parents[1] / "configs" / "demo.cfg")
    assert cli.main(["run", "--config", demo, "--set", f"method={method}", "--set", f"{key}=1e306"]) == 1
    assert capsys.readouterr().err.startswith(f"config error: {key}=1e+306")


@pytest.mark.parametrize("method", ["SRW", "VS-A"])
def test_overflowing_jump_total_is_unused_by_other_methods(method):
    # the totals come from Python ints, so no numpy overflow warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prep = ex.prepare_experiment(small_cfg(method=method, alpha=1e307, beta=1e307))
    assert prep.alpha_total == prep.beta_total == math.inf


def test_cli_generate_refuses_out(tmp_path):
    # generate writes a directory; -o belongs to truth and run
    out, net = tmp_path / "ignored.txt", tmp_path / "net"
    with pytest.raises(SystemExit) as exc:
        cli.main(["generate", "--set", "n_per_graph=50", "--set", "extra_pairs=10",
                  "--out-dir", str(net), "-o", str(out)])
    assert exc.value.code == 2
    assert not out.exists() and not net.exists()


def test_cli_orientation_label_needs_synthetic_source(tmp_path, capsys):
    cfgp = _write_cfg(tmp_path, method="SRW")
    net = tmp_path / "net"
    assert cli.main(["generate", "--config", str(cfgp), "--out-dir", str(net)]) == 0
    code = cli.main([
        "run",
        "--config", str(cfgp),
        "--set", "source=files",
        "--set", f"target_path={net/'target.txt'}",
        "--set", f"auxiliary_path={net/'auxiliary.txt'}",
        "--set", f"affiliation_path={net/'affiliation.txt'}",
        "--set", "label=in-degree",
    ])
    assert code == 1
    assert "label=in-degree" in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    # coincident venues above the truncation limit leave the zoom-in law
    # undefined, which must surface as exit code 2 naming k and the location
    (tmp_path / "target.txt").write_text("a b\nb c\n")
    (tmp_path / "aux.txt").write_text("0 1\n1 2\n")
    (tmp_path / "aff.txt").write_text("a 0\nb 1\nc 2\n")
    (tmp_path / "venues.txt").write_text("0 40.5 -74.0\n1 40.5 -74.0\n2 40.5 -74.0\n")
    code = cli.main([
        "run",
        "--set", "source=files",
        "--set", f"target_path={tmp_path/'target.txt'}",
        "--set", f"auxiliary_path={tmp_path/'aux.txt'}",
        "--set", f"affiliation_path={tmp_path/'aff.txt'}",
        "--set", f"venues_path={tmp_path/'venues.txt'}",
        "--set", "method=RRZI-VSA",
        "--set", "rrzi_k=2",
        "--set", "budget=5",
        "--set", "runs=2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "runtime error" in err and "more than 2 venues share the location (40.5, -74.0)" in err


def test_cli_duplicate_venue_id_is_config_error_naming_the_line(tmp_path, capsys):
    (tmp_path / "target.txt").write_text("a b\nb c\n")
    (tmp_path / "aux.txt").write_text("0 1\n1 2\n")
    (tmp_path / "aff.txt").write_text("a 0\nb 1\nc 2\n")
    (tmp_path / "venues.txt").write_text("0 40.5 -74.0\n1 40.6 -74.0\n0 40.7 -74.0\n")
    code = cli.main([
        "run",
        "--set", "source=files",
        "--set", f"target_path={tmp_path/'target.txt'}",
        "--set", f"auxiliary_path={tmp_path/'aux.txt'}",
        "--set", f"affiliation_path={tmp_path/'aff.txt'}",
        "--set", f"venues_path={tmp_path/'venues.txt'}",
        "--set", "method=RRZI-VSA",
        "--set", "budget=5",
    ])
    assert code == 1
    assert "venues.txt:3: duplicate venue id '0' (first on line 1)" in capsys.readouterr().err


def test_cli_lbsn_source(tmp_path, capsys):
    (tmp_path / "social.txt").write_text("a b\nb c\na c\n")
    rows = [
        "a\tts\t40.7\t-74.0\tv1",
        "b\tts\t40.8\t-74.1\tv1",
        "c\tts\t40.9\t-73.9\tv2",
        "c\tts\t45.0\t-73.9\tv3",   # outside the box, dropped
    ]
    (tmp_path / "checkins.tsv").write_text("\n".join(rows) + "\n")
    res = tmp_path / "res.csv"
    code = cli.main([
        "run",
        "--set", "source=lbsn",
        "--set", f"social_path={tmp_path/'social.txt'}",
        "--set", f"checkins_path={tmp_path/'checkins.tsv'}",
        "--set", "bbox=nyc",
        "--set", "method=VS-A",
        "--set", "budget=10",
        "--set", "runs=3",
        "--set", "seed=2",
        "-o", str(res),
    ])
    assert code == 0
    text = res.read_text()
    assert text.count("VS-A") == 1  # one populated degree label (triangle)
    # a malformed line is an error naming it, not a skipped record
    with open(tmp_path / "checkins.tsv", "a") as fh:
        fh.write("a\tts\t40.7\t-74.0\n")
    assert cli.main(["run", "--set", "source=lbsn", "--set", f"social_path={tmp_path/'social.txt'}",
                     "--set", f"checkins_path={tmp_path/'checkins.tsv'}", "--set", "method=VS-A"]) == 1
    assert f"{tmp_path/'checkins.tsv'}:5: expected 'user time lat lon venue'" in capsys.readouterr().err


# sha256 of (result CSV, raw_out) for n_per_graph=2000, extra_pairs=4000,
# runs=20, keyed by (case, seed), recorded at seed version 4, when the
# harvests and the walks' start nodes moved to numpy streams; RWT-RWA's at
# seed version 5, when it became one walk on the hybrid graph; RRZI-VSA's at
# seed version 6, when its draws became one uniform each from zoom_in_law.
# The RNG streams, the graph construction and the estimator arithmetic must
# not move them.
PINNED_DIGESTS = {
    ("VS-A", 1): ("41a0cf7b20301a83ea91d62df6f4dfc3d5e66cbf98ba87d80abc8cf4006ea42a",
                  "47e59179a1da255e0a67fe515a8bae098c7a19edf3b8d89ed401081107d2e838"),
    ("VS-A", 2): ("485563b5209797c8a7e472807bc6392cfe5d27c889d023981a0a19ab5617894a",
                  "9c01edb45c0527a4b63d384ea4b46a06e7f079f29b5fe97506092e6691d0c29d"),
    ("RRZI-VSA", 1): ("9cbadddbbeaf374279bab68171b74c4fd75ababae95679147310aa29edcc6d19",
                      "503c6278e360ea0d993b30f54d069bfc50200cb7f00602db6d1f9af0bbaa3b97"),
    ("RRZI-VSA", 2): ("c1c3b2aca49bfb09c042d6d8602f944efa74c56e1ab52b7ad094faa6780abd5e",
                      "c5d9f31113582039888e5f5ef0c9b17aa366515c00ab419501a8355b732f6feb"),
    ("RWT-VSA", 1): ("a78b9166f23b49b14dded87fe371db2edc0038054ee2c5510d6758f20a3403cd",
                     "87d3ac0a37ed828ee5cf7c6675d99d928819907abc60f657bfb73fabb7941853"),
    ("RWT-VSA", 2): ("1038ab70f9d09245d26cca3de07dc18d2649aac8cabea4c0d2e01a6ac4ab95ec",
                     "c78c7842ad1e23b552d892afdc11201b510d30aac64ebe5cf3b1c4d207ea8784"),
    ("SRW", 1): ("f3de6e0603d8a16d9c558e7acfdc89ad1a429de7d73162964b885d51f5d79f15",
                 "2cc14c034f8a252ba73eb7c9bee0c5dd1164b9b92112767d9111326a68a6b39b"),
    ("SRW", 2): ("f337530d1d17572656384849d6e438d3ddc9c1f0ec04b8b102f37f0416e43472",
                 "053755a8626e70ca16226144aca0879c5bffb4b14c1029e610babc6a5dc17f3c"),
    ("RWT-RWA", 1): ("5bd96ee30afa77eb6cdb10c49834911fdf8c8799d8ac57d450b734f2e7d64a4e",
                     "28fbf87091ec7cad329cec18da92c741ca6e30269603a7a72dc73dcf26985181"),
    ("RWT-RWA", 2): ("462bc259d2c0f2d99bdeb6c26f66e20562b227dc8c46e30b84e6115467ac411e",
                     "adea3cefec17701d8185ca3b3d758043d914ee9261efab6d8c72ffbec18a4e10"),
    ("SRW-directed", 1): ("e3af0d18b4591e84992a16e1d2993498be6ab38ffa7f297c1987dfcce4666545",
                          "19c819c930f1d631c0bfae126aa75670faa239601b483e54bca4a0bac7768c0c"),
}

# config keys of the cases that are not just a method name; SRW-directed
# labels nodes by their in-degree under orient_edges
PINNED_CASES = {
    "SRW-directed": {"method": "SRW", "label": "in-degree"},
}


@pytest.mark.parametrize("case,seed", sorted(PINNED_DIGESTS))
def test_outputs_match_pinned_digests(tmp_path, case, seed):
    raw = tmp_path / "raw.csv"
    cfg = ex.make_config({"n_per_graph": "2000", "extra_pairs": "4000", "seed": str(seed),
                          "runs": "20", "raw_out": str(raw),
                          **PINNED_CASES.get(case, {"method": case})})
    text = ex.format_result_csv(ex.run_experiment(cfg))
    digests = (hashlib.sha256(text.encode()).hexdigest(),
               hashlib.sha256(raw.read_bytes()).hexdigest())
    assert digests == PINNED_DIGESTS[(case, seed)]


# sha256 of (result CSV, raw_out) of the PINNED_DIGESTS config at seed 1 at
# sizes where every estimate adds more than estimators.LIMB_SUMS_MIN terms
# (2,000-step walks, about 6,300 users per 40% harvest), recorded before the
# label sums were added by limbs: the limb path must not move them.
PINNED_LIMB_DIGESTS = {
    ("SRW", "2000"): ("6f34d98fa2d8ffd930b21b9f8b25101c2631872f65c0a9b4472c779f5a696d49",
                      "d5ac27d96356a7cdc8cb4289e5565f135703b4caf6485137fbe52c0076f4c490"),
    ("RWT-VSA", "2000"): ("7fd5a2a01daf444d19f47f609ca9d98901c7802c706a8fc05ffe5c94b3437142",
                          "7808416537bea5d61c65cd7bb7df05878df47483ad300dede510abf19956477c"),
    ("RWT-RWA", "2000"): ("1f18d002aab6fed02da472521aa1f9b043bdbf8fab6c38b55f16e7694f765994",
                          "245dd4a9a9776e817d04b14e30e92dfce16f3582ec9ac541b34cdb879daf1b93"),
    ("VS-A", "40%"): ("9562efcf11de29a05c90414bcbf5aec26152b91aa648e34a4fb77b0fe44a466f",
                      "70dc0d7c80eae95e5cd1009bfcdc15cdd764c453f8b42395b7009e5603186481"),
    ("RRZI-VSA", "40%"): ("033488598aef71676132ae061eb664fbf7b8e0c96bd553895b6b219149465449",
                          "c83361b321647b6c8479136c4fc9862e7ee07a7a2bfdee6ddb3605941366f3ee"),
}


@pytest.mark.parametrize("method,budget", sorted(PINNED_LIMB_DIGESTS))
def test_limb_sum_outputs_match_pinned_digests(tmp_path, method, budget):
    raw = tmp_path / "raw.csv"
    cfg = ex.make_config({"n_per_graph": "2000", "extra_pairs": "4000", "seed": "1",
                          "runs": "20", "raw_out": str(raw), "method": method, "budget": budget})
    text = ex.format_result_csv(ex.run_experiment(cfg))
    digests = (hashlib.sha256(text.encode()).hexdigest(),
               hashlib.sha256(raw.read_bytes()).hexdigest())
    assert digests == PINNED_LIMB_DIGESTS[(method, budget)]


# sha256 of the trace_out file (replication 0) of the PINNED_DIGESTS config
# at seed 1, recorded at seed version 4 (RWT-RWA's at seed version 5, RWT-VSA's
# at seed version 6).
PINNED_TRACE_OUT = {
    "SRW": "481e7b453a35f1c9f6be0d49ccaf385f097e29ee98e58fc411c452e07cbfefb0",
    "RWT-RWA": "8b4e0783a31c400df42a84debb2642966519ab31a8c1c6279e581d3a90d15e91",
    "RWT-VSA": "15966b60f07f48964b16ab7d04980ddb6387bab1341f32a88be3b0ae497c290b",
}


@pytest.mark.parametrize("method", sorted(PINNED_TRACE_OUT))
def test_trace_out_matches_pinned_digest(tmp_path, method):
    path = tmp_path / "trace.csv"
    cfg = ex.make_config({"n_per_graph": "2000", "extra_pairs": "4000", "seed": "1",
                          "runs": "20", "method": method, "trace_out": str(path)})
    ex.run_experiment(cfg)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_TRACE_OUT[method]


# sha256 of (result CSV, raw_out) of the files source at seed 1, runs=20, on
# the files `hybridsample generate` writes at n_per_graph=2000,
# extra_pairs=4000, recorded at seed version 6 with the line-loop loaders.
# The loaders must not move them.
PINNED_FILES_DIGESTS = {
    "RRZI-VSA": ("1158782398efba64ce45510a0d8667b8f8c8e0237f5e20da707051503d1ae4b0",
                 "b33b9d61e71aebb3cc5ac55a260e5cf39f456d3d66a78e9afbd902eee6cb4486"),
    "VS-A": ("7f7108882527f4e09ddb966ac57d5ac3b6651cde59d73f8c405886350eb45438",
             "c3ff7e9bb46511c5778177ff246601df66a6fb0c7c4a020dd72b8e024748e967"),
}


@pytest.fixture(scope="module")
def generated_net(tmp_path_factory):
    net = tmp_path_factory.mktemp("net")
    assert cli.main(["generate", "--set", "n_per_graph=2000", "--set", "extra_pairs=4000",
                     "--out-dir", str(net)]) == 0
    return net


@pytest.mark.parametrize("method", sorted(PINNED_FILES_DIGESTS))
def test_files_source_matches_pinned_digests(tmp_path, generated_net, method):
    raw = tmp_path / "raw.csv"
    cfg = ex.make_config({
        "source": "files", "method": method, "seed": "1", "runs": "20", "raw_out": str(raw),
        **{f"{part}_path": str(generated_net / f"{part}.txt")
           for part in ("target", "auxiliary", "affiliation", "venues")},
    })
    text = ex.format_result_csv(ex.run_experiment(cfg))
    digests = (hashlib.sha256(text.encode()).hexdigest(),
               hashlib.sha256(raw.read_bytes()).hexdigest())
    assert digests == PINNED_FILES_DIGESTS[method]


# sha256 of the set-up arrays of the jump walks, keyed by (method, seed), on
# the PINNED_DIGESTS network at alpha=2, beta=0.5 per node: RWT-VSA's p and
# visit weights, RWT-RWA's WeightSystem tables.  Recorded when the RWT-VSA
# law moved into samplers.jump_law; moving the law must not move them.
# RWT-RWA's row starts are hashed per graph, as recorded: ``base`` counts
# auxiliary rows from after the target's entries in the joint column array.
PINNED_SETUP_DIGESTS = {
    ("RWT-VSA", 1): "43bef31cdfe4e90334632ae737e10fc33b91733879f3ec3b650019c947fc3071",
    ("RWT-VSA", 2): "4f7467942c4b43bc934749823d02a2927f8d178edca832a6d44c938a5a2f8256",
    ("RWT-RWA", 1): "fff36d08ac676639c6306fcbabdcea707c3eddeda00973483499f369bb1a1518",
    ("RWT-RWA", 2): "fde6bd9a59d4719cbe90cbb5ebaf47033411e9ddb23236f10d44bb21077b112f",
}


@pytest.mark.parametrize("method,seed", sorted(PINNED_SETUP_DIGESTS))
def test_setup_arrays_match_pinned_digests(method, seed):
    prep = ex.prepare_experiment(ex.make_config({
        "n_per_graph": "2000", "extra_pairs": "4000", "seed": str(seed),
        "alpha": "2", "beta": "0.5", "method": method}))
    if method == "RWT-VSA":
        # the uniform p over the law's venues, as recorded
        probs = np.zeros(prep.hybrid.auxiliary.n)
        probs[prep.law.venues] = 1.0 / len(prep.law.venues)
        arrays = (probs, prep.law.total)
    else:
        ws, target = prep.law, prep.hybrid.target
        own_rows = ws.base - np.where(np.arange(len(ws.base)) < target.n, 0, len(target.indices))
        arrays = (ws.total, ws.deg, own_rows, ws.key, ws.dest)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()
    assert digest == PINNED_SETUP_DIGESTS[(method, seed)]


LAW_TYPES = {"SRW": type(None), "VS-A": AuxDistribution, "RWT-VSA": JumpLaw,
             "RWT-RWA": WeightSystem, "RRZI-VSA": AuxDistribution}


@pytest.mark.parametrize("method", ex.METHODS)
def test_prepared_experiment_holds_the_law_of_its_method(method):
    # the synthetic source places venues on the auxiliary nodes for RRZI-VSA
    prep = ex.prepare_experiment(small_cfg(method=method))
    assert type(prep.law) is LAW_TYPES[method]


@pytest.mark.parametrize("method,side", [("RWT-VSA", "auxiliary"), ("RWT-RWA", "target")])
def test_jump_walk_without_affiliation_edges_is_config_error(tmp_path, generated_net, capsys,
                                                            method, side):
    empty = tmp_path / "affiliation.txt"
    empty.write_text("")
    args = ["run", "--set", "source=files", "--set", f"method={method}",
            "--set", f"target_path={generated_net / 'target.txt'}",
            "--set", f"auxiliary_path={generated_net / 'auxiliary.txt'}",
            "--set", f"affiliation_path={empty}"]
    assert cli.main(args) == 1
    assert f"no {side} node has affiliation edges" in capsys.readouterr().err


def test_lbsn_source_builds_the_venue_index_only_for_rrzi_vsa(tmp_path):
    # the venues' coordinates are placed on the auxiliary nodes only when
    # asked for, which prepare_experiment does for RRZI-VSA alone
    (tmp_path / "social.txt").write_text("a b\nb c\n")
    (tmp_path / "checkins.tsv").write_text("a\tts\t40.7\t-74.0\tv1\nc\tts\t40.8\t-73.9\tv2\n")
    lbsn = {"source": "lbsn", "social_path": str(tmp_path / "social.txt"),
            "checkins_path": str(tmp_path / "checkins.tsv"), "budget": "2", "runs": "2"}
    assert ex.build_network(ex.make_config({**lbsn, "method": "VS-A"}), venues=False)[1] is None
    rrzi = ex.make_config({**lbsn, "method": "RRZI-VSA"})
    assert ex.build_network(rrzi, venues=False)[1] is None
    _, coords = ex.build_network(rrzi, venues=True)
    assert [a.tolist() for a in coords] == [[40.7, 40.8], [-74.0, -73.9]]


def test_venues_path_is_read_only_by_rrzi_vsa(tmp_path):
    cfgp = _write_cfg(tmp_path)
    net = tmp_path / "net"
    assert cli.main(["generate", "--config", str(cfgp), "--out-dir", str(net)]) == 0
    missing = tmp_path / "no_venues.txt"
    files = {
        "source": "files",
        "target_path": str(net / "target.txt"),
        "auxiliary_path": str(net / "auxiliary.txt"),
        "affiliation_path": str(net / "affiliation.txt"),
        "venues_path": str(missing),
    }
    prep = ex.prepare_experiment(ex.make_config(ex.parse_config_file(cfgp),
                                                {**files, "method": "VS-A"}))
    assert prep.law.n == prep.hybrid.auxiliary.n
    cfg = ex.make_config(ex.parse_config_file(cfgp), {**files, "method": "RRZI-VSA"})
    with pytest.raises(FileNotFoundError, match="no_venues.txt"):
        ex.prepare_experiment(cfg)


def test_truth_reads_only_the_network_and_label_keys(tmp_path, generated_net, monkeypatch):
    # truth builds no weights and reads no venue file, so it prints the
    # same bytes for every method
    monkeypatch.setattr(ex, "fixed_weight_scheme", None)
    files = [f"{part}_path={generated_net / part}.txt"
             for part in ("target", "auxiliary", "affiliation")]
    missing = f"venues_path={tmp_path / 'no_venues.txt'}"
    outputs = set()
    for i, sets in enumerate([[missing, f"method={m}"] for m in ex.METHODS]
                             + [["method=RRZI-VSA"]]):
        out = tmp_path / f"truth{i}.csv"
        args = ["truth", "-o", str(out)]
        for item in ["source=files", *files, *sets]:
            args += ["--set", item]
        assert cli.main(args) == 0
        outputs.add(out.read_bytes())
    assert len(outputs) == 1


def test_files_source_pairs_venues_with_their_auxiliary_nodes(tmp_path):
    cfgp = _write_cfg(tmp_path)
    net = tmp_path / "net"
    assert cli.main(["generate", "--config", str(cfgp), "--out-dir", str(net)]) == 0
    cfg = ex.make_config(ex.parse_config_file(cfgp), {
        "source": "files", "method": "RRZI-VSA",
        "target_path": str(net / "target.txt"),
        "auxiliary_path": str(net / "auxiliary.txt"),
        "affiliation_path": str(net / "affiliation.txt"),
        "venues_path": str(net / "venues.txt"),
    })
    hybrid, (node_lats, node_lons) = ex.build_network(cfg, venues=True)
    lats, lons = ex.synthetic_venues(hybrid.auxiliary.n, ex.geo.NYC_REGION, cfg.seed)
    names = hybrid.auxiliary.node_names
    assert names != [str(i) for i in range(len(names))]  # ids were re-interned
    own = np.array([int(name) for name in names])
    assert node_lats.tolist() == lats[own].tolist() and node_lons.tolist() == lons[own].tolist()
    # an id that names no auxiliary node is an error naming the venues file
    with open(net / "venues.txt", "a", encoding="utf-8") as fh:
        fh.write("999999 40.5 -74.0\n")
    with pytest.raises(ValueError, match="venues.txt"):
        ex.build_network(cfg, venues=True)

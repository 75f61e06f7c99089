"""Command-line interface subcommands."""

import numpy as np
import pytest

from repro.cli import main
from repro.tabularization import save_tabular_model
from repro.traces import MemoryTrace, save_csv, save_text


def test_trace_subcommand(tmp_path, capsys):
    out = tmp_path / "t.npz"
    rc = main(["trace", "619.lbm", "--scale", "0.01", "-o", str(out)])
    assert rc == 0
    assert out.exists()
    tr = MemoryTrace.load(out)
    assert len(tr) >= 1000
    assert "n_pages" in capsys.readouterr().out


def test_trace_unknown_workload():
    with pytest.raises(KeyError):
        main(["trace", "999.bogus"])


def test_configure_subcommand(capsys):
    rc = main(["configure", "100", "1000000"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "latency=97cyc" in out


def test_simulate_rule_based(capsys, tmp_path):
    rc = main(
        ["simulate", "--workload", "462.libquantum", "--scale", "0.02",
         "--prefetcher", "nextline"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "baseline" in out and "NextLine" in out


@pytest.mark.parametrize("ext", ["npz", "csv", "txt"])
def test_simulate_from_saved_trace(ext, tmp_path, capsys):
    """Every ``--trace`` reads the same formats as ``stream``'s loader."""
    npz = tmp_path / "trace.npz"
    main(["trace", "619.lbm", "--scale", "0.01", "-o", str(npz)])
    trace = MemoryTrace.load(npz)
    trace_path = tmp_path / f"trace.{ext}"
    writer = {"csv": save_csv, "txt": save_text}.get(ext)
    if writer is not None:
        writer(trace, trace_path)
    capsys.readouterr()
    rc = main(["simulate", "--trace", str(trace_path), "--prefetcher", "stride"])
    assert rc == 0
    assert f"({len(trace):,} accesses)" in capsys.readouterr().out
    assert main(["analyze", "--trace", str(trace_path)]) == 0
    assert "OPT miss rate" in capsys.readouterr().out


def test_simulate_dart_requires_tables():
    with pytest.raises(SystemExit):
        main(["simulate", "--prefetcher", "dart", "--scale", "0.02"])


def test_simulate_dart_with_tables(tabular_student, tmp_path, capsys):
    # The conftest tabular model uses an 8-step history / 32-delta bitmap;
    # build a matching preprocess config through the CLI default path by
    # saving tables and pointing the simulator at them is exercised via the
    # prefetcher factory directly instead (the CLI default PreprocessConfig
    # targets the full-size model).
    tab, _ = tabular_student
    path = tmp_path / "tables.npz"
    save_tabular_model(tab, path)
    from repro.cli import _make_prefetcher

    pf = _make_prefetcher("dart", str(path))
    assert pf.name == "DART"
    assert pf.latency_cycles == int(round(tab.latency_cycles()))


def test_stream_subcommand_reports_and_writes_json(tmp_path, capsys):
    import json

    out = tmp_path / "stats.json"
    rc = main(
        ["stream", "--workload", "462.libquantum", "--scale", "0.02",
         "--prefetcher", "stride", "--compare-batch", "--json", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "throughput" in text and "bit-identical to batch" in text
    record = json.loads(out.read_text())
    assert record["identical_to_batch"] is True
    assert record["accesses"] >= 1000
    assert record["p50_us"] <= record["p99_us"]


def test_stream_subcommand_from_trace_file(tmp_path):
    trace_path = tmp_path / "trace.npz"
    main(["trace", "619.lbm", "--scale", "0.01", "-o", str(trace_path)])
    rc = main(
        ["stream", "--trace", str(trace_path), "--prefetcher", "bo",
         "--chunk-size", "500", "--compare-batch"]
    )
    assert rc == 0


def test_stream_cores_serves_interleaved_shards(tmp_path, capsys):
    import json

    out = tmp_path / "stats.json"
    rc = main(
        ["stream", "--workload", "462.libquantum", "--scale", "0.02",
         "--prefetcher", "bo", "--cores", "3", "--compare-batch",
         "--json", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "3-stream serving" in text and "aggregate" in text
    record = json.loads(out.read_text())
    assert record["cores"] == 3 and record["share_model"] is False
    assert record["identical_to_batch"] is True
    assert len(record["per_stream"]) == 3
    names = [s["name"] for s in record["per_stream"]]
    assert names == ["BO[0]", "BO[1]", "BO[2]"]
    assert record["aggregate"]["accesses"] == sum(
        s["accesses"] for s in record["per_stream"]
    )


def test_stream_workers_serves_sharded(tabular_student, tmp_path, capsys):
    """``stream --workers 2`` runs the multi-process engine end to end, with
    the bit-identity gate (--compare-batch) and a JSON artifact."""
    import json

    tab, _ = tabular_student
    tables = tmp_path / "tables.npz"
    save_tabular_model(tab, tables)
    out = tmp_path / "sharded.json"
    rc = main(
        ["stream", "--workload", "462.libquantum", "--scale", "0.02",
         "--prefetcher", "dart", "--tables", str(tables),
         "--workers", "2", "--cores", "4", "--batch-size", "32",
         "--compare-batch", "--json", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "2 worker" in text and "bit-identical to solo batch" in text
    record = json.loads(out.read_text())
    assert record["identical_to_batch"] is True
    assert record["workers"] == 2 and record["cores"] == 4
    assert record["engine"]["model_copies"] == 1
    assert record["engine"]["shm_bytes"] > 0
    assert len(record["per_stream"]) == 4


def test_stream_churn_elastic_scenario(tabular_student, tmp_path, capsys):
    """``stream --workers 2 --churn`` drives the elastic lifecycle end to end
    (open/migrate/swap/rescale/close) with the bit-identity gate."""
    import json

    tab, _ = tabular_student
    tables = tmp_path / "tables.npz"
    save_tabular_model(tab, tables)
    out = tmp_path / "churn.json"
    rc = main(
        ["stream", "--workload", "462.libquantum", "--scale", "0.01",
         "--prefetcher", "dart", "--tables", str(tables),
         "--workers", "2", "--batch-size", "16",
         "--churn", "--compare-batch", "--json", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "elastic churn" in text
    assert "bit-identical to batch under churn: True" in text
    record = json.loads(out.read_text())
    assert record["identical_to_batch"] is True
    ops = [e["op"] for e in record["events"]]
    assert {"open", "migrate", "rescale", "swap"} <= set(ops)
    (swap,) = [e["info"] for e in record["events"] if e["op"] == "swap"]
    assert swap["workers"] == [0, 1, 2] and swap["version"] == 2
    assert swap["drained"] >= 0
    (row,) = [line for line in text.splitlines() if "| swap " in line]
    assert '"version": 2' in row  # the table prints the record, not "-"
    assert record["engine"]["elastic"]["opened"] == record["engine"]["elastic"]["closed"] == 3
    assert record["engine"]["swaps"] == 1


def test_stream_workers_flag_validation():
    with pytest.raises(SystemExit):
        main(["stream", "--workers", "0", "--prefetcher", "bo"])
    with pytest.raises(SystemExit):  # churn needs the sharded fleet
        main(["stream", "--churn", "--prefetcher", "dart", "--scale", "0.01"])
    with pytest.raises(SystemExit):  # rule-based prefetchers cannot shard
        main(["stream", "--workers", "2", "--prefetcher", "bo", "--scale", "0.01"])
    with pytest.raises(SystemExit):  # sharding already shares the model
        main(["stream", "--workers", "2", "--cores", "2", "--share-model",
              "--prefetcher", "dart", "--scale", "0.01"])
    # record checks its fleet knobs with the same messages, before any load.
    for flag in ("--streams", "--workers", "--batch-size"):
        with pytest.raises(SystemExit, match=f"{flag} must be >= 1"):
            main(["record", flag, "0", "-o", "unused.darttrc"])


def test_stream_share_model_requires_model_backed():
    with pytest.raises(SystemExit):
        main(
            ["stream", "--workload", "462.libquantum", "--scale", "0.02",
             "--prefetcher", "bo", "--cores", "2", "--share-model"]
        )


def test_stream_share_model_requires_multiple_cores():
    with pytest.raises(SystemExit):
        main(
            ["stream", "--workload", "462.libquantum", "--scale", "0.02",
             "--prefetcher", "bo", "--share-model"]
        )


def test_multicore_share_model_requires_model_backed():
    with pytest.raises(SystemExit):
        main(
            ["multicore", "462.libquantum", "462.libquantum", "--scale", "0.02",
             "--prefetcher", "bo", "--share-model"]
        )


def test_unknown_prefetcher_rejected():
    from repro.cli import _make_prefetcher

    with pytest.raises(SystemExit):
        _make_prefetcher("oracle", None)


def test_contend_subcommand_writes_summary(tmp_path, capsys):
    out = tmp_path / "contend.json"
    rc = main(
        ["contend", "462.libquantum", "605.mcf", "--scale", "0.004",
         "--poison", "0", "--throttle", "--json", str(out)]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "contention world" in text and "throttled" in text
    import json

    summary = json.loads(out.read_text())
    assert len(summary["tenants"]) == 2
    assert summary["throttle"]  # the controller's per-tenant summaries
    # Tenant 0 wears the poison marker in the table.
    assert "0: 462.libquantum*" in text


@pytest.mark.parametrize("cmd", ["multicore", "contend"])
def test_tenant_commands_read_the_tables_once(cmd, tabular_student, tmp_path, monkeypatch):
    from repro.runtime import ModelArtifact

    tab, _ = tabular_student
    tables = tmp_path / "tables.npz"
    save_tabular_model(tab, tables)
    loads = []
    load = ModelArtifact.load.__func__

    def counting(cls, path):
        loads.append(path)
        return load(cls, path)

    monkeypatch.setattr(ModelArtifact, "load", classmethod(counting))
    rc = main([cmd, *["462.libquantum"] * 4, "--scale", "0.004",
               "--prefetcher", "dart", "--tables", str(tables)])
    assert rc == 0
    assert loads == [str(tables)]


def test_contend_poison_requires_prefetching_tenant():
    with pytest.raises(SystemExit):
        main(["contend", "462.libquantum", "--scale", "0.004",
              "--prefetcher", "none", "--poison", "0"])


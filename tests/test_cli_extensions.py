"""CLI: the hierarchy/multicore/analyze/export subcommands and the extended
prefetcher factory."""

import pytest

from repro.cli import PREFETCHER_CHOICES, _make_prefetcher, main
from repro.tabularization import save_tabular_model


def test_factory_builds_every_choice_except_dart():
    for name in PREFETCHER_CHOICES:
        if name in ("none", "dart"):
            continue
        pf = _make_prefetcher(name, None)
        assert pf is not None and pf.name


def test_factory_none():
    assert _make_prefetcher("none", None) is None


def test_simulate_accepts_new_prefetchers(capsys):
    rc = main(
        ["simulate", "--workload", "462.libquantum", "--scale", "0.02",
         "--prefetcher", "isb"]
    )
    assert rc == 0
    assert "ISB" in capsys.readouterr().out


def test_hierarchy_subcommand(capsys):
    rc = main(
        ["hierarchy", "--workload", "619.lbm", "--scale", "0.02",
         "--prefetcher", "streamer"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "L1D hit" in out and "DRAM row hit" in out and "Streamer" in out


def test_hierarchy_no_paging_and_tlb_flags(capsys):
    rc = main(
        ["hierarchy", "--workload", "619.lbm", "--scale", "0.01",
         "--prefetcher", "none", "--no-paging", "--tlb"]
    )
    assert rc == 0


def test_multicore_subcommand(capsys):
    rc = main(
        ["multicore", "462.libquantum", "619.lbm", "--scale", "0.01",
         "--prefetcher", "nextline"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "core0:462.libquantum" in out and "aggregate" in out


def test_analyze_subcommand(capsys):
    rc = main(["analyze", "--workload", "605.mcf", "--scale", "0.01"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "OPT miss rate" in out and "replacement headroom" in out


def test_export_subcommand(tmp_path, tabular_student, capsys):
    tab, _ = tabular_student
    npz = tmp_path / "tables.npz"
    save_tabular_model(tab, npz)
    out = tmp_path / "tables.bin"
    rc = main(["export", str(npz), str(out), "--float-dtype", "float32"])
    assert rc == 0
    assert out.exists() and out.stat().st_size > 1024
    assert "exported" in capsys.readouterr().out

    from repro.tabularization import import_packed

    model = import_packed(out)
    assert model.latency_cycles() == tab.latency_cycles()


def test_export_info_packed_and_npz(tmp_path, tabular_student, capsys):
    from repro.runtime import ModelArtifact

    tab, _ = tabular_student
    npz = tmp_path / "tables.npz"
    ModelArtifact(tab, version=4, metadata={"trained_on": "demo"}).save(npz)
    # --info on the .npz artifact
    rc = main(["export", str(npz), "--info"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "4" in out and "demo" in out
    # pack it, then --info on the packed blob (header-only read)
    blob = tmp_path / "tables.bin"
    rc = main(["export", str(npz), str(blob)])
    assert rc == 0
    assert "v4" in capsys.readouterr().out
    rc = main(["export", str(blob), "--info"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "artifact version" in out and "demo" in out


def test_export_without_output_or_info_rejected(tmp_path, tabular_student):
    from repro.runtime import ModelArtifact

    tab, _ = tabular_student
    npz = tmp_path / "tables.npz"
    ModelArtifact(tab).save(npz)
    with pytest.raises(SystemExit):
        main(["export", str(npz)])


def test_stream_adapt_flag_validation(tmp_path, tabular_student):
    tab, _ = tabular_student
    npz = tmp_path / "tables.npz"
    save_tabular_model(tab, npz)
    # adapt needs dart
    with pytest.raises(SystemExit):
        main(["stream", "--workload", "462.libquantum", "--scale", "0.01",
              "--prefetcher", "bo", "--adapt"])
    # adapt + dart needs a student
    with pytest.raises(SystemExit):
        main(["stream", "--workload", "462.libquantum", "--scale", "0.01",
              "--prefetcher", "dart", "--tables", str(npz), "--adapt"])
    # adapt excludes --compare-batch and --cores
    with pytest.raises(SystemExit):
        main(["stream", "--workload", "462.libquantum", "--scale", "0.01",
              "--prefetcher", "dart", "--tables", str(npz), "--adapt",
              "--compare-batch"])
    with pytest.raises(SystemExit):
        main(["stream", "--workload", "462.libquantum", "--scale", "0.01",
              "--prefetcher", "dart", "--tables", str(npz), "--adapt",
              "--cores", "2"])


def test_stream_adapt_end_to_end(tmp_path, tabular_student, trained_student, capsys):
    import json

    from repro.models import save_attention_predictor
    from repro.runtime import ModelArtifact

    tab, _ = tabular_student
    npz = tmp_path / "tables.npz"
    ModelArtifact(tab, version=1).save(npz)
    student_path = tmp_path / "student.npz"
    save_attention_predictor(trained_student, student_path)
    out = tmp_path / "stats.json"
    rc = main(["stream", "--workload", "462.libquantum", "--scale", "0.02",
               "--prefetcher", "dart", "--tables", str(npz),
               "--student", str(student_path), "--adapt",
               "--adapt-window", "1024", "--batch-size", "16",
               "--max-wait", "4", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "adaptations" in text and "model version" in text
    record = json.loads(out.read_text())
    assert "adaptation" in record
    assert record["adaptation"]["version"] >= 1


def test_train_save_student_roundtrip(tmp_path):
    """train --save-student writes a student the adapt path can reload."""
    from repro.models import load_attention_predictor

    tables = tmp_path / "t.npz"
    student = tmp_path / "s.npz"
    rc = main(["train", "--workload", "462.libquantum", "--scale", "0.01",
               "--epochs", "1", "--max-samples", "300",
               "--teacher-layers", "1", "--teacher-dim", "16",
               "--teacher-heads", "2", "-o", str(tables),
               "--save-student", str(student)])
    assert rc == 0
    model = load_attention_predictor(student)
    from repro.runtime import ModelArtifact

    art = ModelArtifact.load(tables)
    assert art.version == 1
    assert art.metadata["trained_on"] == "462.libquantum"
    assert model.config.history_len == art.model_config.history_len

import json
import time

from nse.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "master_seed": 7,
        "output_dir": str(tmp_path / "run"),
        "evaluator": "oracle",
        "max_rounds": 2,
        "k_per_layer": 3,
        "pool": {"num_layers": 3, "ops_per_layer": 6, "reduction_layers": [2], "preset": "opaque"},
        "constraint": {"tau": 250.0},
        "retrieval": {"samples": 40},
        "benchmark": {"seed": 3},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_missing_config_exits_with_config_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code = main(["run", str(missing)])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_unknown_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path)
    data = json.loads(path.read_text())
    data["typo_key"] = 1
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_workers_key_is_rejected(tmp_path, capsys):
    path = write_config(tmp_path, workers=2)
    assert main(["run", str(path)]) == 2
    assert "workers" in capsys.readouterr().err


def test_oracle_smoke_run_completes_quickly_with_artifacts(tmp_path):
    path = write_config(tmp_path)
    started = time.perf_counter()
    assert main(["run", str(path)]) == 0
    assert time.perf_counter() - started < 10.0
    run_dir = tmp_path / "run"
    assert (run_dir / "manifest.json").is_file()
    for round_no in (1, 2):
        round_dir = run_dir / f"round_{round_no:03d}"
        for name in ("pareto.json", "subset.json", "ledger.json", "manifest.json"):
            assert (round_dir / name).is_file()
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert manifest["rounds_completed"] == 2
    assert manifest["best_archive"]


def test_rerun_produces_byte_identical_pareto(tmp_path):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    first = (tmp_path / "run" / "round_001" / "pareto.json").read_bytes()
    assert main(["run", str(path)]) == 0
    second = (tmp_path / "run" / "round_001" / "pareto.json").read_bytes()
    assert first == second


def test_nse_seed_env_overrides_master_seed(tmp_path, monkeypatch):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    base = json.loads((tmp_path / "run" / "round_001" / "pareto.json").read_text())
    monkeypatch.setenv("NSE_SEED", "99")
    assert main(["run", str(path)]) == 0
    overridden = json.loads((tmp_path / "run" / "round_001" / "pareto.json").read_text())
    assert base["config_hash"] != overridden["config_hash"]
    monkeypatch.setenv("NSE_SEED", "not-an-int")
    assert main(["run", str(path)]) == 2


def test_count_reference_geometry(tmp_path, capsys):
    path = write_config(
        tmp_path,
        pool={
            "num_layers": 22,
            "ops_per_layer": 27,
            "reduction_layers": [1, 5, 9, 13, 17, 21],
            "preset": "opaque",
        },
        k_per_layer=5,
    )
    assert main(["count", str(path)]) == 0
    out = capsys.readouterr().out
    assert "approx: 1.4e+110" in out


def test_count_single_trivial_layer(tmp_path, capsys):
    path = write_config(
        tmp_path,
        pool={"num_layers": 1, "ops_per_layer": 1, "reduction_layers": [], "preset": "opaque"},
        k_per_layer=1,
    )
    assert main(["count", str(path)]) == 0
    out = capsys.readouterr().out
    assert "exact: 2" in out


def test_distribution_row_counts(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["distribution", str(path), "--lo", "0", "--hi", "1e9", "-n", "5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "arch_id,cost,accuracy"
    assert len(lines) == 6
    assert main(["distribution", str(path), "--lo", "0", "--hi", "1e9", "-n", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["arch_id,cost,accuracy"]


def test_distribution_to_file_and_supernet_rejected(tmp_path, capsys):
    path = write_config(tmp_path)
    out_csv = tmp_path / "dist.csv"
    assert (
        main(["distribution", str(path), "--lo", "0", "--hi", "1e9", "-n", "3", "-o", str(out_csv)])
        == 0
    )
    assert len(out_csv.read_text().strip().splitlines()) == 4
    sup = write_config(tmp_path, name="sup.json", evaluator="supernet")
    assert main(["distribution", str(sup), "--lo", "0", "--hi", "1", "-n", "1"]) == 2


def test_inspect_lists_origins_and_checks_hashes(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    assert main(["inspect", str(tmp_path / "run"), "--round", "2"]) == 0
    out = capsys.readouterr().out
    assert "inherited" in out  # legend
    assert "round 2" in out
    # tampered artifact hash is refused
    pareto_path = tmp_path / "run" / "round_002" / "pareto.json"
    payload = json.loads(pareto_path.read_text())
    payload["config_hash"] = "0" * 64
    pareto_path.write_text(json.dumps(payload))
    assert main(["inspect", str(tmp_path / "run"), "--round", "2"]) == 3
    assert "refusing" in capsys.readouterr().err


def test_inspect_missing_round_is_config_code(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    assert main(["inspect", str(tmp_path / "run"), "--round", "9"]) == 2


def test_dump_benchmark_writes_tables(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "bench.json"
    assert main(["dump-benchmark", str(path), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "benchmark" in payload and "cost_table" in payload
    assert payload["benchmark"]["utilities"]
    assert payload["cost_table"]["_overhead"] == 10.0


def test_supernet_config_validation(tmp_path):
    bad = write_config(
        tmp_path,
        name="bad.json",
        evaluator="supernet",
        pool={"num_layers": 2, "ops_per_layer": 4, "reduction_layers": [1], "preset": "opaque"},
    )
    assert main(["run", str(bad)]) == 2
    widths_off = write_config(
        tmp_path,
        name="widths.json",
        evaluator="supernet",
        pool={"num_layers": 2, "ops_per_layer": 4, "reduction_layers": [1], "preset": "toy"},
        network={"stem_width": 8, "layer_widths": [8, 8]},
    )
    assert main(["run", str(widths_off)]) == 2


def test_tiny_supernet_run_via_cli(tmp_path):
    path = write_config(
        tmp_path,
        name="sup_ok.json",
        evaluator="supernet",
        max_rounds=1,
        k_per_layer=3,
        pool={"num_layers": 2, "ops_per_layer": 6, "reduction_layers": [1], "preset": "toy"},
        constraint={"tau": 0.9},
        retrieval={"samples": 5, "recal_batches": 2, "recal_batch_size": 32},
        dataset={"seed": 1, "input_dim": 6, "classes": 3, "train_size": 300, "val_size": 150},
        training={"steps": 8, "batch_size": 32, "warmup_steps": 2},
        network={"stem_width": 8, "layer_widths": [8, 10]},
    )
    assert main(["run", str(path)]) == 0
    pareto = json.loads((tmp_path / "run" / "round_001" / "pareto.json").read_text())
    assert pareto["corrected"]
    assert pareto["indicators"] is not None


def test_constraint_kind_recorded_and_cost_table_rules(tmp_path):
    path = write_config(tmp_path, constraint={"tau": 250.0, "kind": "latency"})
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["config"]["constraint"]["kind"] == "latency"
    # a file-backed cost table only makes sense for supernet runs
    bad = write_config(
        tmp_path, name="bad_table.json",
        constraint={"tau": 250.0, "cost_table": str(tmp_path / "t.json")},
    )
    assert main(["run", str(bad)]) == 2


def test_supernet_run_with_file_cost_table(tmp_path):
    from nse.config import load_config, build_engine

    base = write_config(
        tmp_path, name="sup_table.json",
        evaluator="supernet",
        max_rounds=1,
        k_per_layer=3,
        pool={"num_layers": 2, "ops_per_layer": 6, "reduction_layers": [1], "preset": "toy"},
        constraint={"tau": 200.0, "kind": "latency", "cost_table": str(tmp_path / "latency.json")},
        retrieval={"samples": 4, "recal_batches": 2, "recal_batch_size": 32},
        dataset={"seed": 1, "input_dim": 6, "classes": 3, "train_size": 200, "val_size": 100},
        training={"steps": 6, "batch_size": 32, "warmup_steps": 2},
        network={"stem_width": 8, "layer_widths": [8, 10]},
    )
    # missing table file is a config error
    assert main(["run", str(base)]) == 2
    # write a synthetic latency table covering the pool and rerun
    cfg = load_config(base)
    pool = cfg.pool.build()
    table = {f"{op.layer_index}.{op.slot_index}": 3.0 for layer in pool.layers for op in layer.pool}
    table["_overhead"] = 1.0
    table["unit"] = "ms"
    (tmp_path / "latency.json").write_text(json.dumps(table))
    assert main(["run", str(base)]) == 0
    engine = build_engine(load_config(base))
    assert engine.cost_table.unit == "ms"
    assert engine.cost_table.fixed_overhead == 1.0


def test_auxiliary_one_no_longer_empties_the_front(tmp_path, monkeypatch):
    # every raw-front point of round 1 sits near tau and the single
    # auxiliary sample beats them all; the edging filter used to empty the
    # front and the run failed with exit code 3
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NSE_SEED", raising=False)
    path = tmp_path / "aux1.json"
    path.write_text(json.dumps({
        "evaluator": "supernet", "max_rounds": 2, "constraint": {"tau": 3.5, "alpha": 4e-3},
        "retrieval": {"samples": 10, "auxiliary": 1}, "training": {"steps": 900, "warmup_steps": 40},
    }))
    assert main(["run", str(path)]) == 0
    manifest = json.loads((tmp_path / "runs/out/round_001/manifest.json").read_text())
    assert manifest["diagnostics"]["edging_fallback"] is True
    pareto = json.loads((tmp_path / "runs/out/round_001/pareto.json").read_text())
    assert pareto["corrected"] == pareto["raw"] != []

import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Annotated, get_args, get_origin, get_type_hints

import numpy as np
import pytest

from nse import engine
from nse.cli import main
from nse.config import ConfigError, RunConfig, config_hash, parse_config, resolved_dict
from nse.space import GateSampler

REPO = Path(__file__).resolve().parent.parent


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


def test_eval_batch_size_key_is_rejected(tmp_path, capsys):
    # evaluation scores the validation split in one pass, so nothing is left
    # for the key to set
    path = write_config(tmp_path, evaluator="supernet", retrieval={"eval_batch_size": 256})
    assert main(["run", str(path)]) == 2
    assert "eval_batch_size" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
    # each round manifest says where the round's retrieval time went
    timings = json.loads((run_dir / "round_001" / "manifest.json").read_text())["timings"]
    assert set(timings) == {"sample_draws", "evaluation", "front"}
    assert all(t >= 0.0 for t in timings.values())


def test_a_write_failing_partway_leaves_every_json_artifact_whole(tmp_path, monkeypatch, capsys):
    path = write_config(tmp_path)
    run_dir = tmp_path / "run"
    assert main(["run", str(path)]) == 0
    assert list(run_dir.rglob("*.tmp")) == []  # a normal run leaves no temporaries
    before = {p: p.read_bytes() for p in run_dir.rglob("*.json")}

    # rerun into the same directory; the sixth artifact write (round 2's
    # second file) stops halfway through its text, as a full disk would
    write_text = Path.write_text
    targets = []

    def failing_write(self, text, *args, **kwargs):
        targets.append(self)
        if len(targets) == 6:
            write_text(self, text[: len(text) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    assert main(["run", str(path)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert len(targets) == 6
    for artifact in run_dir.rglob("*.json"):
        json.loads(artifact.read_text())
    # the rerun removed the previous run's rounds before round 1, so the file
    # whose write failed was never formed, and its torn ``.tmp`` was removed
    torn = targets[-1].with_name(targets[-1].name.removesuffix(".tmp"))
    assert torn != targets[-1] and not torn.exists() and not targets[-1].exists()
    assert list(run_dir.rglob("*.tmp")) == []
    monkeypatch.undo()
    assert main(["run", str(path)]) == 0
    assert list(run_dir.rglob("*.tmp")) == []
    after = {p: p.read_bytes() for p in run_dir.rglob("*.json")}
    assert after.keys() == before.keys()
    # manifests hold timings; the other artifacts are the first run's bytes
    assert all(after[p] == before[p] for p in before if p.name != "manifest.json")


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


def test_distribution_rejects_bad_arguments(tmp_path, capsys):
    path = write_config(tmp_path)
    for args, message in (
        (["--lo", "0", "--hi", "1e9", "-n", "-5"], "-n must be >= 0"),
        (["--lo", "500", "--hi", "100", "-n", "3"], "--lo must be <= --hi"),
    ):
        assert main(["distribution", str(path), *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: ") and message in captured.err


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
    assert "timings: evaluation" in out
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


def test_inspect_shows_the_last_round_by_number(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    run = tmp_path / "run"
    for old, new in (("round_001", 999), ("round_002", 1000)):
        (run / old).rename(run / f"round_{new}")
        pareto = run / f"round_{new}" / "pareto.json"
        pareto.write_text(json.dumps({**json.loads(pareto.read_text()), "round": new}))
    # the last round is the run manifest's count, named by its number
    manifest = run / "manifest.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "rounds_completed": 1000}))
    assert main(["inspect", str(run)]) == 0
    assert "round 1000" in capsys.readouterr().out


def test_inspect_shows_the_last_round_of_a_run_written_over_a_longer_one(tmp_path, capsys):
    # the shorter run replaces the longer run in its output_dir
    pool = {"num_layers": 3, "ops_per_layer": 12, "reduction_layers": [2], "preset": "opaque"}
    run = tmp_path / "run"
    assert main(["run", str(write_config(tmp_path, max_rounds=3, pool=pool))]) == 0
    assert (run / "round_003").is_dir()
    first = json.loads((run / "manifest.json").read_text())["config_hash"]
    assert main(["run", str(write_config(tmp_path, max_rounds=2, master_seed=5, pool=pool))]) == 0
    capsys.readouterr()
    assert main(["inspect", str(run)]) == 0
    assert "round 2 " in capsys.readouterr().out
    assert sorted(p.name for p in run.iterdir()) == ["manifest.json", "round_001", "round_002"]
    second = json.loads((run / "manifest.json").read_text())["config_hash"]
    assert second != first
    for round_dir in ("round_001", "round_002"):
        for name in ("pareto", "subset", "ledger", "manifest"):
            payload = json.loads((run / round_dir / f"{name}.json").read_text())
            assert payload["config_hash"] == second
    assert main(["inspect", str(run), "--round", "3"]) == 2
    assert "no artifacts for round 3" in capsys.readouterr().err


@pytest.mark.parametrize("foreign", ["notes.txt", "pareto.json.bak", "subset.json/"])
def test_a_round_dir_holding_a_foreign_file_stops_the_run_before_anything_is_removed(
    tmp_path, capsys, foreign
):
    path = write_config(tmp_path)
    run = tmp_path / "run"
    assert main(["run", str(path)]) == 0
    stray = run / "round_005"
    stray.mkdir()
    (stray / "ledger.json.tmp").write_text("{}")
    if foreign.endswith("/"):
        (stray / foreign.rstrip("/")).mkdir()
    else:
        (stray / foreign).write_text("kept")
    before = {p: p.read_bytes() if p.is_file() else None for p in run.rglob("*")}
    capsys.readouterr()
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert str(stray / foreign.rstrip("/")) in err
    assert {p: p.read_bytes() if p.is_file() else None for p in run.rglob("*")} == before


def test_inspect_into_a_closed_pipe_exits_141_silently(tmp_path):
    # ``nse inspect RUN | head``: the reader is gone before the output is
    path = write_config(tmp_path)
    assert main(["run", str(path)]) == 0
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nse", "inspect", str(tmp_path / "run")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


def test_dump_benchmark_writes_tables(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "bench.json"
    assert main(["dump-benchmark", str(path), "-o", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert "benchmark" in payload and "cost_table" in payload
    assert payload["benchmark"]["utilities"]
    assert payload["cost_table"]["_overhead"] == 10.0


def test_a_dump_benchmark_write_failing_partway_leaves_the_file_whole(
    tmp_path, monkeypatch, capsys
):
    path = write_config(tmp_path)
    out = tmp_path / "bench.json"
    assert main(["dump-benchmark", str(path)]) == 0
    printed = capsys.readouterr().out
    assert main(["dump-benchmark", str(path), "-o", str(out)]) == 0
    before = out.read_bytes()
    assert before == printed.encode()  # -o writes the bytes that stdout gets
    assert list(tmp_path.glob("*.tmp")) == []

    # rewrite it; the write stops halfway through its text, as a full disk would
    write_text = Path.write_text

    def failing_write(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", failing_write)
    assert main(["dump-benchmark", str(path), "-o", str(out)]) == 3
    assert "No space left on device" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_non_finite_number_in_the_file_exits_with_config_code(tmp_path, capsys):
    # json.loads reads the literal NaN; it is refused before any work starts
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace('"tau": 250.0', '"tau": NaN'))
    assert "NaN" in path.read_text()
    assert main(["run", str(path)]) == 2
    assert "config.constraint.tau must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    with pytest.raises(ConfigError, match="finite number"):  # past the float range
        parse_config({"constraint": {"tau": 10**400}})


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


def test_supernet_run_with_file_cost_table(tmp_path, capsys):
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
    capsys.readouterr()
    cfg = load_config(base)
    pool = cfg.pool.build()
    table = {f"{op.layer_index}.{op.slot_index}": 3.0 for layer in pool.layers for op in layer.pool}
    table["_overhead"] = 1.0
    table["unit"] = "ms"
    # so is a malformed file, a bad key, a negative cost and a missing slot,
    # each reported before training starts
    first = f"{pool.layers[0].pool[0].layer_index}.{pool.layers[0].pool[0].slot_index}"
    bad = {
        "{not json": "is not valid JSON",
        "[1, 2]": "must be a JSON object",
        json.dumps({**table, "0.x": 1.0}): "invalid literal",
        json.dumps({**table, first: -1.0}): "finite and nonnegative",
        json.dumps({**table, first: None}): "not 'NoneType'",
        json.dumps({"0.11": 3.0}): "no entry for layer 0 slot 0",
    }
    for text, message in bad.items():
        (tmp_path / "latency.json").write_text(text)
        assert main(["run", str(base)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cost table file") and message in err, err
    # a synthetic latency table covering the pool runs
    (tmp_path / "latency.json").write_text(json.dumps(table))
    assert main(["run", str(base)]) == 0
    engine = build_engine(load_config(base))
    assert engine.phase.table.unit == "ms"
    assert engine.phase.table.fixed_overhead == 1.0


@pytest.mark.parametrize("overhead", ["NaN", "Infinity"])
def test_non_finite_cost_table_overhead_exits_with_config_code(tmp_path, capsys, overhead):
    # json.loads reads the literal; the table is refused before training starts
    path = write_config(
        tmp_path,
        evaluator="supernet",
        max_rounds=1,
        pool={"num_layers": 2, "ops_per_layer": 6, "reduction_layers": [1], "preset": "toy"},
        constraint={"tau": 200.0, "cost_table": str(tmp_path / "table.json")},
        network={"stem_width": 8, "layer_widths": [8, 10]},
    )
    (tmp_path / "table.json").write_text(
        "{" + ", ".join(f'"{li}.{s}": 3.0' for li in range(2) for s in range(6))
        + f', "_overhead": {overhead}}}'
    )
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cost table file") and "fixed_overhead" in err, err
    assert not (tmp_path / "run" / "round_001").exists()


def test_unreadable_cost_table_exits_with_config_code(tmp_path, capsys):
    # a path that names a directory, and a file that is not UTF-8 text
    path = write_config(
        tmp_path,
        evaluator="supernet",
        max_rounds=1,
        pool={"num_layers": 2, "ops_per_layer": 6, "reduction_layers": [1], "preset": "toy"},
        constraint={"tau": 200.0, "cost_table": str(tmp_path / "table")},
        network={"stem_width": 8, "layer_widths": [8, 10]},
    )
    (tmp_path / "table").mkdir()
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cost table file") and "cannot be read" in err, err
    (tmp_path / "table").rmdir()
    (tmp_path / "table").write_bytes(b'{"0.0": 1.0, "unit": "\xff"}')
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cost table file") and "can't decode" in err, err
    assert not (tmp_path / "run").exists()


def test_more_active_slots_than_a_layer_mask_holds_exits_with_config_code(tmp_path, capsys):
    path = write_config(
        tmp_path, k_per_layer=64, pool={"ops_per_layer": 70, "preset": "opaque"}
    )
    assert main(["run", str(path)]) == 2
    assert "64 active slots in a layer; at most 63" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # the limit counts the slots a layer can hold, not k_per_layer alone
    parse_config({"k_per_layer": 64, "pool": {"ops_per_layer": 63, "preset": "opaque"}})
    parse_config({"k_per_layer": 63, "pool": {"ops_per_layer": 70, "preset": "opaque"}})


@pytest.mark.parametrize("evaluator, rounds", [("oracle", 2), ("supernet", 1)])
def test_budget_below_the_cheapest_architecture_exits_with_config_code(
    tmp_path, capsys, evaluator, rounds
):
    path = write_config(
        tmp_path, evaluator=evaluator, max_rounds=rounds, constraint={"tau": 0.0},
        pool={"num_layers": 3, "ops_per_layer": 6, "reduction_layers": [2], "preset": "toy"},
        network={"stem_width": 8, "layer_widths": [8, 8, 10]},
    )
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert re.search(r"upper_bound 0\.0 is below \d+\.\d+, the cost of the pool's cheapest", err), err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("width", [0, -8])
def test_stem_width_below_one_exits_with_config_code(tmp_path, capsys, width):
    # 0 divided by zero and -8 made a negative array mid-run
    path = write_config(
        tmp_path, evaluator="supernet", max_rounds=1,
        pool={"num_layers": 4, "ops_per_layer": 6, "reduction_layers": [0, 3], "preset": "toy"},
        network={"stem_width": width},
    )
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config.network.stem_width must be in [1, inf), got {width}" in err, err
    assert not (tmp_path / "run").exists()


def test_budget_at_the_cheapest_architecture_is_accepted():
    # the cheapest architecture selects each reduction layer's cheapest slot
    # and nothing else; a bound one ulp below its cost is refused
    from nse.config import build_engine
    from nse.resources import architecture_cost
    from nse.space import Architecture

    base = {"pool": {"num_layers": 4, "reduction_layers": [1, 3], "preset": "opaque"}}
    table = build_engine(parse_config(base)).phase.table
    pool = parse_config(base).pool.build()
    cheapest = architecture_cost(
        Architecture.from_encoding(
            [
                [min((op.slot_index for op in layer.pool), key=lambda s: table.cost[(li, s)])]
                if layer.role == "reduction"
                else []
                for li, layer in enumerate(pool.layers)
            ]
        ),
        table,
    )
    build_engine(parse_config({**base, "constraint": {"upper_bound": cheapest}}))
    below = float(np.nextafter(cheapest, -np.inf))
    with pytest.raises(ConfigError, match="cheapest architecture"):
        build_engine(parse_config({**base, "constraint": {"upper_bound": below}}))


def test_config_file_that_is_not_utf8_exits_with_config_code(tmp_path, capsys):
    path = write_config(tmp_path)
    path.write_bytes(path.read_bytes().replace(b"oracle", b"or\xe9cle"))  # Latin-1 bytes
    assert main(["run", str(path)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


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


def test_config_hash_names_the_science_not_the_output_dir():
    a = parse_config({"output_dir": "a"})
    assert config_hash(parse_config({"output_dir": "b"})) == config_hash(a)
    assert config_hash(parse_config({"output_dir": "a", "master_seed": 1})) != config_hash(a)
    assert resolved_dict(a)["output_dir"] == "a"


# sha256 of each artifact with its config hash cut out, as written by the
# code before retrieval drew blocks of gate bitmasks; a change that alters a
# single byte of the science (RNG stream, summation order, accept rules)
# shows here
PINNED_DIGESTS = {
    "round_001/pareto.json": "2e6063753bbcb498312414139eb6770c23f60168d8a70b4791ab011fcfb74e2a",
    "round_001/subset.json": "6038bc9c20a83e359948d91054aaa513a6f580ab92a5ce4a49cde2c53fffdec2",
    "round_001/ledger.json": "684a96a7f879061d7649278b6a4c5f7ac94742e7f1fe0b571eba6d621d294db9",
    "round_002/pareto.json": "f69063f6396148df2113b4e9644c32e2718f7abb1cc0add3ecc558393f927f35",
    "round_002/subset.json": "62bc3671d036dea7a17fbe0200864168d1ef6331e3ba1c1262e1be3e51bbf008",
    "round_002/ledger.json": "fa8ff47febac0c9d7ef8a5183c82a8003880fcbab42fc0b98dd751a76b70145c",
    "round_003/pareto.json": "ce6af0219e67ef7247f78b79cc768fe11fbb405da60abf1ea7b087c57a66e771",
    "round_003/subset.json": "ada9281aafd8848b92593496001aabc648347b1e261bce8d84c07fc2ddb5d9f0",
    "round_003/ledger.json": "21cebdc788a1b0a9ed73885ba02da8d4ce546495e309aaf973d542185f617e61",
}


def test_config_hash_names_the_cost_table_contents_not_its_path(tmp_path):
    def hashed(path):
        return config_hash(
            parse_config({"evaluator": "supernet", "constraint": {"cost_table": str(path)}})
        )

    table = {"0.0": 3.0, "0.1": 4.0, "_overhead": 1.0, "unit": "ms"}
    (tmp_path / "a.json").write_text(json.dumps(table))
    # the same costs, written with other spacing and key order
    (tmp_path / "b.json").write_text(json.dumps(dict(reversed(table.items())), indent=2))
    assert hashed(tmp_path / "a.json") == hashed(tmp_path / "b.json")
    before = hashed(tmp_path / "a.json")
    (tmp_path / "a.json").write_text(json.dumps({**table, "0.1": 5.0}))
    assert hashed(tmp_path / "a.json") != before
    # a table that cannot be loaded cannot be hashed: a config error, exit 2
    with pytest.raises(ConfigError, match="cost table file not found"):
        hashed(tmp_path / "missing.json")


def test_pinned_oracle_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("NSE_SEED", raising=False)
    started = time.perf_counter()
    path = write_config(
        tmp_path,
        master_seed=11,
        max_rounds=3,
        k_per_layer=4,
        pool={"num_layers": 3, "ops_per_layer": 12, "reduction_layers": [2], "preset": "opaque"},
        constraint={"tau": 260.0},
        retrieval={"samples": 120, "auxiliary": 12, "stall_factor": 20},
    )
    assert main(["run", str(path)]) == 0
    assert time.perf_counter() - started < 2.0
    out = tmp_path / "run"
    chash = json.loads((out / "manifest.json").read_text())["config_hash"].encode()
    digests = {
        name: hashlib.sha256((out / name).read_bytes().replace(chash, b"")).hexdigest()
        for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS
    draws = [
        json.loads((out / f"round_00{r}" / "manifest.json").read_text())["diagnostics"]["draws"]
        for r in (1, 2, 3)
    ]
    assert draws == [569, 879, 877]


@pytest.mark.parametrize("block_doubles", [64, 1 << 20])
def test_pinned_oracle_artifacts_do_not_depend_on_the_block_size(
    tmp_path, monkeypatch, block_doubles
):
    monkeypatch.setattr(engine, "BLOCK_DOUBLES", block_doubles)
    doubles = []
    draw = GateSampler.draw
    monkeypatch.setattr(
        GateSampler,
        "draw",
        lambda self, rng, n: doubles.append(n * self.width) or draw(self, rng, n),
    )
    test_pinned_oracle_artifacts_are_byte_identical(tmp_path, monkeypatch)
    # the patched cap reached every block: 64 doubles cut them to a few rows
    assert max(doubles) <= block_doubles


# sha256 of each artifact of a small supernet run with its config hash cut
# out, as written when training still ran on the autodiff tape; the explicit
# per-layer backward must reproduce them byte for byte.  The batch size is not
# a power of two, so dividing by it and multiplying by its reciprocal differ
PINNED_SUPERNET_DIGESTS = {
    "round_001/pareto.json": "36415ffab8b3998dfcbf6a7b0ba126b83b9708066870f3d1264f7f1eed0bb271",
    "round_001/subset.json": "0e3c0a2d06deec9c5324db3764bd4e2ba799886960fe874b381ab5cf350c6515",
    "round_001/ledger.json": "a6ecdbc89a0e68a6bc6f90756b8d8c8cec7bf3c0064b88d9a9566588ea560240",
    "round_002/pareto.json": "e6cd742ec245316f7378dbaadf5bf0344798fc12aa3ab372c4d1a482d2562439",
    "round_002/subset.json": "de78fda283ec4a5abf1b783fe8c527eac143a592e3b610d7371bf2aa575f4d09",
    "round_002/ledger.json": "13ecd3b66650cd8bcbb4a25bd3f5ca107714374c3b992441dee1da3b21d4d577",
    "round_003/pareto.json": "db18c876968cea04ee936da86912f08a302541787672b0f74b8c325716f5ca4a",
    "round_003/subset.json": "01badf773e3823478b301d614d7a172a05d2d42168b366cb04b6e2c2fea2a1e1",
    "round_003/ledger.json": "c07a8982cf791103a9b4883b3a1e1ffb81635fe37d73857eb2f0ead3594d6b50",
}


def test_pinned_supernet_artifacts_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("NSE_SEED", raising=False)
    started = time.perf_counter()
    path = write_config(
        tmp_path,
        master_seed=5,
        evaluator="supernet",
        max_rounds=3,
        k_per_layer=4,
        pool={"num_layers": 3, "ops_per_layer": 12, "reduction_layers": [2], "preset": "toy"},
        network={"stem_width": 8, "layer_widths": [8, 8, 12]},
        constraint={"tau": 1.5, "alpha": 0.05},
        retrieval={
            "samples": 6, "auxiliary": 2, "recal_batches": 2, "recal_batch_size": 32,
        },
        dataset={"seed": 1, "input_dim": 6, "classes": 3, "train_size": 400, "val_size": 200},
        training={"steps": 60, "batch_size": 40, "warmup_steps": 4, "indicator_lr": 0.5},
    )
    assert main(["run", str(path)]) == 0
    assert time.perf_counter() - started < 4.0
    out = tmp_path / "run"
    chash = json.loads((out / "manifest.json").read_text())["config_hash"].encode()
    digests = {
        name: hashlib.sha256((out / name).read_bytes().replace(chash, b"")).hexdigest()
        for name in PINNED_SUPERNET_DIGESTS
    }
    assert digests == PINNED_SUPERNET_DIGESTS

    # the manifests record every indicator step and every pruned operation
    pruned = 0
    for r in (1, 2, 3):
        diagnostics = json.loads((out / f"round_00{r}" / "manifest.json").read_text())[
            "diagnostics"
        ]
        curves = diagnostics["indicator_curves"]
        assert sorted(curves) == ["expected_cost_gap", "loss", "penalty"]
        assert all(len(curve) == 60 // 2 for curve in curves.values())
        assert all(loss > 0.0 for loss in curves["loss"])
        log = diagnostics["prune_log"]
        assert len(log) == diagnostics["pruned"]
        subset = json.loads((out / f"round_00{r}" / "subset.json").read_text())["subset"]
        for record in log:
            assert 0 <= record["step"] < 60 // 2
            assert record["indicator"] < -2.0  # the default prune threshold
            entry = next(
                e for e in subset["layers"][record["layer"]]["entries"]
                if e["slot"] == record["slot"]
            )
            assert not entry["active"]
        pruned += len(log)
    assert pruned > 0


# sha256 of the resolved config of the default and of each benchmark workload;
# a change to a key name, a default or the float/int form of a value shows here
PINNED_CONFIG_HASHES = {
    None: "7c0669a4ed0ede164b962bda8162c181836f74f443777f069f32efdab7d0a422",
    "oracle-sample": "3a667e26e0be8b7951abcbf70577a6c633e073139a24dfd767f03e82a43e685f",
    "supernet-eval": "dd0e1f04f23bf1d6b21978de8892cf2680eb9968a39dab28afc30d64dc4ee473",
    "supernet-train": "5beb0f82d855304876bda748d58e5caf6112606a6a058b0b45a8473fb394203c",
}


def test_pinned_config_hashes():
    def load(name):
        if name is None:
            return {}
        return json.loads((REPO / "bench" / "workloads" / f"{name}.json").read_text())

    got = {name: config_hash(parse_config(load(name))) for name in PINNED_CONFIG_HASHES}
    assert got == PINNED_CONFIG_HASHES
    # an integer where a number is expected hashes as the float it stands for
    assert config_hash(parse_config({"constraint": {"tau": 300}})) == PINNED_CONFIG_HASHES[None]


SIZES = [
    ("dataset", "input_dim", 0),
    ("dataset", "classes", 0),
    ("dataset", "train_size", 0),
    ("dataset", "val_size", 0),
    ("dataset", "clusters_per_class", 0),
    ("training", "batch_size", 0),
    ("training", "steps", -5),
    ("training", "warmup_steps", -1),
    ("retrieval", "recal_batches", 0),
    ("retrieval", "recal_batch_size", 0),
    ("retrieval", "stall_factor", 0),
]

# (config, text the error must contain): each must raise ConfigError
REJECTED = [
    # an unknown key in the root and in each section
    ({"bogus": 1}, ["config", "bogus"]),
    *[
        ({section: {"bogus": 1}}, [f"config.{section}", "bogus"])
        for section in (
            "pool", "constraint", "retrieval", "benchmark", "dataset", "training", "network"
        )
    ],
    # values of the wrong type
    ({"max_rounds": True}, ["config", "max_rounds"]),
    ({"constraint": {"tau": "300"}}, ["config.constraint", "tau"]),
    ({"lock_and_rehearse": 1}, ["config", "lock_and_rehearse"]),
    ({"pool": {"reduction_layers": 3}}, ["config.pool", "reduction_layers"]),
    ({"pool": {"reduction_layers": [True]}}, ["config.pool", "reduction_layers"]),
    ({"network": {"layer_widths": [24, 0, 24, 32]}}, ["config.network", "layer_widths"]),
    # null where the key is not optional
    ({"master_seed": None}, ["config", "master_seed"]),
    ({"output_dir": None}, ["config", "output_dir"]),
    ({"max_rounds": None}, ["config", "max_rounds"]),
    ({"retrieval": {"samples": None}}, ["config.retrieval", "samples"]),
    ({"constraint": {"tau": None}}, ["config.constraint", "tau"]),
    ({"benchmark": {"chance": None}}, ["config.benchmark", "chance"]),
    ({"training": {"lr": None}}, ["config.training", "lr"]),
    ({"pool": {"reduction_layers": None}}, ["config.pool", "reduction_layers"]),
    # a section that is not an object
    ({"pool": [1, 2]}, ["config.pool"]),
    ({"training": None}, ["config.training"]),
    # sizes out of range
    *[({section: {key: value}}, [f"config.{section}", key]) for section, key, value in SIZES],
    # values that crashed mid-run or ran silently before parse-time checks
    ({"training": {"lr": 0}}, ["config.training", "lr"]),
    ({"training": {"lr": -1}}, ["config.training", "lr"]),
    ({"training": {"indicator_lr": 0}}, ["config.training", "indicator_lr"]),
    ({"training": {"indicator_lr": -0.1}}, ["config.training", "indicator_lr"]),
    ({"training": {"momentum": 5}}, ["config.training", "momentum"]),
    ({"training": {"momentum": 1.0}}, ["config.training", "momentum"]),
    ({"training": {"momentum": -0.1}}, ["config.training", "momentum"]),
    ({"training": {"weight_decay": -1e-4}}, ["config.training", "weight_decay"]),
    ({"benchmark": {"cost_low": -50}}, ["config.benchmark", "cost_low"]),
    ({"benchmark": {"cost_low": 200, "cost_high": 10}}, ["config.benchmark", "cost_low"]),
    ({"benchmark": {"overhead": -5}}, ["config.benchmark", "overhead"]),
    ({"evaluator": "supernet", "network": {"unit_scale": -1}}, ["config.network", "unit_scale"]),
    # non-finite numbers, which json.loads reads from NaN and Infinity
    *[
        ({section: {key: value}}, [f"config.{section}", key, "finite number"])
        for section, key, value in [
            ("constraint", "edging_margin", float("nan")),
            ("constraint", "prune_threshold", float("-inf")),
            ("constraint", "beta", float("nan")),
            ("network", "unit_scale", float("nan")),
            ("dataset", "noise", float("inf")),
            ("training", "lr", float("inf")),
        ]
    ],
    # a choice outside the annotation's Literal
    ({"constraint": {"kind": "energy"}}, ["config.constraint", "kind", "flops", "latency"]),
    ({"evaluator": "other"}, ["config.evaluator", "'oracle', 'supernet'"]),
    ({"pool": {"preset": "other"}}, ["config.pool.preset", "'toy', 'opaque'"]),
    # a penalty exponent below 1
    ({"constraint": {"beta": 0.5}}, ["config.constraint", "beta"]),
]


@pytest.mark.parametrize(
    "data,needles", REJECTED, ids=[json.dumps(data) for data, _ in REJECTED]
)
def test_parse_config_rejections(data, needles):
    with pytest.raises(ConfigError) as info:
        parse_config(data)
    for needle in needles:
        assert needle in str(info.value)


# numeric fields that take every finite value; any other numeric field must
# declare its interval in its annotation
UNBOUNDED = {
    ("config", "master_seed"),
    ("config.pool", "shuffle_seed"),
    ("config.benchmark", "seed"),
    ("config.benchmark", "cost_high"),  # at least cost_low, a check across fields
    ("config.benchmark", "synergy"),
    ("config.dataset", "seed"),
    ("config.dataset", "noise"),
    ("config.dataset", "radius"),
    ("config.constraint", "tau"),
    ("config.constraint", "upper_bound"),
    ("config.constraint", "prune_threshold"),
}


def declared_fields(cls=RunConfig, where="config"):
    """(section, key, annotation, default) of every leaf field of ``cls``."""
    hints, defaults = get_type_hints(cls, include_extras=True), cls()
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if dataclasses.is_dataclass(kind):
            yield from declared_fields(kind, f"{where}.{f.name}")
        else:
            yield where, f.name, kind, getattr(defaults, f.name)


def declared_bounds():
    """(section, key, base type, interval, default) of every annotated
    interval; a tuple's interval is on its elements, and its default is the
    list a test edits."""
    for where, key, kind, default in declared_fields():
        if get_origin(kind) is tuple:
            kind, default = get_args(kind)[0], list(default)
        if get_origin(kind) is Annotated:
            base, interval = get_args(kind)
            yield where, key, base, interval, default


BOUNDS = list(declared_bounds())


def config_with(where, key, default, value):
    """The config that sets only ``key`` of section ``where`` to ``value``
    (or a tuple key's first element)."""
    if isinstance(default, list):
        value = [value, *default[1:]]
    section = where.removeprefix("config").removeprefix(".")
    return {section: {key: value}} if section else {key: value}


def holds_numbers(kind):
    """Whether the annotation ``kind`` is a number, bounded, in a tuple or
    optional."""
    if get_origin(kind) is Annotated:
        kind = get_args(kind)[0]
    args = get_args(kind)
    return holds_numbers(args[0]) if args else kind in (int, float)


def test_every_numeric_field_is_bounded_or_listed_unbounded():
    numeric = {(where, key) for where, key, kind, _ in declared_fields() if holds_numbers(kind)}
    bounded = {(where, key) for where, key, *_ in BOUNDS}
    assert numeric - bounded == UNBOUNDED
    assert not bounded & UNBOUNDED


@pytest.mark.parametrize(
    "where,key,base,interval,default",
    BOUNDS,
    ids=[f"{where}.{key}" for where, key, *_ in BOUNDS],
)
def test_declared_bounds_hold_at_each_edge_and_fail_just_past_it(
    where, key, base, interval, default
):
    def error(value):
        try:
            parse_config(config_with(where, key, default, value))
        except ConfigError as exc:
            return str(exc)
        return None

    lo, hi = (float(end) for end in interval[1:-1].split(","))
    for end, closed, outward in ((lo, interval[0] == "[", -1), (hi, interval[-1] == "]", 1)):
        if math.isinf(end):
            continue  # the type and finiteness checks hold an infinite end
        edge = base(end)
        past = edge + outward if base is int else math.nextafter(edge, outward * math.inf)
        if closed:
            # a check across fields may refuse the edge, but it names only
            # the section, never this field
            assert f"{where}.{key}" not in (error(edge) or "")
        for value in [past] if closed else [edge, past]:
            message = error(value)
            assert message is not None, value
            assert where in message and key in message and interval in message, message


def test_readme_lists_every_declared_interval():
    text = (REPO / "README.md").read_text()
    config = re.search(r"### Config\n(.*?)\n### ", text, re.S).group(1)
    listed = {
        (key, interval)
        for interval, keys in re.findall(r"^- `([\[(][^`]*)`: (.*?)(?=^- |^$)", config, re.S | re.M)
        for key in re.findall(r"`([a-z_.]+)`", keys)
    }
    declared = {
        (f"{where}.{key}".removeprefix("config."), interval)
        for where, key, _, interval, _ in BOUNDS
    }
    assert listed == declared


def test_null_is_accepted_for_upper_bound_and_cost_table():
    explicit = parse_config({"constraint": {"upper_bound": None, "cost_table": None}})
    assert resolved_dict(explicit) == resolved_dict(parse_config({}))


def test_readme_config_block_is_the_default():
    text = (REPO / "README.md").read_text()
    block = re.search(r"### Config\n.*?```json\n(.*?)```", text, re.S).group(1)
    data = json.loads(re.sub(r"//.*$", "", block, flags=re.M))
    assert resolved_dict(parse_config(data)) == resolved_dict(parse_config({}))

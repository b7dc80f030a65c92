"""Command-line surface and run-artifact emission.

Commands: run, count, distribution, inspect, dump-benchmark.  Exit codes:
0 on success, 2 for configuration problems, 3 for runtime failures.  The
environment variable NSE_SEED overrides the config's master seed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from decimal import Decimal
from pathlib import Path

from .config import ConfigError, build_engine, config_hash, load_config, resolved_dict
from .engine import EvolutionState, RoundResult, distribution_estimate
from .oracle import OracleEvaluator
from .pareto import EvaluationRecord
from .rng import make_rng
from .space import count_architectures, full_subset, ledger_to_json

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a killed writer


class ArtifactError(RuntimeError):
    pass


def _record_json(rec: EvaluationRecord) -> dict:
    return {
        "id": rec.architecture.compact_id(),
        "architecture": [list(layer) for layer in rec.architecture.layers],
        "accuracy": rec.accuracy,
        "cost": rec.cost,
    }


def _write_json(path: Path, payload: dict) -> None:
    """Write ``<name>.tmp`` and rename it over ``path``, so no file is ever
    torn; a write or rename that fails removes the temporary and re-raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


ROUND_DIR = re.compile(r"round_\d+")
ROUND_ARTIFACTS = ("pareto.json", "subset.json", "ledger.json", "manifest.json")
ROUND_FILES = {name + tmp for name in ROUND_ARTIFACTS for tmp in ("", ".tmp")}


def _clear_previous_run(out: Path) -> None:
    """Remove the run manifest and every ``round_<digits>`` directory in
    ``out``, so that no round of an earlier run written there outlives this
    one.  Only what a run writes is removed: a manifest that is not a file, a
    ``round_<digits>`` entry that is not a directory (a link to one
    included, whose files lie outside ``out``), or a round directory holding
    anything else is a ``ConfigError``, raised before anything is removed."""
    manifest = out / "manifest.json"
    rounds = sorted(p for p in out.iterdir() if ROUND_DIR.fullmatch(p.name))
    entries = [manifest] if manifest.exists() else []
    entries += [
        p for r in rounds for p in (r.iterdir() if r.is_dir() and not r.is_symlink() else [r])
    ]
    foreign = sorted(p for p in entries if p.name not in ROUND_FILES or not p.is_file())
    if foreign:
        raise ConfigError(
            f"{foreign[0]} is not a run artifact; refusing to replace the run in {out}"
        )
    for round_dir in rounds:
        for path in round_dir.iterdir():
            path.unlink()
        round_dir.rmdir()
    manifest.unlink(missing_ok=True)


def _check_output(name: str | None) -> None:
    """A directory given as ``-o`` is a ``ConfigError``."""
    if name and Path(name).is_dir():
        raise ConfigError(f"-o {name} is a directory, not a file")


def scientific(n: int, digits: int = 1) -> str:
    return f"{Decimal(n):.{digits}e}"


# ---------------------------------------------------------------------------
# Commands


def cmd_run(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    chash = config_hash(cfg)
    engine = build_engine(cfg)
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"config.output_dir {out} is not a directory: {exc.strerror}") from exc
    _clear_previous_run(out)

    def sink(result: RoundResult, state: EvolutionState) -> None:
        round_dir = out / f"round_{result.round_index:03d}"
        round_dir.mkdir(exist_ok=True)
        artifacts = {
            "pareto": {
                "corrected": [_record_json(r) for r in result.front],
                "raw": [_record_json(r) for r in result.raw_front],
                "indicators": result.indicator_snapshot,
            },
            "subset": {"subset": result.subset_snapshot},
            "ledger": {"ledger": ledger_to_json(state.ledger)},
            "manifest": {
                "master_seed": cfg.master_seed,
                "duration_seconds": result.duration,
                "diagnostics": result.diagnostics,
                "timings": result.timings,
            },
        }
        stamp = {"config_hash": chash, "round": result.round_index}
        for name, payload in artifacts.items():
            _write_json(round_dir / f"{name}.json", {**stamp, **payload})
        top = max(result.front, key=lambda r: r.accuracy) if result.front else None
        print(
            f"round {result.round_index}: front {len(result.front)}"
            + (
                f", best acc {top.accuracy:.4f} @ cost {top.cost:.1f}"
                if top is not None
                else ""
            )
            + f" ({result.duration:.1f}s)",
            flush=True,
        )

    summary = engine.run(sink)
    _write_json(
        out / "manifest.json",
        {
            "config_hash": chash,
            "config": resolved_dict(cfg),
            "rounds_completed": len(summary.results),
            "shortage": summary.shortage,
            "best_archive": [_record_json(r) for r in summary.state.best_archive],
            "durations_seconds": [r.duration for r in summary.results],
        },
    )
    final = summary.results[-1]
    print(
        f"done: {len(summary.results)} round(s)"
        + (", ended by pool shortage" if summary.shortage else "")
        + f"; final front size {len(final.front)}"
    )
    return EXIT_OK


def cmd_count(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sizes = [cfg.pool.ops_per_layer] * cfg.pool.num_layers
    exact = count_architectures(sizes, cfg.k_per_layer, cfg.pool.roles())
    print(f"exact: {exact}")
    print(f"approx: {scientific(exact)}")
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    if args.n < 0:
        raise ConfigError(f"-n must be >= 0, got {args.n}")
    if not args.lo <= args.hi:
        raise ConfigError(f"--lo must be <= --hi, got {args.lo} and {args.hi}")
    _check_output(args.output)
    cfg = load_config(args.config)
    if cfg.evaluator != "oracle":
        raise ConfigError("distribution sampling requires an oracle config")
    pool = cfg.pool.build()
    bench = cfg.benchmark.build(pool)
    records = distribution_estimate(
        full_subset(pool),
        OracleEvaluator(bench),
        bench.cost_table(),
        (args.lo, args.hi),
        args.n,
        make_rng(cfg.master_seed, "distribution"),
    )
    target = open(args.output, "w", newline="") if args.output else sys.stdout
    try:
        writer = csv.writer(target)
        writer.writerow(["arch_id", "cost", "accuracy"])
        for rec in records:
            writer.writerow([rec.architecture.compact_id(), rec.cost, rec.accuracy])
    finally:
        if args.output:
            target.close()
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    manifest_path = run_dir / "manifest.json"
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no run manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    chash = manifest["config_hash"]

    number = manifest["rounds_completed"] if args.round is None else args.round
    round_dir = run_dir / f"round_{number:03d}"
    if not round_dir.is_dir():
        raise FileNotFoundError(f"no artifacts for round {number} in {run_dir}")

    artifacts = {}
    for name in ROUND_ARTIFACTS:
        payload = json.loads((round_dir / name).read_text())
        if payload["config_hash"] != chash:
            raise ArtifactError(
                f"{round_dir / name} embeds config hash {payload['config_hash'][:12]}..."
                f" but the run manifest has {chash[:12]}...; refusing mixed artifacts"
            )
        artifacts[name] = payload

    pareto = artifacts["pareto.json"]
    subset = artifacts["subset.json"]["subset"]
    print(f"run {run_dir}  round {pareto['round']}  config {chash[:12]}")
    print(
        f"front: {len(pareto['corrected'])} corrected / {len(pareto['raw'])} raw"
    )
    for rec in pareto["corrected"]:
        print(f"  acc {rec['accuracy']:.4f}  cost {rec['cost']:.2f}  [{rec['id']}]")
    timings = artifacts["manifest.json"].get("timings")
    if timings:
        print("timings: " + ", ".join(f"{k} {v:.4f}s" for k, v in timings.items()))
    print(f"subset (capacity {subset['capacity']}, shortage {subset['shortage']}):")
    for layer in subset["layers"]:
        parts = []
        for e in layer["entries"]:
            tag = "i" if e["origin"] == "inherited" else "f"
            tag += "" if e["active"] else "!"
            parts.append(f"{e['slot']}:{e['kind']}({tag})")
        print(f"  L{layer['layer_index']} [{layer['role']}] " + " ".join(parts))
    print("legend: i inherited, f fresh, ! pruned")
    return EXIT_OK


def cmd_dump_benchmark(args: argparse.Namespace) -> int:
    _check_output(args.output)
    cfg = load_config(args.config)
    if cfg.evaluator != "oracle":
        raise ConfigError("dump-benchmark requires an oracle config")
    pool = cfg.pool.build()
    bench = cfg.benchmark.build(pool)
    payload = {
        "config_hash": config_hash(cfg),
        "benchmark": bench.to_json(),
        "cost_table": bench.cost_table().to_json(),
    }
    if args.output:
        _write_json(Path(args.output), payload)
        print(f"wrote {args.output}")
    else:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nse",
        description="Search-space evolution for multi-branch architecture search.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute the evolution loop")
    p_run.add_argument("config")
    p_run.set_defaults(func=cmd_run)

    p_count = sub.add_parser("count", help="count reachable architectures")
    p_count.add_argument("config")
    p_count.set_defaults(func=cmd_count)

    p_dist = sub.add_parser(
        "distribution", help="sample accuracies within a cost band (CSV)"
    )
    p_dist.add_argument("config")
    p_dist.add_argument("--lo", type=float, required=True)
    p_dist.add_argument("--hi", type=float, required=True)
    p_dist.add_argument("-n", type=int, required=True)
    p_dist.add_argument("-o", "--output", default=None)
    p_dist.set_defaults(func=cmd_distribution)

    p_inspect = sub.add_parser("inspect", help="summarize run artifacts")
    p_inspect.add_argument("run_dir")
    p_inspect.add_argument("--round", type=int, default=None)
    p_inspect.set_defaults(func=cmd_inspect)

    p_dump = sub.add_parser(
        "dump-benchmark", help="write the oracle benchmark tables as JSON"
    )
    p_dump.add_argument("config")
    p_dump.add_argument("-o", "--output", default=None)
    p_dump.set_defaults(func=cmd_dump_benchmark)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe fails here, not at shutdown
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # the reader closed stdout (``nse inspect RUN | head``): point stdout
        # at devnull so the interpreter's shutdown flush fails silently too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

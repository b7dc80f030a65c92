"""Benchmark of the `nse run` entry point on pinned workloads.

    python3 bench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each repetition runs `nse run CONFIG` in a
fresh interpreter (bench/child.py), one at a time, in a closed loop that
starts the next repetition when the previous one has been checked, until
--seconds have passed.  The workload config is bench/workloads/NAME.json;
--seed reaches the program only as NSE_SEED, i.e. the config's master_seed.

--trace 0 reports the end-to-end metrics as medians over untraced
repetitions.  --trace 1 alternates untraced and traced repetitions and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
Every repetition is checked (exit code, config hashes, `nse inspect`, the
final front, the oracle's closed form, byte-identical artifacts across
repetitions); a repetition that fails a check counts as failed.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Scratch output goes to .bench_runs/ under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from child import LAYERS, now
from outputs import check_run, front_hv, percentile
from spans import covered, self_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_runs"
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))

HARD_LIMIT_S = 170.0  # a repetition still running this long after the start is killed
MIN_REPS = 3  # untraced repetitions per --trace 0 run
MIN_REPS_TRACED = 2  # of each kind per --trace 1 run

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}
# Search-quality guards: printed and checked for repeatability, but not
# metrics with a bound, because they follow the seed (spreads of 10-100 %).
QUALITY = {"best_acc": "fraction", "front_hv": "fraction"}

# Layers whose time should account for most of run_s on each workload.
DOMINANT = {
    "oracle-sample": ["space.sample_uniform"],
    "supernet-eval": ["supernet.evaluate"],
    "supernet-train": ["supernet.train_step", "indicators.update_step"],
}

SPLITS = ("train", "eval")
COUNTERS = {
    "engine.retrieve.draws": "count",
    "engine.retrieve.useful_ratio": "ratio",
    "indicators.pruned_ops": "count",
    "supernet.evaluate.wait_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.run_s": "s",
    "trace.overhead_ratio": "ratio",
}


def span_labels() -> list[str]:
    labels = []
    for name, _, options in LAYERS:
        labels += [f"{name}.{s}" for s in SPLITS] if options.get("split") else [name]
    return labels + ["cli.sink"]


def per_layer_units() -> dict[str, str]:
    units = {}
    for label in span_labels():
        units[f"{label}.calls"] = "count"
        units[f"{label}.s"] = "s"
    units.update(COUNTERS)
    return units


# ---------------------------------------------------------------------------
# Provenance


def git_sha() -> str:
    """HEAD of the checkout read from .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed: int, workers) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "nse").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "git_sha": git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in thread_vars},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workers_resolved": workers,
        "machine": platform.machine(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Repetitions


class Workload:
    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.dir = WORK / name
        self.out = self.dir / "out"
        self.config = self.dir / "config.json"
        self.result = self.dir / "child.json"
        self.dir.mkdir(parents=True, exist_ok=True)
        config = json.loads((BENCH / "workloads" / f"{name}.json").read_text())
        # relative, so the config hash does not depend on where the checkout is
        config["output_dir"] = self.out.relative_to(ROOT).as_posix()
        self.config.write_text(json.dumps(config, indent=2, sort_keys=True))
        # imported here, before the first timed repetition, which also
        # compiles the package's bytecode cache
        from nse.cli import main

        self.cli_main = main
        self.oracle = self.oracle_error = None
        if config.get("evaluator") == "oracle":
            try:
                self.oracle = oracle_reference(self.config)
            except (ImportError, AttributeError, ValueError) as exc:
                self.oracle_error = f"no oracle reference: {type(exc).__name__}: {exc}"
        self.reference_hashes: dict[str, str] | None = None

    def repeat(self, traced: bool, deadline: float) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.result.unlink(missing_ok=True)
        env = dict(os.environ, NSE_SEED=str(self.seed))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        cmd = [sys.executable, str(BENCH / "child.py"), str(self.config), str(self.result)]
        rep = {"traced": traced, "problems": []}
        spawn = now()
        try:
            proc = subprocess.run(cmd + (["--trace"] if traced else []), cwd=ROOT, env=env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, deadline - spawn))
        except subprocess.TimeoutExpired:
            rep["problems"].append("repetition timed out")
            return rep
        rep["wall"] = now() - spawn
        last_error = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        if proc.returncode != 0 or not self.result.is_file():
            rep["problems"].append(f"benchmark child exited {proc.returncode}: {last_error}")
            return rep
        marks = json.loads(self.result.read_text())
        if "run_start" in marks:
            rep["setup_s"] = marks["run_start"] - spawn
            rep["run_s"] = marks["end"] - marks["run_start"]
        rep["peak_rss_mb"] = marks["peak_rss_mb"]
        rep["workers"] = marks.get("workers")
        rep["trace"] = marks.get("trace")
        if marks["exit_code"] != 0:
            rep["problems"].append(f"nse run exited {marks['exit_code']}: {last_error}")
            return rep
        try:
            checked = check_run(self.out, self.cli_main, self.oracle)
        except (OSError, KeyError, TypeError, ValueError) as exc:
            rep["problems"].append(f"unreadable artifacts: {type(exc).__name__}: {exc}")
            return rep
        rep["problems"] += checked["problems"]
        if self.oracle_error:
            rep["problems"].append(self.oracle_error)
        rep["front"] = checked["front"]
        rep["upper_bound"] = checked["upper_bound"]
        rep["artifact_bytes"] = checked["artifact_bytes"]
        if self.reference_hashes is None:
            self.reference_hashes = checked["hashes"]
        elif checked["hashes"] != self.reference_hashes:
            differ = sorted(
                k for k in set(checked["hashes"]) | set(self.reference_hashes)
                if checked["hashes"].get(k) != self.reference_hashes.get(k)
            )
            rep["problems"].append(f"artifacts differ from the first repetition: {differ}")
        return rep


def oracle_reference(config_path: Path):
    from nse.config import load_config
    from nse.oracle import oracle_score
    from nse.space import Architecture

    cfg = load_config(config_path)
    bench = cfg.benchmark.build(cfg.pool.build())

    def score(encoding):
        return oracle_score(Architecture.from_encoding(encoding), bench)

    return score


def run_loop(workload: Workload, seconds: float, trace: bool) -> list[dict]:
    start = now()
    soft, hard = start + seconds, start + HARD_LIMIT_S
    reps: list[dict] = []
    longest = 0.0
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = workload.repeat(traced, hard)
        reps.append(rep)
        longest = max(longest, rep.get("wall", 0.0))
        done = (
            sum(not r["traced"] for r in reps) >= (MIN_REPS_TRACED if trace else MIN_REPS)
            and sum(r["traced"] for r in reps) >= (MIN_REPS_TRACED if trace else 0)
        )
        t = now()
        if (t >= soft and done) or t + longest > hard or "wall" not in rep:
            return reps


# ---------------------------------------------------------------------------
# Metrics


def end_to_end(reps: list[dict]) -> tuple[dict, list[str]]:
    good = [r for r in reps if not r["traced"] and not r["problems"]]
    metrics, lines = {}, []
    for key in END_TO_END:
        values = [r[key] for r in good if key in r]
        if not values:
            lines.append(f"  {key:<14} absent: no passing untraced repetition")
            continue
        metrics[key] = value = statistics.median(values)
        spread = ""
        if len(values) >= 4:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f", quartiles {q1:.4f}..{q3:.4f}"
        lines.append(f"  {key:<14} {value:.4f} {END_TO_END[key]:<8} median of {len(values)}{spread}")
    if good and "front" in good[0]:
        front, upper = good[0]["front"], good[0]["upper_bound"]
        quality = {"best_acc": max(acc for _, acc in front), "front_hv": front_hv(front, upper)}
        for key, value in quality.items():
            lines.append(f"  {key:<14} {value:.6f} {QUALITY[key]:<8} final corrected front,"
                         f" byte-identical in all {len(good)} repetitions (search quality, no bound)")
    return metrics, lines




def trace_stats(trace: dict, workload: str) -> dict:
    """Calls, wall time, self time and call durations per span label."""
    names = trace["names"]
    spans = [(sid, names[n], parent or None, thread, start, end)
             for sid, n, parent, thread, start, end in trace["spans"]]
    durations, intervals = defaultdict(list), defaultdict(list)
    for _, name, _, _, start, end in spans:
        durations[name].append(end - start)
        intervals[name].append((start, end))
    return {
        "calls": {name: len(d) for name, d in durations.items()},
        "s": {name: sum(d) for name, d in durations.items()},
        "self_s": self_times(spans),
        "durations": durations,
        "dominant_s": covered(iv for label in DOMINANT.get(workload, ()) for iv in intervals[label]),
        "counters": trace["counters"],
    }


def per_layer(reps: list[dict], workload: str) -> tuple[dict, list[str], dict]:
    traced = [(r, trace_stats(r["trace"], workload)) for r in reps
              if r["traced"] and r.get("trace") and "run_s" in r]
    untraced_run_s = [r["run_s"] for r in reps if not r["traced"] and not r["problems"] and "run_s" in r]
    absent: dict[str, str] = {}
    for rep, _ in traced:
        absent.update(rep["trace"]["absent"])
    missing = {name: "; ".join(f"{t} ({absent[t]})" for t in targets)
               for name, targets, _ in LAYERS if all(t in absent for t in targets)}
    metrics: dict[str, float] = {}
    lines = [f"  {'span':<34} {'calls':>8} {'s':>9} {'self_s':>9} {'ms_p50':>9} {'ms_p95':>9}"]
    layers: dict[str, dict] = {}
    if not traced:
        return metrics, ["  absent: no traced repetition finished"], layers
    for label in span_labels():
        layer = label.rsplit(".", 1)[0] if label.endswith(SPLITS) else label
        if layer in missing:
            lines.append(f"  {label:<34} absent: {missing[layer]}")
            continue
        row = {k: statistics.median(t[k].get(label, 0) for _, t in traced) for k in ("calls", "s", "self_s")}
        pooled = [d for _, t in traced for d in t["durations"].get(label, ())]
        for q, key in ((0.5, "ms_p50"), (0.95, "ms_p95")):
            value = percentile(pooled, q)
            row[key] = None if value is None else value * 1e3
        layers[label] = row
        metrics[f"{label}.calls"] = row["calls"]
        metrics[f"{label}.s"] = row["s"]
        pct = " ".join(f"{row[k]:9.3f}" if row[k] is not None else f"{'n=' + str(len(pooled)):>9}"
                       for k in ("ms_p50", "ms_p95"))
        lines.append(f"  {label:<34} {row['calls']:>8g} {row['s']:>9.4f} {row['self_s']:>9.4f} {pct}")
    lines.append("  (a percentile is shown only with at least 10 calls beyond it; otherwise n= calls)")

    def counter(key: str, layer: str, default=None):
        if layer in missing:
            return None
        values = [t["counters"].get(key, default) for _, t in traced]
        return None if None in values else statistics.median(values)

    draws = counter("engine.retrieve.draws", "engine.retrieve")
    evaluated = counter("engine.retrieve.evaluated", "engine.retrieve")
    values = {
        "engine.retrieve.draws": draws,
        "engine.retrieve.useful_ratio": evaluated / draws if draws else None,
        "indicators.pruned_ops": counter("indicators.pruned_ops", "indicators.prune", 0),
        "supernet.evaluate.wait_s": counter("supernet.evaluate.wait_s", "supernet.evaluate", 0.0),
        "cli.artifact_bytes": statistics.median(r.get("artifact_bytes", 0) for r, _ in traced),
        "trace.run_s": statistics.median(r["run_s"] for r, _ in traced),
    }
    if untraced_run_s:
        values["trace.overhead_ratio"] = values["trace.run_s"] / statistics.median(untraced_run_s) - 1.0
    for key, unit in COUNTERS.items():
        if values.get(key) is None:
            lines.append(f"  {key:<34} absent: not measured (layer missing, or no untraced repetition)")
        else:
            metrics[key] = values[key]
            lines.append(f"  {key:<34} {values[key]:.6g} {unit}")
    if workload in DOMINANT:
        share = statistics.median(t["dominant_s"] for _, t in traced) / values["trace.run_s"]
        lines.append(f"  {' + '.join(DOMINANT[workload])} busy {share:.1%} of traced run_s"
                     " (wall time with at least one call open)")
        layers["dominant_share_of_run_s"] = share
    return metrics, lines, layers


# ---------------------------------------------------------------------------
# Entry point


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = Workload(name, seed)
    reps = run_loop(workload, seconds, trace)
    failed = sum(bool(r["problems"]) for r in reps)
    workers = next((r["workers"] for r in reps if r.get("workers") is not None), None)
    prov = provenance(seed, workers)
    n_traced = sum(r["traced"] for r in reps)
    print(f"{name}, seed {seed}: {len(reps)} repetitions ({n_traced} traced),"
          " closed loop, one `nse run` at a time in a fresh interpreter")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if trace:
        metrics, lines, layers = per_layer(reps, name)
        units = per_layer_units()
    else:
        metrics, lines = end_to_end(reps)
        layers = {}
        units = END_TO_END
    print("\n".join(lines))
    for i, rep in enumerate(reps, 1):
        for problem in rep["problems"][:3]:
            print(f"  repetition {i} failed: {problem}")
        if len(rep["problems"]) > 3:
            print(f"  repetition {i}: {len(rep['problems']) - 3} more problems in the results file")
    print(f"  {'failed_ratio':<14} {failed}/{len(reps)} = {failed / len(reps):.3f}")
    record = {
        "workload": name,
        "trace": trace,
        "provenance": prov,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "layers": layers,
        "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    last = next((r["trace"] for r in reversed(reps) if r.get("trace")), None)
    if last is not None:
        (results / f"{name}-seed{seed}-spans.json").write_text(json.dumps(
            {"layers": layers, "absent": last["absent"], "counters": last["counters"],
             "names": last["names"], "spans": last["spans"]}))
    return {
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nse" / "cli.py").is_file():
        print(f"error: no nse sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else [args.workload]
    outcomes = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if len(outcomes) == 1:
        (outcome,) = outcomes.values()
        metrics = outcome["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, o in outcomes.items() for k, v in o["metrics"].items()}
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

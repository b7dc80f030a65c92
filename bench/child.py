"""One repetition of `nse run CONFIG` in a fresh interpreter.

Usage: python3 bench/child.py CONFIG RESULT_JSON [--trace]

Runs the CLI entry point exactly as `nse run CONFIG` does, after hooking
`Engine.run` to stamp the end of set-up.  With --trace every layer in
LAYERS is wrapped and the spans are written to RESULT_JSON as well.
Timestamps use CLOCK_MONOTONIC, which the parent process shares.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _retrieve_counts(tracer: Tracer, result) -> None:
    try:
        diagnostics = result[3]
        tracer.count("engine.retrieve.draws", diagnostics["draws"])
        tracer.count(
            "engine.retrieve.evaluated", diagnostics["in_budget"] + diagnostics["auxiliary"]
        )
    except (IndexError, KeyError, TypeError) as exc:
        tracer.absent["engine.retrieve diagnostics"] = f"{type(exc).__name__}: {exc}"


def _pruned_count(tracer: Tracer, result) -> None:
    tracer.count("indicators.pruned_ops", len(result))


TRAIN = {"context": "train"}
SPLIT = {"split": True}

# (layer name, places callers look the function up, wrapper options)
LAYERS = [
    ("config.build_engine", ["nse.cli:build_engine"], {}),
    ("supernet.dataset", ["nse.supernet:ToyDataset.generate"], {}),
    ("engine.round", ["nse.engine:Engine.run_round"], {}),
    ("engine.aggregate_replenish", ["nse.engine:Engine.step_aggregate_replenish"], {}),
    ("engine.retrieve", ["nse.engine:retrieve_pareto"], {"after": _retrieve_counts}),
    (
        "space.sample_uniform",
        ["nse.engine:sample_uniform_architecture", "nse.supernet:sample_uniform_architecture"],
        {},
    ),
    (
        "resources.architecture_cost",
        ["nse.engine:architecture_cost", "nse.oracle:architecture_cost"],
        {},
    ),
    ("oracle.evaluate", ["nse.oracle:OracleEvaluator.evaluate"], {}),
    ("indicators.sample_architecture", ["nse.engine:sample_architecture"], {}),
    ("indicators.update_step", ["nse.engine:indicator_update_step"], TRAIN),
    ("indicators.prune", ["nse.engine:prune"], {"after": _pruned_count}),
    ("supernet.train_step", ["nse.engine:train_step"], TRAIN),
    ("supernet.evaluate", ["nse.engine:evaluate_on_supernet"], {"context": "eval", "cpu": True}),
    ("nn.affine", ["nse.supernet:affine"], SPLIT),
    ("nn.normalize", ["nse.supernet:normalize"], SPLIT),
    (
        "nn.softmax_cross_entropy",
        ["nse.supernet:softmax_cross_entropy", "nse.nn:softmax_cross_entropy"],
        SPLIT,
    ),
    ("nn.backward", ["nse.nn:Tensor.backward"], SPLIT),
    ("pareto.front", ["nse.engine:pareto_front"], {}),
]


def hook_engine_run(marks: dict, tracer: Tracer | None) -> None:
    """Stamp the start of round 1 and, when tracing, wrap the CLI's sink."""
    from nse.engine import Engine

    original = Engine.run

    def run(self, sink=None, *args, **kwargs):
        marks["run_start"] = now()
        marks["workers"] = getattr(self, "workers", None)
        if tracer is not None and sink is not None:
            sink = tracer.wrap("cli.sink", sink)
        return original(self, sink, *args, **kwargs)

    Engine.run = run


def main(argv: list[str]) -> int:
    config, result_path = argv[0], Path(argv[1])
    tracer = Tracer() if "--trace" in argv[2:] else None
    sys.path.insert(0, str(ROOT / "src"))
    import nse.cli

    if tracer is not None:
        for name, targets, options in LAYERS:
            for target in targets:
                tracer.patch(name, target, **options)
    marks: dict = {}
    hook_engine_run(marks, tracer)
    code = nse.cli.main(["run", config])
    marks["end"] = now()
    marks["exit_code"] = code
    marks["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        names = sorted({s[1] for s in tracer.spans})
        index = {name: i for i, name in enumerate(names)}
        threads = {t: i for i, t in enumerate(dict.fromkeys(s[3] for s in tracer.spans))}
        marks["trace"] = {
            "names": names,
            # id, name index, parent id (0 = none), thread index, start, end
            "spans": [
                [sid, index[name], parent or 0, threads[thread], start, end]
                for sid, name, parent, thread, start, end in tracer.spans
            ],
            "counters": dict(tracer.counters),
            "absent": tracer.absent,
        }
    result_path.write_text(json.dumps(marks, separators=(",", ":")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

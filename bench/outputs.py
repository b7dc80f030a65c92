"""Checks and summaries of one `nse run` output directory.

Everything here reads artifacts the CLI wrote; nothing imports nse except
the oracle reference, which the caller passes in.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

DETERMINISTIC = ("pareto.json", "subset.json", "ledger.json")
ROUND_FILES = DETERMINISTIC + ("manifest.json",)


def percentile(values, q: float):
    """Nearest-rank q-quantile, or None unless ten samples lie beyond it."""
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < 10:
        return None
    return sorted(values)[rank - 1]


def front_hv(points, upper_bound: float) -> float:
    """Area a front dominates in the (cost / upper_bound, accuracy) plane.

    The reference point is (1, 0): at each normalised cost x the front
    offers the best accuracy of its points costing at most x.
    """
    xs = sorted((cost / upper_bound, acc) for cost, acc in points if cost <= upper_bound)
    area, best = 0.0, 0.0
    for (x, acc), (x_next, _) in zip(xs, xs[1:] + [(1.0, 0.0)]):
        best = max(best, acc)
        area += (x_next - x) * best
    return area


def front_problems(points, upper_bound: float) -> list[str]:
    """Why a final corrected front of (cost, accuracy) points is invalid."""
    if not points:
        return ["final corrected front is empty"]
    problems = []
    for (c0, a0), (c1, a1) in zip(points, points[1:]):
        if c1 < c0:
            problems.append(f"front not sorted by cost: {c0} before {c1}")
        if a1 <= a0:
            problems.append(f"front accuracy not strictly rising: {a0} then {a1}")
    over = [c for c, _ in points if c > upper_bound]
    if over:
        problems.append(f"front points over upper_bound {upper_bound}: {over}")
    return problems


def check_run(out_dir: Path, cli_main, oracle=None) -> dict:
    """Validate one run's artifacts.

    ``oracle(encoding) -> (accuracy, cost)`` is the closed-form reference for
    oracle workloads.  Returns the problems found, the sha256 of every
    deterministic artifact, the final corrected front as (cost, accuracy)
    points, the constraint's upper bound and the artifact bytes.
    """
    problems: list[str] = []
    manifest = json.loads((out_dir / "manifest.json").read_text())
    chash = manifest["config_hash"]
    upper = manifest["config"]["constraint"]["upper_bound"]
    rounds = sorted(p for p in out_dir.glob("round_*") if p.is_dir())
    if not rounds:
        problems.append("no round artifacts")
    hashes: dict[str, str] = {}
    final: list[tuple[float, float]] = []
    for round_dir in rounds:
        for name in ROUND_FILES:
            payload = json.loads((round_dir / name).read_text())
            if payload.get("config_hash") != chash:
                problems.append(f"{round_dir.name}/{name}: config_hash differs from the run manifest")
            if name in DETERMINISTIC:
                digest = hashlib.sha256((round_dir / name).read_bytes()).hexdigest()
                hashes[f"{round_dir.name}/{name}"] = digest
            if name == "pareto.json":
                final = [(r["cost"], r["accuracy"]) for r in payload["corrected"]]
                if oracle is not None:
                    for rec in payload["corrected"] + payload["raw"]:
                        expected = oracle(rec["architecture"])
                        if (rec["accuracy"], rec["cost"]) != expected:
                            problems.append(
                                f"{round_dir.name}: {rec['id']} reads (acc, cost)"
                                f" {(rec['accuracy'], rec['cost'])}, oracle says {expected}"
                            )
    problems += front_problems(final, upper)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(["inspect", str(out_dir)])
    if code != 0:
        problems.append(f"nse inspect exited {code}")
    return {
        "problems": problems,
        "hashes": hashes,
        "front": final,
        "upper_bound": upper,
        "artifact_bytes": sum(p.stat().st_size for p in out_dir.rglob("*.json")),
    }

"""The outer evolution loop.

Every round has the same two steps.  The engine's phase finds an optimized
space in the current subset: ``SupernetPhase`` trains a fresh shared-weight
supernet on it (interleaving two weight steps with one indicator step,
pruning after each indicator step), and ``OraclePhase`` skips training and
samples uniformly.  The round's Pareto front is then retrieved from sampled
in-budget architectures plus auxiliary beyond-boundary samples and the
rehearsed previous front, and aggregated into the inherited core of the
next round's subset, which is replenished with never-traversed operations.
The loop ends at the round cap or as soon as replenishment runs short.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Annotated, Callable, NamedTuple, Sequence

import numpy as np

# sample_architecture and sample_uniform_architecture are one-row calls of
# GateSampler that the engine itself no longer makes; they stay importable
# here because bench/child.py wraps them by this path.
from .indicators import (
    FitnessIndicators,
    ThetaAdam,
    indicator_sampler,
    indicator_update_step,
    prune,
    sample_architecture,  # noqa: F401
)
from .oracle import Evaluator, OracleEvaluator, SyntheticBenchmark
from .pareto import EvaluationRecord, pareto_front
from .resources import ConstraintConfig, CostTable, MaskCost
from .rng import derive_seed, make_rng
from .space import (
    Architecture,
    GateSampler,
    SearchSpacePool,
    SubsetState,
    TraversalLedger,
    aggregate,
    init_subset,
    replenish,
    sample_uniform_architecture,  # noqa: F401
    subset_to_json,
)
from .supernet import (
    BatchStream,
    InferenceCache,
    NetworkGeometry,
    SharedWeights,
    ToyDataset,
    TrainingConfig,
    evaluate as evaluate_on_supernet,
    make_recal_batches,
    train_step,
)
from .nn import SGD, cosine_warmup_lr


# The most doubles one sampler block in retrieval may fetch (512 KiB).  It
# caps memory only: blocks start at the fewest draws that could be enough
# and double from there, so a round that stalls pays a block's fixed costs
# only a few times, and the draws past a round's stop are not priced.
BLOCK_DOUBLES = 65536


class EngineError(RuntimeError):
    pass


@dataclass
class RetrievalConfig:
    """How many distinct models to score per round.

    ``samples`` counts in-budget evaluations (draws over budget are
    discarded); ``auxiliary`` counts extra samples inside the beyond-boundary
    band used to smooth the front near the cost cutoff.
    """

    samples: Annotated[int, "[1, inf)"] = 200
    auxiliary: Annotated[int, "[0, inf)"] = 0
    recal_batches: Annotated[int, "[1, inf)"] = 16
    recal_batch_size: Annotated[int, "[1, inf)"] = 128
    stall_factor: Annotated[int, "[1, inf)"] = 100


@dataclass
class EvolutionState:
    round_index: int
    subset: SubsetState
    ledger: TraversalLedger
    previous_front: list[EvaluationRecord] = field(default_factory=list)
    best_archive: list[EvaluationRecord] = field(default_factory=list)


@dataclass
class RoundResult:
    round_index: int
    front: list[EvaluationRecord]
    raw_front: list[EvaluationRecord]
    diagnostics: dict
    subset_snapshot: dict
    indicator_snapshot: dict | None
    duration: float
    # seconds per phase: sample_draws, evaluation and front, plus
    # weight_steps and indicator_steps on supernet rounds
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class RunSummary:
    results: list[RoundResult]
    state: EvolutionState
    shortage: bool


class SupernetEvaluator:
    """Scores a sampler's mask rows on shared weights with private recalibration.

    Built once per round after training.  The mask rows are decoded and
    scored as one batch by one ``evaluate_on_supernet`` call, which shares the
    layer-0 work across the batch; the ``InferenceCache`` holds the stem
    outputs for every batch of the round.
    """

    def __init__(self, cache: InferenceCache):
        self.cache = cache

    def evaluate(self, sampler: GateSampler, rows: Sequence[Sequence[int]]) -> list[float]:
        return evaluate_on_supernet(self.cache, [sampler.decode(row) for row in rows])


def edging_filter(
    raw_front: Sequence[EvaluationRecord],
    auxiliary: Sequence[EvaluationRecord],
    constraint: ConstraintConfig,
    diagnostics: dict | None = None,
) -> list[EvaluationRecord]:
    """Drop near-boundary front points beaten by a beyond-boundary sample.

    A point within the relative margin of the cost cutoff owes its
    optimality to window truncation whenever an auxiliary sample just past
    the boundary is strictly more accurate.  When that would drop every
    point, the raw front is returned unchanged, so a round never ends with an
    empty front, and ``diagnostics["edging_fallback"]`` is set if given.
    Only the auxiliary samples' ``accuracy`` is read.
    """
    if not auxiliary:
        return list(raw_front)
    best_aux = max(r.accuracy for r in auxiliary)
    limit = constraint.upper_bound
    near = limit * (1.0 - constraint.edging_margin)
    kept = [q for q in raw_front if not (q.cost >= near and best_aux > q.accuracy)]
    if raw_front and not kept:
        if diagnostics is not None:
            diagnostics["edging_fallback"] = True
        return list(raw_front)
    return kept


def _draw_blocks(
    sampler: GateSampler,
    cost_of: MaskCost,
    rng: np.random.Generator,
    max_draws: int,
    first: int,
):
    """Yield up to ``max_draws`` draws as (mask rows, costs) pieces.

    The first block drawn holds ``first`` rows, the fewest that could
    satisfy the caller, and each later block twice as many as the one
    before.  Every block is cut to the draws left and to ``BLOCK_DOUBLES``
    doubles.  A block is priced and yielded in pieces of at most ``first``
    rows, so the rows past the caller's stop are drawn but not priced.  The
    rows do not depend on the block sizes: ``sampler.draw`` reads the
    generator as one row at a time would.
    """
    piece = max(1, first)
    cap = max(1, BLOCK_DOUBLES // max(1, sampler.width))
    size = piece
    while max_draws > 0:
        block = sampler.draw(rng, min(size, cap, max_draws))
        max_draws -= len(block)
        size = min(2 * size, cap)
        for lo in range(0, len(block), piece):
            rows = block[lo : lo + piece]
            yield rows, cost_of(rows)


def _keep_draws(
    sampler: GateSampler,
    cost_of: MaskCost,
    retrieval: RetrievalConfig,
    constraint: ConstraintConfig,
    rng: np.random.Generator,
) -> tuple[list[tuple[tuple[int, ...], float]], list[tuple[tuple[int, ...], float]], int]:
    """The in-budget and auxiliary draws kept, as (mask row, cost) pairs,
    and the number of draws made.

    Draws are taken one at a time in order: a repeat of an earlier draw is
    skipped, the first ``samples`` distinct in-budget draws and the first
    ``auxiliary`` distinct draws in the band past the cutoff are kept, and
    drawing stops once both are full or after ``stall_factor * samples``
    draws.  A draw priced past the band is never kept, and neither is any
    repeat of it, so only the draws inside it are looked at one by one.
    """
    limit = constraint.upper_bound
    band_hi = limit * (1.0 + constraint.edging_margin)
    seen: set[tuple[int, ...]] = set()
    in_budget: list[tuple[tuple[int, ...], float]] = []
    auxiliary: list[tuple[tuple[int, ...], float]] = []
    draws = 0
    max_draws = retrieval.stall_factor * retrieval.samples
    first = retrieval.samples + retrieval.auxiliary
    for block, costs in _draw_blocks(sampler, cost_of, rng, max_draws, first):
        keep = np.flatnonzero(costs <= band_hi)
        for i, row, cost in zip(keep.tolist(), block[keep].tolist(), costs[keep].tolist()):
            key = tuple(row)
            if key in seen:
                continue
            seen.add(key)
            if cost <= limit and len(in_budget) < retrieval.samples:
                in_budget.append((key, cost))
            elif limit < cost and len(auxiliary) < retrieval.auxiliary:
                auxiliary.append((key, cost))
            else:
                continue
            if len(in_budget) == retrieval.samples and len(auxiliary) == retrieval.auxiliary:
                return in_budget, auxiliary, draws + i + 1
        draws += len(block)
    return in_budget, auxiliary, draws


class _Scored(NamedTuple):
    """A scored candidate row, decoded to an architecture only on demand."""

    accuracy: float
    cost: float
    row: Sequence[int]
    sampler: GateSampler

    @property
    def architecture(self) -> Architecture:
        return self.sampler.decode(self.row)


def _score(
    sampler: GateSampler, evaluator: Evaluator, draws: Sequence[tuple[Sequence[int], float]]
) -> list[_Scored]:
    accuracies = evaluator.evaluate(sampler, [row for row, _ in draws])
    return [_Scored(a, cost, row, sampler) for (row, cost), a in zip(draws, accuracies)]


def retrieve_pareto(
    sampler: GateSampler,
    evaluator: Evaluator,
    table: CostTable,
    previous_front: Sequence[EvaluationRecord],
    retrieval: RetrievalConfig,
    constraint: ConstraintConfig,
    rng: np.random.Generator,
    timings: dict | None = None,
) -> tuple[list[EvaluationRecord], list[EvaluationRecord], EvaluationRecord | None, dict]:
    """Sample, evaluate, rehearse, and dominance-filter one round's models.

    Every candidate is a (mask row, cost) pair priced on its layer masks by
    one ``MaskCost`` over ``table``, the run's cost table, and the mask rows
    are scored by one ``evaluator.evaluate`` call.  The draws are kept by
    ``_keep_draws``.  A previous-front member is rehearsed as its
    ``sampler.row`` unless that row was kept; rehearsed rows within
    ``upper_bound`` are scored after the in-budget draws and before the
    auxiliary ones.  Only the records that leave retrieval, the fronts, are
    built as architectures.

    Returns (corrected front, raw front, best in-budget record, diagnostics).
    Both fronts only contain in-budget points; the corrected front is the raw
    front after the edging filter.  The best record is the most accurate
    in-budget one, the cheapest of those, and the smallest encoding of exact
    ties among them, which is the raw front's last point; it is None when
    nothing is in budget.  ``timings``, if given, receives the seconds spent
    on ``sample_draws`` (drawing and keeping), ``evaluation`` and ``front``.
    Raises ``EngineError`` for a previous-front member that gates a slot or
    layer the sampler does not.
    """
    clock = time.perf_counter
    start = clock()
    limit = constraint.upper_bound
    cost_of = MaskCost(sampler, table)
    in_budget, auxiliary, draws = _keep_draws(sampler, cost_of, retrieval, constraint, rng)
    drawn = clock()
    sampled = {row for row, _ in in_budget}
    rehearse = []
    for rec in previous_front:
        row = sampler.row(rec.architecture)
        if row is None:
            raise EngineError(
                f"previous-front architecture {rec.architecture.layers} gates a slot"
                " or layer this round's sampler does not"
            )
        if row not in sampled:
            rehearse.append(row)
    costs = cost_of(np.array(rehearse, dtype=np.int64).reshape(len(rehearse), len(sampler.slots)))
    candidates = in_budget + [(row, c) for row, c in zip(rehearse, costs.tolist()) if c <= limit]
    scored = _score(sampler, evaluator, candidates + auxiliary)
    in_scored, beyond = scored[: len(candidates)], scored[len(candidates) :]
    evaluated = clock()

    diagnostics = {
        "draws": draws,
        "stalled": len(in_budget) < retrieval.samples,
        "in_budget": len(in_budget),
        "auxiliary": len(auxiliary),
        "rehearsed": len(rehearse),
    }
    raw = [EvaluationRecord(r.architecture, r.accuracy, r.cost) for r in pareto_front(in_scored)]
    corrected = edging_filter(raw, beyond, constraint, diagnostics)
    if timings is not None:
        timings.update(
            sample_draws=drawn - start, evaluation=evaluated - drawn, front=clock() - evaluated
        )
    return corrected, raw, raw[-1] if raw else None, diagnostics


def distribution_estimate(
    subset: SubsetState,
    evaluator: Evaluator,
    table: CostTable,
    cost_band: tuple[float, float],
    n: int,
    rng: np.random.Generator,
    draw_factor: int = 1000,
) -> list[EvaluationRecord]:
    """Uniform-gate samples priced on ``table`` inside the band, fully evaluated."""
    lo, hi = cost_band
    if lo > hi:
        raise EngineError("empty cost band")
    sampler = GateSampler.uniform(subset)
    cost_of = MaskCost(sampler, table)
    kept: list[tuple[list[int], float]] = []
    draws = 0
    for block, costs in _draw_blocks(sampler, cost_of, rng, draw_factor * n, n):
        draws += len(block)
        band = np.flatnonzero((lo <= costs) & (costs <= hi))[: n - len(kept)]
        kept += zip(block[band].tolist(), costs[band].tolist())
        if len(kept) == n:
            break
    if len(kept) < n:
        raise EngineError(
            f"cost band [{lo}, {hi}] unreachable: {len(kept)}/{n} after {draws} draws"
        )
    scored = _score(sampler, evaluator, kept)
    return [EvaluationRecord(r.architecture, r.accuracy, r.cost) for r in scored]


@dataclass
class OraclePhase:
    """A round on the oracle: no training, and retrieval samples the subset
    uniformly and scores its draws in closed form."""

    benchmark: SyntheticBenchmark

    def __call__(self, engine: Engine, state: EvolutionState, timings: dict[str, float]):
        return OracleEvaluator(self.benchmark), GateSampler.uniform(state.subset), None, {}


@dataclass
class SupernetPhase:
    """A round on a supernet: train fresh shared weights and indicators on the
    subset, interleaving two weight steps with one indicator step and pruning
    after each indicator step, then score draws from the indicators' sampler
    on the trained weights."""

    dataset: ToyDataset
    geometry: NetworkGeometry
    training: TrainingConfig

    def __call__(self, engine: Engine, state: EvolutionState, timings: dict[str, float]):
        r = state.round_index
        seed = engine.master_seed
        clock = time.perf_counter
        timings.update(weight_steps=0.0, indicator_steps=0.0)
        weights = SharedWeights(
            state.subset, self.geometry, derive_seed(seed, "weights", r)
        )
        thetas = FitnessIndicators.for_subset(state.subset)
        w_opt = SGD(
            lr=self.training.lr,
            momentum=self.training.momentum,
            nesterov=self.training.nesterov,
            weight_decay=self.training.weight_decay,
        )
        t_opt = ThetaAdam(lr=self.training.indicator_lr)
        train_stream = BatchStream(
            self.dataset.x_train,
            self.dataset.y_train,
            self.training.batch_size,
            make_rng(seed, "train-batches", r),
        )
        val_stream = BatchStream(
            self.dataset.x_val,
            self.dataset.y_val,
            self.training.batch_size,
            make_rng(seed, "val-batches", r),
        )
        arch_rng = make_rng(seed, "train-arch", r)
        ind_rng = make_rng(seed, "indicator", r)
        losses = []
        curves: dict[str, list[float]] = {"loss": [], "expected_cost_gap": [], "penalty": []}
        prune_log = []
        train_sampler = GateSampler.uniform(state.subset)
        for step in range(self.training.steps):
            w_opt.lr = cosine_warmup_lr(
                step, self.training.steps, self.training.lr, self.training.warmup_steps
            )
            started = clock()
            losses.append(
                train_step(weights, train_sampler, train_stream.next(), arch_rng, w_opt)
            )
            timings["weight_steps"] += clock() - started
            # one indicator step after every two supernet steps, pruning right after
            if (step + 1) % 2 == 0:
                started = clock()
                stepped = indicator_update_step(
                    thetas, weights, state.subset, val_stream.next(), engine.table,
                    engine.constraint, t_opt, ind_rng,
                )
                for name, curve in curves.items():
                    curve.append(stepped[name])
                removed = prune(
                    thetas, state.subset, engine.constraint.prune_threshold,
                    engine.lock_and_rehearse,
                )
                at = len(curves["loss"]) - 1
                prune_log += [
                    {"step": at, "layer": li, "slot": slot, "indicator": value}
                    for li, slot, value in removed
                ]
                if removed:
                    train_sampler = GateSampler.uniform(state.subset)
                timings["indicator_steps"] += clock() - started
        recal = make_recal_batches(
            self.dataset,
            engine.retrieval.recal_batches,
            engine.retrieval.recal_batch_size,
            make_rng(seed, "recal", r),
        )
        cache = InferenceCache(weights, self.dataset, recal)
        evaluator = SupernetEvaluator(cache)
        sampler = indicator_sampler(thetas, state.subset.roles)
        extras = {
            "mean_train_loss": float(np.mean(losses)) if losses else None,
            "pruned": len(prune_log),
            "indicator_steps": self.training.steps // 2,
            "indicator_curves": curves,
            "prune_log": prune_log,
        }
        return evaluator, sampler, thetas, extras


@dataclass(kw_only=True)
class Engine:
    """Runs rounds over one pool.

    ``phase(engine, state, timings)`` finds the round's optimized space in
    the current subset and returns (evaluator, sampler, indicators or None,
    diagnostics extras); ``OraclePhase`` and ``SupernetPhase`` are the two.
    ``table`` is the run's one cost table: retrieval and the indicator steps
    price every architecture on it.
    """

    pool: SearchSpacePool
    capacity: int
    max_rounds: int
    constraint: ConstraintConfig
    table: CostTable
    retrieval: RetrievalConfig
    master_seed: int
    phase: Callable[[Engine, EvolutionState, dict[str, float]], tuple]
    lock_and_rehearse: bool = True

    def run_round(self, state: EvolutionState) -> RoundResult:
        start = time.perf_counter()
        timings: dict[str, float] = {}
        evaluator, sampler, thetas, extras = self.phase(self, state, timings)
        rehearse = state.previous_front if self.lock_and_rehearse else []
        front, raw, round_best, diagnostics = retrieve_pareto(
            sampler,
            evaluator,
            self.table,
            rehearse,
            self.retrieval,
            self.constraint,
            make_rng(self.master_seed, "retrieve", state.round_index),
            timings,
        )
        diagnostics.update(extras)
        if round_best is not None:
            previous = state.best_archive[-1] if state.best_archive else None
            if previous is not None and (
                (-previous.accuracy, previous.cost)
                <= (-round_best.accuracy, round_best.cost)
            ):
                round_best = previous
            state.best_archive.append(round_best)
        return RoundResult(
            round_index=state.round_index,
            front=front,
            raw_front=raw,
            diagnostics=diagnostics,
            subset_snapshot=subset_to_json(state.subset),
            indicator_snapshot=thetas.to_json() if thetas is not None else None,
            duration=time.perf_counter() - start,
            timings=timings,
        )

    def step_aggregate_replenish(self, state: EvolutionState, front: Sequence[EvaluationRecord]) -> None:
        """Fold the front into the next round's subset and advance the state."""
        if not front:
            raise EngineError(f"round {state.round_index} produced an empty front")
        unions = aggregate([rec.architecture for rec in front], state.subset)
        state.subset = replenish(
            unions,
            self.pool,
            state.ledger,
            self.capacity,
            derive_seed(self.master_seed, "replenish", state.round_index),
        )
        state.previous_front = list(front)
        state.round_index += 1

    def initial_state(self) -> EvolutionState:
        ledger = TraversalLedger()
        subset = init_subset(
            self.pool, self.capacity, derive_seed(self.master_seed, "subset"), ledger
        )
        return EvolutionState(round_index=1, subset=subset, ledger=ledger)

    def run(
        self,
        sink: Callable[[RoundResult, EvolutionState], None] | None = None,
        initial_state: EvolutionState | None = None,
    ) -> RunSummary:
        state = initial_state if initial_state is not None else self.initial_state()
        results: list[RoundResult] = []
        shortage = False
        while True:
            result = self.run_round(state)
            results.append(result)
            if sink is not None:
                sink(result, state)
            if state.round_index >= self.max_rounds:
                break
            self.step_aggregate_replenish(state, result.front)
            if state.subset.shortage:
                # the pool ran short while refilling; the front just
                # finalized is the final result
                shortage = True
                break
        return RunSummary(results=results, state=state, shortage=shortage)

"""Run configuration: JSON schema, defaults, validation, engine assembly.

One config file fully determines a run.  Unknown keys are rejected so typos
fail loudly, and the resolved config (all defaults applied) is hashed into
every artifact the run emits.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .engine import Engine, RetrievalConfig
from .oracle import SyntheticBenchmark
from .resources import ConstraintConfig, CostTable, ResourceError
from .space import DeclaredLayer, DeclaredOp, SearchSpacePool, shuffle_pool
from .supernet import (
    DatasetConfig,
    NetworkGeometry,
    ToyDataset,
    TrainingConfig,
    toy_op_family,
)


class ConfigError(ValueError):
    pass


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, kinds, default, where: str):
    value = section.get(key, default)
    if value is None:
        return None
    if kinds is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}.{key} must be a boolean")
        return value
    if kinds is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}.{key} must be an integer")
        return value
    if kinds is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}.{key} must be a number")
        return float(value)
    if kinds is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}.{key} must be a string")
        return value
    raise AssertionError(kinds)


@dataclass
class PoolSettings:
    num_layers: int = 4
    ops_per_layer: int = 12
    reduction_layers: tuple[int, ...] = (3,)
    preset: str = "toy"
    shuffle_seed: int = 0

    def roles(self) -> list[str]:
        reductions = set(self.reduction_layers)
        return [
            "reduction" if li in reductions else "normal"
            for li in range(self.num_layers)
        ]

    def build(self) -> SearchSpacePool:
        if self.preset == "toy":
            family = toy_op_family()
            if self.ops_per_layer > len(family):
                raise ConfigError(
                    f"toy preset supports at most {len(family)} ops per layer"
                )
            ops = family[: self.ops_per_layer]
        elif self.preset == "opaque":
            ops = [DeclaredOp(kind=f"op{i:02d}") for i in range(self.ops_per_layer)]
        else:
            raise ConfigError(f"unknown pool preset {self.preset!r}")
        declared = [
            DeclaredLayer(role=role, ops=[DeclaredOp(op.kind, dict(op.params)) for op in ops])
            for role in self.roles()
        ]
        return shuffle_pool(declared, self.shuffle_seed)


@dataclass
class BenchmarkSettings:
    seed: int = 0
    cost_low: float = 20.0
    cost_high: float = 120.0
    overhead: float = 10.0
    chance: float = 0.3
    ceiling: float = 0.95
    synergy: float = 0.1

    def build(self, pool: SearchSpacePool) -> SyntheticBenchmark:
        return SyntheticBenchmark.generate(
            pool,
            self.seed,
            cost_range=(self.cost_low, self.cost_high),
            overhead=self.overhead,
            chance=self.chance,
            ceiling=self.ceiling,
            synergy_scale=self.synergy,
        )


@dataclass
class NetworkSettings:
    stem_width: int = 24
    layer_widths: tuple[int, ...] = (24, 24, 24, 32)
    unit_scale: float = 1e-3


@dataclass
class RunConfig:
    master_seed: int = 0
    output_dir: str = "runs/out"
    evaluator: str = "oracle"
    max_rounds: int = 3
    capacity: int = 4
    lock_and_rehearse: bool = True
    prune_threshold: float = -2.0
    constraint_kind: str = "flops"
    cost_table_path: str | None = None
    pool: PoolSettings = field(default_factory=PoolSettings)
    constraint: ConstraintConfig = field(
        default_factory=lambda: ConstraintConfig(tau=300.0)
    )
    retrieval: RetrievalConfig = field(
        default_factory=lambda: RetrievalConfig(samples=200)
    )
    benchmark: BenchmarkSettings = field(default_factory=BenchmarkSettings)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    network: NetworkSettings = field(default_factory=NetworkSettings)


_TOP_KEYS = {
    "master_seed",
    "output_dir",
    "evaluator",
    "max_rounds",
    "k_per_layer",
    "lock_and_rehearse",
    "pool",
    "constraint",
    "retrieval",
    "benchmark",
    "dataset",
    "training",
    "network",
}


def parse_config(data: dict) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(data, _TOP_KEYS, "config")

    cfg = RunConfig()
    cfg.master_seed = _get(data, "master_seed", int, cfg.master_seed, "config")
    cfg.output_dir = _get(data, "output_dir", str, cfg.output_dir, "config")
    cfg.evaluator = _get(data, "evaluator", str, cfg.evaluator, "config")
    if cfg.evaluator not in ("oracle", "supernet"):
        raise ConfigError("config.evaluator must be 'oracle' or 'supernet'")
    cfg.max_rounds = _get(data, "max_rounds", int, cfg.max_rounds, "config")
    cfg.capacity = _get(data, "k_per_layer", int, cfg.capacity, "config")
    cfg.lock_and_rehearse = _get(
        data, "lock_and_rehearse", bool, cfg.lock_and_rehearse, "config"
    )
    if cfg.max_rounds < 1 or cfg.capacity < 1:
        raise ConfigError("max_rounds, k_per_layer must be >= 1")

    pool = data.get("pool", {})
    _check_keys(
        pool,
        {"num_layers", "ops_per_layer", "reduction_layers", "preset", "shuffle_seed"},
        "config.pool",
    )
    ps = PoolSettings()
    ps.num_layers = _get(pool, "num_layers", int, ps.num_layers, "config.pool")
    ps.ops_per_layer = _get(pool, "ops_per_layer", int, ps.ops_per_layer, "config.pool")
    raw_red = pool.get("reduction_layers", list(ps.reduction_layers))
    if not isinstance(raw_red, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in raw_red
    ):
        raise ConfigError("config.pool.reduction_layers must be a list of integers")
    ps.reduction_layers = tuple(raw_red)
    ps.preset = _get(pool, "preset", str, ps.preset, "config.pool")
    ps.shuffle_seed = _get(pool, "shuffle_seed", int, ps.shuffle_seed, "config.pool")
    if ps.num_layers < 1 or ps.ops_per_layer < 1:
        raise ConfigError("config.pool sizes must be >= 1")
    if any(li < 0 or li >= ps.num_layers for li in ps.reduction_layers):
        raise ConfigError("config.pool.reduction_layers indices out of range")
    cfg.pool = ps

    con = data.get("constraint", {})
    _check_keys(
        con,
        {"kind", "tau", "alpha", "beta", "upper_bound", "edging_margin", "one_sided", "prune_threshold", "cost_table"},
        "config.constraint",
    )
    cfg.constraint_kind = _get(con, "kind", str, cfg.constraint_kind, "config.constraint")
    cfg.cost_table_path = _get(con, "cost_table", str, None, "config.constraint")
    try:
        cfg.constraint = ConstraintConfig(
            tau=_get(con, "tau", float, 300.0, "config.constraint"),
            alpha=_get(con, "alpha", float, 1e-5, "config.constraint"),
            beta=_get(con, "beta", float, 2.0, "config.constraint"),
            upper_bound=_get(con, "upper_bound", float, None, "config.constraint"),
            edging_margin=_get(con, "edging_margin", float, 0.1, "config.constraint"),
            one_sided=_get(con, "one_sided", bool, False, "config.constraint"),
        )
    except ResourceError as exc:
        raise ConfigError(f"config.constraint: {exc}") from exc
    cfg.prune_threshold = _get(
        con, "prune_threshold", float, cfg.prune_threshold, "config.constraint"
    )

    ret = data.get("retrieval", {})
    _check_keys(
        ret,
        {"samples", "auxiliary", "recal_batches", "recal_batch_size", "eval_batch_size", "stall_factor"},
        "config.retrieval",
    )
    try:
        cfg.retrieval = RetrievalConfig(
            samples=_get(ret, "samples", int, 200, "config.retrieval"),
            auxiliary=_get(ret, "auxiliary", int, 0, "config.retrieval"),
            recal_batches=_get(ret, "recal_batches", int, 16, "config.retrieval"),
            recal_batch_size=_get(ret, "recal_batch_size", int, 128, "config.retrieval"),
            eval_batch_size=_get(ret, "eval_batch_size", int, 256, "config.retrieval"),
            stall_factor=_get(ret, "stall_factor", int, 100, "config.retrieval"),
        )
    except ValueError as exc:
        raise ConfigError(f"config.retrieval: {exc}") from exc

    ben = data.get("benchmark", {})
    _check_keys(
        ben,
        {"seed", "cost_low", "cost_high", "overhead", "chance", "ceiling", "synergy"},
        "config.benchmark",
    )
    bs = BenchmarkSettings()
    bs.seed = _get(ben, "seed", int, bs.seed, "config.benchmark")
    bs.cost_low = _get(ben, "cost_low", float, bs.cost_low, "config.benchmark")
    bs.cost_high = _get(ben, "cost_high", float, bs.cost_high, "config.benchmark")
    bs.overhead = _get(ben, "overhead", float, bs.overhead, "config.benchmark")
    bs.chance = _get(ben, "chance", float, bs.chance, "config.benchmark")
    bs.ceiling = _get(ben, "ceiling", float, bs.ceiling, "config.benchmark")
    bs.synergy = _get(ben, "synergy", float, bs.synergy, "config.benchmark")
    if not (0.0 < bs.chance < bs.ceiling < 1.0):
        raise ConfigError("config.benchmark requires 0 < chance < ceiling < 1")
    cfg.benchmark = bs

    dat = data.get("dataset", {})
    _check_keys(
        dat,
        {"seed", "input_dim", "classes", "train_size", "val_size", "clusters_per_class", "noise", "radius"},
        "config.dataset",
    )
    ds = DatasetConfig()
    ds.seed = _get(dat, "seed", int, ds.seed, "config.dataset")
    ds.input_dim = _get(dat, "input_dim", int, ds.input_dim, "config.dataset")
    ds.classes = _get(dat, "classes", int, ds.classes, "config.dataset")
    ds.train_size = _get(dat, "train_size", int, ds.train_size, "config.dataset")
    ds.val_size = _get(dat, "val_size", int, ds.val_size, "config.dataset")
    ds.clusters_per_class = _get(
        dat, "clusters_per_class", int, ds.clusters_per_class, "config.dataset"
    )
    ds.noise = _get(dat, "noise", float, ds.noise, "config.dataset")
    ds.radius = _get(dat, "radius", float, ds.radius, "config.dataset")
    cfg.dataset = ds

    tr = data.get("training", {})
    _check_keys(
        tr,
        {"steps", "batch_size", "lr", "momentum", "nesterov", "weight_decay", "warmup_steps", "indicator_lr"},
        "config.training",
    )
    tc = TrainingConfig()
    tc.steps = _get(tr, "steps", int, tc.steps, "config.training")
    tc.batch_size = _get(tr, "batch_size", int, tc.batch_size, "config.training")
    tc.lr = _get(tr, "lr", float, tc.lr, "config.training")
    tc.momentum = _get(tr, "momentum", float, tc.momentum, "config.training")
    tc.nesterov = _get(tr, "nesterov", bool, tc.nesterov, "config.training")
    tc.weight_decay = _get(tr, "weight_decay", float, tc.weight_decay, "config.training")
    tc.warmup_steps = _get(tr, "warmup_steps", int, tc.warmup_steps, "config.training")
    tc.indicator_lr = _get(tr, "indicator_lr", float, tc.indicator_lr, "config.training")
    cfg.training = tc

    net = data.get("network", {})
    _check_keys(net, {"stem_width", "layer_widths", "unit_scale"}, "config.network")
    ns = NetworkSettings()
    ns.stem_width = _get(net, "stem_width", int, ns.stem_width, "config.network")
    raw_widths = net.get("layer_widths", list(ns.layer_widths))
    if not isinstance(raw_widths, list) or not all(
        isinstance(w, int) and not isinstance(w, bool) and w > 0 for w in raw_widths
    ):
        raise ConfigError("config.network.layer_widths must be positive integers")
    ns.layer_widths = tuple(raw_widths)
    ns.unit_scale = _get(net, "unit_scale", float, ns.unit_scale, "config.network")
    cfg.network = ns

    if cfg.cost_table_path is not None and cfg.evaluator != "supernet":
        raise ConfigError("config.constraint.cost_table applies to supernet runs only")
    if cfg.evaluator == "supernet":
        if cfg.pool.preset != "toy":
            raise ConfigError("supernet runs require the 'toy' pool preset")
        if len(cfg.network.layer_widths) != cfg.pool.num_layers:
            raise ConfigError(
                "config.network.layer_widths must list one width per layer"
            )
        geometry = NetworkGeometry(
            input_dim=cfg.dataset.input_dim,
            stem_width=cfg.network.stem_width,
            layer_widths=cfg.network.layer_widths,
            classes=cfg.dataset.classes,
        )
        try:
            geometry.validate_roles(cfg.pool.roles())
        except ValueError as exc:
            raise ConfigError(f"config.network: {exc}") from exc
    return cfg


def resolved_dict(cfg: RunConfig) -> dict:
    """The fully resolved config with every default applied, for hashing."""
    return {
        "master_seed": cfg.master_seed,
        "output_dir": cfg.output_dir,
        "evaluator": cfg.evaluator,
        "max_rounds": cfg.max_rounds,
        "k_per_layer": cfg.capacity,
        "lock_and_rehearse": cfg.lock_and_rehearse,
        "pool": {
            "num_layers": cfg.pool.num_layers,
            "ops_per_layer": cfg.pool.ops_per_layer,
            "reduction_layers": list(cfg.pool.reduction_layers),
            "preset": cfg.pool.preset,
            "shuffle_seed": cfg.pool.shuffle_seed,
        },
        "constraint": {
            "kind": cfg.constraint_kind,
            "cost_table": cfg.cost_table_path,
            "tau": cfg.constraint.tau,
            "alpha": cfg.constraint.alpha,
            "beta": cfg.constraint.beta,
            "upper_bound": cfg.constraint.upper_bound,
            "edging_margin": cfg.constraint.edging_margin,
            "one_sided": cfg.constraint.one_sided,
            "prune_threshold": cfg.prune_threshold,
        },
        "retrieval": {
            "samples": cfg.retrieval.samples,
            "auxiliary": cfg.retrieval.auxiliary,
            "recal_batches": cfg.retrieval.recal_batches,
            "recal_batch_size": cfg.retrieval.recal_batch_size,
            "eval_batch_size": cfg.retrieval.eval_batch_size,
            "stall_factor": cfg.retrieval.stall_factor,
        },
        "benchmark": {
            "seed": cfg.benchmark.seed,
            "cost_low": cfg.benchmark.cost_low,
            "cost_high": cfg.benchmark.cost_high,
            "overhead": cfg.benchmark.overhead,
            "chance": cfg.benchmark.chance,
            "ceiling": cfg.benchmark.ceiling,
            "synergy": cfg.benchmark.synergy,
        },
        "dataset": {
            "seed": cfg.dataset.seed,
            "input_dim": cfg.dataset.input_dim,
            "classes": cfg.dataset.classes,
            "train_size": cfg.dataset.train_size,
            "val_size": cfg.dataset.val_size,
            "clusters_per_class": cfg.dataset.clusters_per_class,
            "noise": cfg.dataset.noise,
            "radius": cfg.dataset.radius,
        },
        "training": {
            "steps": cfg.training.steps,
            "batch_size": cfg.training.batch_size,
            "lr": cfg.training.lr,
            "momentum": cfg.training.momentum,
            "nesterov": cfg.training.nesterov,
            "weight_decay": cfg.training.weight_decay,
            "warmup_steps": cfg.training.warmup_steps,
            "indicator_lr": cfg.training.indicator_lr,
        },
        "network": {
            "stem_width": cfg.network.stem_width,
            "layer_widths": list(cfg.network.layer_widths),
            "unit_scale": cfg.network.unit_scale,
        },
    }


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the settings that change results.

    ``output_dir`` only says where a run is written, so it is left out: the
    same experiment written to two directories keeps one hash.
    """
    science = resolved_dict(cfg)
    del science["output_dir"]
    canonical = json.dumps(science, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; NSE_SEED overrides the master seed."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    cfg = parse_config(data)
    env_seed = os.environ.get("NSE_SEED")
    if env_seed is not None:
        try:
            cfg.master_seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError("NSE_SEED must be an integer") from exc
    return cfg


def build_engine(cfg: RunConfig) -> Engine:
    pool = cfg.pool.build()
    common = dict(
        pool=pool,
        capacity=cfg.capacity,
        max_rounds=cfg.max_rounds,
        constraint=cfg.constraint,
        retrieval=cfg.retrieval,
        master_seed=cfg.master_seed,
        evaluator_kind=cfg.evaluator,
        prune_threshold=cfg.prune_threshold,
        lock_and_rehearse=cfg.lock_and_rehearse,
    )
    if cfg.evaluator == "oracle":
        return Engine(benchmark=cfg.benchmark.build(pool), **common)
    geometry = NetworkGeometry(
        input_dim=cfg.dataset.input_dim,
        stem_width=cfg.network.stem_width,
        layer_widths=cfg.network.layer_widths,
        classes=cfg.dataset.classes,
    )
    from .supernet import build_cost_table

    if cfg.cost_table_path is not None:
        try:
            table = CostTable.load(cfg.cost_table_path)
        except FileNotFoundError as exc:
            raise ConfigError(f"cost table file not found: {cfg.cost_table_path}") from exc
    else:
        table = build_cost_table(pool, geometry, cfg.network.unit_scale)
    return Engine(
        dataset=ToyDataset.generate(cfg.dataset),
        geometry=geometry,
        training=cfg.training,
        cost_table=table,
        **common,
    )

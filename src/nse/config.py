"""Run configuration: JSON schema, defaults, validation, engine assembly.

One config file fully determines a run.  The section dataclasses are the
schema: every JSON key is a field name, checked against the field's
annotation, and an absent key takes the field's default.  A numeric field's
range is part of its annotation, as an interval string such as
``Annotated[int, "[1, inf)"]``, and a field with fixed choices is a
``Literal``; ``_value`` checks both, so each bound is stated once.  Only
checks that relate two fields live in a section's ``__post_init__``.
Unknown keys are rejected so typos fail loudly, and the resolved config (all
defaults applied) is hashed into every artifact the run emits.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Annotated, Literal, get_args, get_origin, get_type_hints

from .engine import Engine, OraclePhase, RetrievalConfig, SupernetPhase
from .oracle import SyntheticBenchmark
from .resources import ConstraintConfig, CostTable
from .space import MAX_LAYER_SLOTS, REDUCTION, DeclaredLayer, DeclaredOp, SearchSpacePool, shuffle_pool
from .supernet import (
    DatasetConfig,
    NetworkGeometry,
    ToyDataset,
    TrainingConfig,
    build_cost_table,
    toy_op_family,
)


class ConfigError(ValueError):
    pass


_KIND_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def _section(cls, data, where: str):
    """Build the dataclass ``cls`` from the JSON object ``data``.

    Every key must name a field and match its annotation, bounds and
    choices included; absent fields keep their defaults.  A ``ValueError``
    from ``__post_init__`` (a check across fields) becomes a ``ConfigError``
    naming the section.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = data.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")
    hints = get_type_hints(cls, include_extras=True)
    values = {key: _value(hints[key], value, f"{where}.{key}") for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _value(kind, value, where: str):
    """``value`` checked against the annotation ``kind``; an int is widened
    where a float is expected, and a list becomes a tuple."""
    if is_dataclass(kind):
        return _section(kind, value, where)
    args = get_args(kind)
    if get_origin(kind) is Annotated:  # ``Annotated[X, "[lo, hi)"]``
        value = _value(args[0], value, where)
        interval = args[1]
        lo, hi = (float(end) for end in interval[1:-1].split(","))
        above = lo <= value if interval[0] == "[" else lo < value
        below = value <= hi if interval[-1] == "]" else value < hi
        if not (above and below):
            raise ConfigError(f"{where} must be in {interval}, got {value}")
        return value
    if get_origin(kind) is Literal:
        if not (isinstance(value, str) and value in args):
            choices = ", ".join(repr(choice) for choice in args)
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}")
        return value
    if type(None) in args:  # ``X | None``: null is allowed
        return None if value is None else _value(args[0], value, where)
    if get_origin(kind) is tuple:  # ``tuple[X, ...]``
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return tuple(_value(args[0], item, f"{where}[{i}]") for i, item in enumerate(value))
    accepted = (int, float) if kind is float else kind
    if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{where} must be {_KIND_NAMES[kind]}")
    if kind is not float:
        return value
    # json.loads reads NaN, Infinity and integers past the float range
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number")
    return float(value)


@dataclass
class PoolSettings:
    num_layers: Annotated[int, "[1, inf)"] = 4
    ops_per_layer: Annotated[int, "[1, inf)"] = 12
    reduction_layers: tuple[Annotated[int, "[0, inf)"], ...] = (3,)
    preset: Literal["toy", "opaque"] = "toy"
    shuffle_seed: int = 0

    def __post_init__(self) -> None:
        if any(li >= self.num_layers for li in self.reduction_layers):
            raise ValueError("reduction_layers indices must be below num_layers")

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
        else:  # "opaque"
            ops = [DeclaredOp(kind=f"op{i:02d}") for i in range(self.ops_per_layer)]
        declared = [
            DeclaredLayer(role=role, ops=[DeclaredOp(op.kind, dict(op.params)) for op in ops])
            for role in self.roles()
        ]
        return shuffle_pool(declared, self.shuffle_seed)


@dataclass
class ConstraintSettings(ConstraintConfig):
    """The engine's constraint, whose ``__post_init__`` resolves
    ``upper_bound`` so that the config hash sees the cutoff in use, plus the
    cost label, an optional cost-table file and the pruning threshold."""

    tau: float = 300.0
    kind: Literal["flops", "latency"] = "flops"
    cost_table: str | None = None
    prune_threshold: float = -2.0


@dataclass
class BenchmarkSettings:
    seed: int = 0
    cost_low: Annotated[float, "[0, inf)"] = 20.0
    cost_high: float = 120.0
    overhead: Annotated[float, "[0, inf)"] = 10.0
    chance: Annotated[float, "(0, 1)"] = 0.3
    ceiling: Annotated[float, "(0, 1)"] = 0.95
    synergy: float = 0.1

    def __post_init__(self) -> None:
        if not self.chance < self.ceiling:
            raise ValueError("chance must be below ceiling")
        if not self.cost_low <= self.cost_high:
            raise ValueError("cost_low must be <= cost_high")

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
    stem_width: Annotated[int, "[1, inf)"] = 24
    layer_widths: tuple[Annotated[int, "[1, inf)"], ...] = (24, 24, 24, 32)
    unit_scale: Annotated[float, "[0, inf)"] = 1e-3


@dataclass
class RunConfig:
    master_seed: int = 0
    output_dir: str = "runs/out"
    evaluator: Literal["oracle", "supernet"] = "oracle"
    max_rounds: Annotated[int, "[1, inf)"] = 3
    k_per_layer: Annotated[int, "[1, inf)"] = 4
    lock_and_rehearse: bool = True
    pool: PoolSettings = field(default_factory=PoolSettings)
    constraint: ConstraintSettings = field(default_factory=ConstraintSettings)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    benchmark: BenchmarkSettings = field(default_factory=BenchmarkSettings)
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)
    network: NetworkSettings = field(default_factory=NetworkSettings)

    def __post_init__(self) -> None:
        active = min(self.k_per_layer, self.pool.ops_per_layer)
        if active > MAX_LAYER_SLOTS:
            raise ValueError(f"{active} active slots in a layer; at most {MAX_LAYER_SLOTS} fit a mask")

    def geometry(self) -> NetworkGeometry:
        return NetworkGeometry(
            input_dim=self.dataset.input_dim,
            stem_width=self.network.stem_width,
            layer_widths=self.network.layer_widths,
            classes=self.dataset.classes,
        )


def parse_config(data: dict) -> RunConfig:
    cfg = _section(RunConfig, data, "config")
    if cfg.constraint.cost_table is not None and cfg.evaluator != "supernet":
        raise ConfigError("config.constraint.cost_table applies to supernet runs only")
    if cfg.evaluator == "supernet":
        if cfg.pool.preset != "toy":
            raise ConfigError("supernet runs require the 'toy' pool preset")
        try:
            cfg.geometry().validate_roles(cfg.pool.roles())
        except ValueError as exc:
            raise ConfigError(f"config.network: {exc}") from exc
    return cfg


def resolved_dict(cfg: RunConfig) -> dict:
    """The fully resolved config with every default applied, for hashing."""
    return json.loads(json.dumps(asdict(cfg)))


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the settings that change results.

    ``output_dir`` only says where a run is written, so it is left out: the
    same experiment written to two directories keeps one hash.  A
    ``constraint.cost_table`` file is hashed by its loaded table's canonical
    JSON, not its path, so the hash names the costs a run uses.
    """
    science = resolved_dict(cfg)
    del science["output_dir"]
    path = cfg.constraint.cost_table
    if path is not None:
        science["constraint"]["cost_table"] = load_cost_table(path).to_json()
    canonical = json.dumps(science, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; NSE_SEED overrides the master seed."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
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


def load_cost_table(path: str) -> CostTable:
    """The cost table in the file at ``path``; a failure is a ``ConfigError``."""
    try:
        return CostTable.load(path)
    except FileNotFoundError as exc:
        raise ConfigError(f"cost table file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cost table file {path} cannot be read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cost table file {path} is not valid JSON: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cost table file {path}: {exc}") from exc


def build_engine(cfg: RunConfig) -> Engine:
    """The run's engine, with the one phase for ``cfg.evaluator``."""
    pool = cfg.pool.build()
    path = cfg.constraint.cost_table
    if cfg.evaluator == "oracle":
        phase = OraclePhase(cfg.benchmark.build(pool))
        table = phase.table
    elif path is not None:
        table = load_cost_table(path)
        missing = sorted({op.key for layer in pool.layers for op in layer.pool} - table.cost.keys())
        if missing:
            layer, slot = missing[0]
            raise ConfigError(f"cost table file {path} has no entry for layer {layer} slot {slot}")
    else:
        table = build_cost_table(pool, cfg.geometry(), cfg.network.unit_scale)
    # the cheapest architecture selects each reduction layer's cheapest slot
    # and nothing else; its cost adds up as ``architecture_cost`` adds it
    total = 0.0
    for layer in pool.layers:
        if layer.role == REDUCTION:
            total += min(table.lookup(layer.layer_index, op.slot_index) for op in layer.pool)
    cheapest = table.fixed_overhead + total
    if cfg.constraint.upper_bound < cheapest:
        raise ConfigError(
            f"config.constraint.upper_bound {cfg.constraint.upper_bound} is below {cheapest},"
            " the cost of the pool's cheapest architecture"
        )
    if cfg.evaluator == "supernet":  # the dataset is made once the budget is known to fit
        phase = SupernetPhase(
            ToyDataset.generate(cfg.dataset), cfg.geometry(), cfg.training, table,
            cfg.constraint.prune_threshold,
        )
    return Engine(
        pool=pool,
        capacity=cfg.k_per_layer,
        max_rounds=cfg.max_rounds,
        constraint=cfg.constraint,
        retrieval=cfg.retrieval,
        master_seed=cfg.master_seed,
        phase=phase,
        lock_and_rehearse=cfg.lock_and_rehearse,
    )

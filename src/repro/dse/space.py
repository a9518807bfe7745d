"""Declarative sweep spaces: named axes compiled to a keyed worklist.

A :class:`SweepSpace` describes one experiment's design space: a base
:class:`~repro.system.config.SystemConfig`, a base app-params dataclass
(any app — Jacobi, the collective microbenchmark, CG, synthetic NoC
traffic), and a tuple of named :class:`Axis` objects whose values are
either scalars (one field each) or :class:`Variant` bundles (several
coordinated overrides under one label, e.g. ``hw(q4)`` = queue depth 4
*and* the ``hw`` algorithm).  Axes combine as a cross product; an optional
``prune`` predicate drops coordinate combinations that make no sense
(e.g. tree-algorithm scatter).

``points()`` compiles the space to a list of :class:`WorkItem`\\ s, each
carrying a stable cache key ``schema_hash | config fields | app | params
fields``.  The schema hash covers the *shape* of the space — the app, the
axis names/targets/fields, and the field schemas of the config and
params dataclasses — so a changed axis definition or a
migrated dataclass can never serve stale cached rows, while value-level
changes are already covered by the per-field key body.  Two spaces with
the same shape share keys (and therefore cached points) even when their
value lists differ: that is what lets the speedup-vs-area figures reuse
the execution-time sweeps from a warm cache directory.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.system.config import SystemConfig


def _dataclass_cache_key(instance) -> str:
    """Stable ``k=v|...`` serialization of a dataclass, enum-tolerant.

    Every field participates, so any knob that can affect a simulated
    result changes the key; an enum member is keyed by its ``.value``, so
    ``cache_policy=WritePolicy.WRITE_BACK`` and ``cache_policy="wb"`` name
    the same cached point.
    """
    data = dataclasses.asdict(instance)
    parts = []
    for name in sorted(data):
        value = data[name]
        if isinstance(value, enum.Enum):
            value = value.value
        parts.append(f"{name}={value}")
    return "|".join(parts)


def config_cache_key(config: SystemConfig) -> str:
    """Cache-key fragment for one architecture point."""
    return _dataclass_cache_key(config)


def dataclass_schema(instance_or_cls) -> list[str]:
    """``name:type`` rows for every field of a dataclass (schema, not values)."""
    cls = (
        instance_or_cls
        if isinstance(instance_or_cls, type)
        else type(instance_or_cls)
    )
    return [f"{f.name}:{f.type}" for f in dataclasses.fields(cls)]


@dataclass(frozen=True)
class Variant:
    """One named bundle of coordinated overrides — a non-scalar axis value.

    ``config`` fields go through :meth:`SystemConfig.with_changes`,
    ``params`` fields through :func:`dataclasses.replace` on the app's
    params dataclass.  The ``label`` is the value's coordinate in result
    lookups and report rows.
    """

    label: str | int | float
    config: dict = field(default_factory=dict)
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Axis:
    """One named sweep axis.

    Scalar values override a single field (``field``, defaulting to the
    axis name) on the ``target`` dataclass (``"config"`` or ``"params"``);
    :class:`Variant` values carry their own per-target override dicts and
    ignore ``target``/``field``.  A seed axis is just an ordinary axis
    over a seed-bearing field.
    """

    name: str
    values: tuple
    target: str = "config"
    field: str | None = None

    def __post_init__(self) -> None:
        if not self.values:
            raise ConfigError(f"axis {self.name!r} has no values")
        if self.target not in ("config", "params"):
            raise ConfigError(
                f"axis {self.name!r}: target must be 'config' or 'params', "
                f"got {self.target!r}"
            )

    @property
    def field_name(self) -> str:
        return self.field if self.field is not None else self.name

    def label_of(self, value) -> str | int | float:
        return value.label if isinstance(value, Variant) else value

    def schema(self) -> list:
        """Shape of this axis (no values): participates in the schema hash."""
        kinds = sorted({
            "variant" if isinstance(v, Variant) else "scalar"
            for v in self.values
        })
        return [self.name, self.target, self.field_name, kinds]


@dataclass(frozen=True)
class WorkItem:
    """One compiled sweep point: what an executor worker evaluates.

    Picklable by construction (the app driver is a module-level callable,
    pickled by reference), so the same item runs identically on the
    inline and process backends.
    """

    key: str
    coords: tuple  # ((axis_name, label), ...) in axis order
    config: SystemConfig
    params: object
    app: Callable

    @property
    def coords_dict(self) -> dict:
        return dict(self.coords)


@dataclass
class SweepSpace:
    """A declarative sweep over one app: axes -> keyed worklist.

    ``app`` is a module-level callable ``(config, params) -> dict`` whose
    JSON-serializable payload is what gets cached; ``app_id`` names it in
    cache keys (defaults to the callable's ``__name__``).
    """

    name: str
    app: Callable
    axes: tuple[Axis, ...] = ()
    base_config: SystemConfig = field(default_factory=SystemConfig)
    base_params: object = None
    prune: Callable[[dict], bool] | None = None
    app_id: str | None = None

    def __post_init__(self) -> None:
        if self.app_id is None:
            self.app_id = getattr(self.app, "__name__", str(self.app))
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ConfigError(f"space {self.name!r} has duplicate axis names")

    # -- schema hashing ----------------------------------------------------

    def schema_hash(self) -> str:
        """12-hex-digit hash of the space's *shape* (axes + dataclass schemas).

        Covers the app id, every axis definition (name, target, field,
        value kind — not the value lists), and the field schemas of the
        config and params dataclasses.  Any change to one of those
        invalidates every cached row keyed under it; value-level changes
        are covered by the key body instead.
        """
        shape = {
            "app": self.app_id,
            "axes": [axis.schema() for axis in self.axes],
            "config_schema": dataclass_schema(self.base_config),
            "params_schema": (
                dataclass_schema(self.base_params)
                if self.base_params is not None else None
            ),
        }
        digest = hashlib.sha256(
            json.dumps(shape, sort_keys=True, default=str).encode()
        )
        return digest.hexdigest()[:12]

    # -- worklist compilation ----------------------------------------------

    def _apply(self, axis: Axis, value, config: SystemConfig, params):
        if isinstance(value, Variant):
            if value.config:
                config = config.with_changes(**value.config)
            if value.params:
                params = dataclasses.replace(params, **value.params)
            return config, params
        if axis.target == "config":
            return config.with_changes(**{axis.field_name: value}), params
        return config, dataclasses.replace(params, **{axis.field_name: value})

    def points(self) -> list[WorkItem]:
        """Compile the space to its worklist, in axis declaration order."""
        schema = self.schema_hash()
        items: list[WorkItem] = []

        def expand(axis_index: int, config: SystemConfig, params,
                   coords: tuple) -> None:
            if axis_index == len(self.axes):
                if self.prune is not None and self.prune(dict(coords)):
                    return
                key = (
                    f"s={schema}|{config_cache_key(config)}"
                    f"|app={self.app_id}|"
                    + (_dataclass_cache_key(params) if params is not None else "")
                )
                items.append(WorkItem(
                    key=key, coords=coords, config=config, params=params,
                    app=self.app,
                ))
                return
            axis = self.axes[axis_index]
            for value in axis.values:
                next_config, next_params = self._apply(
                    axis, value, config, params
                )
                expand(
                    axis_index + 1, next_config, next_params,
                    coords + ((axis.name, axis.label_of(value)),),
                )

        expand(0, self.base_config, self.base_params, ())
        return items

    @property
    def n_points(self) -> int:
        return len(self.points())


def jacobi_sweep_space(
    name: str,
    workers: tuple[int, ...] = tuple(range(2, 16)),
    cache_sizes_kb: tuple[int, ...] | None = None,
    policies: tuple[str, ...] = ("wb", "wt"),
    base_config: SystemConfig | None = None,
    params=None,
) -> SweepSpace:
    """The paper's execution-time sweep as one :class:`SweepSpace`.

    Cores x cache size x write policy over the Jacobi workload — the
    168-point design space of Section III when called with the full axes.
    """
    from repro.apps.jacobi.driver import JacobiParams
    from repro.dse.runner import jacobi_app
    from repro.system.config import VALID_CACHE_SIZES_KB

    if cache_sizes_kb is None:
        cache_sizes_kb = VALID_CACHE_SIZES_KB
    return SweepSpace(
        name=name,
        app=jacobi_app,
        app_id="jacobi",
        axes=(
            Axis("workers", tuple(workers), field="n_workers"),
            Axis("cache_kb", tuple(cache_sizes_kb), field="cache_size_kb"),
            Axis("policy", tuple(policies), field="cache_policy"),
        ),
        base_config=base_config if base_config is not None else SystemConfig(),
        base_params=params if params is not None else JacobiParams(),
    )

"""Scenario configuration: schema, validation, YAML loading, profiles.

A scenario file is a YAML mapping of ``ScenarioConfig``'s fields; every
field has a default, so a minimal config is a handful of lines.  Each
section of the file is one config dataclass (``constellation``,
``rf``, ``array``, ``channel``, ``epochs``) that states each field's
default and range and checks itself when built, ``ScenarioConfig`` the
scenario as a whole.  Loading maps the YAML onto them and collects the
problems with their field paths before failing: every type problem,
and then each section's range problems (``constellation``, ``rf``,
``array`` and ``channel`` report their first).
The bundled profiles are scenario files too (``data/<name>.yaml``):
``desk`` is a quick laptop run (20 users, 10 epochs) and ``full`` the
full-size experiment (80 users, 24 epochs).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from functools import cache, partial
from importlib import resources
from pathlib import Path
from typing import get_type_hints

from .channel import ArrayConfig, ChannelConfig, RfConfig
from .geometry import ConstellationConfig, GroundUser
from .scheduling import SchemeMode

CITY_DATASET = "cities_cn"
# ``multipath_power_db`` = -inf (no diffuse rays) as plain data: JSON has
# no infinity, so ``to_dict`` writes this and ``from_dict`` reads it back.
NO_RAYS = "-inf"


class ConfigError(ValueError):
    """Validation failure carrying one message per offending field."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid configuration:\n" + "\n".join(
            f"  {e}" for e in self.errors))


@dataclass(frozen=True)
class EpochGrid:
    start_s: float = 0.0
    step_s: float = 1200.0
    count: int = 10

    def __post_init__(self) -> None:
        errors = []
        if self.count < 1:
            errors.append("count: must be a positive integer")
        if self.step_s <= 0.0:
            errors.append("step_s: must be > 0")
        if self.start_s < 0.0:
            errors.append("start_s: must be >= 0")
        if errors:
            raise ConfigError(errors)

    def times(self) -> list[float]:
        return [self.start_s + k * self.step_s for k in range(self.count)]


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario, checked whole when built: every field, section and
    ground user has the type a scenario file must give it (``_SCALARS``),
    users have distinct labels and ids, and each field is in range.
    ``schemes`` may be given as names (repeats are dropped) and the
    top-level float fields as integers; the stored values are
    ``SchemeMode``s and floats.  ``min_elevation_deg`` is at least 5
    degrees, where ITU-R P.676's cosecant law for the gaseous slant-path
    loss still holds; with the sections' ranges it keeps every link's
    gain inside the float range (see the ``channel`` docstring)."""

    constellation: ConstellationConfig = field(default_factory=ConstellationConfig)
    gus: tuple[GroundUser, ...] = field(default_factory=lambda: bundled_cities(20))
    rf: RfConfig = field(default_factory=RfConfig)
    array: ArrayConfig = field(default_factory=ArrayConfig)
    channel: ChannelConfig = field(default_factory=ChannelConfig)
    schemes: tuple[SchemeMode, ...] = (SchemeMode.AU, SchemeMode.SHU, SchemeMode.JHU)
    epochs: EpochGrid = field(default_factory=EpochGrid)
    seed: int = 1
    min_elevation_deg: float = 10.0
    density_threshold_km: float = 400.0
    codewords: int = 4
    beta: float | None = None  # None selects the large-system optimum
    tracked_labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        # the types first: the range checks below compare the values
        errors = _type_errors(self)
        if errors:
            raise ConfigError(errors)
        put = partial(object.__setattr__, self)  # the fields are frozen
        if not self.gus:
            errors.append("gus: at least one ground user is required")
        first: dict[tuple, int] = {}  # (field, value) -> index of its first user
        for i, gu in enumerate(self.gus):
            for name in ("label", "user_id"):
                value = getattr(gu, name)
                j = first.setdefault((name, value), i)
                if j != i:
                    errors.append(f"gus[{i}].{name}: {value!r} is already the "
                                  f"{name} of gus[{j}]")
        if isinstance(self.schemes, (list, tuple)) and self.schemes:
            schemes = []
            for s in self.schemes:
                try:
                    schemes.append(SchemeMode.parse(s))
                except ValueError as exc:
                    errors.append(f"schemes: {exc}")
            put("schemes", tuple(dict.fromkeys(schemes)))
        else:
            errors.append("schemes: expected a non-empty list")
        if self.seed < 0:
            errors.append("seed: must be a non-negative integer")
        if not 5.0 <= self.min_elevation_deg < 90.0:
            errors.append("min_elevation_deg: must be in [5, 90)")
        if self.density_threshold_km <= 0.0:
            errors.append("density_threshold_km: must be > 0")
        if self.codewords < 1:
            errors.append("codewords: must be a positive integer")
        elif self.codewords > self.array.n_elements:
            errors.append(f"codewords: must be <= array elements "
                          f"({self.array.n_elements})")
        if self.beta is not None and self.beta < 0.0:
            errors.append("beta: must be >= 0")
        tracked = self.tracked_labels
        if isinstance(tracked, (list, tuple)) and all(isinstance(x, str)
                                                      for x in tracked):
            labels = {g.label for g in self.gus}
            errors += [f"tracked_labels: no ground user is labelled {x!r}"
                       for x in tracked if x not in labels]
            put("tracked_labels", tuple(tracked))
        else:
            errors.append("tracked_labels: must be a list of strings")
        if errors:
            raise ConfigError(errors)
        put("min_elevation_deg", float(self.min_elevation_deg))
        put("density_threshold_km", float(self.density_threshold_km))
        if self.beta is not None:
            put("beta", float(self.beta))


def bundled_cities(count: int | None = None) -> tuple[GroundUser, ...]:
    """Ground users from the bundled city list (optionally the first
    ``count`` entries)."""
    text = resources.files("coopsat.data").joinpath(f"{CITY_DATASET}.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    if count is not None:
        if not 1 <= count <= len(rows):
            raise ValueError(f"count: must be in [1, {len(rows)}]")
        rows = rows[:count]
    return tuple(GroundUser(user_id=i, latitude_deg=float(r["latitude_deg"]),
                            longitude_deg=float(r["longitude_deg"]),
                            label=r["label"])
                 for i, r in enumerate(rows))


def _is_int(value) -> bool:
    """True for integers but not for bools (YAML ``true`` is a bool)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# A scalar field's annotation -> (accepts a value, the problem if not)
_SCALARS = {
    int: (_is_int, "must be an integer"),
    float: (_is_finite, "must be a finite number"),
    float | None: (lambda v: v is None or _is_finite(v), "must be a finite number"),
    str: (lambda v: isinstance(v, str), "must be a string"),
}


@cache
def _field_types(cls) -> dict:
    """Field name -> type of config dataclass ``cls``.  The annotations
    are strings, and evaluating them took half of a ``from_dict`` call."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _type_problem(name: str, kind, value) -> str | None:
    """Why ``value`` cannot be field ``name`` of scalar annotation
    ``kind``, if it cannot: as ``_SCALARS`` says, except that -inf, a
    linear value of 0, is the ``multipath_power_db`` that turns the rays
    off."""
    accepts, problem = _SCALARS[kind]
    if accepts(value) or (name == "multipath_power_db" and value == -math.inf):
        return None
    return problem


def _type_errors(obj, prefix: str = "") -> list[str]:
    """``_type_problem`` of every field of config dataclass ``obj``, of its
    sections and of its ground users, with their field paths."""
    errors = []
    for name, kind in _field_types(type(obj)).items():
        value = getattr(obj, name)
        where = prefix + name
        if kind in _SCALARS:
            problem = _type_problem(name, kind, value)
            if problem:
                errors.append(f"{where}: {problem}")
        elif is_dataclass(kind):
            errors += _type_errors(value, where + ".")
        elif kind == tuple[GroundUser, ...]:
            for i, gu in enumerate(value):
                errors += _type_errors(gu, f"gus[{i}].")
    return errors


def _mapping(value, where: str, errors: list[str]) -> dict:
    if isinstance(value, dict):
        return value
    errors.append(f"{where}: expected a mapping")
    return {}


def _build_section(cls, data: dict, prefix: str, errors: list[str]):
    """Build config dataclass ``cls`` from a mapping of its fields.  Each
    value maps as the field's annotation says: a config dataclass from a
    mapping, ``int`` from an integer, ``float`` from a finite number (or
    -inf or ``NO_RAYS`` for ``multipath_power_db``), ground users from
    ``gus`` rows; other values pass as given.  A value that does not map
    keeps its default.  Errors, the dataclass's own included, are
    collected with their field paths (``prefix`` + name)."""
    kinds = _field_types(cls)
    kwargs = {}
    for key, value in data.items():
        kind = kinds.get(key)
        where = prefix + key
        n_errors = len(errors)
        if kind is None:
            errors.append(f"{where}: unknown field")
        elif kind in _SCALARS:
            if key == "multipath_power_db" and value == NO_RAYS:
                value = -math.inf
            problem = _type_problem(key, kind, value)
            if problem:
                errors.append(f"{where}: {problem}")
        elif is_dataclass(kind):
            value = _build_section(kind, _mapping(value, where, errors),
                                   where + ".", errors)
        elif kind == tuple[GroundUser, ...]:
            value = _parse_gus(value, errors)
        if len(errors) == n_errors:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        errors.extend(prefix + e for e in getattr(exc, "errors", [str(exc)]))
        return cls()


# ``GroundUser`` field -> the key of an inline user that sets it
_GU_KEYS = {"latitude_deg": "lat", "longitude_deg": "lon", "altitude_km": "alt_km"}


def _parse_gus(data, errors: list[str]) -> tuple[GroundUser, ...]:
    if isinstance(data, dict) and "inline" not in data:
        for key in data:
            if key not in ("dataset", "count"):
                errors.append(f"gus.{key}: unknown field")
        dataset = data.get("dataset", CITY_DATASET)
        if dataset != CITY_DATASET:
            errors.append(f"gus.dataset: unknown dataset {dataset!r}")
            return ()
        count = data.get("count")
        if count is not None and not _is_int(count):
            errors.append("gus.count: must be an integer")
            return ()
        try:
            return bundled_cities(count)
        except ValueError as exc:
            errors.append(f"gus.{exc}")
            return ()
    if isinstance(data, dict):
        for key in data:
            if key != "inline":
                errors.append(f"gus.{key}: not allowed with gus.inline")
        data = data["inline"]
    if not isinstance(data, list):
        errors.append("gus: expected a list or a dataset reference")
        return ()
    out = []
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            errors.append(f"gus[{i}]: expected a mapping")
            continue
        n_errors = len(errors)
        row = {"lat": None, "lon": None, "alt_km": 0.0, "label": f"gu{i}", **row}
        for key, value in row.items():
            if key not in ("lat", "lon", "alt_km", "label"):
                errors.append(f"gus[{i}].{key}: unknown field")
            elif problem := _type_problem(key, str if key == "label" else float, value):
                errors.append(f"gus[{i}].{key}: {problem}")
        if len(errors) > n_errors:
            continue
        try:
            out.append(GroundUser(
                user_id=i,
                latitude_deg=float(row["lat"]),
                # 180 E is 180 W; GroundUser keeps longitudes in [-180, 180)
                longitude_deg=-180.0 if row["lon"] == 180.0 else float(row["lon"]),
                altitude_km=float(row["alt_km"]),
                label=row["label"],
            ))
        except ValueError as exc:  # GroundUser names its field: report the file's key
            name, _, problem = str(exc).partition(":")
            errors.append(f"gus[{i}].{_GU_KEYS[name]}:{problem}")
    return tuple(out)


def from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from a plain mapping of the fields
    of ``ScenarioConfig``."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    errors: list[str] = []
    config = _build_section(ScenarioConfig, data, "", errors)
    if errors:
        raise ConfigError(errors)
    return config


def load_config(source: str | Path) -> ScenarioConfig:
    """Load and validate a YAML scenario: a file, or else the name of a
    bundled profile (``data/<name>.yaml``, e.g. ``desk``)."""
    path = Path(source)
    if path.exists():
        text = path.read_text()
    else:
        profiles = {p.name.removesuffix(".yaml"): p
                    for p in resources.files("coopsat.data").iterdir()
                    if p.name.endswith(".yaml")}
        if str(source) not in profiles:
            raise ConfigError([f"{source}: no such file or bundled profile "
                               f"(profiles: {', '.join(sorted(profiles))})"])
        text = profiles[str(source)].read_text()
    import yaml  # here, not at the top: from_dict callers never load PyYAML

    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError([f"{source}: YAML parse error: {exc}"])
    return from_dict({} if raw is None else raw)


def to_dict(config: ScenarioConfig) -> dict:
    """Plain-data form of a scenario, which ``from_dict`` maps back
    (canonical for hashing).  It is strict JSON: the one infinite value
    a scenario can hold, ``multipath_power_db`` = -inf, is ``NO_RAYS``."""
    data = asdict(config)
    data["gus"] = [{"label": g.label, "lat": g.latitude_deg, "lon": g.longitude_deg,
                    "alt_km": g.altitude_km} for g in config.gus]
    if data["channel"]["multipath_power_db"] == -math.inf:
        data["channel"]["multipath_power_db"] = NO_RAYS
    data["schemes"] = [s.value for s in config.schemes]
    return data


def config_digest(config: ScenarioConfig) -> str:
    """Stable hash of the full scenario, for provenance stamps."""
    canonical = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()

"""Scenario configuration: schema, validation, YAML loading, profiles.

A scenario file is a YAML mapping; every field has a default, so a
minimal config is a handful of lines.  Validation collects every
problem with its field path before failing.  The bundled profiles are
scenario files too (``data/<name>.yaml``): ``desk`` is a quick laptop
run (20 users, 10 epochs) and ``full`` the full-size experiment (80
users, 24 epochs).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from pathlib import Path

from .channel import ArrayConfig, AttenuationConfig, RfConfig, SmallScaleConfig
from .geometry import ConstellationConfig, GroundUser
from .scheduling import SchemeMode

CITY_DATASET = "cities_cn"


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

    def times(self) -> list[float]:
        return [self.start_s + k * self.step_s for k in range(self.count)]


@dataclass(frozen=True)
class ScenarioConfig:
    constellation: ConstellationConfig = field(default_factory=ConstellationConfig)
    gus: tuple[GroundUser, ...] = ()
    rf: RfConfig = field(default_factory=RfConfig)
    array: ArrayConfig = field(default_factory=ArrayConfig)
    small_scale: SmallScaleConfig = field(default_factory=SmallScaleConfig)
    attenuation: AttenuationConfig = field(default_factory=AttenuationConfig)
    schemes: tuple[SchemeMode, ...] = (SchemeMode.AU, SchemeMode.SHU, SchemeMode.JHU)
    epochs: EpochGrid = field(default_factory=EpochGrid)
    seed: int = 1
    min_elevation_deg: float = 10.0
    density_threshold_km: float = 400.0
    codewords: int = 4
    beta: float | None = None  # None selects the large-system optimum
    tracked_labels: tuple[str, ...] = ()


def bundled_cities(count: int | None = None) -> tuple[GroundUser, ...]:
    """Ground users from the bundled city list (optionally the first
    ``count`` entries)."""
    text = resources.files("coopsat.data").joinpath(f"{CITY_DATASET}.csv").read_text()
    rows = list(csv.DictReader(text.splitlines()))
    if count is not None:
        if not 1 <= count <= len(rows):
            raise ValueError(f"count must be in [1, {len(rows)}]")
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


def _section(data: dict, key: str, errors: list[str]) -> dict:
    value = data.get(key, {})
    if not isinstance(value, dict):
        errors.append(f"{key}: expected a mapping")
        return {}
    return value


def _build_section(cls, data: dict, path: str, errors: list[str]):
    """Build a config dataclass from a section.  Fields declared ``int``
    must be integers and fields declared ``float`` finite numbers; a field
    that is not keeps its default while the error is collected."""
    known = {f.name: f.type for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        kind = known.get(key)
        if kind is None:
            errors.append(f"{path}.{key}: unknown field")
        elif kind == "int" and not _is_int(value):
            errors.append(f"{path}.{key}: must be an integer")
        elif kind == "float" and not _is_finite(value):
            errors.append(f"{path}.{key}: must be a finite number")
        else:
            kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{path}: {exc}")
        return cls()


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
        except (TypeError, ValueError) as exc:
            errors.append(f"gus.count: {exc}")
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
    labelled: dict[str, int] = {}  # label -> index of its first user
    for i, row in enumerate(data):
        if not isinstance(row, dict):
            errors.append(f"gus[{i}]: expected a mapping")
            continue
        n_errors = len(errors)
        row = {"lat": None, "lon": None, "alt_km": 0.0, "label": f"gu{i}", **row}
        for key, value in row.items():
            if key not in ("lat", "lon", "alt_km", "label"):
                errors.append(f"gus[{i}].{key}: unknown field")
            elif key != "label" and not _is_finite(value):
                errors.append(f"gus[{i}].{key}: must be a finite number")
        label = str(row["label"])
        if label in labelled:
            errors.append(f"gus[{i}].label: {label!r} is already the label "
                          f"of gus[{labelled[label]}]")
        labelled.setdefault(label, i)
        if len(errors) > n_errors:
            continue
        try:
            out.append(GroundUser(
                user_id=i,
                latitude_deg=float(row["lat"]),
                # 180 E is 180 W; GroundUser keeps longitudes in [-180, 180)
                longitude_deg=-180.0 if row["lon"] == 180.0 else float(row["lon"]),
                altitude_km=float(row["alt_km"]),
                label=label,
            ))
        except ValueError as exc:
            errors.append(f"gus[{i}]: {exc}")
    return tuple(out)


def from_dict(data: dict) -> ScenarioConfig:
    """Build and validate a scenario from a plain mapping."""
    if not isinstance(data, dict):
        raise ConfigError(["top level: expected a mapping"])
    errors: list[str] = []
    known_top = {"constellation", "gus", "rf", "array", "channel", "schemes",
                 "epochs", "seed", "min_elevation_deg", "density_threshold_km",
                 "codewords", "beta", "tracked_labels"}
    for key in data:
        if key not in known_top:
            errors.append(f"{key}: unknown field")

    constellation = _build_section(ConstellationConfig,
                                   _section(data, "constellation", errors),
                                   "constellation", errors)
    rf = _build_section(RfConfig, _section(data, "rf", errors), "rf", errors)
    array = _build_section(ArrayConfig, _section(data, "array", errors),
                           "array", errors)

    channel_data = dict(_section(data, "channel", errors))
    atten_keys = {f.name for f in fields(AttenuationConfig)}
    atten_data = {k: channel_data.pop(k) for k in list(channel_data)
                  if k in atten_keys}
    small_scale = _build_section(SmallScaleConfig, channel_data, "channel", errors)
    attenuation = _build_section(AttenuationConfig, atten_data, "channel", errors)

    gus = _parse_gus(data.get("gus", {"dataset": CITY_DATASET, "count": 20}), errors)
    if not gus and not any(e.startswith("gus") for e in errors):
        errors.append("gus: at least one ground user is required")

    schemes: list[SchemeMode] = []
    raw_schemes = data.get("schemes", ["au", "shu", "jhu"])
    if not isinstance(raw_schemes, (list, tuple)) or not raw_schemes:
        errors.append("schemes: expected a non-empty list")
    else:
        for s in raw_schemes:
            try:
                schemes.append(SchemeMode.parse(s))
            except ValueError as exc:
                errors.append(f"schemes: {exc}")

    epochs = _build_section(EpochGrid, _section(data, "epochs", errors),
                            "epochs", errors)
    if epochs.count < 1:
        errors.append("epochs.count: must be a positive integer")
    if epochs.step_s <= 0.0:
        errors.append("epochs.step_s: must be > 0")
    if epochs.start_s < 0.0:
        errors.append("epochs.start_s: must be >= 0")

    def _number(key, default, low=None, high=None, low_open=False):
        value = data.get(key, default)
        if not _is_finite(value):
            errors.append(f"{key}: must be a finite number")
            return default
        if low is not None and (value <= low if low_open else value < low):
            errors.append(f"{key}: must be {'>' if low_open else '>='} {low}")
        if high is not None and value >= high:
            errors.append(f"{key}: must be < {high}")
        return float(value)

    seed = data.get("seed", 1)
    if not _is_int(seed) or seed < 0:
        errors.append("seed: must be a non-negative integer")
        seed = 1
    min_el = _number("min_elevation_deg", 10.0, low=0.0, high=90.0)
    threshold = _number("density_threshold_km", 400.0, low=0.0, low_open=True)
    codewords = data.get("codewords", 4)
    if not _is_int(codewords) or codewords < 1:
        errors.append("codewords: must be a positive integer")
    elif codewords > array.n_elements:
        errors.append(f"codewords: must be <= array elements ({array.n_elements})")
    beta = None if data.get("beta") is None else _number("beta", None, low=0.0)
    tracked = data.get("tracked_labels", ())
    if not (isinstance(tracked, (list, tuple))
            and all(isinstance(x, str) for x in tracked)):
        errors.append("tracked_labels: must be a list of strings")
        tracked = ()
    labels = {g.label for g in gus}
    for label in tracked:
        if gus and label not in labels:
            errors.append(f"tracked_labels: no ground user is labelled {label!r}")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(
        constellation=constellation, gus=gus, rf=rf, array=array,
        small_scale=small_scale, attenuation=attenuation,
        schemes=tuple(dict.fromkeys(schemes)), epochs=epochs, seed=seed,
        min_elevation_deg=min_el, density_threshold_km=threshold,
        codewords=codewords, beta=beta,
        tracked_labels=tuple(tracked),
    )


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
    """Plain-data form of a scenario (canonical for hashing)."""
    return {
        "constellation": asdict(config.constellation),
        "gus": [{"label": g.label, "lat": g.latitude_deg, "lon": g.longitude_deg,
                 "alt_km": g.altitude_km} for g in config.gus],
        "rf": asdict(config.rf),
        "array": asdict(config.array),
        "channel": {**asdict(config.small_scale), **asdict(config.attenuation)},
        "schemes": [s.value for s in config.schemes],
        "epochs": asdict(config.epochs),
        "seed": config.seed,
        "min_elevation_deg": config.min_elevation_deg,
        "density_threshold_km": config.density_threshold_km,
        "codewords": config.codewords,
        "beta": config.beta,
        "tracked_labels": list(config.tracked_labels),
    }


def config_digest(config: ScenarioConfig) -> str:
    """Stable hash of the full scenario, for provenance stamps."""
    canonical = json.dumps(to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()

"""Flat key=value scenario files.

The schema mirrors ScenarioConfig: one `key = value` pair per line, `#`
comments, plant and schedule parameters namespaced with a dot
(`plant.a = 1.0`, `schedule.omega = 2.0`).  X0 accepts a comma-separated
vector.  Unknown keys are rejected by name so a typo cannot silently fall
back to a default.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .simulate import ScenarioConfig

_SCALAR_KEYS = {
    "D": ("true_delay", float),
    "d_lower": ("d_lower", float),
    "d_upper": ("d_upper", float),
    "M": ("num_intervals", int),
    "dt": ("dt", float),
    "T": ("horizon", float),
    "stride": ("stride", int),
    "margin": ("margin", float),
    "schedule.soft_width": ("soft_width", float),
}


def _assign(cfg, key, value):
    """Set schema key `key` on `cfg` from its value (text or number).

    Returns False for a key outside the schema; a bad value raises
    ValueError.
    """
    if key == "plant":
        cfg.plant = str(value)
    elif key == "schedule":
        cfg.schedule_kind = str(value)
    elif key == "X0":
        cfg.X0 = tuple(float(p) for p in str(value).split(","))
    elif key in _SCALAR_KEYS:
        name, conv = _SCALAR_KEYS[key]
        setattr(cfg, name, conv(value))
    elif key.startswith("plant."):
        cfg.plant_params[key[len("plant."):]] = float(value)
    elif key.startswith("schedule."):
        cfg.schedule_params[key[len("schedule."):]] = float(value)
    else:
        return False
    return True


def parse_config_text(text):
    """Parse the documented flat schema into a ScenarioConfig (unvalidated
    beyond syntax; `ScenarioConfig.build` applies the semantic checks)."""
    cfg = ScenarioConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            known = _assign(cfg, key, value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: bad value for key {key!r}: {value!r}"
            ) from None
        if not known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
    return cfg


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text)


def config_to_dict(cfg: ScenarioConfig):
    """Echo of a scenario in the file schema's vocabulary (for manifests)."""
    out = {
        "plant": cfg.plant,
        "X0": list(float(v) for v in
                   (cfg.X0 if hasattr(cfg.X0, "__len__") else [cfg.X0])),
        "D": float(cfg.true_delay),
        "d_lower": None if cfg.d_lower is None else float(cfg.d_lower),
        "d_upper": None if cfg.d_upper is None else float(cfg.d_upper),
        "schedule": cfg.schedule_kind,
        "M": int(cfg.num_intervals),
        "dt": float(cfg.dt),
        "T": float(cfg.horizon),
        "stride": int(cfg.stride),
        "margin": float(cfg.margin),
    }
    for k, v in sorted(cfg.plant_params.items()):
        out[f"plant.{k}"] = float(v)
    for k, v in sorted(cfg.schedule_params.items()):
        out[f"schedule.{k}"] = float(v)
    if cfg.soft_width is not None:
        out["schedule.soft_width"] = float(cfg.soft_width)
    return out


def apply_override(cfg: ScenarioConfig, key, value):
    """Set one schema key on a copy of the config (sweep cells)."""
    base = replace(cfg, plant_params=dict(cfg.plant_params),
                   schedule_params=dict(cfg.schedule_params))
    try:
        known = _assign(base, key, value)
    except ValueError:
        raise ConfigError(
            f"bad override value for key {key!r}: {value!r}") from None
    if not known:
        raise ConfigError(f"unknown override key {key!r}")
    return base

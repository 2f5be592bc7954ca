"""Experiment configuration: dataclass, file parsing, overrides.

Config files are flat ``key = value`` text (INI-compatible; a leading
section header is optional).  CLI flags override file values.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, replace
from pathlib import Path

from .distributions import DistributionSpec

OUTPUT_DIR_ENV = "URNSIM_OUT"


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all verification studies."""

    distribution: DistributionSpec
    n_min: int = 1_000
    n_max: int = 1_000_000
    points: int = 25
    ks: tuple[int, ...] = (1, 2)
    k_max: int = 5
    seeds: int = 100
    master_seed: int = 42
    # decay study
    decay_factor: float = 0.5
    decay_abs_threshold: float = 0.5
    # bound study
    slack: float = 0.1
    pass_fraction: float = 0.95
    n_floor: int = 1_000
    # rate-ratio study
    rate_t_values: tuple[float, ...] = (1e4, 1e6, 1e8)
    rate_v_exponent: float = 0.6
    rate_threshold: float = 0.05
    # mean-convergence study
    ratio_band: tuple[float, float] = (0.95, 1.05)
    convergence_factor: float = 0.1
    workers: int = 1
    out_dir: str | None = None

    def validate(self) -> None:
        self.distribution.validate()
        if self.n_min < 16:
            raise ConfigError("n_min must be >= 16 (normalizers need lnln n > 0)")
        if self.n_max <= self.n_min:
            raise ConfigError("n_max must exceed n_min")
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ConfigError("ks must be positive")
        if self.k_max < max(self.ks):
            raise ConfigError("k_max must cover every requested k")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        for name in ("decay_factor", "decay_abs_threshold", "slack",
                     "rate_threshold", "convergence_factor"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be > 0")
        if not (0.0 < self.pass_fraction <= 1.0):
            raise ConfigError("pass_fraction must be in (0, 1]")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def resolved_out_dir(self) -> Path:
        if self.out_dir is not None:
            return Path(self.out_dir)
        return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


_DIST_KEYS = {"family", "s", "a", "q", "normalization_tolerance"}
_INT_KEYS = {"n_min", "n_max", "points", "k_max", "seeds", "master_seed",
             "n_floor", "workers"}
_FLOAT_KEYS = {"decay_factor", "decay_abs_threshold", "slack", "pass_fraction",
               "rate_v_exponent", "rate_threshold", "convergence_factor"}
_TUPLE_INT_KEYS = {"ks"}
_TUPLE_FLOAT_KEYS = {"rate_t_values", "ratio_band"}
_STR_KEYS = {"out_dir"}


def config_from_mapping(values: dict) -> ExperimentConfig:
    values = dict(values)
    dist_map = {k: values.pop(k) for k in list(values) if k in _DIST_KEYS}
    if "family" not in dist_map:
        raise ConfigError("config must set a distribution family")
    kwargs = {"distribution": DistributionSpec.from_mapping(dist_map)}
    for key, raw in values.items():
        if key in _INT_KEYS:
            kwargs[key] = int(float(raw))
        elif key in _FLOAT_KEYS:
            kwargs[key] = float(raw)
        elif key in _TUPLE_INT_KEYS:
            kwargs[key] = _parse_tuple(raw, int)
        elif key in _TUPLE_FLOAT_KEYS:
            kwargs[key] = _parse_tuple(raw, float)
        elif key in _STR_KEYS:
            kwargs[key] = str(raw)
        else:
            raise ConfigError(f"unknown config key {key!r}")
    cfg = ExperimentConfig(**kwargs)
    cfg.validate()
    return cfg


def _parse_tuple(raw, cast):
    if isinstance(raw, (list, tuple)):
        return tuple(cast(v) for v in raw)
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    return tuple(cast(float(p)) if cast is int else cast(p) for p in parts)


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse a key-value config file; :func:`override_config` applies flags."""
    text = Path(path).read_text()
    if not text.lstrip().startswith("["):
        text = "[urnsim]\n" + text
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    values: dict = {}
    for section in parser.sections():
        values.update(parser[section])
    return config_from_mapping(values)


def override_config(cfg: ExperimentConfig, **kwargs) -> ExperimentConfig:
    updates = {k: v for k, v in kwargs.items() if v is not None}
    if not updates:
        return cfg
    out = replace(cfg, **updates)
    out.validate()
    return out

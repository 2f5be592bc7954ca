"""Experiment configuration: dataclass, file parsing, overrides.

Config files are flat ``key = value`` text (INI-compatible; a leading
section header is optional).  CLI flags override file values.  The keys
are the fields of :class:`ExperimentConfig` and of
:class:`~urnsim.distributions.DistributionSpec`; the studies' pass
criteria are constants in :mod:`urnsim.studies`.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .distributions import DistributionSpec

OUTPUT_DIR_ENV = "URNSIM_OUT"


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared knobs for all verification studies, checked when the config
    is built (directly, by :func:`dataclasses.replace` or from a file)."""

    distribution: DistributionSpec
    n_min: int = 1_000
    n_max: int = 1_000_000
    points: int = 25
    ks: tuple[int, ...] = (1, 2)
    seeds: int = 100
    master_seed: int = 42
    # bound, mean-convergence and increment studies
    n_floor: int = 1_000
    # rate-ratio study
    rate_t_values: tuple[float, ...] = (1e4, 1e6, 1e8)
    workers: int = 1
    out_dir: str | None = None

    def __post_init__(self) -> None:
        if self.n_min < 16:
            raise ConfigError("n_min must be >= 16 (normalizers need lnln n > 0)")
        if self.n_max <= self.n_min:
            raise ConfigError("n_max must exceed n_min")
        if self.n_floor > self.n_max:
            raise ConfigError(f"n_floor must not exceed n_max, got n_floor={self.n_floor}, "
                              f"n_max={self.n_max}")
        if self.points < 2:
            raise ConfigError("points must be >= 2")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ConfigError("ks must be positive")
        if self.seeds < 1:
            raise ConfigError("seeds must be >= 1")
        if not self.rate_t_values:
            raise ConfigError("rate_t_values must list at least one t")
        for t in self.rate_t_values:
            # study_rate_ratio seeds each t's stream with int(t)
            if not (t >= 1 and float(t).is_integer()):
                raise ConfigError(f"rate_t_values must be integers >= 1, got {t}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")

    def resolved_out_dir(self) -> Path:
        if self.out_dir is not None:
            return Path(self.out_dir)
        return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def _integer(raw) -> int:
    """An integer literal, or an integral float such as ``1e6``; ``2.7``,
    ``inf`` and ``nan`` are refused."""
    try:
        return int(str(raw))
    except ValueError:
        value = float(raw)
    if not value.is_integer():
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(value)


def _parser(default):
    """The parser of a config value, chosen by the type of the field's
    default: integer, float, comma-separated tuple of either, or text."""
    if default is None:
        return str
    if isinstance(default, tuple):
        item = _parser(default[0])
        return lambda raw: tuple(item(v) for v in str(raw).split(",") if v.strip())
    return _integer if isinstance(default, int) else float


_DIST_KEYS = {f.name for f in fields(DistributionSpec)}
_PARSERS = {f.name: _parser(f.default) for f in fields(ExperimentConfig)
            if f.name != "distribution"}


def config_from_mapping(values: dict) -> ExperimentConfig:
    values = dict(values)
    dist_map = {k: values.pop(k) for k in list(values) if k in _DIST_KEYS}
    if "family" not in dist_map:
        raise ConfigError("config must set a distribution family")
    kwargs = {"distribution": DistributionSpec.from_mapping(dist_map)}
    for key, raw in values.items():
        if key not in _PARSERS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    return ExperimentConfig(**kwargs)


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
    """``cfg`` with the flags that are set (not None) replaced."""
    return replace(cfg, **{k: v for k, v in kwargs.items() if v is not None})

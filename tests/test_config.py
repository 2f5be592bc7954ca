from dataclasses import fields, replace

import pytest

from urnsim.config import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    override_config,
)
from urnsim.distributions import DistributionSpec


def test_from_mapping_round_trip(tmp_path):
    cfg = config_from_mapping({
        "family": "zipf_log", "s": "2.0", "a": "1.0",
        "n_min": "1000", "n_max": "1e5", "points": "9",
        "ks": "1, 2, 3", "seeds": "10",
        "rate_t_values": "1e4, 1e6",
    })
    assert cfg.distribution.family == "zipf_log"
    assert cfg.ks == (1, 2, 3)
    assert cfg.rate_t_values == (1e4, 1e6)
    assert cfg.n_max == 100_000

    # every field written as text in a config file reads back as its
    # default; out_dir's default None has no text form, so it gets a path
    expected = ExperimentConfig(distribution=DistributionSpec(family="zipf", s=2.0),
                                out_dir="results")
    lines = ["family = zipf", "s = 2.0"]
    for f in fields(ExperimentConfig)[1:]:
        value = getattr(expected, f.name)
        text = ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)
        lines.append(f"{f.name} = {text}")
    path = tmp_path / "cfg.ini"
    path.write_text("\n".join(lines) + "\n")
    assert len(lines) == 2 + 10
    assert load_config(path) == expected


def test_requires_family():
    with pytest.raises(ConfigError):
        config_from_mapping({"n_min": 1000})


def test_unknown_key_rejected():
    # the pass criteria are constants of urnsim.studies, k_max is max(ks)
    # and the normalization tolerance is a constant of urnsim.distributions,
    # so their former keys are unknown too
    for key in ("frobnicate", "k_max", "decay_factor", "decay_abs_threshold",
                "slack", "pass_fraction", "rate_v_exponent", "rate_threshold",
                "ratio_band", "convergence_factor", "normalization_tolerance"):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            config_from_mapping({"family": "zipf", "s": 2.0, key: "1"})


@pytest.mark.parametrize("key, raw", [
    ("seeds", "2.7"),
    ("ks", "1.5, 2"),
    ("n_max", "inf"),
    ("n_min", "nan"),
    ("master_seed", "1e400"),
    ("points", "ten"),
])
def test_integer_keys_need_integers(key, raw):
    with pytest.raises(ConfigError, match=key):
        config_from_mapping({"family": "zipf", "s": 2.0, key: raw})


def test_integer_keys_accept_integral_floats():
    cfg = config_from_mapping({"family": "zipf", "s": 2.0, "n_max": "1e6",
                               "ks": "1, 2.0", "master_seed": "12345678901234567891"})
    assert (cfg.n_max, cfg.ks) == (1_000_000, (1, 2))
    assert cfg.master_seed == 12345678901234567891


@pytest.mark.parametrize("bad", [
    {"n_min": 8},
    {"n_max": 999},          # below n_min
    {"points": 1},
    {"ks": "0,1"},
    {"seeds": 0},
    {"workers": 0},
    {"rate_t_values": ""},
    {"rate_t_values": "-1e4"},
    {"rate_t_values": "1e4, inf"},
    {"rate_t_values": "1e4, nan"},
    {"rate_t_values": "0.5"},
    {"rate_t_values": "0"},
])
def test_validation_failures(bad):
    base = {"family": "zipf", "s": 2.0}
    base.update(bad)
    with pytest.raises(ConfigError, match=next(iter(bad))):
        config_from_mapping(base)


def test_load_config_flags_override(tmp_path):
    path = tmp_path / "cfg.ini"
    path.write_text("family = zipf\ns = 2.0\nseeds = 50\nn_max = 1e6\n")
    cfg = override_config(load_config(path), seeds=7, master_seed=None)
    assert cfg.seeds == 7            # flag wins
    assert cfg.master_seed == 42     # None override ignored


def test_override_config_validates():
    cfg = ExperimentConfig(distribution=DistributionSpec(family="zipf", s=2.0))
    assert override_config(cfg).seeds == cfg.seeds
    with pytest.raises(ConfigError):
        override_config(cfg, seeds=0)


def test_config_checked_when_built():
    # a config checks itself when built, directly or by dataclasses.replace
    spec = DistributionSpec(family="zipf", s=2.0)
    with pytest.raises(ConfigError, match="n_min must be >= 16"):
        ExperimentConfig(distribution=spec, n_min=8)
    cfg = ExperimentConfig(distribution=spec)
    with pytest.raises(ConfigError, match="seeds must be >= 1"):
        replace(cfg, seeds=0)

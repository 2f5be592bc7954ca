import pytest

from urnsim.config import (
    ConfigError,
    ExperimentConfig,
    config_from_mapping,
    load_config,
    override_config,
)
from urnsim.distributions import DistributionSpec


def test_from_mapping_round_trip():
    cfg = config_from_mapping({
        "family": "zipf_log", "s": "2.0", "a": "1.0",
        "n_min": "1000", "n_max": "1e5", "points": "9",
        "ks": "1, 2, 3", "k_max": "4", "seeds": "10",
        "rate_t_values": "1e4, 1e6",
    })
    assert cfg.distribution.family == "zipf_log"
    assert cfg.ks == (1, 2, 3)
    assert cfg.rate_t_values == (1e4, 1e6)
    assert cfg.n_max == 100_000


def test_requires_family():
    with pytest.raises(ConfigError):
        config_from_mapping({"n_min": 1000})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        config_from_mapping({"family": "zipf", "s": 2.0, "frobnicate": 1})


@pytest.mark.parametrize("bad", [
    {"n_min": 8},
    {"n_max": 999},          # below n_min
    {"points": 1},
    {"ks": "0,1"},
    {"seeds": 0},
    {"pass_fraction": 1.5},
    {"workers": 0},
])
def test_validation_failures(bad):
    base = {"family": "zipf", "s": 2.0}
    base.update(bad)
    with pytest.raises(ConfigError):
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


def test_k_max_must_cover_ks():
    with pytest.raises(ConfigError):
        config_from_mapping({"family": "zipf", "s": 2.0, "ks": "1,4", "k_max": 3})

"""Scenario configuration loading, validation, and dataset generation."""

import copy

import numpy as np
import pytest

from priarta import ConfigError, ScenarioConfig, build_datasets, default_scenario
from priarta.fileio import load_json
from priarta.scenario import BUYER_ID


@pytest.fixture(scope="module")
def base_dict():
    return default_scenario(1000).to_dict()


def test_default_scenario_shape():
    cfg = default_scenario(1000)
    assert cfg.num_classes == 10
    assert len(cfg.sellers) == 7
    kinds = [s.kind for s in cfg.sellers]
    assert kinds.count("fresh") == 2
    assert kinds.count("augmented_copy") == 5
    assert cfg.seller_ids() == [f"seller-{i}" for i in range(1, 8)]


def test_config_round_trips_through_dict(base_dict):
    cfg = ScenarioConfig.from_dict(base_dict)
    assert cfg.to_dict() == base_dict


def test_config_round_trip_is_stable(base_dict):
    twice = ScenarioConfig.from_dict(ScenarioConfig.from_dict(base_dict).to_dict())
    assert twice.to_dict() == base_dict


def test_config_reports_every_problem(base_dict):
    bad = copy.deepcopy(base_dict)
    bad["num_classes"] = 0
    bad["class_scale"] = -1.0
    bad["privacy"]["epsilon"] = 2.0
    bad["buyer"]["class_probs"] = [0.5] * 10  # sums to 5
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(bad)
    text = str(info.value)
    for needle in ("num_classes", "class_scale", "epsilon", "class_probs"):
        assert needle in text, f"missing complaint about {needle}"


def test_config_rejects_unknown_fields(base_dict):
    bad = copy.deepcopy(base_dict)
    bad["surprise"] = 1
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(bad)
    assert "surprise" in str(info.value)


def test_config_rejects_zero_sellers(base_dict):
    bad = copy.deepcopy(base_dict)
    bad["sellers"] = []
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(bad)


def test_config_rejects_duplicate_and_reserved_ids(base_dict):
    bad = copy.deepcopy(base_dict)
    bad["sellers"][1]["node_id"] = bad["sellers"][0]["node_id"]
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(bad)
    bad = copy.deepcopy(base_dict)
    bad["sellers"][0]["node_id"] = BUYER_ID
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(bad)


def test_config_rejects_forward_source_reference(base_dict):
    # an augmented copy may only point at the buyer or an earlier seller
    bad = copy.deepcopy(base_dict)
    bad["sellers"][2]["source_id"] = "seller-5"
    with pytest.raises(ConfigError) as info:
        ScenarioConfig.from_dict(bad)
    assert "seller-5" in str(info.value)


def test_config_rejects_missing_source(base_dict):
    bad = copy.deepcopy(base_dict)
    bad["sellers"][2]["source_id"] = "nobody"
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict(bad)


def test_class_means_generator_form(base_dict):
    sparse = copy.deepcopy(base_dict)
    sparse["class_means"] = {"seed": 1797, "norm": 0.55}
    cfg = ScenarioConfig.from_dict(sparse)
    norms = np.linalg.norm(cfg.class_means, axis=1)
    np.testing.assert_allclose(norms, 0.55, rtol=1e-12)
    # the default scenario was materialized from the same generator
    np.testing.assert_allclose(cfg.class_means, default_scenario(1000).class_means, rtol=1e-15)


def test_build_datasets_roster(tmp_path):
    cfg = default_scenario(1000)
    datasets = build_datasets(cfg)
    assert list(datasets) == [BUYER_ID] + cfg.seller_ids()
    for data in datasets.values():
        assert data.count == 4096
        assert data.dim == 16


def test_build_datasets_deterministic():
    a = build_datasets(default_scenario(1000))
    b = build_datasets(default_scenario(1000))
    for node_id in a:
        np.testing.assert_array_equal(a[node_id].points, b[node_id].points)
        np.testing.assert_array_equal(a[node_id].labels, b[node_id].labels)


def test_build_datasets_varies_with_master_seed():
    a = build_datasets(default_scenario(1000))
    b = build_datasets(default_scenario(1001))
    assert np.any(a[BUYER_ID].points != b[BUYER_ID].points)


def test_augmented_copy_shares_signal_with_source():
    cfg = default_scenario(1000)
    datasets = build_datasets(cfg)
    s = cfg.signal_dims
    # seller-3 is the augmented copy of seller-2
    np.testing.assert_array_equal(
        datasets["seller-3"].points[:, :s], datasets["seller-2"].points[:, :s]
    )
    assert np.any(datasets["seller-3"].points[:, s:] != datasets["seller-2"].points[:, s:])
    np.testing.assert_array_equal(datasets["seller-3"].labels, datasets["seller-2"].labels)


def test_load_config_from_file(tmp_path, base_dict):
    import json

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(base_dict))
    cfg = ScenarioConfig.from_dict(load_json(path))
    assert cfg.to_dict() == base_dict

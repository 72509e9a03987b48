"""Unit tests for identifiers and configuration validation."""

import dataclasses

import pytest

from repro.config import GcConfig, NetworkConfig, SimulationConfig
from repro.errors import ConfigError
from repro.ids import FrameId, ObjectId, TraceId, coerce_object_id, parse_object_id


def test_object_id_round_trip():
    oid = ObjectId("siteX", 17)
    assert parse_object_id(str(oid)) == oid


def test_object_id_is_local_to():
    assert ObjectId("P", 0).is_local_to("P")
    assert not ObjectId("P", 0).is_local_to("Q")


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_object_id("nodot")


def test_coerce_accepts_both_forms():
    oid = ObjectId("P", 1)
    assert coerce_object_id(oid) is oid
    assert coerce_object_id("P.1") == oid


def test_ids_sort_deterministically():
    ids = [ObjectId("Q", 1), ObjectId("P", 2), ObjectId("P", 1)]
    assert sorted(ids) == [ObjectId("P", 1), ObjectId("P", 2), ObjectId("Q", 1)]


def test_trace_and_frame_ids_hashable_and_distinct():
    assert TraceId("P", 0) != TraceId("Q", 0)
    assert FrameId("P", 0) != FrameId("P", 1)
    assert len({TraceId("P", 0), TraceId("P", 0)}) == 1


def test_gc_config_defaults_valid():
    config = GcConfig()
    assert config.initial_back_threshold == (
        config.suspicion_threshold + config.assumed_cycle_length
    )


@pytest.mark.parametrize(
    "field,value",
    [
        ("suspicion_threshold", 0),
        ("assumed_cycle_length", 0),
        ("back_threshold_increment", 0),
        ("local_trace_period", 0.0),
        ("local_trace_period_jitter", -1.0),
        ("local_trace_duration", -1.0),
        ("backtrace_timeout", 0.0),
        ("backinfo_algorithm", "magic"),
    ],
)
def test_gc_config_rejects_bad_values(field, value):
    with pytest.raises(ConfigError):
        dataclasses.replace(GcConfig(), **{field: value})


def test_gc_config_duration_must_fit_in_period():
    with pytest.raises(ConfigError):
        GcConfig(local_trace_period=10.0, local_trace_duration=10.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"min_latency": -1.0},
        {"min_latency": 5.0, "max_latency": 1.0},
        {"drop_probability": 1.5},
    ],
)
def test_network_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        NetworkConfig(**kwargs)


def test_simulation_config_rejects_non_int_seed():
    with pytest.raises(ConfigError):
        SimulationConfig(seed="zero")


def test_configs_are_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        GcConfig().suspicion_threshold = 9


def test_ring_bytes_per_pair_must_hold_a_frame():
    with pytest.raises(ConfigError, match="ring_bytes_per_pair"):
        SimulationConfig(ring_bytes_per_pair=512)

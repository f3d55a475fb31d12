"""Tests for access-router secrets and AS pairwise keys."""

import pytest

from repro.crypto.keys import AccessRouterSecret, ASKeyRegistry
from repro.crypto.mac import quantize_ts


def test_secret_stable_within_rotation_interval():
    secret = AccessRouterSecret("Ra", rotation_interval=100.0, master=b"m")
    assert secret.current(10.0) == secret.current(99.0)


def test_secret_rotates_across_intervals():
    secret = AccessRouterSecret("Ra", rotation_interval=100.0, master=b"m")
    assert secret.current(10.0) != secret.current(150.0)


def test_timestamp_names_its_key_whatever_the_clock_says():
    """One key per timestamp: a later epoch's clock does not change it."""
    secret = AccessRouterSecret("Ra", rotation_interval=100.0, master=b"m")
    old = secret.current(90.0)
    assert secret.current(110.0) != old
    assert secret.current(90.0) == old  # asked again after the rotation


def test_epoch_is_a_function_of_the_quantized_timestamp():
    """The epoch boundary sits on the microsecond grid the wire carries."""
    secret = AccessRouterSecret("Ra", rotation_interval=100.0, master=b"m")
    assert secret.epoch_of(0.0) == 0
    assert secret.epoch_of(99.999999) == 0
    # 0.4 µs short of the boundary quantizes onto it, and so does what a
    # receiver reconstructs from the wire's integer microseconds.
    assert quantize_ts(100.0 - 0.4e-6) == 100_000_000
    assert secret.epoch_of(100.0 - 0.4e-6) == 1
    assert secret.current(100.0 - 0.4e-6) == secret.current(100.0)
    assert secret.epoch_of(-0.000001) == -1


@pytest.mark.parametrize("interval", [0.0, -1.0, 1e-7])
def test_rotation_interval_must_span_a_microsecond(interval):
    with pytest.raises(ValueError):
        AccessRouterSecret("Ra", rotation_interval=interval, master=b"m")


def test_different_routers_have_different_secrets():
    a = AccessRouterSecret("Ra", master=b"m")
    b = AccessRouterSecret("Rb", master=b"m")
    assert a.current(0.0) != b.current(0.0)


def test_as_keys_are_symmetric():
    registry = ASKeyRegistry(master=b"m")
    assert registry.key_for("AS1", "AS2") == registry.key_for("AS2", "AS1")


def test_as_keys_differ_per_pair():
    registry = ASKeyRegistry(master=b"m")
    assert registry.key_for("AS1", "AS2") != registry.key_for("AS1", "AS3")


def test_as_keys_differ_across_registries():
    assert ASKeyRegistry(master=b"m1").key_for("A", "B") != \
        ASKeyRegistry(master=b"m2").key_for("A", "B")


def test_as_key_cached_instance_is_stable():
    registry = ASKeyRegistry(master=b"m")
    assert registry.key_for("A", "B") is registry.key_for("B", "A")

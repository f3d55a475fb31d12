"""Property tests: the result store round-trips every experiment's rows.

Every registered experiment returns typed dataclass rows.  Whatever values
those fields take, a row list written to :class:`repro.store.ResultStore`
must come back field-for-field identical (same class, same values, schema
fingerprint intact) — and a record written under a *previous* shape of a
row class must be rejected: unpickling bypasses ``__init__``, so a stale
record would otherwise be served as an object missing its new fields.
"""

import dataclasses
import importlib
import typing
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.rows import row_schema
from repro.experiments.sweep import EXPERIMENT_MODULES, ScenarioSpec
from repro.store import ResultStore


def _registered_row_classes():
    """Every dataclass named ``*Row`` in a registered experiment module."""
    classes = {}
    for module_name in EXPERIMENT_MODULES:
        module = importlib.import_module(module_name)
        for obj in vars(module).values():
            if (isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__name__.endswith("Row")
                    and obj.__module__ == module_name):
                classes[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return [classes[name] for name in sorted(classes)]


ROW_CLASSES = _registered_row_classes()

_SCALAR_STRATEGIES = {
    bool: st.booleans(),
    int: st.integers(min_value=-10**9, max_value=10**9),
    float: st.floats(allow_nan=False, allow_infinity=False, width=64),
    str: st.text(max_size=16),
}


def _instances(row_cls):
    """Strategy producing instances of ``row_cls`` with arbitrary field values."""
    hints = typing.get_type_hints(row_cls)
    field_strategies = {}
    for field in dataclasses.fields(row_cls):
        field_type = hints[field.name]
        if field_type not in _SCALAR_STRATEGIES:  # pragma: no cover
            pytest.fail(f"{row_cls.__qualname__}.{field.name} has unsupported "
                        f"type {field_type!r}; extend _SCALAR_STRATEGIES")
        field_strategies[field.name] = _SCALAR_STRATEGIES[field_type]
    return st.builds(row_cls, **field_strategies)


def test_every_experiment_module_contributes_a_row_class():
    """The sweep registry and this test must not drift apart silently."""
    assert len(ROW_CLASSES) >= 7
    covered = {cls.__module__ for cls in ROW_CLASSES}
    # fig13/fig14 reuse ParkingLotRow; every other module defines its own.
    assert len(covered) >= len(EXPERIMENT_MODULES) - 2


@pytest.mark.parametrize("row_cls", ROW_CLASSES,
                         ids=lambda cls: cls.__qualname__)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_store_round_trips_registered_row_dataclasses(tmp_path, row_cls, data):
    rows = data.draw(st.lists(_instances(row_cls), min_size=1, max_size=3))
    store = ResultStore(str(tmp_path / "roundtrip.sqlite"))
    spec = ScenarioSpec.make("_prop_roundtrip", token=uuid.uuid4().hex)
    store.put(spec, rows)
    fetched = store.get(spec)
    assert fetched is not None
    assert len(fetched) == len(rows)
    for original, restored in zip(rows, fetched):
        assert type(restored) is type(original)
        for field in dataclasses.fields(row_cls):
            assert getattr(restored, field.name) == getattr(original, field.name)
    assert row_schema(fetched) == row_schema(rows)


@pytest.mark.parametrize("row_cls", ROW_CLASSES,
                         ids=lambda cls: cls.__qualname__)
def test_store_rejects_rows_stored_under_a_stale_schema(tmp_path, row_cls):
    """Simulate the row class having *gained a field* since the write by
    rewriting the stored fingerprint to the previous (smaller) shape."""
    import sqlite3

    store = ResultStore(str(tmp_path / "stale.sqlite"))
    hints = typing.get_type_hints(row_cls)
    sample = row_cls(**{
        field.name: {bool: True, int: 1, float: 1.0, str: "x"}[hints[field.name]]
        for field in dataclasses.fields(row_cls)})
    spec = ScenarioSpec.make("_prop_stale", token=row_cls.__qualname__)
    store.put(spec, [sample])
    assert store.get(spec) == [sample]

    # Rewrite the fingerprint as if written before the last field existed.
    (module, qualname, fields), = row_schema([sample])
    stale = repr(((module, qualname, fields[:-1]),))
    with sqlite3.connect(store.path) as conn:
        conn.execute("UPDATE points SET row_schema = ?", (stale,))
    assert store.get(spec) is None

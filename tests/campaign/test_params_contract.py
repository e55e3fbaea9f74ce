"""Regression guard: every experiment's params class stays campaign-safe.

The campaign machinery fingerprints tasks from params content and ships
params across process boundaries, which only works while every ``*Params``
dataclass is frozen (hashable, immutable) and carries an explicit ``seed``
field.  This test pins that contract for all registered experiments.
"""

import dataclasses

import pytest

from repro.campaign import registry

ALL_EXPERIMENTS = registry.names(include_hidden=True)


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_params_are_frozen_and_seeded(name):
    adapter = registry.get(name)
    cls = adapter.params_cls()
    assert dataclasses.is_dataclass(cls)
    assert cls.__dataclass_params__.frozen, \
        f"{cls.__name__} must be frozen=True for campaign fingerprinting"

    params = cls()
    hash(params)  # frozen dataclasses are hashable

    field_names = {f.name for f in dataclasses.fields(cls)}
    assert "seed" in field_names, f"{cls.__name__} needs a seed field"

    reseeded = dataclasses.replace(params, seed=1)
    assert reseeded.seed == 1
    assert cls() == cls()  # value equality, not identity

    with pytest.raises(dataclasses.FrozenInstanceError):
        params.seed = 2


@pytest.mark.parametrize("name", ALL_EXPERIMENTS)
def test_grid_axis_fields_hold_tuples(name):
    # Axis fields must default to tuples (hashable, JSON-expandable).
    adapter = registry.get(name)
    params = adapter.params_cls()()
    for axis, field in adapter.axes:
        values = getattr(params, field)
        assert isinstance(values, tuple), (name, field)
        assert len(values) >= 1, (name, field)

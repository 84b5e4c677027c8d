"""Scenario spec parsing."""

from __future__ import annotations

import json
from datetime import date

import pytest

from schoolsense.model import Orientation
from schoolsense.synthgen import RoomSpec, ScenarioError, ScenarioSpec, SiteSpec

MINIMAL = {"seed": 1, "start": "2017-10-02", "days": 3,
           "sites": [{"site_id": "s1", "rooms": [{"room_id": "a"}]}]}


def test_minimal_spec_takes_the_dataclass_defaults():
    assert ScenarioSpec.from_json(json.dumps(MINIMAL)) == ScenarioSpec(
        seed=1, start=date(2017, 10, 2), days=3,
        sites=(SiteSpec("s1", rooms=(RoomSpec("a"),)),))


def test_spec_values_take_the_type_of_their_default():
    doc = dict(MINIMAL, sensing_rate="600", noise_sigma=1,
               sites=[{"site_id": "s1", "latitude": 40, "tz_offset_minutes": "60",
                       "rooms": [{"room_id": "a", "orientation": "W", "occupant_events": 2.0}]}])
    spec = ScenarioSpec.from_json(json.dumps(doc))
    site, room = spec.sites[0], spec.sites[0].rooms[0]
    assert (spec.sensing_rate, spec.noise_sigma) == (600, 1.0)
    assert type(spec.noise_sigma) is float
    assert (site.latitude, site.tz_offset_minutes) == (40.0, 60)
    assert type(site.latitude) is float
    assert (room.orientation, room.occupant_events) == (Orientation.W, 2)
    assert type(room.occupant_events) is int


@pytest.mark.parametrize("site, message", [
    ({"rooms": []}, "missing field 'site_id'"),
    ({"site_id": "s1", "latitude": "north"}, "bad scenario field"),
    ({"site_id": "s1", "rooms": [{"room_id": "a", "orientation": "up"}]}, "bad scenario field"),
])
def test_bad_spec_raises_scenario_error(site, message):
    with pytest.raises(ScenarioError, match=message):
        ScenarioSpec.from_json(json.dumps(dict(MINIMAL, sites=[site])))

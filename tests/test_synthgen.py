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
    doc = dict(MINIMAL, sensing_rate=600, noise_sigma=1,
               sites=[{"site_id": "s1", "latitude": 40, "tz_offset_minutes": 60,
                       "cold_climate": True,
                       "rooms": [{"room_id": "a", "orientation": "W", "occupant_events": 2,
                                  "blinds": False}]}])
    spec = ScenarioSpec.from_json(json.dumps(doc))
    site, room = spec.sites[0], spec.sites[0].rooms[0]
    assert (spec.sensing_rate, spec.noise_sigma) == (600, 1.0)
    assert type(spec.noise_sigma) is float
    assert (site.latitude, site.tz_offset_minutes, site.cold_climate) == (40.0, 60, True)
    assert type(site.latitude) is float
    assert (room.orientation, room.occupant_events, room.blinds) == (Orientation.W, 2, False)
    assert type(room.occupant_events) is int


SITE = MINIMAL["sites"][0]
ROOM = SITE["rooms"][0]


@pytest.mark.parametrize("doc, field", [
    (dict(MINIMAL, seed=1.7), "seed"),
    (dict(MINIMAL, seed=True), "seed"),
    (dict(MINIMAL, days=2.9), "days"),
    (dict(MINIMAL, days="3"), "days"),
    (dict(MINIMAL, sensing_rate="600"), "sensing_rate"),
    (dict(MINIMAL, noise_sigma=False), "noise_sigma"),
    (dict(MINIMAL, sites=[dict(SITE, cold_climate="false")]), "cold_climate"),
    (dict(MINIMAL, sites=[dict(SITE, cold_climate=0)]), "cold_climate"),
    (dict(MINIMAL, sites=[dict(SITE, tz_offset_minutes="60")]), "tz_offset_minutes"),
    (dict(MINIMAL, sites=[dict(SITE, latitude=None)]), "latitude"),
    (dict(MINIMAL, sites=[dict(SITE, rooms=[dict(ROOM, blinds="no")])]), "blinds"),
    (dict(MINIMAL, sites=[dict(SITE, rooms=[dict(ROOM, occupant_events=2.9)])]),
     "occupant_events"),
    (dict(MINIMAL, sites=[dict(SITE, rooms=[dict(ROOM, insulation=1)])]), "insulation"),
    (dict(MINIMAL, sites=[dict(SITE, rooms=[dict(ROOM, orientation=["W"])])]), "orientation"),
])
def test_spec_values_must_have_their_json_type(doc, field):
    with pytest.raises(ScenarioError, match=f"bad scenario field: {field} must be"):
        ScenarioSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("site, message", [
    ({"rooms": []}, "missing field 'site_id'"),
    ({"site_id": "s1", "latitude": "north"}, "bad scenario field"),
    ({"site_id": "s1", "rooms": [{"room_id": "a", "orientation": "up"}]}, "bad scenario field"),
])
def test_bad_spec_raises_scenario_error(site, message):
    with pytest.raises(ScenarioError, match=message):
        ScenarioSpec.from_json(json.dumps(dict(MINIMAL, sites=[site])))

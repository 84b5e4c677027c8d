"""Benchmark workloads: scenario specs for `schoolsense synth` plus the run plan.

Each workload pins its scenario seed, so its inputs are byte-identical on
every run and can be checked against `inputs.lock.json`.  Why each one
exists is stated in BENCHMARK.json and beside its definition below.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date, timedelta

# Room mix repeated at every site: insulation, blinds and facade vary so that
# both room-anomaly detectors have true positives and true negatives.
ROOM_MIX = (
    {"room_id": "a", "orientation": "S", "insulation": "poor", "blinds": True},
    {"room_id": "b", "orientation": "W", "insulation": "good", "blinds": False},
    {"room_id": "c", "orientation": "N", "insulation": "good", "blinds": True},
    {"room_id": "d", "orientation": "SE", "insulation": "poor", "blinds": False},
    {"room_id": "e", "orientation": "E", "insulation": "good", "blinds": False},
    {"room_id": "f", "orientation": "NW", "insulation": "good", "blinds": True},
)

SITE_NAMES = ("s1", "s2", "s3", "s4")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    start: date
    days: int
    sensing_rate: int
    rooms_per_site: int
    tz_offsets: tuple[int, ...]
    outage: float
    zero_rate: float
    spike_rate: float
    events_per_room: int
    resend_days: int = 0  # extra measurements file re-sending the last N days

    def spec(self) -> dict:
        """The scenario spec JSON document that `schoolsense synth` reads."""
        sites = []
        for name, tz in zip(SITE_NAMES, self.tz_offsets):
            rooms = [dict(r, occupant_events=self.events_per_room)
                     for r in ROOM_MIX[:self.rooms_per_site]]
            sites.append({
                "site_id": name,
                "tz_offset_minutes": tz,
                "outage_fraction": self.outage,
                "zero_error_rate": self.zero_rate,
                "spike_rate": self.spike_rate,
                "rooms": rooms,
            })
        return {
            "seed": self.seed,
            "start": self.start.isoformat(),
            "days": self.days,
            "sensing_rate": self.sensing_rate,
            "sites": sites,
        }

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.days)

    @property
    def comfort_start(self) -> date:
        """Comfort starts a week in, so its 7-day lookback is full."""
        return self.start + timedelta(days=7)


# Sizes are set so that a run of every workload fits the benchmark's time
# budget with three or more passes; sample counts are for the pinned inputs.
WORKLOADS = {
    # 111,264 samples.  The 60 s rate fills each 24 h IQR window with 1,440
    # samples and every row passes through the timestamp codec: codec, store
    # and flag_outliers dominate; comfort and the repair of rare flags idle.
    "dense-clean": Workload(
        name="dense-clean", seed=11, start=date(2017, 10, 2), days=9,
        sensing_rate=60, rooms_per_site=2, tz_offsets=(0, 120),
        outage=0.15, zero_rate=0.002, spike_rate=0.001, events_per_room=2),
    # 86,496 samples.  Heavy outage makes fill_missing impute the most, and
    # imputed values create false events; comfort scores the most room-days;
    # IQR windows are small (144 samples).
    "gappy-long": Workload(
        name="gappy-long", seed=12, start=date(2017, 9, 4), days=56,
        sensing_rate=600, rooms_per_site=2, tz_offsets=(0, 60, -300),
        outage=0.35, zero_rate=0.002, spike_rate=0.001, events_per_room=6),
    # 146,456 rows in, 97,674 unique samples.  About 3 % of samples are
    # flagged, which feeds replace_outliers and the sequential spike path, and
    # a third file re-sends the last week through ingest's last-wins merge.
    "dirty-resend": Workload(
        name="dirty-resend", seed=13, start=date(2017, 10, 2), days=14,
        sensing_rate=120, rooms_per_site=2, tz_offsets=(0, 120),
        outage=0.05, zero_rate=0.03, spike_rate=0.02, events_per_room=2,
        resend_days=7),
}

# A scenario small enough for the self-test to run every stage in seconds.
TINY = Workload(
    name="tiny", seed=5, start=date(2017, 10, 2), days=9, sensing_rate=600,
    rooms_per_site=2, tz_offsets=(0,), outage=0.1, zero_rate=0.01,
    spike_rate=0.01, events_per_room=1)

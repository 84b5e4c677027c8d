"""The per-sample loop of `performance`'s occupant-event search, kept as a test oracle.

`detect_occupant_events` ran this loop before it became array code: one
`searchsorted` and one `argmin` for every sample. The array detector must
return exactly what it returns: the same trough times and the same `fall`
floats. Only the function name differs from the loop's original.
"""

from __future__ import annotations

import numpy as np

from schoolsense.model import TimeSeries
from schoolsense.performance import OccupantEvent


def oracle_detect_occupant_events(
    series: TimeSeries,
    drop: float = 2.0,
    within_minutes: float = 30.0,
    *,
    recovery_fraction: float = 0.5,
    recovery_minutes: float = 120.0,
    sustain_minutes: float = 10.0,
) -> list[OccupantEvent]:
    """Sharp drop-and-recover events, the signature of an opened window.

    An event is a fall of at least `drop` degC within `within_minutes`
    that recovers at least `recovery_fraction` of the fall within
    `recovery_minutes` of the trough; slow weather-front declines fail the
    first test, persistent cooling fails the second. The drop must also be
    sustained: at least two samples within `sustain_minutes` of the trough
    sit below half depth, so a single repaired or glitched sample cannot
    masquerade as an opened window.
    """
    times = series.times
    values = series.values
    n = len(series)
    within_s = int(within_minutes * 60)
    recovery_s = int(recovery_minutes * 60)
    sustain_s = int(sustain_minutes * 60)
    events: list[OccupantEvent] = []
    i = 0
    while i < n:
        j_end = int(np.searchsorted(times, times[i] + within_s, side="right"))
        if j_end - i >= 2:
            j = i + int(np.argmin(values[i:j_end]))
            fall = float(values[i] - values[j])
            if fall >= drop:
                lo = int(np.searchsorted(times, times[j] - sustain_s, side="left"))
                hi = int(np.searchsorted(times, times[j] + sustain_s, side="right"))
                half_depth = values[i] - 0.5 * fall
                sustained = int(np.sum(values[lo:hi] <= half_depth)) >= 2
                k_end = int(np.searchsorted(times, times[j] + recovery_s, side="right"))
                target = values[j] + recovery_fraction * fall
                recovered = np.flatnonzero(values[j:k_end] >= target)
                if sustained and len(recovered):
                    k = j + int(recovered[0])
                    events.append(OccupantEvent(time=int(times[j]), fall=fall))
                    i = k + 1
                    continue
        i += 1
    return events

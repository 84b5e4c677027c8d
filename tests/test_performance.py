from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schoolsense
from schoolsense.model import Orientation
from schoolsense.performance import ORIENTATION_TEMPLATE, orientation_gain
from schoolsense.synthgen import GAIN_TIME_CONSTANT_S, _thermal_lag


def _scalar_gain(hour: float, orientation: Orientation) -> float:
    """Half-sine template evaluated one hour at a time."""
    peak, amplitude = ORIENTATION_TEMPLATE[orientation]
    phase = (hour - (peak - 6.0)) / 12.0
    if not 0.0 <= phase <= 1.0:
        return 0.0
    return amplitude * math.sin(math.pi * phase)


@pytest.mark.parametrize("orientation", list(Orientation))
def test_orientation_gain_matches_scalar_half_sine(orientation):
    peak, _ = ORIENTATION_TEMPLATE[orientation]
    # the half-hours solar_gain_correlation uses, phase 0 and 1, and just outside
    hours = np.concatenate((
        np.arange(24) + 0.5,
        [peak - 6.0, peak + 6.0, peak - 6.0 - 1e-9, peak + 6.0 + 1e-9, peak]))
    got = orientation_gain(hours, orientation)
    assert got.tolist() == [_scalar_gain(h, orientation) for h in hours.tolist()]


@pytest.mark.parametrize("rate", [60, 600])
def test_thermal_lag_matches_lfilter(rate):
    signal = pytest.importorskip("scipy.signal")
    x = np.random.default_rng(rate).uniform(0.0, 4.0, 3000)
    alpha = float(np.exp(-rate / GAIN_TIME_CONSTANT_S))
    expected = signal.lfilter([1.0 - alpha], [1.0, -alpha], x)
    expected += alpha * x[0] * alpha ** np.arange(len(x))
    assert np.array_equal(_thermal_lag(x, rate), expected)


def test_thermal_lag_empty_input():
    assert len(_thermal_lag(np.empty(0), 600)) == 0


def test_cli_import_does_not_load_scipy():
    src = str(Path(schoolsense.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    # hashlib loads OpenSSL, about 3.6 MB of RSS per command; the store uses zlib.crc32
    code = ("import sys, schoolsense.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'hashlib')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "[]"

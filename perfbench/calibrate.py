"""Host-speed calibration for timings taken on a shared machine.

On the small shared virtual machine this benchmark was built on, the same
round of CLI calls ran up to 1.7 times faster in one minute than in the
next, so raw wall times from runs minutes apart cannot be compared within
a useful bound. ``probe()`` times a fixed loop with the program's mix of
work: greedy box overlap in plain Python, a JSON round trip and a small
complex matrix product in numpy. The benchmark runs it right before and
after every timed step and scales the step's wall time by
``REFERENCE_S / mean(probe before, probe after)``: the time the step would
have taken on a host where the probe takes ``REFERENCE_S``. The probe is
fixed code, so a change to the program moves the scaled time exactly as it
moves the raw time.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_S = 0.05
_BOXES = [((i * 37) % 500 + 0.5, (i * 53) % 300 + 0.25, 40.0 + i % 60, 80.0 + i % 90)
          for i in range(2000)]
_PHASE = np.linspace(0.0, 6.0, 4096).reshape(64, 64)


def probe() -> float:
    """Seconds one pass of the fixed calibration loop takes now."""
    start = time.perf_counter()
    kept: list[tuple[float, float, float, float]] = []
    for b in sorted(_BOXES, key=lambda b: -b[2] * b[3]):
        for k in kept[-20:]:
            ix = min(b[0] + b[2], k[0] + k[2]) - max(b[0], k[0])
            iy = min(b[1] + b[3], k[1] + k[3]) - max(b[1], k[1])
            inter = ix * iy if ix > 0 and iy > 0 else 0.0
            if inter / (b[2] * b[3] + k[2] * k[3] - inter) >= 0.5:
                break
        else:
            kept.append(b)
    json.loads(json.dumps([{"bbox": list(b), "score": b[2] / 100.0} for b in _BOXES]))
    basis = np.exp(1j * _PHASE)
    for _ in range(4):
        np.abs(basis @ basis).max()
    return time.perf_counter() - start


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` at reference host speed, given the probes around it."""
    return wall * REFERENCE_S * 2.0 / (before + after)

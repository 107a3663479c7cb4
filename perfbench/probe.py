"""Host-speed probe: how fast this host runs ricensim-like code right now.

The benchmark's host is shared, and the same code runs up to twice as
slowly while neighbours are busy. Invocation rates are scaled by the
probe's time measured around them; see README.md.
"""
from __future__ import annotations

import time

import numpy as np

#: ``probe_s`` on an undisturbed core of the host the benchmark was written
#: on (2-vCPU Intel Xeon VM); ``rollouts_per_s`` is scaled to that speed.
PROBE_REF_S = 0.006

_PROBE_Y = np.linspace(1.0, 2.0, 27)
_PROBE_RATES = (np.arange(27) % 10) / 10.0


def probe_s() -> float:
    """Seconds for a fixed imitation of the engine's trade step: NumPy calls
    on 27-vectors and 27 x 27 matrices. It shares no code with ricensim, so
    no change to the program moves it."""
    y, r = _PROBE_Y, _PROBE_RATES
    start = time.perf_counter()
    acc = 0.0
    for _ in range(200):
        g = 3.0 * y**0.3 * y**0.7
        demand = r[:, None] * (0.1 * g)[:, None] * (g[None, :] / (g.sum() - g)[:, None])
        col = demand.sum(axis=0)
        scaled = demand * np.where(col > 0.0, np.minimum(1.0, g / col), 0.0)[None, :]
        clamp = np.clip(1.0 + scaled.sum(axis=1) / (10.0 * g), 0.5, 1.5)
        acc += float(np.maximum(g - scaled.sum(axis=0), 0.0).sum() + clamp.sum())
    return time.perf_counter() - start

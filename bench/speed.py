"""A speed probe: rescales measured times to a fixed machine speed.

The sandbox this benchmark was written on (a 2-vCPU KVM guest on a 2.1 GHz
Xeon) runs the same Python code up to about 1.6 times slower during spells
that last from seconds to minutes, which moved the medians of repeated
runs by up to 30%.  The benchmark therefore times a fixed pure-Python
rational loop next to the queries: every query's time is multiplied by
``REFERENCE_S / probe``, where ``probe`` is the loop's recent time.  A
change to the program moves the rescaled times as it moves the raw ones;
a slow spell moves the probe too and cancels out.  The raw times are
reported beside the rescaled ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# The probe's time on that machine outside slow spells, in seconds.
REFERENCE_S = 0.001


def probe_s() -> float:
    """Seconds taken by one run of the fixed loop (rationals, dict, tuples)."""
    t0 = time.perf_counter()
    s = Fraction(0)
    d: dict[int, tuple] = {}
    for i in range(1, 400):
        s += Fraction(1, i % 97 + 1)
        d[i % 13] = (i, d.get(i % 13, (0,))[0])
    return time.perf_counter() - t0

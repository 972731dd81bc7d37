"""Host speed, measured by a fixed pure-Python computation.

On a shared host, other tenants were seen to slow this process down by up
to two times, for minutes at a time, with no steal time showing in the
guest: the shared cores just run slower.  The harness runs `reference()`
between cases, about every half second of case time, so the reference
samples the host at the same moments as the program.  `scale()` turns the
reference times of a pass into the factor REFERENCE_S / (their mean), and
the benchmark multiplies the pass's times by it.  A time is then given in
seconds at the host speed at which `reference()` takes REFERENCE_S.

The reference mixes the kinds of work the program does: products of
big-integer polynomials (as in the k-count arithmetic), building small
frozensets, tuples and dict entries (as in circuit rebuilds), and bit
operations on integers thousands of bits wide (as in truth tables).  It is
part of the benchmark and never calls the program, so a change to the
program cannot change it.
"""

from __future__ import annotations

from math import comb
from time import perf_counter

# nominal seconds per reference() run; on a 2-vCPU Intel Xeon (Sapphire
# Rapids) guest under CPython 3.11 it took 21 ms when the host was quiet and
# up to 48 ms when it was busy
REFERENCE_S = 0.025


def reference() -> int:
    poly = [1]
    for b in (9, 13, 17, 21, 11, 15, 19, 23, 25, 27, 29, 31, 12, 14, 16, 18):
        factor = [comb(b, k) for k in range(b + 1)]
        factor[1] += 1
        out = [0] * (len(poly) + len(factor) - 1)
        for i, x in enumerate(poly):
            for j, y in enumerate(factor):
                out[i + j] += x * y
        poly = out
    scopes = [frozenset((0,))]
    table = {}
    for i in range(1, 1500):
        scope = scopes[i // 2] | scopes[(i * 7) // 11] | {i % 41}
        scopes.append(scope)
        table[(i, len(scope))] = tuple(sorted(scope))[:3]
    bits = 0
    for k in range(24):
        mask = 0
        for j in range(1 << 12):
            if j >> (k % 12) & 1:
                mask |= 1 << j
        bits ^= mask
    return len(poly) + len(table) + bits.bit_length()


def timed_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def scale(ref_times: list[float]) -> float:
    """Factor taking times measured alongside these reference runs to the
    host speed at which one run takes REFERENCE_S."""
    return REFERENCE_S * len(ref_times) / sum(ref_times)

"""Host-speed reference: a fixed block of CPU work timed beside each request.

A shared host changes speed for minutes at a time, when neighbours load the
cores this process shares: the same request can take 1.5x longer in one
stretch than in the next.  The reference block runs no code of the program,
so its time tracks the host alone.  The benchmark times it right before each
request and each set-up probe and scales that measurement by
``NOMINAL_S / reference``: every reported time is what it would have taken
on a host that runs the block in ``NOMINAL_S`` seconds.  A change to the
program moves the scaled times exactly as it moves the raw ones; a change of
host speed moves the reference with them and cancels.

The block mixes the three kinds of work the workloads do: interpreter-bound
Python, small NumPy calls (per-decision recovery) and array-wide NumPy
passes (batched kernels, forward kinematics).  Its inputs are fixed, so it
does the same work on every call.
"""

from __future__ import annotations

import time

import numpy as np

#: Reference-block time of the nominal host (a 2-vCPU Xeon VM, unloaded).
NOMINAL_S = 0.2

_RNG = np.random.default_rng(20220516)
_SMALL = _RNG.standard_normal((6, 6))
_VECTOR = _RNG.standard_normal(6)
_STACK = _RNG.standard_normal((64, 64, 4))
_SIGNAL = _RNG.standard_normal(200_000)


def _interpreter(n: int = 400_000) -> float:
    table: dict[int, float] = {}
    window: list[float] = []
    total = 0.0
    for i in range(n):
        total += (i * 1.000001) % 7.0
        table[i & 1023] = total
        window.append(total)
        if len(window) > 64:
            window.clear()
    return total


def _small_arrays(n: int = 20_000) -> float:
    vector = _VECTOR.copy()
    for _ in range(n):
        vector = np.tanh(_SMALL @ vector) * 0.5 + vector[::-1] * 0.1
    return float(vector.sum())


def _array_passes(n: int = 12) -> float:
    total = 0.0
    for _ in range(n):
        running = np.cumsum(np.sin(_SIGNAL) * 1.5 + _SIGNAL * _SIGNAL)
        total += float(np.einsum("ijk,jlk->k", _STACK, _STACK).sum()) + float(running[-1])
    return total


def reference_seconds() -> float:
    """Wall time of one reference block on this host, now."""
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _array_passes()
    return time.perf_counter() - start


def scale(reference: float) -> float:
    """Factor that turns a time measured beside ``reference`` into nominal-host time."""
    return NOMINAL_S / reference

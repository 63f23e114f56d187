"""Discrete-event simulation substrate.

This package replaces the CIW discrete-event simulation library used by the
paper.  It provides:

* :mod:`repro.des.distributions` — random variate generators (deterministic,
  exponential, uniform, hyper-exponential) with a uniform interface.
* :mod:`repro.des.engine` — a minimal but general event-calendar simulator,
  the substrate of the event-driven G/HEXP/1/Q reference queue the test
  suite checks the AP sampler against.  It is no longer the live service's
  clock: every arrival there is known up front, so the admission pass
  (:func:`repro.fleet.engine.admit_arrivals`) walks them in sorted order.
"""

from .distributions import (
    Deterministic,
    Distribution,
    Exponential,
    HyperExponential,
    UniformDistribution,
)
from .engine import Event, EventScheduler, Simulator

__all__ = [
    "Deterministic",
    "Distribution",
    "Exponential",
    "HyperExponential",
    "UniformDistribution",
    "Event",
    "EventScheduler",
    "Simulator",
]

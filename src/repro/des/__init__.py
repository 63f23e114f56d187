"""Discrete-event simulation substrate.

This package replaces the CIW discrete-event simulation library used by the
paper.  It provides:

* :mod:`repro.des.distributions` — random variate generators (deterministic,
  exponential, uniform, hyper-exponential) with a uniform interface.
* :mod:`repro.des.engine` — a minimal but general event-calendar simulator,
  the virtual clock of the live service's admission pass.
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

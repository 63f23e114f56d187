"""Named fleet presets.

The registry maps human-friendly names to :class:`FleetSpec` values so the
capacity-planning examples, the CLI (``foreco-experiments fleet``) and the
benchmarks share one vocabulary of service workloads:

``shared-ap``
    Four operators saturating one access point, all starting at once — the
    canonical coupled-contention workload (the AP is oversubscribed, so the
    shared backlog stretches everyone's delays).
``peak-hour``
    Eight operators arriving as a Poisson process over two APs with a tight
    admission cap — sessions overlap at the peak and some are dropped.
``diurnal-campus``
    Twelve operators following a diurnal load curve over three APs — the
    arrival-rate swing concentrates sessions near the peak of the curve.
``city-scale``
    Two thousand operators arriving Poisson over 256 APs, run through the
    **hybrid** exact/analytic tier (see :mod:`repro.fleet.hybrid`): the few
    saturated APs simulate exactly, the long cold tail is serviced by the
    analytic heavy-tail superposition model — the workload shape of the
    "fleets of millions" north star, at a cost a laptop can pay.

Use :func:`register_fleet` to add project-specific presets.
"""

from __future__ import annotations

from ..scenarios.registry import Registry, get_scenario
from .spec import FleetSpec

#: The fleet presets.
FLEETS: Registry[FleetSpec] = Registry("fleet", FleetSpec, "fleet")
register_fleet = FLEETS.register
get_fleet = FLEETS.get
fleet_names = FLEETS.names
fleet_catalog = FLEETS.catalog


def _register_builtins() -> None:
    """Register the built-in fleet presets."""
    register_fleet(
        FleetSpec(
            name="shared-ap",
            template=get_scenario("bursty-loss"),
            operators=4,
            aps=1,
            ap_capacity=4,
            ap_service_ms=6.0,
            arrival="simultaneous",
        ),
        "4 operators saturating one AP (oversubscribed shared backlog)",
    )
    register_fleet(
        FleetSpec(
            name="peak-hour",
            template=get_scenario("random-loss"),
            operators=8,
            aps=2,
            ap_capacity=3,
            ap_service_ms=5.0,
            arrival="poisson",
            arrival_rate_hz=0.4,
        ),
        "8 operators arriving Poisson over 2 capacity-limited APs (drops expected)",
    )
    register_fleet(
        FleetSpec(
            name="diurnal-campus",
            template=get_scenario("markov-interference"),
            operators=12,
            aps=3,
            ap_capacity=3,
            ap_service_ms=4.0,
            arrival="diurnal",
            arrival_rate_hz=0.3,
            diurnal_period_s=120.0,
            diurnal_amplitude=0.9,
        ),
        "12 operators on a diurnal load curve over 3 APs (peak-hour clustering)",
    )
    register_fleet(
        FleetSpec(
            name="city-scale",
            template=get_scenario("bursty-loss"),
            operators=2048,
            aps=256,
            ap_capacity=8,
            ap_service_ms=4.0,
            arrival="poisson",
            arrival_rate_hz=8.0,
            tier="hybrid",
            hot_threshold=0.6,
            cold_tail="heavy",
        ),
        "2048 operators Poisson over 256 APs via the hybrid exact/analytic tier",
    )


_register_builtins()

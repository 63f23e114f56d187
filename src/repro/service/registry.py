"""Named live-service presets.

The ``service-*`` family mirrors the scenario and fleet registries: each
preset is a fully-specified :class:`~repro.service.spec.ServiceSpec` fetched
by name, optionally re-parameterised (``policy=``, ``scale=``, ``seed=`` or
any :meth:`ServiceSpec.with_` keyword) without touching its identity
otherwise.  All three presets derive their workload from registered fleet
presets, so the service layer stays anchored to the same traffic models the
fleet experiments pin.
"""

from __future__ import annotations

from ..fleet.registry import get_fleet
from ..scenarios.registry import Registry
from .spec import ServiceSpec

#: The live-service presets.
SERVICES: Registry[ServiceSpec] = Registry("service", ServiceSpec, "service")
register_service = SERVICES.register
get_service = SERVICES.get
service_names = SERVICES.names
service_catalog = SERVICES.catalog


def _register_builtins() -> None:
    """Register the built-in service presets."""
    register_service(
        ServiceSpec(
            name="service-shared-ap",
            # The shared-ap workload widened to three APs and slowed-down
            # Poisson arrivals: sessions overlap only partially, so arrival
            # clusters overload one home AP while another still has slack —
            # the regime where migration beats the static rule.  The
            # policy-comparison experiment pins its ranking on this preset.
            fleet=get_fleet(
                "shared-ap",
                operators=12,
                aps=3,
                ap_capacity=3,
                arrival="poisson",
                arrival_rate_hz=0.3,
            ),
            policy="static-cap",
            # One session costs 0.3 of a command period of air time (6 ms /
            # 20 ms), so capacity 3 peaks at 0.9 utilisation: a 0.95 limit
            # lets the balancing policies use the full cap AND migrate,
            # instead of being strictly tighter than static-cap.
            utilization_limit=0.95,
        ),
        "oversubscribed shared-AP workload widened to 3 APs (policy-comparison anchor)",
    )
    register_service(
        ServiceSpec(
            name="service-peak-hour",
            fleet=get_fleet("peak-hour"),
            policy="utilization-threshold",
            utilization_limit=0.75,
        ),
        "peak-hour fleet operated under a 0.75 utilisation admission threshold",
    )
    register_service(
        ServiceSpec(
            name="service-diurnal",
            fleet=get_fleet("diurnal-campus"),
            policy="forecast-aware",
            forecast_record=8,
        ),
        "diurnal campus fleet with forecast-aware admission (FoReCo-style congestion prediction)",
    )


_register_builtins()

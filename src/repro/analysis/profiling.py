"""Timing profiles and hardware scaling for Tables I and II.

The paper profiles FoReCo's training pipeline on the robot's Raspberry Pi 3
(Table I) and compares training / inference times across four hardware tiers
(Table II): Raspberry Pi 3, NVIDIA Jetson Nano, a laptop and an edge server.

We obviously cannot run on that silicon, so the reproduction measures the
real pipeline on the current host and reports the other platforms through
**calibrated scale factors** derived from the paper's own numbers (training
times of 5.99 / 1.31 / 0.36 / 0.23 minutes respectively, i.e. roughly
26x / 5.7x / 1.6x / 1.0x relative to the edge server).  This keeps the
*relative ordering and ratios* of the paper while the absolute magnitude is
host-dependent — EXPERIMENTS.md records both.
"""

from __future__ import annotations

from dataclasses import dataclass

from .._validation import ensure_positive


@dataclass(frozen=True)
class HardwareProfile:
    """Relative speed of one hardware tier used in Table II.

    ``training_scale`` / ``inference_scale`` are multipliers applied to a
    timing measured on the reference platform (the paper's local edge server):
    a scale of 26 means "about 26 times slower than the edge server".
    """

    name: str
    description: str
    training_scale: float
    inference_scale: float

    def __post_init__(self) -> None:
        ensure_positive("training_scale", self.training_scale)
        ensure_positive("inference_scale", self.inference_scale)


#: Hardware tiers of Table II with scale factors calibrated from the paper's
#: own measurements (training: 5.99, 1.31, 0.36, 0.23 minutes; inference:
#: 1.60, 0.61, 0.22, 0.0001 ms).
HARDWARE_PROFILES: dict[str, HardwareProfile] = {
    "raspberry-pi3": HardwareProfile(
        name="Raspberry Pi3 (Robot)",
        description="1.2 GHz 64-bit quad core, 1 GB RAM — the Niryo One's on-board computer",
        training_scale=5.99 / 0.23,
        inference_scale=1.60 / 0.22,
    ),
    "jetson-nano": HardwareProfile(
        name="NVIDIA Jetson Nano (Robot)",
        description="quad-core A57 + 128-core Maxwell GPU, co-located with the robot",
        training_scale=1.31 / 0.23,
        inference_scale=0.61 / 0.22,
    ),
    "laptop": HardwareProfile(
        name="Laptop (UE)",
        description="2nd gen Intel Core i7, 6 GB RAM — the user equipment",
        training_scale=0.36 / 0.23,
        inference_scale=1.0,
    ),
    "edge-server": HardwareProfile(
        name="Local Server (Edge)",
        description="2x Intel Xeon E5-2620 v4, 64 GB RAM — the edge offload target",
        training_scale=1.0,
        inference_scale=0.0001 / 0.22,
    ),
}


def scale_timings_to_hardware(
    measured_training_s: float,
    measured_inference_ms: float,
    reference: str = "laptop",
) -> dict[str, dict[str, float]]:
    """Project host measurements onto the Table II hardware tiers.

    Parameters
    ----------
    measured_training_s:
        Training time measured on the current host (seconds).
    measured_inference_ms:
        Single-forecast inference time measured on the current host (ms).
    reference:
        Which tier the current host is assumed to correspond to (the paper's
        laptop is the closest match for a typical CI container).

    Returns
    -------
    dict
        ``{tier_key: {"training_min": ..., "inference_ms": ...}}`` for every
        tier in :data:`HARDWARE_PROFILES`.
    """
    if reference not in HARDWARE_PROFILES:
        raise KeyError(f"unknown reference tier {reference!r}; available: {sorted(HARDWARE_PROFILES)}")
    ref = HARDWARE_PROFILES[reference]
    # Normalise the host measurement back to the edge-server baseline, then
    # re-scale to every tier.
    base_training_s = measured_training_s / ref.training_scale
    base_inference_ms = measured_inference_ms / ref.inference_scale
    projected: dict[str, dict[str, float]] = {}
    for key, profile in HARDWARE_PROFILES.items():
        projected[key] = {
            "training_min": base_training_s * profile.training_scale / 60.0,
            "inference_ms": base_inference_ms * profile.inference_scale,
        }
    return projected

"""Render scenario sweep results into analysis artefacts.

The scenario layer returns a uniform :class:`~repro.scenarios.SweepResult`
table; this module turns such tables into the analysis-side structures the
figures are built from — currently :class:`HeatmapGrid` objects keyed by two
channel parameters (the Fig. 8 layout).

:func:`load_sweep` closes the loop with the persistent
:class:`~repro.scenarios.ResultStore`: it materialises a
:class:`~repro.scenarios.SweepResult` purely from stored rows, so figures
and tables re-render without recomputing a single session.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

from ..errors import ConfigurationError
from .heatmap import HeatmapGrid

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps import light
    from ..scenarios import ResultStore, ScenarioSpec, SweepResult


def heatmap_from_sweep(
    rows: Iterable,
    x_param: str = "probability",
    y_param: str = "duration_slots",
    metric: str = "rmse_foreco_mm",
    label: str = "",
) -> HeatmapGrid:
    """Aggregate session results into one parameter-grid heatmap.

    ``x_param``/``y_param`` name channel parameters of each row's spec
    (axis values are collected from the rows); ``metric`` names a
    per-repetition tuple attribute on the rows (``"rmse_foreco_mm"`` or
    ``"rmse_no_forecast_mm"``), every repetition contributing one sample to
    its cell.
    """
    rows = list(rows)
    if not rows:
        raise ConfigurationError("cannot build a heatmap from an empty sweep")
    points = []
    for row in rows:
        options = row.spec.channel.options()
        if x_param not in options or y_param not in options:
            raise ConfigurationError(
                f"row channel {row.spec.channel.describe()} lacks "
                f"parameter {x_param!r} or {y_param!r}"
            )
        points.append((float(options[x_param]), int(options[y_param]), getattr(row, metric)))
    xs = sorted({x for x, _, _ in points})
    ys = sorted({y for _, y, _ in points})
    grid = HeatmapGrid(xs, ys, label=label)
    for x, y, samples in points:
        for value in samples:
            grid.add_sample(x, y, float(value))
    return grid


def load_sweep(
    store: "ResultStore",
    specs: "Sequence[ScenarioSpec]",
    strict: bool = True,
) -> "SweepResult":
    """Materialise a sweep table purely from a persistent result store.

    Loads the stored row for every spec, in input order, without computing
    anything — the re-rendering path for figures and tables over sweeps that
    already ran (``SweepExecutor(store=...)`` or ``runner --store``).  With
    ``strict=True`` (default) a missing spec raises
    :class:`~repro.errors.ConfigurationError`; with ``strict=False`` missing
    specs are skipped and counted in the result's ``store_misses``.
    """
    from ..scenarios import SweepResult  # local import: analysis must stay light

    rows = []
    missing = []
    for spec in specs:
        row = store.get(spec)
        if row is None:
            missing.append(spec)
        else:
            rows.append(row)
    if missing and strict:
        raise ConfigurationError(
            f"{len(missing)} of {len(specs)} specs are not in the result store "
            f"(first missing: {missing[0].describe()}); run the sweep with this store "
            "first, or pass strict=False to render the stored subset"
        )
    return SweepResult(rows, store_hits=len(rows), store_misses=len(missing))

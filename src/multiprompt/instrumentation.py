"""Run-scoped counter aggregation and analytic-vs-measured comparison."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import IntensityError
from .kernels import COMPONENTS

_ATTENTION_COMPONENTS = ("encoder_self", "decoder_self", "decoder_cross")


@dataclass(frozen=True)
class ComponentCounters:
    flops: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_read + self.bytes_written

    def __add__(self, other: "ComponentCounters") -> "ComponentCounters":
        return ComponentCounters(
            self.flops + other.flops,
            self.bytes_read + other.bytes_read,
            self.bytes_written + other.bytes_written,
        )


@dataclass(frozen=True)
class CounterSet:
    """Immutable snapshot of per-component counters for one run (or phase).

    Component labels form a closed set; run totals are the sums of the
    component entries by construction.  ``provenance`` records the shape
    and model the run used, so comparisons can check they line up.
    """

    components: Mapping[str, ComponentCounters]
    provenance: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = set(self.components) - set(COMPONENTS)
        if unknown:
            raise ValueError(f"unknown component labels: {sorted(unknown)}")

    @classmethod
    def from_totals(
        cls,
        totals: Mapping[str, tuple[int, int, int]],
        provenance: Mapping[str, Any] | None = None,
    ) -> "CounterSet":
        return cls(
            components={k: ComponentCounters(*v) for k, v in totals.items()},
            provenance=dict(provenance or {}),
        )

    def component(self, label: str) -> ComponentCounters:
        return self.components.get(label, ComponentCounters())

    @property
    def flops(self) -> int:
        return sum(c.flops for c in self.components.values())

    @property
    def bytes_read(self) -> int:
        return sum(c.bytes_read for c in self.components.values())

    @property
    def bytes_written(self) -> int:
        return sum(c.bytes_written for c in self.components.values())

    def merge(self, other: "CounterSet") -> "CounterSet":
        """Counters of two sequential runs, combined exactly."""
        labels = set(self.components) | set(other.components)
        merged = {lab: self.component(lab) + other.component(lab) for lab in labels}
        prov = dict(self.provenance)
        prov.update({f"merged.{k}": v for k, v in other.provenance.items()})
        return CounterSet(components=merged, provenance=prov)

    def to_dict(self) -> dict:
        return {
            "components": {
                label: {
                    "flops": c.flops,
                    "bytes_read": c.bytes_read,
                    "bytes_written": c.bytes_written,
                }
                for label, c in sorted(self.components.items())
            },
            "totals": {
                "flops": self.flops,
                "bytes_read": self.bytes_read,
                "bytes_written": self.bytes_written,
            },
            "provenance": dict(self.provenance),
        }


def measured_intensity(counters: CounterSet, component: str | None = None) -> float:
    """Operations per byte of memory traffic (reads plus writes).

    ``component=None`` uses run totals (summed numerators and denominators).
    Raises :class:`IntensityError` when the byte count is zero.
    """
    if component is None:
        flops, nbytes = counters.flops, counters.bytes_read + counters.bytes_written
        what = "run totals"
    else:
        c = counters.component(component)
        flops, nbytes = c.flops, c.bytes_total
        what = component
    if nbytes == 0:
        raise IntensityError(f"intensity undefined for {what}: zero bytes of traffic")
    return flops / nbytes


@dataclass(frozen=True)
class DeviationRow:
    component: str
    analytic: int | None
    measured: int | None
    deviation: float | None
    missing: bool
    passed: bool


@dataclass(frozen=True)
class DeviationReport:
    """Per-component relative deviation of analytic counts from measurement."""

    rows: tuple[DeviationRow, ...]
    threshold: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "passed": self.passed,
            "rows": [
                {
                    "component": r.component,
                    "analytic": r.analytic,
                    "measured": r.measured,
                    "deviation": r.deviation,
                    "missing": r.missing,
                    "passed": r.passed,
                }
                for r in self.rows
            ],
        }


def _deviation(analytic: int, measured: int) -> float:
    return abs(analytic - measured) / max(measured, 1)


def compare(analytic, measured: CounterSet, threshold: float = 0.15) -> DeviationReport:
    """Compare a cost-model breakdown against measured counters.

    ``analytic`` is a :class:`multiprompt.costmodel.CostBreakdown`; its
    per-layer attention flop estimates are scaled by the layer counts
    recorded in the measured provenance (``n_enc_layers``/``n_dec_layers``).
    One row per attention component; components absent on either side
    produce a flagged (failing) row rather than being dropped.
    """
    prov = measured.provenance
    if "n_enc_layers" not in prov or "n_dec_layers" not in prov:
        raise ValueError("measured provenance must record n_enc_layers and n_dec_layers")
    layer_mult = {
        "encoder_self": int(prov["n_enc_layers"]),
        "decoder_self": int(prov["n_dec_layers"]),
        "decoder_cross": int(prov["n_dec_layers"]),
    }
    analytic_flops = analytic.attention_flops_per_layer()
    rows = []
    for label in _ATTENTION_COMPONENTS:
        a = analytic_flops.get(label)
        m = measured.components.get(label)
        if a is None or m is None:
            rows.append(
                DeviationRow(label, a if a is None else a * layer_mult[label],
                             None if m is None else m.flops, None, True, False)
            )
            continue
        a_total = a * layer_mult[label]
        dev = _deviation(a_total, m.flops)
        rows.append(DeviationRow(label, a_total, m.flops, dev, False, dev <= threshold))
    return DeviationReport(rows=tuple(rows), threshold=threshold)

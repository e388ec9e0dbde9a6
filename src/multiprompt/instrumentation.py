"""Run-scoped counter snapshots and measured intensity."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import IntensityError
from .kernels import COMPONENTS


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
    component entries by construction.
    """

    components: Mapping[str, ComponentCounters]

    def __post_init__(self) -> None:
        unknown = set(self.components) - set(COMPONENTS)
        if unknown:
            raise ValueError(f"unknown component labels: {sorted(unknown)}")

    @classmethod
    def from_totals(cls, totals: Mapping[str, tuple[int, int, int]]) -> "CounterSet":
        return cls(components={k: ComponentCounters(*v) for k, v in totals.items()})

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
        return CounterSet({lab: self.component(lab) + other.component(lab) for lab in labels})

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

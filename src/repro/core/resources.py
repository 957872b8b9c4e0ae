"""Resource descriptors for the market.

A market sells ``M`` divisible resources; each has a name, a total
capacity ``C_j`` and a unit label.  In the multicore instantiation the
two resources are the shared last-level cache capacity (bytes) and the
chip power budget (watts) that remain after every core's free minimum
(Section 4.1 of the paper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from ..exceptions import MarketConfigurationError

__all__ = ["Resource", "ResourceSet"]


@dataclass(frozen=True)
class Resource:
    """A single divisible resource with total capacity ``capacity``."""

    name: str
    capacity: float
    unit: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.capacity < math.inf:
            raise MarketConfigurationError(
                f"resource {self.name!r} must have finite positive capacity, got {self.capacity}"
            )


@dataclass(frozen=True)
class ResourceSet:
    """An ordered collection of the resources a market sells."""

    resources: tuple = field(default_factory=tuple)

    @classmethod
    def of(cls, *resources: Resource) -> "ResourceSet":
        return cls(tuple(resources))

    def __post_init__(self) -> None:
        if not self.resources:
            raise MarketConfigurationError("a market needs at least one resource")
        names = [r.name for r in self.resources]
        if len(set(names)) != len(names):
            raise MarketConfigurationError(f"duplicate resource names: {names}")

    def __len__(self) -> int:
        return len(self.resources)

    def __iter__(self) -> Iterator[Resource]:
        return iter(self.resources)

    def __getitem__(self, index: int) -> Resource:
        return self.resources[index]

    @property
    def names(self) -> Sequence[str]:
        return [r.name for r in self.resources]

    @property
    def capacities(self) -> np.ndarray:
        """Capacity vector ``C`` (length M)."""
        return np.array([r.capacity for r in self.resources], dtype=float)

    def index_of(self, name: str) -> int:
        for j, r in enumerate(self.resources):
            if r.name == name:
                return j
        raise KeyError(name)

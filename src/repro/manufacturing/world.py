"""A deterministic ground-truth world with attribute volatility.

The world holds entities (keyed dictionaries of attribute values) and a
per-attribute :class:`AttributeSpec` describing how the true value
drifts over time.  Advancing the clock mutates values with a seeded RNG
and records every change, so experiments can ask both "what is true
now?" and "what was true on day D?" — the latter is what a source with
latency actually observed.
"""

from __future__ import annotations

import datetime as _dt
import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.errors import ManufacturingError

#: A mutator: (rng, old value) → new value.
Mutator = Callable[[random.Random, Any], Any]


@dataclass(frozen=True)
class AttributeSpec:
    """Volatility model for one attribute.

    ``daily_change_probability`` is the chance the true value changes on
    any given day; ``mutate`` produces the new value.  Low-volatility
    attributes (addresses) use small probabilities; high-volatility ones
    (share prices) change nearly every day.
    """

    name: str
    daily_change_probability: float
    mutate: Mutator

    def __post_init__(self) -> None:
        if not 0.0 <= self.daily_change_probability <= 1.0:
            raise ManufacturingError(
                f"change probability for {self.name!r} must be in [0, 1]"
            )


@dataclass(frozen=True)
class ChangeRecord:
    """One recorded change of the true world."""

    day: _dt.date
    key: Any
    attribute: str
    old_value: Any
    new_value: Any


class World:
    """Ground truth: entities whose attributes drift deterministically.

    Parameters
    ----------
    start_day:
        The simulation's first day.
    entities:
        Initial truth: key → {attribute: value}.
    specs:
        Volatility model per mutable attribute; attributes without a
        spec never change.
    seed:
        RNG seed (runs with equal seeds are identical).
    """

    def __init__(
        self,
        start_day: _dt.date,
        entities: Mapping[Any, Mapping[str, Any]],
        specs: Sequence[AttributeSpec] = (),
        seed: int = 0,
    ) -> None:
        if not entities:
            raise ManufacturingError("world requires at least one entity")
        self.start_day = start_day
        self.today = start_day
        self._entities: dict[Any, dict[str, Any]] = {
            key: dict(values) for key, values in entities.items()
        }
        self._specs: dict[str, AttributeSpec] = {}
        for spec in specs:
            if spec.name in self._specs:
                raise ManufacturingError(f"duplicate attribute spec {spec.name!r}")
            self._specs[spec.name] = spec
        self._rng = random.Random(seed)
        self._history: list[ChangeRecord] = []

    # -- time ------------------------------------------------------------------

    def advance(self, days: int = 1) -> list[ChangeRecord]:
        """Advance the clock, mutating volatile attributes; returns changes."""
        if days < 0:
            raise ManufacturingError("cannot advance by negative days")
        changes: list[ChangeRecord] = []
        for _ in range(days):
            self.today = self.today + _dt.timedelta(days=1)
            for key in sorted(self._entities, key=repr):
                values = self._entities[key]
                for name, spec in self._specs.items():
                    if name not in values:
                        continue
                    if self._rng.random() < spec.daily_change_probability:
                        old = values[name]
                        new = spec.mutate(self._rng, old)
                        values[name] = new
                        record = ChangeRecord(self.today, key, name, old, new)
                        changes.append(record)
                        self._history.append(record)
        return changes

    # -- truth queries -----------------------------------------------------------

    @property
    def keys(self) -> tuple[Any, ...]:
        return tuple(sorted(self._entities, key=repr))

    def truth(self) -> dict[Any, dict[str, Any]]:
        """Current truth (deep-ish copy: per-entity dict copies)."""
        return {key: dict(values) for key, values in self._entities.items()}

    def truth_of(self, key: Any) -> dict[str, Any]:
        """Current truth for one entity."""
        try:
            return dict(self._entities[key])
        except KeyError:
            raise ManufacturingError(f"world has no entity {key!r}") from None

    def truth_as_of(self, day: _dt.date) -> dict[Any, dict[str, Any]]:
        """The world as it was at end-of-day ``day``.

        Reconstructed by rolling back recorded changes made after
        ``day``.  Days before the simulation start return the initial
        state.
        """
        if day >= self.today:
            return self.truth()
        snapshot = self.truth()
        for record in reversed(self._history):
            if record.day <= day:
                break
            snapshot[record.key][record.attribute] = record.old_value
        return snapshot

    def value_as_of(self, key: Any, attribute: str, day: _dt.date) -> Any:
        """One entity attribute's true value at end-of-day ``day``."""
        snapshot = self.truth_as_of(day)
        try:
            return snapshot[key][attribute]
        except KeyError:
            raise ManufacturingError(
                f"no attribute {attribute!r} for entity {key!r}"
            ) from None

    @property
    def history(self) -> tuple[ChangeRecord, ...]:
        return tuple(self._history)

    def changes_for(self, key: Any) -> list[ChangeRecord]:
        """All recorded changes of one entity."""
        return [record for record in self._history if record.key == key]

    def staleness_of(self, key: Any, attribute: str, observed_day: _dt.date) -> bool:
        """Is a value observed on ``observed_day`` stale today?

        True when the attribute changed after the observation day.
        """
        return any(
            record.key == key
            and record.attribute == attribute
            and record.day > observed_day
            for record in self._history
        )

    def __repr__(self) -> str:
        return (
            f"World({len(self._entities)} entities, today={self.today}, "
            f"{len(self._history)} recorded changes)"
        )


# ---------------------------------------------------------------------------
# Common mutators
# ---------------------------------------------------------------------------


def gaussian_drift(relative_sigma: float = 0.02, minimum: float = 0.01) -> Mutator:
    """Multiplicative Gaussian drift (share prices and the like)."""

    def mutate(rng: random.Random, old: Any) -> float:
        value = float(old) * (1.0 + rng.gauss(0.0, relative_sigma))
        return round(max(value, minimum), 2)

    return mutate


def integer_step(max_step: int = 50, minimum: int = 0) -> Mutator:
    """Random integer step (employee counts and the like)."""

    def mutate(rng: random.Random, old: Any) -> int:
        return max(minimum, int(old) + rng.randint(-max_step, max_step))

    return mutate


def choice_replacement(pool: Sequence[Any]) -> Mutator:
    """Replace the value with a different item from a pool (addresses)."""
    if len(pool) < 2:
        raise ManufacturingError("choice_replacement needs a pool of ≥ 2 values")

    def mutate(rng: random.Random, old: Any) -> Any:
        candidates = [item for item in pool if item != old]
        return rng.choice(candidates)

    return mutate

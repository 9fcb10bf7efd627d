"""Collection methods: how data is captured, with per-method error rates.

§3.3's examples: values "over the phone" or "from an information
service"; "bar code scanners in supermarkets, radio frequency readers
in the transportation industry, and voice decoders each has inherent
accuracy implications".

A :class:`CollectionMethod` is the transcription stage between a source
observation and the database: it may corrupt the value again (keying
errors, mishearing) independently of the source's own error process.
"""

from __future__ import annotations

import random

from repro.manufacturing.seeding import stable_seed
from typing import Any, Optional

from repro.errors import ManufacturingError
from repro.manufacturing.errorsim import ErrorInjector, mixed_injector


class CollectionMethod:
    """A data-capture mechanism with an inherent error rate.

    Parameters
    ----------
    name:
        Method name, becomes the ``collection_method`` indicator value.
    error_rate:
        Probability a captured value is corrupted in transcription.
    injector:
        How corruption manifests (defaults to the mixed keying-error
        model).
    """

    def __init__(
        self,
        name: str,
        error_rate: float,
        injector: Optional[ErrorInjector] = None,
        seed: int = 0,
    ) -> None:
        if not name:
            raise ManufacturingError("collection method must have a name")
        if not 0.0 <= error_rate <= 1.0:
            raise ManufacturingError("error_rate must be in [0, 1]")
        self.name = name
        self.error_rate = error_rate
        self.injector = injector or mixed_injector()
        self._rng = random.Random(stable_seed(seed, "collection", name))

    def capture(self, value: Any) -> tuple[Any, bool]:
        """Transcribe one value; returns (captured value, corrupted?)."""
        if value is None:
            return None, False
        if self._rng.random() < self.error_rate:
            corrupted = self.injector(self._rng, value)
            return corrupted, corrupted != value
        return value, False

    def degrade(self, new_error_rate: float) -> None:
        """Change the method's error rate (models a failing device, E5)."""
        if not 0.0 <= new_error_rate <= 1.0:
            raise ManufacturingError("error_rate must be in [0, 1]")
        self.error_rate = new_error_rate

    def __repr__(self) -> str:
        return f"CollectionMethod({self.name!r}, error_rate={self.error_rate})"


def standard_methods(seed: int = 0) -> dict[str, "CollectionMethod"]:
    """The paper's capture mechanisms with plausible relative error rates.

    Absolute rates are synthetic; what matters for the experiments is
    the *ordering*: automated capture (scanner) beats an information
    service, which beats phone transcription, which beats voice
    decoding.
    """
    return {
        method.name: method
        for method in (
            CollectionMethod("bar_code_scanner", 0.002, seed=seed),
            CollectionMethod("information_service", 0.01, seed=seed),
            CollectionMethod("over_the_phone", 0.05, seed=seed),
            CollectionMethod("voice_decoder", 0.12, seed=seed),
            CollectionMethod("manual_entry", 0.03, seed=seed),
            CollectionMethod(
                "double_entry_manual",
                0.0009,  # two independent entries: ~0.03²
                seed=seed,
            ),
        )
    }


#: Convenience instance map with the default seed.
STANDARD_METHODS: dict[str, CollectionMethod] = standard_methods()

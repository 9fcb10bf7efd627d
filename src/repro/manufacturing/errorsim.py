"""Error injection models for the manufacturing simulation.

"Different means of capturing data ... each has inherent accuracy
implications.  Error rates may differ from device to device or in
different environments."  (§3.3)

Each injector takes a seeded ``random.Random`` plus the clean value and
returns a corrupted value.  Injectors never mutate inputs and are total:
values they cannot corrupt meaningfully are returned unchanged.
"""

from __future__ import annotations

import random
import string
from typing import Any, Callable, Sequence

from repro.errors import ManufacturingError

#: An injector: (rng, clean value) → corrupted value.
ErrorInjector = Callable[[random.Random, Any], Any]


def typo(rng: random.Random, value: Any) -> Any:
    """Substitute one character of a string with a random letter."""
    text = str(value)
    if not text:
        return value
    index = rng.randrange(len(text))
    replacement = rng.choice(string.ascii_lowercase)
    corrupted = text[:index] + replacement + text[index + 1 :]
    if not isinstance(value, str):
        return value  # non-strings pass through rather than become text
    return corrupted


def transposition(rng: random.Random, value: Any) -> Any:
    """Swap two adjacent characters (classic keying error)."""
    if not isinstance(value, str) or len(value) < 2:
        return value
    index = rng.randrange(len(value) - 1)
    chars = list(value)
    chars[index], chars[index + 1] = chars[index + 1], chars[index]
    return "".join(chars)


def dropped_character(rng: random.Random, value: Any) -> Any:
    """Delete one character of a string."""
    if not isinstance(value, str) or len(value) < 2:
        return value
    index = rng.randrange(len(value))
    return value[:index] + value[index + 1 :]


def numeric_noise(relative_sigma: float = 0.05) -> ErrorInjector:
    """Multiplicative Gaussian noise on numeric values."""

    def inject(rng: random.Random, value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return value
        noisy = float(value) * (1.0 + rng.gauss(0.0, relative_sigma))
        return type(value)(round(noisy) if isinstance(value, int) else round(noisy, 2))

    return inject


def digit_slip(rng: random.Random, value: Any) -> Any:
    """Replace one digit of a number with a random digit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value
    text = str(abs(value))
    digit_positions = [i for i, c in enumerate(text) if c.isdigit()]
    if not digit_positions:
        return value
    index = rng.choice(digit_positions)
    digit = rng.choice("0123456789")
    corrupted_text = text[:index] + digit + text[index + 1 :]
    corrupted = type(value)(corrupted_text)
    return -corrupted if value < 0 else corrupted


def unit_error(factor: float = 1000.0) -> ErrorInjector:
    """Scale a numeric value by a wrong unit factor (thousands, cents)."""
    if factor <= 0:
        raise ManufacturingError("unit factor must be positive")

    def inject(rng: random.Random, value: Any) -> Any:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return value
        scaled = float(value) * (factor if rng.random() < 0.5 else 1.0 / factor)
        return type(value)(round(scaled) if isinstance(value, int) else scaled)

    return inject


def blanking(rng: random.Random, value: Any) -> Any:
    """Lose the value entirely (missingness)."""
    return None


#: Default per-kind injector mix, weighted toward common keying errors.
DEFAULT_STRING_INJECTORS: tuple[ErrorInjector, ...] = (
    typo,
    transposition,
    dropped_character,
)
DEFAULT_NUMERIC_INJECTORS: tuple[ErrorInjector, ...] = (
    numeric_noise(0.05),
    digit_slip,
)


def mixed_injector(
    string_injectors: Sequence[ErrorInjector] = DEFAULT_STRING_INJECTORS,
    numeric_injectors: Sequence[ErrorInjector] = DEFAULT_NUMERIC_INJECTORS,
    blank_probability: float = 0.0,
) -> ErrorInjector:
    """An injector dispatching on value type, with optional blanking."""
    if not 0.0 <= blank_probability <= 1.0:
        raise ManufacturingError("blank_probability must be in [0, 1]")

    def inject(rng: random.Random, value: Any) -> Any:
        if blank_probability and rng.random() < blank_probability:
            return None
        if isinstance(value, str) and string_injectors:
            return rng.choice(list(string_injectors))(rng, value)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            if numeric_injectors:
                return rng.choice(list(numeric_injectors))(rng, value)
        return value

    return inject

"""Helpers shared by the experiment drivers.

Scheduling, evaluation and their caches live in
:class:`repro.pipeline.Session`, which every driver uses directly.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["geometric_mean"]


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (0.0 for an empty sequence)."""
    cleaned = [value for value in values if value > 0]
    if not cleaned:
        return 0.0
    product = 1.0
    for value in cleaned:
        product *= value
    return product ** (1.0 / len(cleaned))

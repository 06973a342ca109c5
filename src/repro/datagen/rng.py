"""Seeded randomness helpers shared by the generators."""

from __future__ import annotations

import random


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)

"""Seeded random-number utilities.

Every stochastic component (workload generation, EET synthesis, execution-time
noise, failures) draws from a :class:`numpy.random.Generator` created
here, so a scenario seed fully determines the simulation trace. Independent
substreams are derived with ``spawn`` to keep components decoupled: adding a
draw to one component never perturbs another.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "spawn", "derive_seed"]


def make_rng(seed: int | None | np.random.Generator = None) -> np.random.Generator:
    """Return a NumPy Generator from a seed, None, or an existing Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive *n* statistically independent child generators from *rng*."""
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    return [np.random.default_rng(s) for s in rng.bit_generator.seed_seq.spawn(n)]


def derive_seed(seed: int | None, *labels: int | str) -> int | None:
    """Deterministically derive a sub-seed from *seed* and a label path.

    Used where a component needs a plain integer seed (e.g. to persist in a
    report header) rather than a Generator. Returns None if *seed* is None.
    """
    if seed is None:
        return None
    mix = np.random.SeedSequence(
        [seed] + [_label_to_int(label) for label in labels]
    )
    return int(mix.generate_state(1, dtype=np.uint32)[0])


def _label_to_int(label: int | str) -> int:
    if isinstance(label, int):
        return label
    # Stable, platform-independent string hash (Python's hash() is salted).
    acc = 0
    for ch in str(label):
        acc = (acc * 131 + ord(ch)) % (2**31 - 1)
    return acc


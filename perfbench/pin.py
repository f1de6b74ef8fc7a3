#!/usr/bin/env python3
"""Capture the result fingerprints the benchmark checks every call against.

Run from the repository root::

    python3 perfbench/pin.py

Each workload is called once per seed (its preset's own seed plus seeds
0-19) and the sha256 of its result is written to ``perfbench/pins.json``.
Re-pin only for a change that is meant to alter simulated results: a
speed-up must leave every pin as it is.
"""

from __future__ import annotations

import json

from run import PINS, import_program

#: Seeds pinned for every workload, besides the preset's own seed.
SEEDS = range(20)


def main() -> None:
    import_program()
    from workloads import WORKLOADS

    pins: dict[str, dict[str, str]] = {}
    for name, workload in WORKLOADS.items():
        for seed in sorted({workload.default_seed, *SEEDS}):
            fingerprint = workload.fingerprint(workload.call(seed))
            pins.setdefault(name, {})[str(seed)] = fingerprint
            print(f"{name} seed {seed}: {fingerprint}", flush=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

"""Validate the benchmark's reference checker before trusting it.

Compares ``reference.py`` with the program's brute-force oracle on small
seeded datasets, planar and geodesic, and with the bundled worked example
(26 strong, 14 closed and 8 summary patterns at radius 10, window 20,
theta 0.2, epsilon 0.25). ``run.py`` calls :func:`run` in every run;

    python3 perfbench/selfcheck.py

runs it alone from the repository root.
"""

from __future__ import annotations

import os
import random
import sys
from fractions import Fraction

import reference as ref
from gen import Event


def _events(dataset, decimals: int) -> list[Event]:
    return [Event(dataset.label_of(e.event_type), e.x, e.y, int(e.time),
                  f"{e.x:.{decimals}f}", f"{e.y:.{decimals}f}")
            for e in dataset.instances]


def _compare(csts, dataset, cfg, decimals: int, tag: str) -> list[str]:
    oracle = csts.oracle
    labels = lambda p: tuple(dataset.label_of(t) for t in p)  # noqa: E731
    universe = oracle.oracle_all_patterns(dataset, cfg, max_len=cfg.max_length)
    want = {labels(p): pi for p, pi in universe}
    events = _events(dataset, decimals)
    params = ref.Params(cfg.radius, cfg.window, cfg.metric == "geodesic", decimals)
    lattice = ref.Lattice(events, ref.neighbors(events, params), cfg.theta, cfg.max_length)
    msgs = []
    if lattice.pi != want:
        msgs.append(f"{tag}: lattice differs from the oracle "
                    f"({len(lattice.pi)} vs {len(want)} patterns)")
        return msgs
    if ref.closed_set(lattice.pi) != {labels(p) for p, _ in oracle.oracle_closed(universe)}:
        msgs.append(f"{tag}: closed set differs from the oracle")
    members, _ = oracle.oracle_csts(universe, cfg.epsilon)
    if ref.csts_set(lattice.pi, cfg.epsilon) != {labels(p) for p, _ in members}:
        msgs.append(f"{tag}: constricted set differs from the oracle")
    return msgs


def _geodesic_dataset(csts, seed: int):
    rng = random.Random(seed)
    types = [csts.EventType(i, lab) for i, lab in enumerate("ABC")]
    insts = [csts.EventInstance(i, rng.randrange(3), round(-71.06 + rng.uniform(0, 0.005), 6),
                           round(42.35 + rng.uniform(0, 0.004), 6), rng.randint(0, 90))
             for i in range(70)]
    return csts.EventDataset(types, insts)


def run(csts) -> list[str]:
    """Return a list of disagreements; empty when the reference holds."""
    oracle, MiningConfig = csts.oracle, csts.MiningConfig
    msgs = []
    ex = oracle.example_dataset()
    cfg = oracle.example_config(theta="0.2", epsilon="0.25", max_length=8)
    events = _events(ex, 0)
    lattice = ref.Lattice(events, ref.neighbors(events, ref.Params(10.0, 20.0, False, 0)),
                          Fraction("0.2"), 8)
    counts = (len(lattice.pi), len(ref.closed_set(lattice.pi)),
              len(ref.csts_set(lattice.pi, Fraction("0.25"))))
    if counts != (26, 14, 8):
        msgs.append(f"example: strong/closed/summary {counts}, want (26, 14, 8)")
    msgs += _compare(csts, ex, cfg, 0, "example")
    for seed in (1, 2, 3):
        ds = oracle.generate_random(oracle.RandomSpec(
            seed=seed, n_types=3, n_instances=60, area=35.0, horizon=60))
        cfg = MiningConfig(radius=8.0, window=15.0, theta="0.15",
                           epsilon=Fraction(seed, 10), max_length=7)
        msgs += _compare(csts, ds, cfg, 3, f"random seed {seed}")
    for seed in (1, 2):
        cfg = MiningConfig(radius=100.0, window=20.0, theta="0.1", epsilon="0.2",
                           metric="geodesic", max_length=7)
        msgs += _compare(csts, _geodesic_dataset(csts, seed), cfg, 6,
                         f"geodesic seed {seed}")
    return msgs


if __name__ == "__main__":
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import csts
    import csts.oracle  # noqa: F401  (binds csts.oracle)
    problems = run(csts)
    for p in problems:
        print(p)
    print("reference agrees with the oracle" if not problems else "REFERENCE FAULTY")
    sys.exit(1 if problems else 0)

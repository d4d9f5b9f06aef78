"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of the same code wanders by tens of
percent over tens of seconds (see README.md, Host noise), which no median
over one run can remove. So every timed operation is bracketed by a fixed
kernel doing the same kind of work as the program (unions of small integer
tuples into a set, dict building, sorting tuples by length then value,
JSON encoding and decoding). The kernel's time next to an operation says
how fast the host was at that moment; operation times are reported scaled
to a host on which the kernel takes ``REFERENCE_S``. A change to the
program moves the scaled figures; a change in the host's speed does not.
"""

from __future__ import annotations

import gc
import json
import random
import time

#: Kernel time of the reference host; scaled times are in its seconds.
REFERENCE_S = 0.03

_rng = random.Random(20211201)
_CHUNKS = [tuple(_rng.randrange(100_000) for _ in range(6)) for _ in range(6_000)]
_KEYS = [tuple(_rng.randrange(6) for _ in range(_rng.randrange(1, 8)))
         for _ in range(3_000)]
_RECORDS = [{"record": "pattern", "pattern": "->".join(map(str, k)),
             "pi": f"{i}/3001", "closed": i % 3 == 0} for i, k in enumerate(_KEYS)]


def kernel_seconds() -> float:
    """Time one pass of the fixed kernel. Garbage is collected first, so
    that cyclic garbage the program left behind (its pattern trees) is not
    charged to the host's speed."""
    gc.collect()
    t0 = time.perf_counter()
    union: set[int] = set()
    for chunk in _CHUNKS:
        union.update(chunk)
    index = {key: i for i, key in enumerate(_KEYS)}
    ordered = sorted(index, key=lambda k: (len(k), k))
    text = "\n".join(json.dumps(r, sort_keys=True, separators=(",", ":"))
                     for r in _RECORDS)
    back = [json.loads(line) for line in text.split("\n")]
    if len(union) + len(ordered) + len(back) == 0:  # keep the work observable
        raise AssertionError
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor taking seconds measured between two kernel passes to
    reference-host seconds."""
    return 2 * REFERENCE_S / (before + after)

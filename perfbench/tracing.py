"""Spans and counters around the calls into each ``csts`` module.

The tracer wraps public names where the caller looks them up (``csts.cli``
binds the library functions at import, so they are wrapped there) and
restores them afterwards. Spans (name, start, end, parent) are kept in
memory; self times are derived from them. A name that no longer exists is
skipped, and the metrics that depend on it are left out.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_perf = time.perf_counter


def _size(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.trees: list = []   # (span index, MaxTree) per mine_all call
        self.levels: list = []  # (mine_all span index, level, kept, seconds)
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._patched)

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = _perf()
        try:
            yield idx
        finally:
            rec[2] = _perf()
            self._stack.pop()

    def _wrap_span(self, fn, name, after=None):
        def wrapped(*args, **kwargs):
            with self.span(name) as idx:
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result, idx)
            return result
        return wrapped

    def _wrap_count(self, fn, after):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return wrapped

    def _wrap_offer(self, fn):
        # The caller passes one visited set to both offers of a candidate,
        # so count what each call adds to it.
        c = self.counts

        def wrapped(*args, **kwargs):
            seen = kwargs.get("visited", args[3] if len(args) > 3 else None)
            before = _size(seen) if seen is not None else 0
            result = fn(*args, **kwargs)
            c["bottomup.offers"] += 1
            c["bottomup.visited"] += _size(result) - before
            return result
        return wrapped

    # -- patching ------------------------------------------------------------

    def _patch(self, csts, owner: str, attr: str, make) -> None:
        """Replace ``csts.<owner>.<attr>`` by ``make(original)``; a missing
        owner or name is recorded instead."""
        obj = csts
        for part in filter(None, owner.split(".")):
            obj = getattr(obj, part, None)
        original = (obj.__dict__.get(attr) if isinstance(obj, type)
                    else getattr(obj, attr, None))
        if original is None:
            self.missing.add(f"{owner}.{attr}".lstrip("."))
            return
        self._patched.append((obj, attr, original))
        setattr(obj, attr, make(original))

    def install(self, csts) -> None:
        """Wrap the names each layer is reached through."""
        c = self.counts

        def rows(args, result, idx):
            c["ingestion.rows"] += result[1].rows_read

        def union(args, result, idx):
            c["neighborhoods.union_calls"] += 1
            c["neighborhoods.sources"] += _size(args[1])
            c["neighborhoods.support_out"] += _size(result)

        def tree(args, result, idx):
            self.trees.append((idx, result))

        def level(args, result, idx):
            # Both level functions take the previous level first.
            _, t0, t1, parent = self.spans[idx]
            self.levels.append((parent, len(args[0][0].pattern) + 1, len(result), t1 - t0))

        def scan(args, kwargs, result):
            c["analysis.sort_calls"] += 1
            c["analysis.members_scanned"] += len(result)

        def query(args, result, idx):
            c["analysis.queries"] += 1

        span = self._wrap_span
        for name in ("load_generic", "load_boston", "load_pittsburgh"):
            self._patch(csts, "cli", name, lambda f: span(f, "ingestion.load", rows))
        self._patch(csts, "cli", "mine_all", lambda f: span(f, "topdown.mine_all", tree))
        for name in ("mine_level2", "gen_and_verify"):
            self._patch(csts, "topdown", name, lambda f: span(f, "topdown.level", level))
        self._patch(csts, "neighborhoods.NeighborhoodIndex", "union_over",
                    lambda f: span(f, "neighborhoods.union_over", union))
        self._patch(csts, "cli", "run_bottom_up", lambda f: span(f, "bottomup.closure"))
        self._patch(csts, "bottomup", "verify_supersequence", self._wrap_offer)
        self._patch(csts, "cli", "extract_csts", lambda f: span(f, "bottomup.extract"))
        self._patch(csts, "cli", "extract_closed", lambda f: span(f, "analysis.closed"))
        for owner in ("cli", ""):
            self._patch(csts, owner, "CstsSet", lambda f: span(f, "analysis.summary_build"))
            self._patch(csts, owner, "approximate_pi",
                        lambda f: span(f, "analysis.query", query))
        self._patch(csts, "analysis.CstsSet", "patterns", lambda f: self._wrap_count(f, scan))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.trees.clear()
        self.levels.clear()

    # -- derived figures -------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total seconds by span name, self seconds by span name)."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        for i, (name, t0, t1, _) in enumerate(self.spans):
            own[name] += t1 - t0 - child[i]
        return dict(total), dict(own)

    def duration(self, idx: int) -> float:
        return self.spans[idx][2] - self.spans[idx][1]

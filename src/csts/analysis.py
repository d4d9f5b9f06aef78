"""Closed-pattern extraction and interval estimation of participation
indexes from the constricted set.

The constricted set is a lossy summary: most patterns are dropped, each
leaving behind a representative supersequence whose participation index is
within the chosen margin. This module answers queries against that summary —
exact membership and two-sided index estimates whose width never exceeds
the margin the summary was built with.

A summary answers every query with one dict lookup. ``CstsSet`` builds the
answers once, at construction: the members are ranked best-first (pi
descending, canonical order on ties), and each one in turn maps itself to
its exact estimate, and every substring no better member has claimed to one
interval estimate that they share. A claimed substring stops the walk,
because its own substrings were claimed with it. So each other pattern of
the members' substring closure is answered by the first member in that
ranking that contains it: the greatest-pi member holding it, canonically
smallest on ties, which a scan over all members would pick. The closure is
part of the mined tree, which bounds the index.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Mapping, NamedTuple, Optional

from .model import MaxTree, Pattern, PatternNode, as_fraction, format_pattern


def extract_closed(tree: MaxTree) -> list[PatternNode]:
    """Nodes with no equal-pi extension, in canonical order.

    A one-step check suffices: any longer equal-pi supersequence forces an
    equal-pi extension by exactly one element (indexes along the chain
    between them are sandwiched), and every extension covers its node as
    prefix or suffix. So a node is closed iff no node one level deeper
    covering it carries the same pi.
    """
    beaten: set[PatternNode] = set()
    for node in tree:
        if node.parent1 is None:
            continue
        if node.pi == node.parent1.pi:
            beaten.add(node.parent1)
        if node.pi == node.parent2.pi:
            beaten.add(node.parent2)
    return [node for node in tree if node not in beaten]


# ---------------------------------------------------------------------------
# Queries against the constricted summary
# ---------------------------------------------------------------------------

class PiEstimate(NamedTuple):
    """Two-sided participation-index estimate for a queried pattern.

    ``witness`` is the summary member the bounds came from (the pattern
    itself when ``exact``). Invariants: 0 <= lower <= upper <= 1 and
    upper - lower never exceeds the summary's margin. A named tuple, so
    it unpacks and compares equal to ``(lower, upper, witness, exact)``.
    """

    lower: Fraction
    upper: Fraction
    witness: Pattern
    exact: bool


class CstsSet:
    """Pattern -> pi mapping of the constricted members, plus the margin
    they were extracted under. Detached from tree nodes so it can be
    rebuilt from serialized output. Members are kept in canonical order;
    a margin or a member pi outside [0, 1] raises ValueError. The index
    from each pattern to its ``approximate_pi`` answer is built here."""

    def __init__(self, pis: Mapping[Pattern, Fraction], epsilon) -> None:
        self.epsilon = as_fraction(epsilon)
        if not (0 <= self.epsilon <= 1):
            raise ValueError("epsilon must lie in [0, 1]")
        pi = {tuple(p): as_fraction(v) for p, v in pis.items()}
        # Canonical order from two C-level sorts: the second is stable.
        order = sorted(sorted(pi), key=len)
        self._pi = {p: pi[p] for p in order}
        vals = list(self._pi.values())
        # Integer tests: Fraction comparisons and properties cost several
        # times more per load.
        ratio = {}
        for p, v in self._pi.items():
            num, den = ratio[p] = v.as_integer_ratio()
            if not 0 <= num <= den:
                raise ValueError(f"member {format_pattern(p)} has pi {v} outside [0, 1]")
        # One exact rank per distinct pi, from one sort of the distinct pis,
        # found by their integer ratios (which hash faster than a Fraction).
        # Each sorts as (correctly rounded float, Fraction), so only pis whose
        # floats tie compare as Fractions. The members' sort is stable, so
        # equal pis keep canonical order.
        distinct = dict(zip(ratio.values(), vals))
        ranked = sorted(zip([n / d for n, d in distinct], distinct.values(), distinct))
        place = {r: i for i, (_, _, r) in enumerate(ranked)}
        rank = {p: place[r] for p, r in ratio.items()}
        en, ed = self.epsilon.as_integer_ratio()
        # Answers are built with tuple.__new__, which skips PiEstimate's
        # Python-level constructor.
        new = tuple.__new__
        answer: dict[Pattern, Optional[PiEstimate]] = {}
        for s in sorted(order, key=rank.__getitem__, reverse=True):
            if s in answer:
                continue  # a better member holds s, so all of s as well
            answer[s] = None  # a claim; every member's exact answer comes below
            interval = None  # built when s first claims a substring
            todo = [s]
            for p in todo:  # grows as s claims; stops at claimed substrings
                if len(p) > 1:
                    for sub in (p[:-1], p[1:]):
                        if sub not in answer:
                            if interval is None:
                                # min(v + epsilon, 1) in integers
                                num, den = ratio[s]
                                n, d = num * ed + en * den, den * ed
                                interval = new(PiEstimate, (
                                    self._pi[s], _ONE if n >= d else Fraction(n, d),
                                    s, False))
                            answer[sub] = interval
                            todo.append(sub)
        # Every member answers exactly, also one a better member claimed.
        answer.update(zip(order, map(new, repeat(PiEstimate),
                                     zip(vals, vals, order, repeat(True)))))
        self._answer = answer

    def __contains__(self, pattern: Pattern) -> bool:
        return tuple(pattern) in self._pi

    def __len__(self) -> int:
        return len(self._pi)

    def pi(self, pattern: Pattern) -> Fraction:
        return self._pi[tuple(pattern)]

    def patterns(self) -> list[Pattern]:
        return list(self._pi)


_ONE = Fraction(1)


def approximate_pi(q: Pattern, csts: CstsSet) -> Optional[PiEstimate]:
    """Estimate pi(q) from the summary alone.

    A member equal to q gives the exact value. Otherwise every member
    properly containing q is a candidate witness, and the greatest-pi one
    (canonically smallest on ties) bounds pi(q) within
    [pi(witness), pi(witness) + margin]. The greatest-pi choice is what
    makes the interval sound: q's own representative is among the members
    with pi at least pi(q) - margin, so the best witness can only sit
    closer, while any witness underestimates pi(q) by containment. No
    witness at all means q is not threshold-passing.

    No member is scanned and nothing is built: the summary made every
    answer once (see the module docstring), so q's is one lookup. The
    index is exact for a non-member because every member containing it
    contains it properly.
    """
    return csts._answer.get(tuple(q))

"""Medians, spreads and the parent-versus-change verdict.

The verdict follows the repository's rule for claiming a gain in a small
sandbox: the change must win at least nine tenths of the pairs (ties
count for neither side) and its median must beat the parent's by more
than the parent's own spread (the distance between its quartiles).  A
metric whose spread is wider than its regression bound cannot show a
regression and is reported unresolved, unless every change run reads
better than every parent run.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

VERDICTS = ("improved", "within bound", "worse", "unresolved")


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them (a single value is its own quartiles)."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def describe(values: Sequence[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def _better(a: float, b: float, better: str) -> bool:
    return a > b if better == "higher" else a < b


def win_share(parent: Sequence[float], change: Sequence[float], better: str) -> float:
    """Share of pairs (i-th parent run with i-th change run) the change wins."""
    pairs = list(zip(parent, change))
    if not pairs:
        return 0.0
    return sum(_better(c, p, better) for p, c in pairs) / len(pairs)


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float) -> str:
    """One of :data:`VERDICTS` for a metric's parent and change runs."""
    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    gain = cmed - pmed if better == "higher" else pmed - cmed
    if win_share(parent, change, better) >= 0.9 and gain > pq3 - pq1:
        return "improved"
    every_better = all(_better(c, p, better) for c in change for p in parent)
    if spread(parent) > bound and not every_better:
        return "unresolved"
    if -gain > bound * abs(pmed):
        return "worse"
    return "within bound"


def compare(parent: Dict[str, Dict[str, List[float]]],
            change: Dict[str, Dict[str, List[float]]],
            metrics: Dict[str, tuple], bounds: Dict[str, float]) -> List[dict]:
    """One row per workload x metric present on both sides.

    ``parent``/``change`` map workload -> metric -> run values;
    ``metrics`` maps metric -> (unit, better)."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for name, (unit, better) in metrics.items():
            p = parent[workload].get(name)
            c = change[workload].get(name)
            if not p or not c:
                continue
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "parent": describe(p), "change": describe(c),
                "wins": win_share(p, c, better),
                "bound": bounds.get(name, 0.0),
                "verdict": verdict(p, c, better, bounds.get(name, 0.0)),
            })
    return rows

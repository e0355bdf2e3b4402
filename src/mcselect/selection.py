"""Turning per-candidate scores into a selected model order.

Candidates are indexed by order 1..n_max.  MAP selection maximizes
log p(y|order) under a uniform model prior over the candidates that
produced an estimate; criterion selection minimizes an AIC/BIC-style
score.  Ties go to the smallest order, and candidates excluded upstream
(singular fits) are passed as None and skipped.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class EmptyCandidates(ValueError):
    """No candidate produced a usable score."""


@dataclass(frozen=True)
class SelectionOutcome:
    """Selected order plus the per-candidate scores that decided it.

    scores[i] belongs to order i+1 and is None for excluded candidates;
    for MAP rules it is the log marginal, for criterion rules the
    penalized score.  selected_order is None when the rule was excluded.
    """

    rule: str
    selected_order: int | None
    scores: list
    extra: dict = field(default_factory=dict)


def _pick(scores, better, rule, extra) -> SelectionOutcome:
    if not scores:
        raise EmptyCandidates("no candidates given")
    best_idx = None
    best = None
    for i, s in enumerate(scores):
        if s is None:
            continue
        if best_idx is None or better(s, best):
            best_idx, best = i, s
    if best_idx is None:
        raise EmptyCandidates("every candidate was excluded")
    return SelectionOutcome(
        rule=rule, selected_order=best_idx + 1, scores=list(scores), extra=extra or {}
    )


def select_map(estimates, *, rule: str = "map", extra: dict | None = None) -> SelectionOutcome:
    """MAP order from marginal estimates (entry i is order i+1, or None).

    The model prior is uniform, so it drops out of the comparison.
    """
    scores = [None if est is None else est.log_value for est in estimates]
    return _pick(scores, lambda a, b: a > b, rule, extra)


def select_criterion(scores, *, rule: str = "criterion",
                     extra: dict | None = None) -> SelectionOutcome:
    """Smallest penalized score wins; accepts floats or CriterionScores."""
    values = []
    for s in scores:
        if s is None:
            values.append(None)
        elif hasattr(s, "value"):
            values.append(float(s.value))
        else:
            values.append(float(s))
    return _pick(values, lambda a, b: a < b, rule, extra)

"""Phase 2 of MOCHE: constructing the most comprehensible explanation.

Section 5 of the paper shows that, once the explanation size ``k`` is known,
the most comprehensible explanation can be built by a single scan of the
test set in preference order (Algorithm 1): a point is kept if and only if
the points selected so far plus that point still form a *partial
explanation*, i.e. are contained in some explanation.

Lemma 2 and Theorem 3 reduce the partial-explanation check to the existence
of a qualified ``k``-cumulative vector ``C`` that dominates the candidate's
per-value multiplicities.  With the bounds ``l_i^k`` and ``u_i^k`` of
Equation 4 this becomes: for every ``i``,

    l_i^k  <=  min_{j >= i} (u_j^k - C_S[j]) + C_S[i]        and
    C_S[j] <=  u_j^k for every j,

which we evaluate in ``O(q)`` per candidate using a reverse cumulative
minimum.

:class:`PartialExplanationChecker` is that check, one candidate at a
time — ``O(q)`` NumPy work per **candidate**, i.e. ``O(m q)`` for a
literal Algorithm 1 scan.  The analysis and verification modules use it,
and the tests scan with it as the oracle.

:func:`construct_most_comprehensible` scans *vectorized* instead: between
two commits the committed selection is fixed, so the Theorem 3 acceptance
of **every** base value can be precomputed in one ``O(q)`` pass.  Given
the current slack ``s = u^k - C_S`` and deficit ``d = l^k - C_S``, adding
a point at base index ``b`` keeps a partial explanation iff

    min_{j >= b} s_j  >=  max(1, 1 + max_{i < b} d_i),

(suffix minimum of the slack vs. prefix maximum of the deficit; the
``i >= b`` conditions are implied by the committed selection already
passing the check).  The scan then finds the first acceptable remaining
candidate with one vectorized lookup, so the whole construction costs
``O(k (q + m))`` with NumPy constants instead of ``O(m q)`` with Python
constants, and produces the identical explanation.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.bounds import BoundsCalculator, SizeBounds
from repro.core.cumulative import ExplanationProblem
from repro.exceptions import NoExplanationError, ValidationError


class PartialExplanationChecker:
    """Incremental Theorem 3 checker bound to a fixed explanation size ``k``.

    The checker owns the bounds ``l^k`` and ``u^k`` and the current partial
    explanation's cumulative vector.  ``would_extend`` answers whether adding
    one more test point keeps the selection a partial explanation;
    ``commit`` records the addition.
    """

    def __init__(self, problem: ExplanationProblem, size: int,
                 calculator: Optional[BoundsCalculator] = None):
        self.problem = problem
        self.size = int(size)
        calculator = calculator or BoundsCalculator(problem)
        self._bounds: SizeBounds = calculator.size_bounds(self.size)
        if not self._bounds.feasible:
            raise NoExplanationError(
                f"no qualified {self.size}-cumulative vector exists; "
                "the provided size is smaller than the explanation size"
            )
        self._cum_selected = np.zeros(problem.q, dtype=np.int64)
        self._selected_count = 0

    # ------------------------------------------------------------------
    @property
    def selected_count(self) -> int:
        """Number of points committed to the partial explanation so far."""
        return self._selected_count

    @property
    def cumulative_selected(self) -> np.ndarray:
        """Cumulative vector of the currently committed partial explanation."""
        return self._cum_selected.copy()

    # ------------------------------------------------------------------
    def is_partial_explanation(self, cum_subset: np.ndarray) -> bool:
        """Theorem 3 check for an arbitrary subset cumulative vector."""
        cum_subset = np.asarray(cum_subset, dtype=np.int64)
        if cum_subset.shape != (self.problem.q,):
            raise ValidationError(
                "cumulative vector must have one entry per base value"
            )
        return self._check(cum_subset)

    def would_extend(self, test_index: int) -> bool:
        """Would adding test point ``T[test_index]`` keep a partial explanation?"""
        base_index = int(self.problem.test_base_indices[test_index])
        candidate = self._cum_selected.copy()
        candidate[base_index:] += 1
        return self._check(candidate)

    def commit(self, test_index: int) -> None:
        """Record test point ``T[test_index]`` as part of the explanation."""
        base_index = int(self.problem.test_base_indices[test_index])
        self._cum_selected[base_index:] += 1
        self._selected_count += 1

    def uncommit(self, test_index: int) -> None:
        """Undo a previous :meth:`commit` (used by backtracking enumeration)."""
        if self._selected_count == 0:
            raise ValidationError("no committed points to remove")
        base_index = int(self.problem.test_base_indices[test_index])
        if self._cum_selected[base_index] <= (
            self._cum_selected[base_index - 1] if base_index > 0 else 0
        ):
            raise ValidationError(
                "the given test point is not part of the committed selection"
            )
        self._cum_selected[base_index:] -= 1
        self._selected_count -= 1

    # ------------------------------------------------------------------
    def _check(self, cum_subset: np.ndarray) -> bool:
        """Vectorised Theorem 3 feasibility test."""
        slack = self._bounds.upper - cum_subset
        if slack.min() < 0:
            # Some prefix of the subset already exceeds the upper bound, so
            # no qualified k-cumulative vector can dominate it.
            return False
        # suffix_min[i] = min_{j >= i} (u_j - C_S[j]); a qualified vector
        # dominating the subset exists iff l_i - C_S[i] <= suffix_min[i].
        suffix_min = np.minimum.accumulate(slack[::-1])[::-1]
        return bool(np.all(self._bounds.lower - cum_subset <= suffix_min))


#: Sentinel for "no deficit yet" in the prefix maximum (small enough that
#: +1 cannot overflow int64).
_NEG_INF = np.iinfo(np.int64).min // 2

#: Candidate-lookup block size of the vectorized scan.
_SCAN_BLOCK = 512


def _construct_vectorized(
    problem: ExplanationProblem,
    size: int,
    order: np.ndarray,
    calculator: Optional[BoundsCalculator],
) -> Optional[np.ndarray]:
    """The vectorized Algorithm 1 scan (see the module docstring).

    Per committed point: one ``O(q)`` pass computes the acceptance of every
    base value at once, and one vectorized lookup finds the first remaining
    candidate in preference order whose base value is acceptable.  The
    candidates skipped on the way are exactly those the sequential scan
    would have rejected (acceptance only changes at commits), so the
    produced explanation is identical.
    """
    calculator = calculator or BoundsCalculator(problem)
    bounds = calculator.size_bounds(size)
    if not bounds.feasible:
        raise NoExplanationError(
            f"no qualified {size}-cumulative vector exists; "
            "the provided size is smaller than the explanation size"
        )
    lower, upper = bounds.lower, bounds.upper
    q = problem.q
    base_of = problem.test_base_indices
    cum_selected = np.zeros(q, dtype=np.int64)
    remaining = order
    selected: list[int] = []
    # Preallocated per-commit work buffers (one O(q) pass each commit).
    slack = np.empty(q, dtype=np.int64)
    suffix_min = np.empty(q, dtype=np.int64)
    deficit = np.empty(q, dtype=np.int64)
    prefix_max = np.empty(q, dtype=np.int64)
    acceptable = np.empty(q, dtype=bool)
    while len(selected) < size:
        np.subtract(upper, cum_selected, out=slack)
        np.minimum.accumulate(slack[::-1], out=suffix_min[::-1])
        np.subtract(lower, cum_selected, out=deficit)
        prefix_max[0] = _NEG_INF
        if q > 1:
            np.maximum.accumulate(deficit[:-1], out=prefix_max[1:])
        # acceptable = suffix_min >= max(1, prefix_max + 1), reusing deficit
        # as scratch for the right-hand side.
        np.add(prefix_max, 1, out=deficit)
        np.maximum(deficit, 1, out=deficit)
        np.greater_equal(suffix_min, deficit, out=acceptable)
        # Look up the remaining candidates in blocks so a commit only pays
        # for the candidates actually inspected: when acceptances come
        # thick (large explanations) the first block almost always hits,
        # when they are sparse the blocks amortise to one full
        # vectorized pass.
        first = -1
        for start in range(0, remaining.size, _SCAN_BLOCK):
            block = remaining[start:start + _SCAN_BLOCK]
            hits = np.flatnonzero(acceptable[base_of[block]])
            if hits.size:
                first = start + int(hits[0])
                break
        if first < 0:
            return None
        chosen = int(remaining[first])
        selected.append(chosen)
        cum_selected[base_of[chosen]:] += 1
        remaining = remaining[first + 1:]
    return np.asarray(selected, dtype=np.int64)


def construct_most_comprehensible(
    problem: ExplanationProblem,
    size: int,
    preference_order: Sequence[int],
    calculator: Optional[BoundsCalculator] = None,
) -> np.ndarray:
    """Algorithm 1: build the most comprehensible explanation of size ``size``.

    Parameters
    ----------
    problem:
        The failed KS test instance.
    size:
        The explanation size ``k`` found by phase 1.
    preference_order:
        Indices into the test set, most preferred first.  Must be a
        permutation of ``range(m)``.
    calculator:
        Optionally reuse an existing :class:`BoundsCalculator`.

    Returns
    -------
    numpy.ndarray
        Indices (into the test set, in preference order) of the unique most
        comprehensible explanation.
    """
    order = np.asarray(preference_order, dtype=np.int64).ravel()
    if order.size != problem.m or np.unique(order).size != problem.m or (
        order.size and (order.min() < 0 or order.max() >= problem.m)
    ):
        raise ValidationError(
            "preference_order must be a permutation of range(m)"
        )
    selected = _construct_vectorized(problem, size, order, calculator)
    if selected is not None:
        return selected
    raise NoExplanationError(
        "could not assemble an explanation of the requested size; "
        "this indicates the size does not match the problem instance"
    )

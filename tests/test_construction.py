"""Tests for the phase-2 construction (repro.core.construction)."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.construction import PartialExplanationChecker, construct_most_comprehensible
from repro.core.cumulative import ExplanationProblem
from repro.core.preference import PreferenceList
from repro.core.size_search import explanation_size
from repro.exceptions import KSTestPassedError, NoExplanationError, ValidationError


def brute_force_is_partial(problem: ExplanationProblem, subset: tuple[int, ...], size: int) -> bool:
    """Ground truth for Lemma 2: is ``subset`` contained in some explanation?"""
    others = [i for i in range(problem.m) if i not in subset]
    needed = size - len(subset)
    if needed < 0:
        return False
    for completion in combinations(others, needed):
        candidate = np.array(list(subset) + list(completion))
        if problem.is_reversing_subset(candidate):
            return True
    return False


def literal_scan(problem: ExplanationProblem, size: int, order) -> list[int]:
    """Algorithm 1 as the paper states it: one Theorem 3 check per candidate."""
    checker = PartialExplanationChecker(problem, size)
    selected: list[int] = []
    for test_index in order:
        if len(selected) == size:
            break
        if checker.would_extend(int(test_index)):
            checker.commit(int(test_index))
            selected.append(int(test_index))
    return selected


class TestPartialExplanationChecker:
    def test_empty_subset_is_partial(self, small_failed_problem):
        size = explanation_size(small_failed_problem).size
        checker = PartialExplanationChecker(small_failed_problem, size)
        empty = np.zeros(small_failed_problem.q, dtype=np.int64)
        assert checker.is_partial_explanation(empty)

    def test_matches_brute_force_for_singletons(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        checker = PartialExplanationChecker(problem, size)
        for index in range(problem.m):
            expected = brute_force_is_partial(problem, (index,), size)
            assert checker.would_extend(index) == expected, index

    def test_matches_brute_force_for_pairs(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        if size < 2:
            pytest.skip("explanation size too small for pair checks")
        base_checker = PartialExplanationChecker(problem, size)
        for first, second in combinations(range(problem.m), 2):
            checker = PartialExplanationChecker(problem, size)
            if not checker.would_extend(first):
                continue
            checker.commit(first)
            expected = brute_force_is_partial(problem, (first, second), size)
            assert checker.would_extend(second) == expected, (first, second)
        # The base checker was never mutated by the per-pair checkers.
        assert base_checker.selected_count == 0

    def test_commit_updates_state(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        checker = PartialExplanationChecker(problem, size)
        target = next(i for i in range(problem.m) if checker.would_extend(i))
        checker.commit(target)
        assert checker.selected_count == 1
        assert checker.cumulative_selected.max() == 1

    def test_infeasible_size_raises(self, paper_example):
        reference, test, alpha = paper_example
        problem = ExplanationProblem(reference, test, alpha)
        with pytest.raises(NoExplanationError):
            PartialExplanationChecker(problem, 1)

    def test_wrong_shape_rejected(self, small_failed_problem):
        size = explanation_size(small_failed_problem).size
        checker = PartialExplanationChecker(small_failed_problem, size)
        with pytest.raises(ValidationError):
            checker.is_partial_explanation(np.zeros(3, dtype=np.int64))

    def test_paper_example6_membership(self, paper_example):
        """Example 6: t4 (=20) is in no explanation; t3 (=12) and t2 (=13) are."""
        reference, test, alpha = paper_example
        problem = ExplanationProblem(reference, test, alpha)
        checker = PartialExplanationChecker(problem, 2)
        assert not checker.would_extend(3)  # t4 = 20
        assert checker.would_extend(2)      # t3 = 12
        checker.commit(2)
        assert checker.would_extend(1)      # t2 = 13


class TestConstruction:
    def test_paper_example6_explanation(self, paper_example):
        reference, test, alpha = paper_example
        problem = ExplanationProblem(reference, test, alpha)
        preference = PreferenceList.from_order([3, 2, 1, 0])
        indices = construct_most_comprehensible(problem, 2, preference.order)
        assert sorted(indices.tolist()) == [1, 2]

    def test_result_has_requested_size_and_reverses(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        preference = PreferenceList.identity(problem.m)
        indices = construct_most_comprehensible(problem, size, preference.order)
        assert indices.size == size
        assert problem.is_reversing_subset(indices)

    def test_indices_follow_preference_order(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        preference = PreferenceList.random(problem.m, seed=3)
        indices = construct_most_comprehensible(problem, size, preference.order)
        ranks = preference.ranks[indices]
        assert np.all(np.diff(ranks) > 0)

    def test_invalid_preference_rejected(self, small_failed_problem):
        size = explanation_size(small_failed_problem).size
        with pytest.raises(ValidationError):
            construct_most_comprehensible(small_failed_problem, size, [0, 0, 1])

    def test_different_preferences_same_size(self, small_failed_problem):
        problem = small_failed_problem
        size = explanation_size(problem).size
        sizes = set()
        for seed in range(4):
            preference = PreferenceList.random(problem.m, seed=seed)
            indices = construct_most_comprehensible(problem, size, preference.order)
            sizes.add(indices.size)
        assert sizes == {size}

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(min_value=10, max_value=200),
        m=st.integers(min_value=5, max_value=200),
        drifted=st.floats(min_value=0.05, max_value=0.6),
        decimals=st.sampled_from([0, 1, 3]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_a_literal_per_candidate_scan(self, n, m, drifted, decimals, seed):
        # Rounding makes ties, within the test set and across both sets.
        rng = np.random.default_rng(seed)
        shifted = max(1, int(drifted * m))
        reference = np.round(rng.normal(size=n), decimals)
        test = np.round(
            np.concatenate([rng.normal(size=m - shifted), rng.uniform(1.5, 4.0, size=shifted)]),
            decimals,
        )
        try:
            problem = ExplanationProblem(reference, test, alpha=0.05)
        except KSTestPassedError:
            assume(False)
        size = explanation_size(problem).size
        order = rng.permutation(m)
        indices = construct_most_comprehensible(problem, size, order)
        assert indices.tolist() == literal_scan(problem, size, order)

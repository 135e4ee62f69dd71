"""Differential tests: the evaluation core against the reference arithmetic.

oracle_evaluation.py keeps the earlier twin exact/table implementations; the
library must return exactly equal numbers (==, not approx) and raise the same
errors on every consistent set of judges.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import centroidsumm as cs
import oracle_evaluation as oracle
from centroidsumm import EvaluationError, SubsumptionGraph, UtilityAnnotation


def outcome(func, *args, **kwargs):
    """The return value, or the error's type and message."""
    try:
        return "ok", func(*args, **kwargs)
    except ValueError as exc:
        return type(exc), str(exc)


def same(name, *args, **kwargs):
    assert outcome(getattr(cs, name), *args, **kwargs) == outcome(
        getattr(oracle, name), *args, **kwargs
    ), name


@st.composite
def judged_cluster(draw):
    n = draw(st.integers(1, 30))
    count = draw(st.integers(2, 6))
    # mostly informative judges; an all-zero vector now and then exercises
    # the zero-maximum error on both sides
    utility = st.integers(0, 10)
    judges = [
        UtilityAnnotation(f"J{j}", "c", tuple(draw(st.lists(utility, min_size=n, max_size=n))))
        for j in range(count)
    ]
    r = draw(st.integers(1, 100)) / 100
    k = cs.compression_size(n, r)
    systems = {
        f"s{i}": tuple(draw(st.permutations(range(1, n + 1)))[:k])
        for i in range(draw(st.integers(1, 3)))
    }
    pairs = [(a, b) for a in range(1, n + 1) for b in range(1, n + 1) if a != b]
    edges = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=12))) if pairs else frozenset()
    graph = SubsumptionGraph("c", edges, 1)
    E = draw(st.floats(0, 1))
    return judges, r, systems, graph, E


@given(judged_cluster())
@settings(max_examples=150, deadline=None)
def test_core_equals_reference(case):
    judges, r, systems, graph, E = case
    same("cross_judge_matrix", judges, r)
    same("report_cross_judge", judges, r)
    matrix_outcome = outcome(cs.cross_judge_matrix, judges, r)
    if matrix_outcome[0] == "ok":
        same("mean_cross_judge", matrix_outcome[1])
    same("random_performance", judges, r)
    same("report_random_performance", judges, r)
    n, k = judges[0].n, cs.compression_size(judges[0].n, r)
    if math.comb(n, k) <= 500:
        same("random_performance", judges, r, mode="enumerate")
    for extract in systems.values():
        same("system_performance", extract, judges)
        same("system_performance", extract, judges, graph, E)
        same("report_system_performance", extract, judges)
        same("report_system_performance", extract, judges, graph, E)
    same("build_report", judges, systems, r)
    same("build_report", judges, systems, r, graph, E)


@given(
    S=st.floats(0, 1),
    mean_J=st.floats(0, 1),
    R=st.floats(0, 1),
)
def test_normalized_equals_reference(S, mean_J, R):
    same("normalized_performance", S, mean_J, R)


class TestJudgeConsistency:
    """Every entry point rejects judges of different clusters or different n."""

    MIXED_N = [UtilityAnnotation("J1", "c", (5, 3, 1, 0)), UtilityAnnotation("J2", "c", (5, 3, 1))]
    MIXED_CLUSTER = [UtilityAnnotation("J1", "c", (5, 3)), UtilityAnnotation("J2", "d", (5, 3))]

    @pytest.mark.parametrize("judges", [MIXED_N, MIXED_CLUSTER], ids=["n", "cluster"])
    def test_every_entry_point(self, judges):
        calls = [
            lambda: cs.cross_judge_matrix(judges, 0.5),
            lambda: cs.report_cross_judge(judges, 0.5),
            lambda: cs.system_performance((1,), judges),
            lambda: cs.report_system_performance((1,), judges),
            lambda: cs.random_performance(judges, 0.5),
            lambda: cs.random_performance(judges, 0.5, mode="enumerate"),
            lambda: cs.report_random_performance(judges, 0.5),
            lambda: cs.build_report(judges, {"s": (1,)}, 0.5),
        ]
        for call in calls:
            with pytest.raises(EvaluationError, match="annotated 3 sentences|mix clusters"):
                call()

    def test_position_outside_cluster(self):
        judges = [UtilityAnnotation("J1", "c", (5, 3, 1, 0)), UtilityAnnotation("J2", "c", (4, 3, 2, 1))]
        with pytest.raises(EvaluationError, match=r"system 'late' selects position 5, outside 1\.\.4"):
            cs.build_report(judges, {"late": (1, 5)}, 0.5)
        with pytest.raises(EvaluationError, match="outside 1..4"):
            cs.system_performance((0, 2), judges)

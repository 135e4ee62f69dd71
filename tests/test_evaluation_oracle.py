"""Differential tests: the evaluation core against the reference arithmetic.

oracle_evaluation.py keeps the earlier twin exact/table implementations and
the earlier sort-per-call ranking and pairwise subsumption credit; the library
must return exactly equal numbers (==, not approx) and raise the same errors on
every consistent set of judges.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

import centroidsumm as cs
import oracle_evaluation as oracle
from centroidsumm import EvaluationError, SubsumptionGraph, UtilityAnnotation
from helpers import examples


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
@settings(max_examples=examples(150), deadline=None)
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


@st.composite
def credited_extract(draw):
    """One judge with many tied utilities, a subsumption graph and an extract.

    The graph mixes mutual edges, chains, cliques, one-way edges, self-loops
    and edges to positions outside the extract (some beyond n); it is built
    directly, so no loader or consensus step filters it.
    """
    n = draw(st.integers(1, 25))
    judge = UtilityAnnotation("J", "c", tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))))
    position = st.integers(1, n + 3)
    edges = set(draw(st.lists(st.tuples(position, position), max_size=6)))
    for a, b in draw(st.lists(st.tuples(position, position), max_size=4)):
        edges |= {(a, b), (b, a)}
    for chain in draw(st.lists(st.lists(position, min_size=2, max_size=5), max_size=2)):
        edges |= set(zip(chain, chain[1:]))
    for clique in draw(st.lists(st.sets(position, min_size=2, max_size=5), max_size=2)):
        edges |= {(a, b) for a in clique for b in clique if a != b}
    edges |= {(p, p) for p in draw(st.lists(position, max_size=2))}
    graph = SubsumptionGraph("c", frozenset(edges), 1)
    extract = draw(st.lists(st.integers(1, n), max_size=n))  # any order, duplicates allowed
    E = draw(st.sampled_from([0.0, -0.0, 0.5, 1.0]) | st.floats(0, 1))
    return judge, graph, extract, E


@given(credited_extract())
@settings(max_examples=examples(300), deadline=None)
def test_credit_and_ranking_equal_reference(case):
    judge, graph, extract, E = case
    for k in range(judge.n + 2):  # k = 0 and k = n + 1 must raise the same error
        same("judge_extract", judge, k)
        same("max_utility", judge, k)
    for args in [(extract, judge), (extract, judge, None, E), (extract, judge, graph, E)]:
        # repr tells -0.0 from 0.0 and a float from an int
        assert repr(cs.extract_utility(*args)) == repr(oracle.extract_utility(*args)), args
    for a in range(judge.n + 5):
        for b in range(judge.n + 5):
            assert (b in graph.neighbours.get(a, ())) == oracle._related(graph, a, b), (a, b)


@st.composite
def faulty_judges(draw):
    """Two to five judges with distinct ids; every judge after the first may hold a cluster fault, a size
    fault or both, and at least one does."""
    n = draw(st.integers(1, 8))
    faults = draw(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=4).filter(
        lambda faults: any(map(any, faults))
    ))
    judges = []
    for j, (cluster_fault, size_fault) in enumerate([(False, False), *faults]):
        size = draw(st.sampled_from([m for m in (n - 1, n + 1) if m])) if size_fault else n
        utilities = tuple(draw(st.lists(st.integers(0, 10), min_size=size, max_size=size)))
        judges.append(UtilityAnnotation(f"J{j}", "d" if cluster_fault else "c", utilities))
    return judges, draw(st.integers(1, 100)) / 100


def same_first_fault(judges, r):
    """Every public entry point reports the first fault that the oracle's cross-judge check reports.

    The oracle's cross_judge_matrix, report_cross_judge and build_report check the judge set; its other
    entry points predate that check, so the library's error is compared with the cross-judge one.
    """
    for name, args in [("cross_judge_matrix", ()), ("report_cross_judge", ()), ("build_report", ({"s": (1,)},))]:
        same(name, judges, *args, r)
    fault = outcome(oracle.cross_judge_matrix, judges, r)
    assert fault[0] is EvaluationError
    calls = [
        lambda: cs.system_performance((1,), judges),
        lambda: cs.report_system_performance((1,), judges),
        lambda: cs.random_performance(judges, r),
        lambda: cs.random_performance(judges, r, mode="enumerate"),
        lambda: cs.report_random_performance(judges, r),
        lambda: cs.agreement_curve(judges, [r]),
    ]
    for call in calls:
        assert outcome(call) == fault


@given(faulty_judges())
@settings(max_examples=examples(150), deadline=None)
def test_first_fault_equals_reference(case):
    same_first_fault(*case)


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

    def test_the_first_fault_in_order_is_reported(self):
        # J2's size fault comes before J3's cluster fault
        judges = [
            UtilityAnnotation("J1", "c", (5, 3, 1, 0)),
            UtilityAnnotation("J2", "c", (5, 3, 1)),
            UtilityAnnotation("J3", "d", (4, 3, 2, 1)),
        ]
        same_first_fault(judges, 0.5)
        with pytest.raises(EvaluationError, match="^judge 'J2' annotated 3 sentences, expected 4$"):
            cs.cross_judge_matrix(judges, 0.5)

    def test_position_outside_cluster(self):
        judges = [UtilityAnnotation("J1", "c", (5, 3, 1, 0)), UtilityAnnotation("J2", "c", (4, 3, 2, 1))]
        with pytest.raises(EvaluationError, match=r"^system 'late': position 5 outside 1\.\.4 of the annotations$"):
            cs.build_report(judges, {"late": (1, 5)}, 0.5)
        with pytest.raises(EvaluationError, match="outside 1..4"):
            cs.system_performance((0, 2), judges)

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from centroidsumm import (
    EvaluationError,
    SubsumptionAnnotation,
    SubsumptionGraph,
    UtilityAnnotation,
    agreement_curve,
    build_report,
    cross_judge_matrix,
    csis_agreement_tally,
    csis_consensus,
    extract_utility,
    judge_extract,
    load_subsumption_annotation,
    load_utility_annotation,
    max_utility,
    mean_cross_judge,
    normalized_performance,
    percent_agreement,
    precision_recall,
    random_performance,
    report_cross_judge,
    report_random_performance,
    report_system_performance,
    report_to_dict,
    round_half_up,
    system_performance,
)
from helpers import save_subsumption_annotation, save_utility_annotation


class TestAnnotations:
    def test_utility_range_enforced(self):
        with pytest.raises(ValueError, match="outside 0..10"):
            UtilityAnnotation("J", "c", (3, 11))
        with pytest.raises(ValueError, match="outside 0..10"):
            UtilityAnnotation("J", "c", (-1,))

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            UtilityAnnotation("J", "c", ())

    def test_self_subsumption_rejected(self):
        with pytest.raises(ValueError, match="subsume itself"):
            SubsumptionAnnotation("J", "c", {3: frozenset({3})})


class TestJudgeExtract:
    def test_first_judge_picks_top_two(self, judges):
        assert judge_extract(judges[0], 2) == {1, 2}

    def test_third_judge_picks_two_and_four(self, judges):
        assert judge_extract(judges[2], 2) == {2, 4}

    def test_ties_prefer_earlier_position(self):
        ann = UtilityAnnotation("J", "c", (7, 7, 7))
        assert judge_extract(ann, 2) == {1, 2}

    def test_k_out_of_range(self, judges):
        with pytest.raises(ValueError):
            judge_extract(judges[0], 0)
        with pytest.raises(ValueError):
            judge_extract(judges[0], 5)

    @given(
        utilities=st.lists(st.integers(0, 5), min_size=2, max_size=8),
        lam=st.sampled_from([1, 2]),
        k=st.integers(1, 2),
    )
    @settings(max_examples=60)
    def test_invariant_under_positive_scaling(self, utilities, lam, k):
        base = UtilityAnnotation("J", "c", tuple(utilities))
        scaled = UtilityAnnotation("J", "c", tuple(u * lam for u in utilities))
        assert judge_extract(base, k) == judge_extract(scaled, k)


class TestMaxUtility:
    def test_per_judge_maxima(self, judges):
        assert [max_utility(ann, 2) for ann in judges] == [18, 19, 17]

    def test_ranking_and_prefix_sums_are_derived_once(self):
        ann = UtilityAnnotation("J", "c", (3, 9, 3, 0, 9))
        assert ann.ranked == (2, 5, 1, 3, 4)  # ties stay in position order
        assert ann.best == (9, 18, 21, 24, 24)
        assert [max_utility(ann, k) for k in range(1, 6)] == list(ann.best)
        # derived fields take no part in equality or repr
        assert ann == UtilityAnnotation("J", "c", (3, 9, 3, 0, 9))
        assert repr(ann) == "UtilityAnnotation(judge_id='J', cluster_id='c', utilities=(3, 9, 3, 0, 9))"


class TestCrossJudge:
    def test_matrix_diagonal_exactly_one(self, judges):
        matrix = cross_judge_matrix(judges, 0.5)
        for i in range(3):
            assert matrix[i][i] == 1.0

    def test_matrix_is_asymmetric(self, judges):
        matrix = cross_judge_matrix(judges, 0.5)
        assert matrix[0][2] == pytest.approx(13 / 17)
        assert matrix[2][0] == pytest.approx(13 / 18)
        assert matrix[0][2] != matrix[2][0]

    def test_matrix_entries_bounded(self, judges):
        for row in cross_judge_matrix(judges, 0.5):
            for value in row:
                assert 0.0 <= value <= 1.0

    def test_rounded_pipeline_matches_reference_table(self, judges):
        matrix, per_judge, mean_j = report_cross_judge(judges, 0.5)
        assert matrix == [[1.0, 1.0, 0.765], [1.0, 1.0, 0.765], [0.722, 0.789, 1.0]]
        assert per_judge == (0.883, 0.883, 0.756)
        assert mean_j == 0.841

    def test_full_precision_mean(self, judges):
        _, mean_j = mean_cross_judge(cross_judge_matrix(judges, 0.5))
        assert mean_j == pytest.approx(0.840185, abs=1e-6)

    def test_requires_two_judges(self, judges):
        with pytest.raises(EvaluationError, match="at least 2"):
            cross_judge_matrix(judges[:1], 0.5)

    def test_rejects_mixed_clusters(self, judges):
        other = UtilityAnnotation("J9", "different", (1, 2, 3, 4))
        with pytest.raises(EvaluationError, match="mix clusters"):
            cross_judge_matrix(judges + [other], 0.5)

    def test_rejects_mismatched_lengths(self, judges):
        other = UtilityAnnotation("J9", "quad", (1, 2, 3))
        with pytest.raises(EvaluationError, match="annotated 3 sentences"):
            cross_judge_matrix(judges + [other], 0.5)

    def test_rejects_a_judge_given_twice(self, judges, subsumption_judges):
        """A judge given twice would count twice in every mean over judges (agreement would read 1.0)."""
        calls = [
            lambda: agreement_curve([judges[0], judges[0]], [0.25, 0.5]),
            lambda: cross_judge_matrix(judges + judges[:1], 0.5),
            lambda: build_report(judges + judges[:1], {"system": (1, 2)}, 0.5),
            lambda: system_performance((1, 2), judges + judges[:1]),
            lambda: csis_consensus(subsumption_judges + subsumption_judges[:1], 1),
            lambda: csis_agreement_tally(subsumption_judges + subsumption_judges[:1]),
        ]
        for call in calls:
            with pytest.raises(EvaluationError, match="^judge 'J1' is given more than once$"):
                call()
        assert agreement_curve(judges, [0.25, 0.5]) == [(0.25, 0.702), (0.5, 0.841)]  # distinct judges

    def test_huge_ids_and_labels_are_quoted_short(self, judges):
        huge = "J" * 1_000_000
        calls = [
            lambda: cross_judge_matrix(judges + [UtilityAnnotation(huge, "quad", (1, 2, 3))], 0.5),
            lambda: cross_judge_matrix(judges + [UtilityAnnotation("J9", huge, (1, 2, 3, 4))], 0.5),
            lambda: cross_judge_matrix(judges + [UtilityAnnotation(huge, "quad", (0, 0, 0, 0))], 0.5),
            lambda: build_report(judges, {huge: (1,)}, 0.5),
            lambda: build_report(judges, {huge: (1, 5)}, 0.5),
            lambda: UtilityAnnotation(huge, "quad", (1, 11)),
            lambda: UtilityAnnotation(huge, "quad", ()),
            lambda: SubsumptionAnnotation(huge, "quad", {3: frozenset({3})}),
        ]
        for call in calls:
            with pytest.raises(ValueError) as caught:
                call()
            assert len(str(caught.value)) < 200 and "JJJ..." in str(caught.value)

    def test_rejects_all_zero_judge(self, judges):
        zero = UtilityAnnotation("J0", "quad", (0, 0, 0, 0))
        with pytest.raises(EvaluationError, match="zero utility"):
            cross_judge_matrix(judges + [zero], 0.5)


class TestSystemPerformance:
    def test_reference_six_subsets(self, judges):
        expected = {
            (1, 2): 0.922,
            (1, 3): 0.627,
            (1, 4): 0.833,
            (2, 3): 0.631,
            (2, 4): 0.837,
            (3, 4): 0.543,
        }
        for subset, value in expected.items():
            assert report_system_performance(subset, judges) == value
            assert system_performance(subset, judges) == pytest.approx(value, abs=1e-3)

    def test_never_exceeds_max_utility(self, judges):
        for subset in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]:
            for ann in judges:
                assert extract_utility(subset, ann) <= max_utility(ann, 2)


class TestRandomPerformance:
    def test_closed_form_matches_reference_value(self, judges):
        assert report_random_performance(judges, 0.5) == 0.732

    def test_enumerate_equals_closed_form(self, judges):
        closed = random_performance(judges, 0.5, mode="closed_form")
        enumerated = random_performance(judges, 0.5, mode="enumerate")
        assert enumerated == pytest.approx(closed, abs=1e-12)

    def test_sits_between_extreme_systems(self, judges):
        values = [system_performance(s, judges) for s in [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]]
        r_value = random_performance(judges, 0.5)
        assert min(values) <= r_value <= max(values)

    def test_unknown_mode_rejected(self, judges):
        with pytest.raises(ValueError, match="unknown mode"):
            random_performance(judges, 0.5, mode="guess")

    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_dual_route_equality_on_random_instances(self, data):
        n = data.draw(st.integers(2, 8))
        judges = []
        for j in range(data.draw(st.integers(2, 4))):
            utilities = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
            if not any(utilities):
                utilities[0] = 1
            judges.append(UtilityAnnotation(f"J{j}", "c", tuple(utilities)))
        r = data.draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
        closed = random_performance(judges, r, mode="closed_form")
        enumerated = random_performance(judges, r, mode="enumerate")
        assert enumerated == pytest.approx(closed, abs=1e-12)


class TestNormalizedPerformance:
    def test_linear_map_identity(self):
        assert normalized_performance(0.732, 0.841, 0.732) == 0.0
        assert normalized_performance(0.841, 0.841, 0.732) == 1.0

    def test_judges_no_better_than_chance_rejected(self):
        with pytest.raises(EvaluationError, match="no better than chance"):
            normalized_performance(0.5, 0.4, 0.4)


class TestLegacyMetrics:
    # ten sentences; the ideal picks the first two; system one hits one of
    # them, system two hits none
    IDEAL = frozenset({1, 2})
    SYSTEM_ONE = frozenset({1, 3})
    SYSTEM_TWO = frozenset({3, 4})

    def test_precision_recall(self):
        assert precision_recall(self.SYSTEM_ONE, self.IDEAL) == (0.5, 0.5)
        assert precision_recall(self.SYSTEM_TWO, self.IDEAL) == (0.0, 0.0)

    def test_percent_agreement(self):
        assert percent_agreement(self.SYSTEM_ONE, self.IDEAL, 10) == 0.8
        assert percent_agreement(self.SYSTEM_TWO, self.IDEAL, 10) == 0.6

    def test_utility_coverage(self):
        ann = UtilityAnnotation("J", "c", (10, 9, 8, 7, 0, 0, 0, 0, 0, 0))
        assert max_utility(ann, 2) == 19
        assert extract_utility(self.SYSTEM_ONE, ann) == 18.0
        assert extract_utility(self.SYSTEM_TWO, ann) == 15.0

    def test_empty_extracts_rejected(self):
        with pytest.raises(ValueError):
            precision_recall(set(), {1})

    @given(
        system=st.sets(st.integers(1, 10), min_size=1, max_size=5),
        ideal=st.sets(st.integers(1, 10), min_size=1, max_size=5),
    )
    @settings(max_examples=60)
    def test_agreement_symmetric_difference_identity(self, system, ideal):
        value = percent_agreement(system, ideal, 10)
        assert value == pytest.approx(1 - len(system ^ ideal) / 10)


class TestSubsumption:
    def test_consensus_threshold(self, subsumption_judges):
        graph = csis_consensus(subsumption_judges, threshold=3)
        assert 12 in graph.neighbours[1]
        assert 16 in graph.neighbours[2]
        assert 21 in graph.neighbours[4]
        assert 21 not in graph.neighbours.get(3, ())  # only one judge marked it
        assert 13 not in graph.neighbours.get(5, ())

    def test_empty_judge_sets_rejected(self):
        calls = [lambda: csis_consensus([], 1), lambda: csis_agreement_tally([]), lambda: random_performance([], 0.5)]
        for call in calls:
            with pytest.raises(EvaluationError, match="need at least 1 judge"):
                call()

    def test_consensus_requires_same_cluster(self, subsumption_judges):
        stray = SubsumptionAnnotation("J9", "elsewhere", {1: frozenset({2})})
        with pytest.raises(EvaluationError, match="mix clusters"):
            csis_consensus(subsumption_judges + [stray], threshold=2)

    def test_consensus_threshold_above_the_judges_rejected(self, subsumption_judges):
        count = len(subsumption_judges)
        message = f"^agreement threshold {count + 1} exceeds the {count} subsumption judges$"
        with pytest.raises(EvaluationError, match=message):
            csis_consensus(subsumption_judges, threshold=count + 1)
        assert csis_consensus(subsumption_judges, threshold=count).edges == frozenset()  # reachable, if by none

    @pytest.mark.parametrize(
        "graph, message",
        [
            (SubsumptionGraph("OTHER", frozenset({(1, 4), (7, 9)}), 1),
             "subsumption graph is for cluster 'OTHER'; the annotations are for cluster 'quad'"),
            (SubsumptionGraph("quad", frozenset({(1, 4), (7, 9)}), 1), "subsumption graph: position 7 outside 1..4 of the annotations"),
            (SubsumptionGraph("quad", frozenset({(0, 2)}), 1), "subsumption graph: position 0 outside 1..4 of the annotations"),
        ],
        ids=["another-cluster", "beyond-n", "position-0"],
    )
    def test_graph_of_another_cluster_rejected(self, judges, graph, message):
        calls = [
            lambda: build_report(judges, {"s14": (1, 4)}, 0.5, graph, 0.0),
            lambda: system_performance((1, 4), judges, graph, 0.0),
            lambda: report_system_performance((1, 4), judges, graph, 0.0),
        ]
        for call in calls:
            with pytest.raises(EvaluationError) as caught:
                call()
            assert str(caught.value) == message

    def test_discount_full_and_zero(self):
        # twelve sentences over three articles; the first sentences of
        # articles one and two repeat each other
        ann = UtilityAnnotation("J", "tri", (10, 8, 2, 5, 10, 9, 3, 6, 5, 8, 4, 9))
        graph = SubsumptionGraph("tri", frozenset({(5, 1)}), 1)
        assert extract_utility((1, 5), ann, graph, E=1.0) == 20.0
        assert extract_utility((1, 5), ann, graph, E=0.0) == 10.0

    def test_partial_discount(self):
        ann = UtilityAnnotation("J", "tri", (10, 8, 2, 5, 10, 9, 3, 6, 5, 8, 4, 9))
        graph = SubsumptionGraph("tri", frozenset({(5, 1)}), 1)
        assert extract_utility((1, 5), ann, graph, E=0.5) == pytest.approx(15.0)

    def test_absent_partner_keeps_full_credit(self):
        ann = UtilityAnnotation("J", "c", (10, 9, 8))
        graph = SubsumptionGraph("c", frozenset({(2, 1)}), 1)
        assert extract_utility((2, 3), ann, graph, E=0.0) == 17.0

    def test_earliest_member_of_equivalence_class_keeps_credit(self):
        ann = UtilityAnnotation("J", "c", (5, 7, 3))
        graph = SubsumptionGraph("c", frozenset({(1, 2), (2, 1)}), 1)
        assert extract_utility((1, 2), ann, graph, E=0.0) == 5.0

    def test_no_transitive_cascade(self):
        ann = UtilityAnnotation("J", "c", (4, 4, 4))
        # 2 repeats 1, 3 repeats 2, but 3 does not repeat 1
        graph = SubsumptionGraph("c", frozenset({(2, 1), (3, 2)}), 1)
        assert extract_utility((1, 3), ann, graph, E=0.0) == 8.0

    def test_neighbour_map_is_undirected(self):
        graph = SubsumptionGraph("c", frozenset({(2, 1), (3, 2), (4, 4)}), 1)
        assert graph.neighbours == {1: {2}, 2: {1, 3}, 3: {2}, 4: {4}}
        assert 2 in graph.neighbours[1] and 1 in graph.neighbours[2] and 3 not in graph.neighbours[1]
        assert graph == SubsumptionGraph("c", frozenset({(2, 1), (3, 2), (4, 4)}), 1)
        assert "neighbours" not in repr(graph)

    def test_credit_reads_each_members_edges_not_every_pair(self, monkeypatch):
        # a 2,000-sentence chain: a pairwise test over the edge set would make
        # about two million lookups; credit reads the neighbour map, never the edges
        n = 2_000
        ann = UtilityAnnotation("J", "c", (1,) * n)
        graph = SubsumptionGraph("c", frozenset((p + 1, p) for p in range(1, n)), 1)
        edges = property(lambda self: pytest.fail("credit read the edge set"))
        monkeypatch.setattr(SubsumptionGraph, "edges", edges, raising=False)
        assert extract_utility(range(1, n + 1), ann, graph, E=0.0) == 1.0
        assert extract_utility(range(1, n + 1, 2), ann, graph, E=0.0) == n / 2

    @given(e_pair=st.tuples(st.floats(0, 1), st.floats(0, 1)))
    @settings(max_examples=40)
    def test_monotone_in_discount_factor(self, e_pair):
        low, high = sorted(e_pair)
        ann = UtilityAnnotation("J", "c", (10, 9, 8, 7))
        graph = SubsumptionGraph("c", frozenset({(2, 1), (4, 3)}), 1)
        assert extract_utility((1, 2, 3, 4), ann, graph, low) <= extract_utility(
            (1, 2, 3, 4), ann, graph, high
        )


class TestAgreementTally:
    def test_reference_plus_minus_scores(self, subsumption_judges):
        tally = csis_agreement_tally(subsumption_judges, n=7)
        observed = [
            (row.plus_score, row.minus_score) for row in tally.rows
        ]
        assert observed == [
            (3, None),
            (3, None),
            (None, 4),
            (4, None),
            (None, 2),
            (None, 4),
            (None, 4),
        ]

    def test_histogram_buckets(self, subsumption_judges):
        tally = csis_agreement_tally(subsumption_judges, n=7)
        assert tally.histogram == {(3, "+"): 2, (4, "+"): 1, (4, "-"): 3, (2, "-"): 1}

    def test_unbounded_scope_covers_marked_positions(self, subsumption_judges):
        tally = csis_agreement_tally(subsumption_judges)
        assert [row.position for row in tally.rows] == [1, 2, 3, 4, 5, 6, 7]

    def test_tie_prefers_subsumption(self):
        judges = [
            SubsumptionAnnotation("J1", "c", {1: frozenset({9})}),
            SubsumptionAnnotation("J2", "c", {}),
        ]
        tally = csis_agreement_tally(judges, n=1)
        assert tally.rows[0].plus_score == 1
        assert tally.rows[0].minus_score is None


class TestAgreementCurve:
    def test_half_rate_point(self, judges):
        curve = dict(agreement_curve(judges))
        assert curve[0.5] == 0.841

    def test_default_grid(self, judges):
        rates = [r for r, _ in agreement_curve(judges)]
        assert rates == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]

    def test_identical_judges_agree_fully(self):
        judges = [UtilityAnnotation(f"J{i}", "c", (9, 7, 5, 3, 1)) for i in range(3)]
        for _, mean_j in agreement_curve(judges):
            assert mean_j == 1.0

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_per_rate_recomputation(self, data):
        n = data.draw(st.integers(3, 7))
        judges = []
        for j in range(3):
            utilities = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
            if not any(utilities):
                utilities[-1] = 5
            judges.append(UtilityAnnotation(f"J{j}", "c", tuple(utilities)))
        curve = agreement_curve(judges, r_grid=[0.3, 0.6])
        for r, mean_j in curve:
            assert mean_j == report_cross_judge(judges, r)[2]


class TestRounding:
    def test_half_up_not_bankers(self):
        assert round_half_up(0.8425) == 0.843
        assert round_half_up(0.0005) == 0.001
        assert round_half_up(0.9265) == 0.927


class TestBuildReport:
    def test_reference_report(self, judges):
        report = build_report(judges, {"s14": (1, 4), "s24": (2, 4), "s12": (1, 2)}, 0.5)
        assert report.mean_J == 0.841
        assert report.R == 0.732
        assert report.S == {"s14": 0.833, "s24": 0.837, "s12": 0.922}
        assert round_half_up(report.D["s14"]) == 0.927
        assert round_half_up(report.D["s24"]) == 0.963
        assert report.D["s12"] > 1.0

    def test_d_consistent_with_its_inputs(self, judges):
        report = build_report(judges, {"sys": (1, 4)}, 0.5)
        for label, d in report.D.items():
            recomputed = (report.S[label] - report.R) / (report.mean_J - report.R)
            assert abs(d - recomputed) <= 1e-9

    def test_wrong_extract_size_rejected(self, judges):
        with pytest.raises(EvaluationError, match="expected k=2"):
            build_report(judges, {"sys": (1, 2, 3)}, 0.5)

    def test_chance_level_judges_rejected(self):
        flat = [
            UtilityAnnotation("J1", "c", (5, 5, 5, 5)),
            UtilityAnnotation("J2", "c", (5, 5, 5, 5)),
        ]
        # every subset scores identically, so J == R exactly
        with pytest.raises(EvaluationError, match="no better than chance"):
            build_report(flat, {"sys": (1, 2)}, 0.5)

    def test_csis_variant(self, judges):
        graph = SubsumptionGraph("quad", frozenset({(2, 1)}), 1)
        report = build_report(judges, {"s12": (1, 2)}, 0.5, graph=graph, E=0.0)
        assert report.S_csis["s12"] < report.S["s12"]
        assert report.D_csis["s12"] < report.D["s12"]
        assert report.E == 0.0

    def test_report_dict_round_figures(self, judges):
        report = build_report(judges, {"s14": (1, 4)}, 0.5)
        payload = report_to_dict(report)
        assert payload["mean_j"] == 0.841
        assert payload["random"] == 0.732
        assert payload["systems"]["s14"] == {"s": 0.833, "d": 0.927}
        assert payload["k"] == 2


class TestAnnotationFiles:
    def test_utility_round_trip(self, tmp_path, judges):
        path = tmp_path / "j1.json"
        save_utility_annotation(judges[0], path)
        again = load_utility_annotation(path)
        assert again == judges[0]

    def test_subsumption_round_trip(self, tmp_path, subsumption_judges):
        path = tmp_path / "s1.json"
        save_subsumption_annotation(subsumption_judges[1], path)
        again = load_subsumption_annotation(path)
        assert again.judge_id == subsumption_judges[1].judge_id
        assert dict(again.subsumers) == dict(subsumption_judges[1].subsumers)

    def test_malformed_utility_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"judge_id": "J"}')
        with pytest.raises(ValueError) as err:
            load_utility_annotation(path)
        assert str(err.value) == f"{path}: missing field 'cluster_id'"


class TestExactExpectation:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_closed_form_is_true_expectation(self, data):
        # cross-check the closed form against an exact Fraction-based average
        n = data.draw(st.integers(2, 7))
        utilities = data.draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
        if not any(utilities):
            utilities[0] = 3
        ann = UtilityAnnotation("J", "c", tuple(utilities))
        k = data.draw(st.integers(1, n))
        import itertools

        total = Fraction(0)
        count = 0
        for subset in itertools.combinations(range(1, n + 1), k):
            total += Fraction(sum(utilities[p - 1] for p in subset), max_utility(ann, k))
            count += 1
        exact = total / count
        closed = Fraction(k) * Fraction(sum(utilities), n) / max_utility(ann, k)
        assert exact == closed

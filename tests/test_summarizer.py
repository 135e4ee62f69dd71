import itertools
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from centroidsumm import (
    Centroid,
    CentroidEntry,
    EnumerationCapError,
    IdfModel,
    LEAD_CENTROID,
    PRESETS,
    PURE_CENTROID,
    RerankCapWarning,
    ScoreWeights,
    SentenceScore,
    build_centroid,
    build_idf,
    centroid_value,
    compression_size,
    enumerate_extracts,
    extract,
    extract_to_dict,
    first_sentence_overlap,
    lead_baseline,
    positional_value,
    redundancy_rerank,
    score_sentences,
    summary_text,
    word_overlap,
)
from helpers import make_cluster, make_document


def centroid_of(weights: dict, cluster_id: str = "c") -> Centroid:
    entries = {
        term: CentroidEntry(count=1.0, idf=weight, weight=weight)
        for term, weight in weights.items()
    }
    return Centroid(cluster_id=cluster_id, entries=entries)


def scores_from(values, cluster_id: str = "c"):
    return [
        SentenceScore(position=i, c=v, p=0.0, f=0.0, base=v)
        for i, v in enumerate(values, 1)
    ]


class TestCompressionSize:
    def test_fifty_sentences_at_twenty_percent(self):
        assert compression_size(50, 0.20) == 10

    def test_four_sentences_at_half(self):
        assert compression_size(4, 0.50) == 2

    def test_floors_at_one(self):
        assert compression_size(20, 0.01) == 1

    def test_rounds_half_up(self):
        assert compression_size(10, 0.25) == 3  # 2.5 rounds up
        assert compression_size(10, 0.24) == 2

    def test_grid_on_twenty_sentences(self):
        ks = [compression_size(20, r / 10) for r in range(1, 10)]
        assert ks == [2, 4, 6, 8, 10, 12, 14, 16, 18]

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            compression_size(10, 0.0)
        with pytest.raises(ValueError):
            compression_size(10, 1.5)


class TestScoreWeights:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            ScoreWeights(0.0, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ScoreWeights(1.0, -0.5, 0.0)

    def test_presets(self):
        assert PRESETS["pure-centroid"] == PURE_CENTROID == ScoreWeights(1.0, 0.0, 0.0)
        assert PRESETS["lead-centroid"] == LEAD_CENTROID == ScoreWeights(1.0, 1.0, 0.0)


class TestCentroidValue:
    def test_no_shared_terms(self):
        cluster = make_cluster("c", {"a": ["nothing relevant here"]})
        centroid = centroid_of({"belgium": 76.86})
        assert centroid_value(cluster.sentence_at(1), centroid) == 0.0

    def test_single_matching_token(self):
        cluster = make_cluster("c", {"a": ["belgium"]})
        centroid = centroid_of({"belgium": 76.86})
        assert centroid_value(cluster.sentence_at(1), centroid) == pytest.approx(76.86)

    def test_each_occurrence_counts(self):
        cluster = make_cluster("c", {"a": ["belgium belgium gia"]})
        centroid = centroid_of({"belgium": 76.86, "gia": 62.90})
        assert centroid_value(cluster.sentence_at(1), centroid) == pytest.approx(216.62)

    def test_fixture_values_are_left_to_right_sums_on_every_python(self, news_cluster):
        # a compensated sum (the built-in sum from Python 3.12) gives 4.562 and 7.5125 here
        centroid = build_centroid(news_cluster, build_idf(news_cluster.documents))
        values = [centroid_value(sentence, centroid) for sentence in news_cluster.sentences()]
        assert values[1] == 4.562000000000002
        assert values[10] == 7.512500000000001


class TestPositionalValue:
    def test_first_sentence_gets_c_max(self):
        cluster = make_cluster("c", {"a": [f"s{i}" for i in range(11)]})
        assert positional_value(cluster.sentence_at(1), cluster, 100.0) == pytest.approx(100.0)

    def test_last_sentence_gets_c_max_over_length(self):
        cluster = make_cluster("c", {"a": [f"s{i}" for i in range(11)]})
        assert positional_value(cluster.sentence_at(11), cluster, 100.0) == pytest.approx(100.0 / 11)

    def test_single_sentence_document(self):
        cluster = make_cluster("c", {"a": ["only one"]})
        for c_max in (0.0, 5.0, 123.4):
            assert positional_value(cluster.sentence_at(1), cluster, c_max) == pytest.approx(c_max)


class TestFirstSentenceOverlap:
    def test_disjoint_from_first_sentence(self):
        cluster = make_cluster("c", {"a": ["alpha beta", "gamma delta"]})
        assert first_sentence_overlap(cluster.sentence_at(2), cluster) == 0.0

    def test_first_sentence_against_itself(self):
        cluster = make_cluster("c", {"a": ["a a b"]})
        assert first_sentence_overlap(cluster.sentence_at(1), cluster) == pytest.approx(5.0)

    def test_count_product(self):
        cluster = make_cluster("c", {"a": ["a a a", "a"]})
        assert first_sentence_overlap(cluster.sentence_at(2), cluster) == pytest.approx(3.0)


class TestScoreSentences:
    def test_pure_centroid_base_equals_c(self):
        cluster = make_cluster("c", {"a": ["belgium stands", "nothing here"]})
        centroid = centroid_of({"belgium": 10.0})
        scores = score_sentences(cluster, centroid, PURE_CENTROID)
        assert [s.base for s in scores] == [s.c for s in scores]
        assert scores[0].penalty == 0.0

    def test_lead_centroid_first_sentence_boost(self):
        cluster = make_cluster("c", {"a": ["belgium belgium", "belgium later"]})
        centroid = centroid_of({"belgium": 10.0})
        scores = score_sentences(cluster, centroid, LEAD_CENTROID)
        c_max = max(s.c for s in scores)
        assert scores[0].base == pytest.approx(scores[0].c + c_max)

    def test_overflowing_base_score_rejected(self):
        cluster = make_cluster("c", {"a": ["flood flood warning", "flood"]})
        centroid = build_centroid(cluster, IdfModel(n_docs=10, df={}))
        with pytest.raises(ValueError, match="^cluster 'c': sentence 1: base score inf is not finite$"):
            score_sentences(cluster, centroid, ScoreWeights(1e308, 1e308, 0.0))

    def test_mismatched_cluster_ids_rejected(self):
        cluster = make_cluster("c", {"a": ["words here"]})
        centroid = centroid_of({"words": 1.0}, cluster_id="other")
        with pytest.raises(ValueError, match="cluster"):
            score_sentences(cluster, centroid, PURE_CENTROID)

    def test_huge_cluster_ids_are_quoted_short(self):
        cluster = make_cluster("c" * 1_000_000, {"a": ["words here"]})
        centroid = centroid_of({"words": 1.0}, cluster_id="o" * 1_000_000)
        with pytest.raises(ValueError) as err:
            score_sentences(cluster, centroid, PURE_CENTROID)
        assert str(err.value) == (
            "cluster 'cccccccccccc...ccccccccccccc' does not match centroid 'oooooooooooo...ooooooooooooo'"
        )


class TestExtract:
    def test_top_half_of_four(self):
        cluster = make_cluster("c", {"a": ["s one", "s two", "s three", "s four"]})
        ext = extract(cluster, scores_from([10, 8, 2, 5]), 0.5)
        assert ext.selected == (1, 2)
        assert ext.k == 2

    @pytest.mark.parametrize("select", [extract, redundancy_rerank], ids=["extract", "redundancy_rerank"])
    def test_too_few_scores_rejected(self, select):
        cluster = make_cluster("c", {"a": ["s one", "s two", "s three", "s four"]})
        with pytest.raises(ValueError, match="^expected 4 scores, got 3$"):
            select(cluster, scores_from([10, 8, 2]), 0.5)

    def test_tied_top_scores_prefer_earlier_position(self):
        cluster = make_cluster("c", {"a": [f"s{i}" for i in range(8)]})
        values = [0, 0, 7, 0, 0, 0, 7, 0]
        ext = extract(cluster, scores_from(values), 0.1)
        assert ext.selected == (3,)

    def test_output_ascending_regardless_of_score_order(self):
        cluster = make_cluster("c", {"a": [f"s{i}" for i in range(5)]})
        ext = extract(cluster, scores_from([1, 9, 2, 8, 3]), 0.6)
        assert list(ext.selected) == sorted(ext.selected)
        assert ext.selected == (2, 4, 5)

    @given(lam=st.floats(min_value=0.001, max_value=1000))
    @settings(max_examples=30)
    def test_selection_scale_invariant(self, lam):
        cluster = make_cluster("c", {"a": [f"s{i}" for i in range(6)]})
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0]
        plain = extract(cluster, scores_from(values), 0.5).selected
        scaled = extract(cluster, scores_from([v * lam for v in values]), 0.5).selected
        assert scaled == plain


class TestWordOverlap:
    def test_identical_sentences(self):
        cluster = make_cluster("c", {"a": ["the same words", "the same words"]})
        assert word_overlap(cluster.sentence_at(1), cluster.sentence_at(2)) == 1.0

    def test_disjoint_sentences(self):
        cluster = make_cluster("c", {"a": ["alpha beta", "gamma delta"]})
        assert word_overlap(cluster.sentence_at(1), cluster.sentence_at(2)) == 0.0

    def test_occurrences_match_up_to_min(self):
        cluster = make_cluster("c", {"a": ["a a b", "a c"]})
        assert word_overlap(cluster.sentence_at(1), cluster.sentence_at(2)) == pytest.approx(0.4)

    def test_empty_sentence_rejected(self):
        cluster = make_cluster("c", {"a": ["real words", "..."]})
        with pytest.raises(ValueError, match="non-empty"):
            word_overlap(cluster.sentence_at(1), cluster.sentence_at(2))

    @given(
        left=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
        right=st.lists(st.sampled_from("abcdef"), min_size=1, max_size=8),
    )
    @settings(max_examples=100)
    def test_symmetric_and_bounded(self, left, right):
        cluster = make_cluster("c", {"a": [" ".join(left), " ".join(right)]})
        s1, s2 = cluster.sentence_at(1), cluster.sentence_at(2)
        forward = word_overlap(s1, s2)
        assert forward == word_overlap(s2, s1)
        assert 0.0 <= forward <= 1.0


class TestRedundancyRerank:
    def test_no_shared_words_equals_plain_extract(self):
        cluster = make_cluster("c", {"a": ["alpha beta", "gamma delta", "epsilon zeta", "eta theta"]})
        scores = scores_from([4, 3, 2, 1])
        assert redundancy_rerank(cluster, scores, 0.5).selected == extract(cluster, scores, 0.5).selected

    def test_duplicate_displaced_by_third_sentence(self):
        cluster = make_cluster(
            "c",
            {"a": ["troops entered the city", "troops entered the city", "aid convoys waited outside"]},
        )
        ext = redundancy_rerank(cluster, scores_from([10.0, 9.5, 7.0]), 2 / 3)
        assert ext.selected == (1, 3)

    def test_cap_warns_once_and_keeps_the_last_selection(self):
        # round 1 swaps the duplicate for sentence 3; confirming that takes a second round
        cluster = make_cluster(
            "dup",
            {"a": ["troops entered the city", "troops entered the city", "aid convoys waited outside"]},
        )
        scores = scores_from([10.0, 9.5, 7.0])
        with pytest.warns(RerankCapWarning) as caught:
            ext = redundancy_rerank(cluster, scores, 2 / 3, max_iterations=1)
        assert [str(w.message) for w in caught] == [
            "cluster 'dup' at r=0.666667: the redundancy rerank ran its cap of 1 rounds "
            "without a stable or repeated selection; kept the last one"
        ]
        assert ext.selected == (1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RerankCapWarning)
            assert redundancy_rerank(cluster, scores, 2 / 3, max_iterations=2) == ext

    def test_k_one_never_penalizes(self):
        cluster = make_cluster("c", {"a": ["same words here", "same words here", "other text"]})
        scores = scores_from([5, 4, 3])
        ext = redundancy_rerank(cluster, scores, 0.3)
        assert ext.selected == extract(cluster, scores, 0.3).selected == (1,)
        assert all(s.penalty == 0.0 for s in ext.scores)

    def test_penalized_scores_reported(self):
        cluster = make_cluster("c", {"a": ["x y z", "x y z", "p q r"]})
        ext = redundancy_rerank(cluster, scores_from([10.0, 9.9, 1.0]), 2 / 3)
        by_position = {s.position: s for s in ext.scores}
        assert by_position[1].penalty == 0.0
        for score in ext.scores:
            assert score.final <= score.base

    def test_requires_untouched_base_scores(self):
        cluster = make_cluster("c", {"a": ["a b", "c d"]})
        touched = [SentenceScore(position=1, c=2.0, p=0.0, f=0.0, base=2.0, penalty=1.0),
                   SentenceScore(position=2, c=1.0, p=0.0, f=0.0, base=1.0)]
        with pytest.raises(ValueError):
            redundancy_rerank(cluster, touched, 0.5)

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_terminates_and_keeps_k(self, data):
        n = data.draw(st.integers(min_value=2, max_value=12))
        texts = [
            " ".join(data.draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4)))
            for _ in range(n)
        ]
        values = [data.draw(st.floats(min_value=0, max_value=10)) for _ in range(n)]
        cluster = make_cluster("c", {"a": texts})
        ext = redundancy_rerank(cluster, scores_from(values), 0.5)
        assert len(ext.selected) == compression_size(n, 0.5)
        assert list(ext.selected) == sorted(ext.selected)


class TestLeadBaseline:
    def test_two_docs_half_rate(self):
        cluster = make_cluster(
            "c",
            {
                "a": [f"alpha {i}" for i in range(11)],
                "b": [f"beta {i}" for i in range(9)],
            },
        )
        ext = lead_baseline(cluster, 0.5)
        assert ext.selected == (1, 2, 3, 4, 5, 12, 13, 14, 15, 16)

    def test_single_doc_takes_first_k(self):
        cluster = make_cluster("c", {"a": [f"s{i}" for i in range(10)]})
        assert lead_baseline(cluster, 0.3).selected == (1, 2, 3)

    def test_three_docs_one_each(self):
        cluster = make_cluster(
            "c",
            {
                "a": ["a1 x", "a2 x", "a3 x", "a4 x"],
                "b": ["b1 x", "b2 x", "b3 x", "b4 x"],
                "d": ["d1 x", "d2 x", "d3 x", "d4 x"],
            },
        )
        ext = lead_baseline(cluster, 0.25)
        assert ext.k == 3
        assert ext.selected == (1, 5, 9)

    def test_tiny_rate_takes_earliest_lead(self):
        cluster = make_cluster(
            "c",
            {"a": [f"a{i} x" for i in range(10)], "b": [f"b{i} x" for i in range(10)]},
        )
        ext = lead_baseline(cluster, 0.05)
        assert ext.selected == (1,)


class TestEnumerateExtracts:
    def test_four_choose_two(self):
        subsets = list(enumerate_extracts(4, 2))
        assert subsets == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]

    def test_k_equals_n(self):
        assert list(enumerate_extracts(3, 3)) == [(1, 2, 3)]

    def test_five_choose_two_count(self):
        assert len(list(enumerate_extracts(5, 2))) == 10

    def test_matches_combinations(self):
        assert list(enumerate_extracts(6, 3)) == list(itertools.combinations(range(1, 7), 3))

    def test_cap_exceeded_suggests_closed_form(self):
        with pytest.raises(EnumerationCapError, match="closed-form"):
            list(enumerate_extracts(40, 20, cap=10**6))

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            enumerate_extracts(4, 0)
        with pytest.raises(ValueError):
            enumerate_extracts(4, 5)


class TestExtractSerialization:
    def test_dict_shape(self):
        cluster = make_cluster("c", {"a": ["one two", "three four", "five six"]})
        ext = extract(cluster, scores_from([3, 2, 1]), 0.67)
        data = extract_to_dict(ext)
        assert data["cluster_id"] == "c"
        assert data["k"] == 2
        assert data["selected"] == [1, 2]
        assert {"position", "c", "p", "f", "base", "penalty", "final"} <= set(data["scores"][0])

    def test_summary_text_in_cluster_order(self):
        cluster = make_cluster("c", {"a": ["First sentence.", "Second sentence.", "Third sentence."]})
        ext = extract(cluster, scores_from([1, 5, 9]), 0.67)
        assert summary_text(cluster, ext) == "Second sentence.\nThird sentence."


class TestEndToEndScoring:
    def test_news_cluster_pure_centroid(self, news_cluster):
        model = IdfModel(n_docs=100, df={"algeria": 3, "decapitated": 1, "bodies": 2})
        centroid = build_centroid(news_cluster, model)
        scores = score_sentences(news_cluster, centroid, PURE_CENTROID)
        ext = extract(news_cluster, scores, 0.2)
        assert ext.k == 4
        assert len(ext.scores) == 4
        assert list(ext.selected) == sorted(ext.selected)

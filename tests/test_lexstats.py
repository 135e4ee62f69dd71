import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from centroidsumm import (
    IDF_FLOOR,
    IdfModel,
    assign_document,
    build_centroid,
    build_idf,
    incremental_cluster,
    load_idf,
    save_idf,
    tokenize,
    write_centroid_csv,
)
from helpers import background_documents, make_cluster, make_document


class TestIdfModel:
    def test_term_in_every_document_clamps_to_floor(self):
        model = IdfModel(n_docs=16, df={"the": 16})
        assert model.idf("the") == IDF_FLOOR

    def test_rare_term(self):
        model = IdfModel(n_docs=16, df={"algiers": 1})
        assert model.idf("algiers") == 4.0

    def test_unseen_term_gets_default(self):
        model = IdfModel(n_docs=16, df={})
        assert model.idf("zanzibar") == pytest.approx(math.log2(17))

    def test_all_idf_values_positive(self):
        model = IdfModel(n_docs=16, df={"a": 1, "b": 8, "c": 16})
        for term in ("a", "b", "c", "unseen"):
            assert model.idf(term) > 0

    def test_df_above_n_docs_rejected(self):
        with pytest.raises(ValueError):
            IdfModel(n_docs=4, df={"w": 5})

    def test_zero_df_rejected(self):
        with pytest.raises(ValueError):
            IdfModel(n_docs=4, df={"w": 0})


class TestBuildIdf:
    def test_counts_documents_not_occurrences(self):
        docs = [
            make_document("a", ["storm storm storm"]),
            make_document("b", ["storm hits coast"]),
            make_document("c", ["quiet day inland"]),
        ]
        model = build_idf(docs)
        assert model.n_docs == 3
        assert model.df["storm"] == 2
        assert model.df["quiet"] == 1

    def test_empty_background_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            build_idf([])


class TestBuildCentroid:
    def test_count_is_per_document_average(self):
        # 15 occurrences spread over 2 documents
        cluster = make_cluster(
            "c",
            {
                "a": ["gia gia gia gia gia gia gia gia"],
                "b": ["gia gia gia gia gia gia gia attack"],
            },
        )
        model = IdfModel(n_docs=100, df={"gia": 10, "attack": 50})
        centroid = build_centroid(cluster, model)
        assert centroid.entries["gia"].count == pytest.approx(7.50)

    def test_weight_is_count_times_idf(self):
        cluster = make_cluster("c", {"a": ["embassy fire embassy"], "b": ["fire crews"]})
        model = IdfModel(n_docs=64, df={"embassy": 2, "fire": 16, "crews": 32})
        centroid = build_centroid(cluster, model)
        for term, entry in centroid.entries.items():
            assert entry.weight == pytest.approx(entry.count * entry.idf, abs=1e-9)
            assert entry.idf == pytest.approx(model.idf(term))

    def test_threshold_drops_light_terms(self):
        cluster = make_cluster("c", {"a": ["belgium belgium belgium minor"]})
        model = IdfModel(n_docs=964, df={"belgium": 31, "minor": 900})
        keep_all = build_centroid(cluster, model, threshold=0.0)
        filtered = build_centroid(cluster, model, threshold=1.0)
        assert "minor" in keep_all.entries
        assert "minor" not in filtered.entries
        assert "belgium" in filtered.entries

    def test_document_order_does_not_matter(self):
        texts_a = ["algeria erupts in violence", "the army responded"]
        texts_b = ["violence claims lives in algeria"]
        model = IdfModel(n_docs=8, df={"algeria": 2, "violence": 2, "army": 1, "lives": 3})
        one = build_centroid(make_cluster("c", {"a": texts_a, "b": texts_b}), model)
        other = build_centroid(make_cluster("c", {"b": texts_b, "a": texts_a}), model)
        assert one.entries == other.entries

    @given(threshold_pairs=st.tuples(st.floats(0, 50), st.floats(0, 50)))
    @settings(max_examples=40)
    def test_raising_threshold_never_adds_entries(self, threshold_pairs):
        low, high = sorted(threshold_pairs)
        cluster = make_cluster(
            "c", {"a": ["rebels attack the northern town"], "b": ["town mourns attack victims"]}
        )
        model = IdfModel(n_docs=32, df={"rebels": 1, "attack": 2, "town": 4, "mourns": 1, "victims": 2})
        entries_low = set(build_centroid(cluster, model, low).entries)
        entries_high = set(build_centroid(cluster, model, high).entries)
        assert entries_high <= entries_low


def _cosine_oracle(counts_a: Counter, counts_b: Counter) -> float:
    # independent cosine for cross-checking assign_document
    dot = sum(counts_a[t] * counts_b[t] for t in counts_a)
    norm_a = math.sqrt(sum(v * v for v in counts_a.values()))
    norm_b = math.sqrt(sum(v * v for v in counts_b.values()))
    if norm_a == 0 or norm_b == 0:
        return 0.0
    return dot / (norm_a * norm_b)


class TestAssignDocument:
    def test_identical_document_maximal_similarity(self):
        text = ["the gia claimed responsibility for the attack"]
        cluster = make_cluster("c001", {"a": text})
        model = IdfModel(n_docs=10, df={t: 1 for t in "the gia claimed responsibility for attack".split()})
        centroid = build_centroid(cluster, model)
        doc = make_document("b", text, hour=9)
        assert assign_document([centroid], doc, model, sim_threshold=0.99) == "c001"

    def test_disjoint_document_starts_new_cluster(self):
        cluster = make_cluster("c001", {"a": ["markets rallied on earnings"]})
        model = IdfModel(n_docs=10, df={})
        centroid = build_centroid(cluster, model)
        doc = make_document("b", ["volcano erupts in iceland"], hour=9)
        assert assign_document([centroid], doc, model, sim_threshold=0.1) is None

    def test_second_wire_story_joins_first(self, news_cluster):
        # the two fixture articles cover the same event; an independently
        # computed count*idf cosine over their texts confirms the assignment.
        # the IDF model comes from unrelated boilerplate so that the shared
        # topical vocabulary keeps meaningful weight
        first, second = news_cluster.documents
        base = make_cluster("c001", {"18853": [s.text for s in first.sentences]})
        model = build_idf(background_documents())
        centroid = build_centroid(base, model)

        weighted_a = Counter()
        for sent in first.sentences:
            for term in tokenize(sent.text):
                weighted_a[term] += model.idf(term)
        weighted_b = Counter()
        for sent in second.sentences:
            for term in tokenize(sent.text):
                weighted_b[term] += model.idf(term)
        assert _cosine_oracle(weighted_a, weighted_b) >= 0.1

        assert assign_document([centroid], second, model, sim_threshold=0.1) == "c001"

    def test_tie_goes_to_earliest_centroid(self):
        model = IdfModel(n_docs=10, df={"flood": 1, "warning": 1})
        one = build_centroid(make_cluster("c001", {"a": ["flood warning"]}), model)
        two = build_centroid(make_cluster("c002", {"b": ["flood warning"]}), model)
        doc = make_document("d", ["flood warning"], hour=10)
        assert assign_document([two, one], doc, model, sim_threshold=0.5) == "c002"


class TestIncrementalCluster:
    def test_distinct_docs_split_at_full_threshold(self):
        docs = [
            make_document("a", ["markets rallied on earnings"], hour=8),
            make_document("b", ["volcano erupts near glacier"], hour=9),
        ]
        model = IdfModel(n_docs=10, df={})
        clusters = incremental_cluster(docs, model, sim_threshold=1.0)
        assert len(clusters) == 2
        assert [c.cluster_id for c in clusters] == ["c001", "c002"]

    def test_near_duplicates_merge(self):
        docs = [
            make_document("a", ["rebels attack the northern town"], hour=8),
            make_document("b", ["rebels attack a northern town again"], hour=9),
        ]
        model = IdfModel(n_docs=10, df={})
        clusters = incremental_cluster(docs, model, sim_threshold=0.3)
        assert len(clusters) == 1
        assert clusters[0].d == 2

    def test_processing_follows_timestamps_not_list_order(self):
        late = make_document("late", ["storm misses coast"], hour=20)
        early = make_document("early", ["storm hits coast"], hour=6)
        model = IdfModel(n_docs=10, df={})
        clusters = incremental_cluster([late, early], model, sim_threshold=0.5)
        assert clusters[0].documents[0].doc_id == "early"

    def test_empty_input_yields_no_clusters(self):
        model = IdfModel(n_docs=10, df={})
        assert incremental_cluster([], model, sim_threshold=0.1) == []


class TestPersistence:
    def test_idf_round_trip(self, tmp_path):
        model = IdfModel(n_docs=964, df={"belgium": 31, "gia": 60})
        path = tmp_path / "idf.json"
        save_idf(model, path)
        again = load_idf(path)
        assert again.n_docs == model.n_docs
        assert again.df == model.df

    def test_idf_file_bytes_stable(self, tmp_path):
        model = IdfModel(n_docs=5, df={"b": 2, "a": 1})
        save_idf(model, tmp_path / "one.json")
        save_idf(model, tmp_path / "two.json")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_centroid_csv_sorted_by_weight(self, tmp_path):
        cluster = make_cluster("c", {"a": ["belgium belgium gia attack"]})
        model = IdfModel(n_docs=964, df={"belgium": 31, "gia": 60, "attack": 500})
        centroid = build_centroid(cluster, model)
        path = tmp_path / "centroid.csv"
        write_centroid_csv(centroid, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "term,count,idf,weight"
        weights = [float(line.split(",")[3]) for line in lines[1:]]
        assert weights == sorted(weights, reverse=True)
        assert lines[1].startswith("belgium,")

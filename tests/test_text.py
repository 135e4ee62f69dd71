import json
import tempfile
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from centroidsumm import (
    LEAD_CENTROID,
    Cluster,
    ClusterParseError,
    Document,
    Sentence,
    build_centroid,
    build_idf,
    cluster_from_dict,
    cluster_to_dict,
    document_from_dict,
    document_to_dict,
    incremental_cluster,
    parse_cluster,
    redundancy_rerank,
    score_sentences,
    tokenize,
    write_cluster,
)
from centroidsumm.cli import _load_corpus_documents
from helpers import make_cluster, make_document


class TestTokenize:
    def test_plain_sentence(self):
        assert tokenize("The court found John Doe guilty") == [
            "the", "court", "found", "john", "doe", "guilty",
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_edge_punctuation_stripped(self):
        assert tokenize("AFP)") == ["afp"]
        assert tokenize("ALGIERS, May 20 (AFP)") == ["algiers", "may", "20", "afp"]

    def test_numerals_kept(self):
        assert tokenize("275 kilometers (170 miles)") == ["275", "kilometers", "170", "miles"]

    def test_each_match_lowercased_on_its_own(self):
        # "İ".lower() is "i" plus a combining dot, which stays in the word
        assert tokenize("İstanbul") == ["i\u0307stanbul"]

    def test_combining_marks_stay_in_the_word(self):
        # decomposed "café": e plus U+0301 does not end the word
        assert tokenize("Cafe\u0301 noir") == ["cafe\u0301", "noir"]
        assert tokenize("a\u20dd\u0301b c") == ["a\u20dd\u0301b", "c"]
        # a mark that follows no letter or digit separates like punctuation
        assert tokenize("_\u0301x \u0301") == ["x"]

    @given(st.text(max_size=80))
    @example("İ")
    @example("cafe\u0301")
    def test_idempotent_on_normalized_output(self, text):
        first = tokenize(text)
        assert tokenize(" ".join(first)) == first

    @given(st.text(max_size=80))
    def test_norms_lowercase_without_whitespace(self, text):
        for norm in tokenize(text):
            assert norm
            assert norm == norm.lower()
            assert not any(ch.isspace() for ch in norm)


class TestGlobalOrder:
    @staticmethod
    def pair(cluster, position):
        sentence = cluster.sentence_at(position)
        return sentence.doc_id, sentence.index_in_doc

    def test_two_documents_concatenate_chronologically(self):
        cluster = make_cluster(
            "c", {"a": [f"a {i}" for i in range(11)], "b": [f"b {i}" for i in range(9)]}
        )
        assert cluster.n == 20
        assert self.pair(cluster, 1) == ("a", 1)
        assert self.pair(cluster, 11) == ("a", 11)
        assert self.pair(cluster, 12) == ("b", 1)
        assert self.pair(cluster, 20) == ("b", 9)

    def test_single_document_identity(self):
        cluster = make_cluster("c", {"solo": ["one", "two", "three", "four"]})
        assert [self.pair(cluster, i) for i in range(1, 5)] == [("solo", i) for i in range(1, 5)]

    def test_equal_timestamps_break_by_doc_id(self):
        docs = [make_document("zz", ["later id"], hour=8), make_document("aa", ["earlier id"], hour=8)]
        from centroidsumm import Cluster

        cluster = Cluster.build("c", docs)
        assert self.pair(cluster, 1) == ("aa", 1)

    def test_bijection_positions_roundtrip(self):
        cluster = make_cluster("c", {"x": ["p q", "r s"], "y": ["t u", "v w", "x y"]})
        pairs = [self.pair(cluster, position) for position in range(1, cluster.n + 1)]
        assert pairs == [(s.doc_id, s.index_in_doc) for s in cluster.sentences()]
        assert len(set(pairs)) == cluster.n
        for outside in (0, cluster.n + 1):
            with pytest.raises(IndexError):
                cluster.sentence_at(outside)


class TestDerivedFields:
    def test_sentence_terms_and_counts(self):
        sentence = Sentence("d", 1, "Flood, flood; RIVER...")
        assert sentence.terms == sentence.norms() == ("flood", "flood", "river")
        assert sentence.counts == {"flood": 2, "river": 1}
        assert list(sentence.counts) == ["flood", "river"]

    def test_derived_fields_leave_equality_hash_and_repr_alone(self):
        sentence = Sentence("d", 1, "Flood warning")
        assert sentence == Sentence("d", 1, "Flood warning")
        assert sentence != Sentence("d", 2, "Flood warning")
        assert hash(sentence) == hash(("d", 1, "Flood warning"))
        assert repr(sentence) == "Sentence(doc_id='d', index_in_doc=1, text='Flood warning')"
        cluster = make_cluster("c", {"a": ["x y"], "b": ["z"]})
        again = Cluster("c", cluster.documents)
        assert again == cluster and hash(again) == hash(cluster)
        assert repr(cluster) == f"Cluster(cluster_id='c', documents={cluster.documents!r})"

    def test_offset_table(self):
        cluster = make_cluster("c", {"a": ["1", "2", "3"], "b": ["4", "5"], "e": ["6"]})
        assert [cluster.offset(doc_id) for doc_id in ("a", "b", "e")] == [0, 3, 5]
        assert cluster.document("b") is cluster.documents[1]
        for doc in cluster.documents:
            for sentence in doc.sentences:
                assert cluster.sentence_at(cluster.offset(doc.doc_id) + sentence.index_in_doc) is sentence
        with pytest.raises(KeyError):
            cluster.document("zz")

    def test_construction_enforces_invariants(self):
        doc = make_document("d", ["x"])
        empty = Document("e", "wire", doc.timestamp, ())
        with pytest.raises(ClusterParseError, match="has no documents"):
            Cluster("c", ())
        with pytest.raises(ClusterParseError, match="duplicate document id 'd'"):
            Cluster("c", (doc, doc))
        with pytest.raises(ClusterParseError, match="document 'e' has no sentences"):
            Cluster("c", (doc, empty))


class TestLazyCounts:
    """`counts` is built on first read: clustering never reads it, scoring only for first sentences."""

    @staticmethod
    def built(cluster):
        return [s for s in cluster.sentences() if "counts" in vars(s)]

    def test_clustering_builds_no_counts(self, news_cluster_path):
        cluster = parse_cluster(news_cluster_path)
        assert self.built(cluster) == []
        idf = build_idf(cluster.documents)
        incremental_cluster(cluster.documents, idf, sim_threshold=0.1)
        assert self.built(cluster) == []

    def test_scoring_builds_counts_of_first_sentences_only(self, news_cluster_path):
        cluster = parse_cluster(news_cluster_path)
        centroid = build_centroid(cluster, build_idf(cluster.documents))
        scores = score_sentences(cluster, centroid, LEAD_CENTROID)
        firsts = [doc.sentences[0] for doc in cluster.documents]
        assert self.built(cluster) == firsts
        redundancy_rerank(cluster, scores, 0.2)
        assert self.built(cluster) == list(cluster.sentences())

    def test_counts_equal_a_fresh_counter_in_first_occurrence_order(self, news_cluster_path):
        for sentence in parse_cluster(news_cluster_path).sentences():
            counts = sentence.counts
            assert counts == Counter(sentence.terms)
            assert list(counts) == list(dict.fromkeys(sentence.terms))
            assert sentence.counts is counts


class TestOneObjectPerTerm:
    """Equal terms are one str object, across sentences, documents and files, on both tokenizer paths."""

    # "paris" and "the" come from ASCII and from non-ASCII sentences; decomposed "café" only from the latter
    TEXTS = {
        "a": ["The cafe\u0301 in Paris opened.", "The CAFE\u0301 noir closed."],
        "b": ["Paris cafe\u0301 prices rose.", "The prices in Paris fell."],
    }

    @staticmethod
    def assert_one_object_per_term(documents):
        first = {}
        for doc in documents:
            for sentence in doc.sentences:
                for term in sentence.terms:
                    assert first.setdefault(term, term) is term
        assert {"the", "paris", "prices", "cafe\u0301"} <= set(first)

    def test_within_a_parsed_cluster(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cluster_to_dict(make_cluster("c", self.TEXTS))), encoding="utf-8")
        self.assert_one_object_per_term(parse_cluster(path).documents)

    def test_across_the_files_of_a_corpus_directory(self, tmp_path):
        for doc in make_cluster("c", self.TEXTS).documents:
            (tmp_path / f"{doc.doc_id}.json").write_text(json.dumps(document_to_dict(doc)), encoding="utf-8")
        self.assert_one_object_per_term(_load_corpus_documents(str(tmp_path)))


class TestTimestampGrammar:
    @pytest.mark.parametrize(
        "raw, expected",
        [
            ("1999-05-20", datetime(1999, 5, 20)),
            ("1999-05-20Z", datetime(1999, 5, 20)),
            ("1999-05-20T08:30", datetime(1999, 5, 20, 8, 30)),
            ("1999-05-20 08:30", datetime(1999, 5, 20, 8, 30)),
            ("1999-05-20T08:30:15", datetime(1999, 5, 20, 8, 30, 15)),
            ("1999-05-20T08:30:15.5", datetime(1999, 5, 20, 8, 30, 15, 500000)),
            ("1999-05-20T08:30:15.123456", datetime(1999, 5, 20, 8, 30, 15, 123456)),
            ("1999-05-20T08:30:15Z", datetime(1999, 5, 20, 8, 30, 15)),
            ("1999-05-20T10:30+02:00", datetime(1999, 5, 20, 8, 30)),
            ("1999-05-20T03:00:00.25-05:30", datetime(1999, 5, 20, 8, 30, 0, 250000)),
        ],
    )
    def test_accepted(self, raw, expected):
        doc = document_from_dict({"doc_id": "d", "source": "s", "timestamp": raw, "sentences": ["x"]})
        assert doc.timestamp == expected.replace(tzinfo=timezone.utc)
        assert doc.timestamp.tzinfo == timezone.utc

    @pytest.mark.parametrize(
        "raw",
        [
            "19990520T080000Z",  # basic format
            "1999-W20-4T08:00",  # week date
            "1999-140",  # ordinal date
            "1999-05-20T08",  # hour only
            "1999-05-20T0830",
            "1999-05-20t08:30",
            "1999-05-20T08:30:15.1234567",
            "1999-05-20T08:30+0200",
            "1999-05-20T08:30+02",
            "1999-05-20T08:30+05:60",
            "1999-05-20T08:30+24:00",
            "1999-05-20T24:00",
            "1999-02-30",
            "99-05-20",
            "1999-5-20",
            "\uff11\uff19\uff19\uff19-05-20",  # fullwidth digits
            " 1999-05-20",
            "1999-05-20T08:30\n",
            "0001-01-01T00:00+05:00",  # before the first representable instant in UTC
        ],
    )
    def test_rejected(self, raw):
        with pytest.raises(ClusterParseError, match="invalid ISO-8601 timestamp"):
            document_from_dict({"doc_id": "d", "source": "s", "timestamp": raw, "sentences": ["x"]})


class TestParseCluster:
    def test_fixture_shape(self, news_cluster):
        assert news_cluster.d == 2
        assert news_cluster.n == 20
        assert [doc.doc_id for doc in news_cluster.documents] == ["18853", "18854"]
        assert news_cluster.documents[0].source == "AFP"
        # position 12 is the second document's opening sentence
        assert news_cluster.sentence_at(12).text.startswith("Algerian newspapers")

    def test_timestamps_are_utc(self, news_cluster):
        for doc in news_cluster.documents:
            assert doc.timestamp.tzinfo == timezone.utc

    def test_round_trip(self, news_cluster):
        data = cluster_to_dict(news_cluster)
        again = cluster_from_dict(data)
        assert again == news_cluster
        assert cluster_to_dict(again) == data

    @given(
        st.text(min_size=1, max_size=8),
        st.lists(
            st.tuples(
                st.text(min_size=1, max_size=6),
                st.text(max_size=6),
                st.lists(st.text(max_size=20), min_size=1, max_size=3),
            ),
            min_size=1,
            max_size=3,
            unique_by=lambda doc: doc[0],
        ),
    )
    @example("c{0}", [("d\ud800\"", "w}{", ["a\\b\x00\t\u00e9 \U0001f600", "{}"])])
    def test_written_file_has_the_bytes_of_write_json(self, cluster_id, documents):
        """write_cluster lays a file out from templates, with json.dumps(..., sort_keys=True, indent=2)'s bytes."""
        docs = [make_document(doc_id, texts, i, source) for i, (doc_id, source, texts) in enumerate(documents)]
        cluster = Cluster.build(cluster_id, docs)
        with tempfile.TemporaryDirectory() as folder:
            path = Path(folder) / "c.json"
            write_cluster(cluster, path)
            expected = json.dumps(cluster_to_dict(cluster), sort_keys=True, indent=2) + "\n"
            assert path.read_text(encoding="utf-8") == expected

    def test_zulu_suffix_accepted(self):
        cluster = cluster_from_dict(
            {
                "cluster_id": "c",
                "documents": [
                    {
                        "doc_id": "d",
                        "source": "s",
                        "timestamp": "1999-05-20T08:00:00Z",
                        "sentences": ["hello there"],
                    }
                ],
            }
        )
        assert cluster.documents[0].timestamp.tzinfo == timezone.utc

    def test_unsorted_timestamps_sorted_not_rejected(self):
        cluster = cluster_from_dict(
            {
                "cluster_id": "c",
                "documents": [
                    {"doc_id": "late", "source": "s", "timestamp": "1999-05-21T00:00:00Z", "sentences": ["b"]},
                    {"doc_id": "early", "source": "s", "timestamp": "1999-05-20T00:00:00Z", "sentences": ["a"]},
                ],
            }
        )
        assert [doc.doc_id for doc in cluster.documents] == ["early", "late"]

    def test_empty_sentences_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "cluster_id": "c",
                    "documents": [
                        {"doc_id": "d", "source": "s", "timestamp": "1999-05-20T00:00:00Z", "sentences": []}
                    ],
                }
            )
        )
        with pytest.raises(ClusterParseError, match="document has no sentences"):
            parse_cluster(path)

    def test_duplicate_doc_id_rejected(self):
        doc = {"doc_id": "d", "source": "s", "timestamp": "1999-05-20T00:00:00Z", "sentences": ["x"]}
        with pytest.raises(ClusterParseError, match="duplicate document id"):
            cluster_from_dict({"cluster_id": "c", "documents": [doc, dict(doc)]})

    def test_cluster_errors_name_the_file_and_quote_ids_short(self, tmp_path):
        doc = {"doc_id": "d" * 1_000_000, "source": "s", "timestamp": "1999-05-20T00:00:00Z", "sentences": ["x"]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps({"cluster_id": "c", "documents": [doc, dict(doc)]}))
        with pytest.raises(ClusterParseError) as err:
            parse_cluster(path)
        assert str(err.value) == f"{path}: cluster 'c': duplicate document id 'dddddddddddd...ddddddddddddd'"

    def test_missing_field_names_field_and_path(self, tmp_path):
        path = tmp_path / "nofield.json"
        path.write_text(json.dumps({"cluster_id": "c", "documents": [{"doc_id": "d"}]}))
        with pytest.raises(ClusterParseError) as err:
            parse_cluster(path)
        assert "source" in str(err.value)
        assert "nofield.json" in str(err.value)

    def test_invalid_timestamp_rejected(self):
        with pytest.raises(ClusterParseError, match="ISO-8601"):
            cluster_from_dict(
                {
                    "cluster_id": "c",
                    "documents": [
                        {"doc_id": "d", "source": "s", "timestamp": "yesterdayish", "sentences": ["x"]}
                    ],
                }
            )

    def test_no_documents_rejected(self):
        with pytest.raises(ClusterParseError, match="no documents"):
            cluster_from_dict({"cluster_id": "c", "documents": []})

    def test_not_json_rejected(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{nope")
        with pytest.raises(ClusterParseError, match="not valid JSON"):
            parse_cluster(path)

import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from centroidsumm import (
    Cluster,
    ClusterParseError,
    Document,
    Sentence,
    cluster_from_dict,
    cluster_to_dict,
    document_from_dict,
    parse_cluster,
    tokenize,
)
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
        # "İ".lower() is "i" plus a combining dot, which is not a word
        # character; lowercasing the whole text first would split the word
        assert tokenize("İstanbul") == ["i\u0307stanbul"]

    @given(st.text(max_size=80))
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

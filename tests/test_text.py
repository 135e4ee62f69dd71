import json
from datetime import timezone

import pytest
from hypothesis import given, strategies as st

from centroidsumm import (
    ClusterParseError,
    cluster_from_dict,
    cluster_to_dict,
    parse_cluster,
    tokenize,
)
from helpers import make_cluster, make_document


def norms(text):
    return [t.norm for t in tokenize(text)]


class TestTokenize:
    def test_plain_sentence(self):
        assert norms("The court found John Doe guilty") == [
            "the", "court", "found", "john", "doe", "guilty",
        ]

    def test_empty_input(self):
        assert tokenize("") == []

    def test_edge_punctuation_stripped(self):
        assert norms("AFP)") == ["afp"]
        assert norms("ALGIERS, May 20 (AFP)") == ["algiers", "may", "20", "afp"]

    def test_numerals_kept(self):
        assert norms("275 kilometers (170 miles)") == ["275", "kilometers", "170", "miles"]

    def test_surface_preserved(self):
        token = tokenize("Algiers")[0]
        assert token.surface == "Algiers"
        assert token.norm == "algiers"

    @given(st.text(max_size=80))
    def test_idempotent_on_normalized_output(self, text):
        first = norms(text)
        assert norms(" ".join(first)) == first

    @given(st.text(max_size=80))
    def test_norms_lowercase_without_whitespace(self, text):
        for norm in norms(text):
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

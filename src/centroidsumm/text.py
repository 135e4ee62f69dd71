"""Data model and ingestion for pre-segmented, timestamped news documents.

Input texts must arrive with sentence boundaries already marked; this layer
never splits sentences itself. Documents are grouped into event clusters and
every downstream stage addresses sentences through the cluster's global
chronological order: documents sorted by timestamp (ties broken by doc_id),
sentences in original order within each document, positions numbered 1..n.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable


class ClusterParseError(ValueError):
    """A cluster or document file violates the input schema."""


_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


@dataclass(frozen=True)
class Token:
    """One word occurrence: original surface form plus normalized form."""

    surface: str
    norm: str


@dataclass(frozen=True)
class Sentence:
    doc_id: str
    index_in_doc: int  # 1-based position within the document
    text: str
    tokens: tuple[Token, ...]

    def norms(self) -> tuple[str, ...]:
        return tuple(t.norm for t in self.tokens)


@dataclass(frozen=True)
class Document:
    doc_id: str
    source: str
    timestamp: datetime  # always timezone-aware UTC
    sentences: tuple[Sentence, ...]


@dataclass(frozen=True)
class Cluster:
    """An event cluster: documents in chronological order.

    `d` is the document count and `n` the total sentence count; both are
    derived from `documents` so they can never fall out of sync.
    """

    cluster_id: str
    documents: tuple[Document, ...]

    @property
    def d(self) -> int:
        return len(self.documents)

    @property
    def n(self) -> int:
        return sum(len(doc.sentences) for doc in self.documents)

    def sentences(self) -> Iterable[Sentence]:
        """All sentences in global (chronological) order."""
        for doc in self.documents:
            yield from doc.sentences

    def sentence_at(self, position: int) -> Sentence:
        """Sentence at 1-based global position."""
        if position < 1:
            raise IndexError(f"global position must be >= 1, got {position}")
        offset = position - 1
        for doc in self.documents:
            if offset < len(doc.sentences):
                return doc.sentences[offset]
            offset -= len(doc.sentences)
        raise IndexError(f"global position {position} out of range (n={self.n})")

    def document(self, doc_id: str) -> Document:
        for doc in self.documents:
            if doc.doc_id == doc_id:
                return doc
        raise KeyError(doc_id)

    @classmethod
    def build(cls, cluster_id: str, documents: Iterable[Document]) -> "Cluster":
        """Construct a cluster, sorting documents and enforcing invariants."""
        docs = sorted(documents, key=lambda doc: (doc.timestamp, doc.doc_id))
        if not docs:
            raise ClusterParseError(f"cluster {cluster_id!r}: has no documents")
        seen: set[str] = set()
        for doc in docs:
            if doc.doc_id in seen:
                raise ClusterParseError(
                    f"cluster {cluster_id!r}: duplicate document id {doc.doc_id!r}"
                )
            seen.add(doc.doc_id)
            if not doc.sentences:
                raise ClusterParseError(
                    f"cluster {cluster_id!r}: document {doc.doc_id!r} has no sentences"
                )
        return cls(cluster_id=cluster_id, documents=tuple(docs))


def tokenize(text: str) -> list[Token]:
    """Split text into lowercase word tokens.

    Splits on any run of non-alphanumeric characters (underscore included),
    keeps digits, drops empty fragments. No stemming, no stopword removal.
    """
    return [Token(surface=m, norm=m.lower()) for m in _WORD_RE.findall(text)]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ClusterParseError(message)


def _parse_timestamp(raw: object, where: str) -> datetime:
    _require(isinstance(raw, str), f"{where}: timestamp must be an ISO-8601 string")
    try:
        ts = datetime.fromisoformat(str(raw).replace("Z", "+00:00"))
    except ValueError:
        raise ClusterParseError(f"{where}: invalid ISO-8601 timestamp {raw!r}") from None
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def document_from_dict(data: object, where: str = "document") -> Document:
    _require(isinstance(data, dict), f"{where}: expected an object")
    assert isinstance(data, dict)
    for field_name in ("doc_id", "source", "timestamp", "sentences"):
        _require(field_name in data, f"{where}: missing field {field_name!r}")
    doc_id = data["doc_id"]
    _require(isinstance(doc_id, str) and doc_id != "", f"{where}.doc_id: must be a non-empty string")
    source = data["source"]
    _require(isinstance(source, str), f"{where}.source: must be a string")
    timestamp = _parse_timestamp(data["timestamp"], f"{where}.timestamp")
    raw_sentences = data["sentences"]
    _require(isinstance(raw_sentences, list), f"{where}.sentences: must be an array")
    _require(len(raw_sentences) > 0, f"{where}: document has no sentences")
    sentences = []
    for i, raw in enumerate(raw_sentences):
        _require(isinstance(raw, str), f"{where}.sentences[{i}]: must be a string")
        sentences.append(
            Sentence(doc_id=doc_id, index_in_doc=i + 1, text=raw, tokens=tuple(tokenize(raw)))
        )
    return Document(doc_id=doc_id, source=source, timestamp=timestamp, sentences=tuple(sentences))


def cluster_from_dict(data: object, where: str = "cluster") -> Cluster:
    _require(isinstance(data, dict), f"{where}: expected an object")
    assert isinstance(data, dict)
    _require("cluster_id" in data, f"{where}: missing field 'cluster_id'")
    cluster_id = data["cluster_id"]
    _require(
        isinstance(cluster_id, str) and cluster_id != "",
        f"{where}.cluster_id: must be a non-empty string",
    )
    _require("documents" in data, f"{where}: missing field 'documents'")
    raw_docs = data["documents"]
    _require(isinstance(raw_docs, list), f"{where}.documents: must be an array")
    _require(len(raw_docs) > 0, f"{where}.documents: cluster has no documents")
    documents = [
        document_from_dict(raw, f"{where}.documents[{i}]") for i, raw in enumerate(raw_docs)
    ]
    # Unsorted timestamps are sorted by build(), not rejected.
    return Cluster.build(cluster_id, documents)


def parse_cluster(path: str | Path) -> Cluster:
    """Parse a cluster JSON file, enforcing all cluster invariants."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ClusterParseError(f"{path}: not valid JSON: {exc}") from None
    return cluster_from_dict(data, where=str(path))


def document_to_dict(document: Document) -> dict:
    return {
        "doc_id": document.doc_id,
        "source": document.source,
        "timestamp": document.timestamp.isoformat(),
        "sentences": [s.text for s in document.sentences],
    }


def cluster_to_dict(cluster: Cluster) -> dict:
    return {
        "cluster_id": cluster.cluster_id,
        "documents": [document_to_dict(doc) for doc in cluster.documents],
    }


def write_cluster(cluster: Cluster, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(cluster_to_dict(cluster), sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )

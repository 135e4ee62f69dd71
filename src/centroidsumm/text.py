"""Data model and ingestion for pre-segmented, timestamped news documents.

Input texts must arrive with sentence boundaries already marked; this layer
never splits sentences itself. Documents are grouped into event clusters and
every downstream stage addresses sentences through the cluster's global
chronological order: documents sorted by timestamp (ties broken by doc_id),
sentences in original order within each document, positions numbered 1..n.

This module owns two decisions that every later stage reads instead of
recomputing. A sentence's terms are derived once, when it is constructed: a
tuple of lowercase word strings in token order (`terms`) and a term -> count
map (`counts`). A cluster builds its flat sentence tuple and a table from
doc_id to (document, offset) once, where offset is the number of sentences in
earlier documents; a sentence's global position is its document's offset plus
its index_in_doc. Derived fields take no part in equality, hashing or repr.

All types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable


class ClusterParseError(ValueError):
    """A cluster or document file violates the input schema."""


_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
# YYYY-MM-DD[Thh:mm[:ss[.f]]][Z|+hh:mm|-hh:mm], .f being 1 to 6 digits; a space may replace T.
_TIMESTAMP_RE = re.compile(
    r"(\d{4}-\d\d-\d\d)(?:[T ](\d\d):(\d\d)(?::(\d\d)(?:\.(\d{1,6}))?)?)?(Z|[+-]\d\d:[0-5]\d)?",
    re.ASCII,
)


@dataclass(frozen=True)
class Sentence:
    """One sentence; its read-only `terms` and `counts` are derived from `text` once."""

    doc_id: str
    index_in_doc: int  # 1-based position within the document
    text: str
    terms: tuple[str, ...] = field(init=False, compare=False, repr=False)
    counts: Counter = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        terms = tuple(tokenize(self.text))
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "counts", Counter(terms))

    def norms(self) -> tuple[str, ...]:
        """The normalized terms in token order (the stored `terms` tuple)."""
        return self.terms


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
    derived from `documents` so they can never fall out of sync. A cluster has
    at least one document, each with at least one sentence and its own doc_id.
    """

    cluster_id: str
    documents: tuple[Document, ...]
    _sentences: tuple[Sentence, ...] = field(init=False, compare=False, repr=False)
    _offsets: dict[str, tuple[Document, int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        where = f"cluster {self.cluster_id!r}"
        _require(len(self.documents) > 0, f"{where}: has no documents")
        sentences: list[Sentence] = []
        offsets: dict[str, tuple[Document, int]] = {}
        for doc in self.documents:
            _require(doc.doc_id not in offsets, f"{where}: duplicate document id {doc.doc_id!r}")
            _require(len(doc.sentences) > 0, f"{where}: document {doc.doc_id!r} has no sentences")
            offsets[doc.doc_id] = (doc, len(sentences))
            sentences.extend(doc.sentences)
        object.__setattr__(self, "_sentences", tuple(sentences))
        object.__setattr__(self, "_offsets", offsets)

    @property
    def d(self) -> int:
        return len(self.documents)

    @property
    def n(self) -> int:
        return len(self._sentences)

    def sentences(self) -> tuple[Sentence, ...]:
        """All sentences in global (chronological) order."""
        return self._sentences

    def sentence_at(self, position: int) -> Sentence:
        """Sentence at 1-based global position."""
        if not 1 <= position <= self.n:
            raise IndexError(f"global position {position} out of range 1..{self.n}")
        return self._sentences[position - 1]

    def document(self, doc_id: str) -> Document:
        return self._offsets[doc_id][0]

    def offset(self, doc_id: str) -> int:
        """Sentences before the document: its sentence i sits at position offset + i."""
        return self._offsets[doc_id][1]

    @classmethod
    def build(cls, cluster_id: str, documents: Iterable[Document]) -> "Cluster":
        """Construct a cluster with its documents sorted by (timestamp, doc_id)."""
        docs = sorted(documents, key=lambda doc: (doc.timestamp, doc.doc_id))
        return cls(cluster_id=cluster_id, documents=tuple(docs))


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word strings.

    Splits on any run of non-alphanumeric characters (underscore included),
    keeps digits, drops empty fragments. No stemming, no stopword removal.
    Each match is lowercased on its own: lowercasing the text first would
    split words whose lowercase form contains a combining mark ("İstanbul").
    """
    return [m.lower() for m in _WORD_RE.findall(text)]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ClusterParseError(message)


def _json_int(value: object, where: str) -> int:
    """A JSON integer; bool, float and str are rejected rather than coerced."""
    if type(value) is not int:
        raise ValueError(f"{where}: must be an integer, got {value!r}")
    return value


def _parse_timestamp(raw: object, where: str) -> datetime:
    """Parse the pinned timestamp grammar; a timestamp without a zone is UTC."""
    _require(isinstance(raw, str), f"{where}: timestamp must be an ISO-8601 string")
    invalid = f"{where}: invalid ISO-8601 timestamp {raw!r}"
    match = _TIMESTAMP_RE.fullmatch(str(raw))
    _require(match is not None, invalid)
    date, hour, minute, second, fraction, zone = match.groups(default="")
    # this fully spelled-out form parses the same on every supported Python
    canonical = f"{date}T{hour or '00'}:{minute or '00'}:{second or '00'}.{fraction:0<6}"
    try:
        ts = datetime.fromisoformat(canonical + (zone if zone not in ("", "Z") else "+00:00"))
        return ts.astimezone(timezone.utc)
    except (ValueError, OverflowError):  # out-of-range fields or offsets
        raise ClusterParseError(invalid) from None


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
        sentences.append(Sentence(doc_id=doc_id, index_in_doc=i + 1, text=raw))
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

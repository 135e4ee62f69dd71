"""Data model and ingestion for pre-segmented, timestamped news documents.

Input texts must arrive with sentence boundaries already marked; this layer
never splits sentences itself. Documents are grouped into event clusters and
every downstream stage addresses sentences through the cluster's global
chronological order: documents sorted by timestamp (ties broken by doc_id),
sentences in original order within each document, positions numbered 1..n.

This module owns two decisions that every later stage reads instead of
recomputing. A sentence's terms are derived once, when it is constructed: a
tuple of lowercase word strings in token order (`terms`). Each term passes
through `sys.intern`, so all occurrences of a term in a process, across
sentences, documents and files, are one `str` object: memory holds each term
once, and a dict lookup between two terms compares identities, not bytes.
Interned strings are freed once nothing refers to them, except on CPython
3.12, which makes them immortal, so a 3.12 process keeps every term it has
seen until it exits. Its term -> count
map (`counts`) is built from them on first read and kept, since only the
first sentence of each document and the redundancy rerank read it. A cluster
builds its flat sentence tuple and a table from doc_id to (document, offset)
once, where offset is the number of sentences in earlier documents; a
sentence's global position is its document's offset plus its index_in_doc.
It also fixes the extract size k = round-half-up(n*r) (`compression_size`).

The loaders check whole arrays at once and format an error message only when
a check fails; the message names the first bad element.

Every JSON file of the pipeline is read through `read_json`, which names a
file that does not decode or that names a key twice in one object, and
written in one layout: through `write_json`, or, for extract files, through
`summarizer.extract_json`, which gives the same bytes from a row template.

All types are immutable after construction and safe to share across threads
(two threads that read `counts` first at once may each build the same map).
"""

from __future__ import annotations

import functools
import json
import math
import re
import reprlib
import sys
from collections import Counter
from datetime import datetime, timezone
from itertools import repeat
from pathlib import Path
from typing import Iterable, Iterator


class ClusterParseError(ValueError):
    """A cluster or document file violates the input schema."""


# A run of letters and digits, with combining diacritics that follow a letter
# or digit kept inside the word (they are not word characters themselves).
_WORD_RE = re.compile(
    r"[^\W_]+(?:[\u0300-\u036f\u1ab0-\u1aff\u1dc0-\u1dff\u20d0-\u20ff\ufe20-\ufe2f]+[^\W_]*)*"
)
# The same words in lowercased ASCII text, where no combining mark can occur.
_ASCII_WORD_RE = re.compile(r"[a-z0-9]+")
# YYYY-MM-DD[Thh:mm[:ss[.f]]][Z|+hh:mm|-hh:mm], .f being 1 to 6 digits; a space may replace T.
_TIMESTAMP_RE = re.compile(
    r"(\d{4}-\d\d-\d\d)(?:[T ](\d\d):(\d\d)(?::(\d\d)(?:\.(\d{1,6}))?)?)?(Z|[+-]\d\d:[0-5]\d)?",
    re.ASCII,
)
_CLUSTER_ID_RE = re.compile(r"(?!\.\.?\Z)[^/\x00-\x1f\x7f-\x9f\ud800-\udfff]+")  # a cluster id names output files
_BAD_ID = ".cluster_id: must be a file name of at most 200 UTF-8 bytes: not . or .., no /, control char or surrogate"


class _Record:
    """Base of the library's immutable value records.

    A subclass declares its fields in order as annotations, defaults as class attributes; names
    starting with "_" or listed in `_derived` are derived attributes. Without its own `__init__` it
    gets a dataclass-like one that sets the fields, then calls `__post_init__`, if defined, to check
    them and set derived attributes. Equality, hashing (so a record holding a dict is unhashable) and
    `repr` use the fields; assigning or deleting any attribute raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _derived: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        fields = tuple(name for name in cls.__annotations__ if name[0] != "_" and name not in cls._derived)
        cls._fields = fields or cls._fields  # a subclass without annotations keeps its parent's
        if fields and "__init__" not in cls.__dict__:
            # one compiled def, as dataclasses build it, so a call costs what a hand-written __init__ does
            params = ", ".join(f"{name}=_cls.{name}" if name in cls.__dict__ else name for name in fields)
            binds = ", ".join(f"{name}={name}" for name in fields)
            post_init = "; self.__post_init__()" if hasattr(cls, "__post_init__") else ""
            namespace = {"__name__": cls.__module__, "_cls": cls}
            exec(f"def __init__(self, {params}):\n    self.__dict__.update({binds}){post_init}", namespace)
            namespace["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
            cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()  # type: ignore[attr-defined]
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    @reprlib.recursive_repr()
    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Sentence(_Record):
    """One sentence; its own hot-path __init__ derives read-only `terms` from `text`; `counts` on first read."""

    _derived = ("terms",)
    doc_id: str
    index_in_doc: int  # 1-based position within the document
    text: str
    terms: tuple[str, ...]

    def __init__(self, doc_id: str, index_in_doc: int, text: str) -> None:
        self.__dict__.update(doc_id=doc_id, index_in_doc=index_in_doc, text=text, terms=tuple(_terms(text)))

    @functools.cached_property
    def counts(self) -> Counter:
        """Term -> count, keys in first-occurrence order; not a field, so outside eq, hash and repr."""
        return Counter(self.terms)

    def norms(self) -> tuple[str, ...]:
        """The normalized terms in token order (the stored `terms` tuple)."""
        return self.terms


class Document(_Record):
    doc_id: str
    source: str
    timestamp: datetime  # always timezone-aware UTC
    sentences: tuple[Sentence, ...]


class Cluster(_Record):
    """An event cluster: documents in chronological order.

    `d` is the document count and `n` the total sentence count; both are
    derived from `documents` so they can never fall out of sync. A cluster has
    at least one document, each with at least one sentence and its own doc_id.
    """

    cluster_id: str
    documents: tuple[Document, ...]
    _sentences: tuple[Sentence, ...]
    _offsets: dict[str, tuple[Document, int]]

    def __post_init__(self) -> None:
        if not self.documents:
            raise self._error("has no documents")
        sentences: list[Sentence] = []
        offsets: dict[str, tuple[Document, int]] = {}
        for doc in self.documents:
            if doc.doc_id in offsets:
                raise self._error(f"duplicate document id {reprlib.repr(doc.doc_id)}")
            if not doc.sentences:
                raise self._error(f"document {reprlib.repr(doc.doc_id)} has no sentences")
            offsets[doc.doc_id] = (doc, len(sentences))
            sentences.extend(doc.sentences)
        self.__dict__.update(_sentences=tuple(sentences), _offsets=offsets)

    def _error(self, problem: str) -> ClusterParseError:
        return ClusterParseError(f"cluster {reprlib.repr(self.cluster_id)}: {problem}")

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


def compression_size(n: int, r: float) -> int:
    """k = round-half-up(n*r), never below 1: the extract size a summary is selected and scored at."""
    if not 0 < r <= 1:
        raise ValueError(f"compression rate must be in (0, 1], got {r}")
    return max(1, math.floor(n * r + 0.5))


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word strings.

    Splits on any run of non-alphanumeric characters (underscore included),
    keeps digits, drops empty fragments. No stemming, no stopword removal.
    Combining diacritical marks (U+0300-036F and the other combining
    diacritic blocks) directly after a letter or digit stay in its word, so
    decomposed text keeps its words whole: "cafe" plus U+0301 is one term.
    Each match is lowercased on its own. A lowercase form with a combining
    mark, such as that of "İ" (i plus U+0307), stays one word, so tokenizing
    the joined output again gives the same terms. ASCII text is lowercased
    whole and then split on [a-z0-9]+, which gives the same terms faster:
    there its letters and digits are exactly [A-Za-z0-9], and it holds no
    combining marks.

    Every term is interned (`sys.intern`), so equal terms are one object in
    the whole process; on CPython 3.12 that object is never freed.
    """
    return list(_terms(text))


def _terms(text: str) -> Iterator[str]:
    """tokenize's interned terms, lazily, so Sentence builds its tuple in one pass."""
    if text.isascii():
        return map(sys.intern, _ASCII_WORD_RE.findall(text.lower()))
    return map(sys.intern, map(str.lower, _WORD_RE.findall(text)))


def _json_int(value: object, where: str) -> int:
    """A JSON integer; bool, float and str are rejected rather than coerced."""
    if type(value) is not int:
        raise ValueError(f"{where}: must be an integer, got {reprlib.repr(value)}")
    return value


def _all_json_ints(values: Iterable[object]) -> bool:
    """Whether _json_int accepts every value; checked in one pass in C, with no message built."""
    return {int}.issuperset(map(type, values))


def _json_str(value: object, where: str) -> str:
    """A JSON string; numbers, arrays and the rest are rejected rather than converted."""
    if not isinstance(value, str):
        raise ValueError(f"{where}: must be a string, got {reprlib.repr(value)}")
    return value


def _require(condition: bool, where: str, problem: str) -> None:
    """Raise ClusterParseError(where + problem) unless condition holds; the message is joined only then."""
    if not condition:
        raise ClusterParseError(where + problem)


def _parse_timestamp(raw: object, where: str) -> datetime:
    """Parse the pinned timestamp grammar; a timestamp without a zone is UTC."""
    _require(isinstance(raw, str), where, ": timestamp must be an ISO-8601 string")
    match = _TIMESTAMP_RE.fullmatch(str(raw))
    if match is not None:
        date, hour, minute, second, fraction, zone = match.groups(default="")
        # this fully spelled-out form parses the same on every supported Python
        canonical = f"{date}T{hour or '00'}:{minute or '00'}:{second or '00'}.{fraction:0<6}"
        try:
            ts = datetime.fromisoformat(canonical + (zone if zone not in ("", "Z") else "+00:00"))
            return ts.astimezone(timezone.utc)
        except (ValueError, OverflowError):  # out-of-range fields or offsets
            pass
    raise ClusterParseError(f"{where}: invalid ISO-8601 timestamp {reprlib.repr(raw)}")


def document_from_dict(data: object, where: str = "document") -> Document:
    _require(isinstance(data, dict), where, ": expected an object")
    assert isinstance(data, dict)
    for field_name in Document._fields:
        if field_name not in data:
            raise ClusterParseError(f"{where}: missing field {field_name!r}")
    doc_id = data["doc_id"]
    _require(isinstance(doc_id, str) and doc_id != "", where, ".doc_id: must be a non-empty string")
    source = data["source"]
    _require(isinstance(source, str), where, ".source: must be a string")
    timestamp = _parse_timestamp(data["timestamp"], f"{where}.timestamp")
    raw_sentences = data["sentences"]
    _require(isinstance(raw_sentences, list), where, ".sentences: must be an array")
    _require(len(raw_sentences) > 0, where, ": document has no sentences")
    if not all(map(isinstance, raw_sentences, repeat(str))):
        i = next(i for i, raw in enumerate(raw_sentences) if not isinstance(raw, str))
        raise ClusterParseError(f"{where}.sentences[{i}]: must be a string")
    sentences = tuple(Sentence(doc_id, i, raw) for i, raw in enumerate(raw_sentences, start=1))
    return Document(doc_id=doc_id, source=source, timestamp=timestamp, sentences=sentences)


def cluster_from_dict(data: object, where: str = "cluster") -> Cluster:
    _require(isinstance(data, dict), where, ": expected an object")
    assert isinstance(data, dict)
    _require("cluster_id" in data, where, ": missing field 'cluster_id'")
    cluster_id = data["cluster_id"]
    _require(isinstance(cluster_id, str) and cluster_id != "", where, ".cluster_id: must be a non-empty string")
    _require(_CLUSTER_ID_RE.fullmatch(cluster_id) is not None and len(cluster_id.encode()) <= 200, where, _BAD_ID)
    _require("documents" in data, where, ": missing field 'documents'")
    raw_docs = data["documents"]
    _require(isinstance(raw_docs, list), where, ".documents: must be an array")
    _require(len(raw_docs) > 0, where, ".documents: cluster has no documents")
    documents = [
        document_from_dict(raw, f"{where}.documents[{i}]") for i, raw in enumerate(raw_docs)
    ]
    # Unsorted timestamps are sorted by build(), not rejected; build()'s own
    # messages name the cluster and the document, so the path goes before them.
    try:
        return Cluster.build(cluster_id, documents)
    except ClusterParseError as exc:
        raise ClusterParseError(f"{where}: {exc}") from None


class _DuplicateKey(ValueError):
    """A JSON object names one key twice; json.loads alone would keep the last value."""


def _first_repeat(values: list) -> int | None:
    """Index of the first value equal to an earlier one, or None when all differ."""
    if len(set(values)) == len(values):
        return None
    seen: set = set()
    return next(i for i, value in enumerate(values) if value in seen or seen.add(value))


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """json's object_pairs_hook: the object, unless a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise _DuplicateKey(f"duplicate key {reprlib.repr(keys[_first_repeat(keys)])}")
    return obj


def read_json(path: str | Path) -> object:
    """The decoded value of a UTF-8 JSON file; a ValueError starting with the path if it does not decode.

    An object that names a key twice does not decode either. OSError passes through: its message
    already names the file.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except _DuplicateKey as exc:
        raise ValueError(f"{path}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def write_json(payload: object, path: str | Path) -> None:
    """Write payload as JSON with sorted keys at every level, indented, newline-terminated."""
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def parse_cluster(path: str | Path) -> Cluster:
    """Parse a cluster JSON file, enforcing all cluster invariants."""
    try:
        data = read_json(path)
    except ValueError as exc:
        raise ClusterParseError(str(exc)) from None
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
    write_json(cluster_to_dict(cluster), path)

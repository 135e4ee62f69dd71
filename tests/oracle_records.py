"""The 16 record classes as frozen dataclasses, kept as a test oracle.

These are the declarations of Sentence, Document, Cluster, IdfModel,
CentroidEntry, Centroid, ScoreWeights, SentenceScore, Extract,
UtilityAnnotation, SubsumptionAnnotation, SubsumptionGraph, SentenceTally,
CsisTally, EvalReport and RunConfig as they stood while the library built
them with `@dataclass(frozen=True)`, copied verbatim (RunConfig without its
settings-file methods, which no record check calls, and with the later rule
that no threshold is negative; SubsumptionGraph without `related`, which the
library no longer has). The library now writes
each record's `__init__` by hand on one immutable-record base;
test_records_oracle.py requires both to give the same repr, equality,
hashing, attributes, validation errors and refusal to be modified. The
helper functions they call are the library's own; nothing outside the tests
imports this module.
"""

from __future__ import annotations

import functools
import math
import reprlib
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from itertools import accumulate
from typing import Iterable, Mapping

from centroidsumm.cli import _r_tag, format_r_grid
from centroidsumm.lexstats import IDF_FLOOR
from centroidsumm.text import ClusterParseError, _require_finite, compression_size, tokenize


@dataclass(frozen=True)
class Sentence:
    """One sentence; its read-only `terms` are derived from `text` once, `counts` on first read."""

    doc_id: str
    index_in_doc: int  # 1-based position within the document
    text: str
    terms: tuple[str, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(tokenize(self.text)))

    @functools.cached_property
    def counts(self) -> Counter:
        """Term -> count, keys in first-occurrence order; not a field, so outside eq, hash and repr."""
        return Counter(self.terms)

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
        object.__setattr__(self, "_sentences", tuple(sentences))
        object.__setattr__(self, "_offsets", offsets)

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


@dataclass(frozen=True)
class IdfModel:
    """Document frequencies over a background corpus.

    idf(w) = log2(n_docs / df(w)), clamped below by IDF_FLOOR. Terms never
    seen in the background get log2(n_docs + 1).
    """

    n_docs: int
    df: dict[str, int]

    def __post_init__(self) -> None:
        if self.n_docs < 1:
            raise ValueError("IdfModel requires n_docs >= 1")
        n_docs = self.n_docs
        if not all(1 <= count <= n_docs for count in self.df.values()):
            term, count = next((t, c) for t, c in self.df.items() if not 1 <= c <= n_docs)
            raise ValueError(f"df[{reprlib.repr(term)}] = {count} outside 1..{n_docs}")

    def idf(self, term: str) -> float:
        count = self.df.get(term)
        if count is None:
            return math.log2(self.n_docs + 1)
        return max(math.log2(self.n_docs / count), IDF_FLOOR)


@dataclass(frozen=True)
class CentroidEntry:
    count: float  # average occurrences per document across the cluster
    idf: float
    weight: float  # count * idf


@dataclass(frozen=True)
class Centroid:
    cluster_id: str
    entries: dict[str, CentroidEntry]

    def weight(self, term: str) -> float:
        entry = self.entries.get(term)
        return entry.weight if entry is not None else 0.0


@dataclass(frozen=True)
class ScoreWeights:
    w_c: float
    w_p: float
    w_f: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(w) for w in (self.w_c, self.w_p, self.w_f)):
            raise ValueError("score weights must be finite numbers")
        if min(self.w_c, self.w_p, self.w_f) < 0:
            raise ValueError("score weights must be non-negative")
        if self.w_c == self.w_p == self.w_f == 0:
            raise ValueError("at least one score weight must be positive")


@dataclass(frozen=True)
class SentenceScore:
    position: int  # global position 1..n
    c: float
    p: float
    f: float
    base: float
    penalty: float = 0.0

    @property
    def final(self) -> float:
        return self.base - self.penalty


@dataclass(frozen=True)
class Extract:
    cluster_id: str
    r: float
    k: int
    selected: tuple[int, ...]  # global positions, strictly ascending
    scores: tuple[SentenceScore, ...]  # one per selected position, same order


@dataclass(frozen=True)
class UtilityAnnotation:
    """One judge's 0-10 utility for every sentence of a cluster.

    utilities[i] belongs to global position i + 1; every position gets
    exactly one value. The judge's ranking is derived once: `ranked` lists
    the positions by utility, highest first, ties to the earlier position,
    and `best[k - 1]` is the utility sum of the first k of them.
    """

    judge_id: str
    cluster_id: str
    utilities: tuple[int, ...]
    ranked: tuple[int, ...] = field(init=False, compare=False, repr=False)
    best: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.utilities:
            raise ValueError(f"judge {reprlib.repr(self.judge_id)}: empty utility vector")
        if not all(0 <= u <= 10 for u in self.utilities):
            i, u = next((i, u) for i, u in enumerate(self.utilities) if not 0 <= u <= 10)
            raise ValueError(
                f"judge {reprlib.repr(self.judge_id)}: utility {u} at position {i + 1} outside 0..10"
            )
        # a stable sort keeps tied positions ascending
        order = sorted(range(len(self.utilities)), key=self.utilities.__getitem__, reverse=True)
        object.__setattr__(self, "ranked", tuple(i + 1 for i in order))
        object.__setattr__(self, "best", tuple(accumulate(map(self.utilities.__getitem__, order))))

    @property
    def n(self) -> int:
        return len(self.utilities)

    def utility(self, position: int) -> int:
        return self.utilities[position - 1]


@dataclass(frozen=True)
class SubsumptionAnnotation:
    """One judge's subsumption marks: position -> the positions subsuming it."""

    judge_id: str
    cluster_id: str
    subsumers: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        for position, targets in self.subsumers.items():
            if position in targets:
                raise ValueError(
                    f"judge {reprlib.repr(self.judge_id)}: sentence {position} cannot subsume itself"
                )

    def subsumers_of(self, position: int) -> frozenset[int]:
        return self.subsumers.get(position, frozenset())


@dataclass(frozen=True)
class SubsumptionGraph:
    """Consensus subsumption edges: (a, b) means a's content is contained in b's.

    Mutual edges are allowed; mutually subsuming sentences form an
    equivalence class and are interchangeable. `neighbours` maps each
    position to every position it shares an edge with, in either direction;
    it is derived from `edges` once.
    """

    cluster_id: str
    edges: frozenset[tuple[int, int]]
    agreement_threshold: int
    neighbours: dict[int, frozenset[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        linked: dict[int, set[int]] = {}
        for a, b in self.edges:
            linked.setdefault(a, set()).add(b)
            linked.setdefault(b, set()).add(a)
        object.__setattr__(self, "neighbours", {pos: frozenset(peers) for pos, peers in linked.items()})


@dataclass(frozen=True)
class SentenceTally:
    """Modal agreement on one sentence's subsumption marks.

    Exactly one of plus_score / minus_score is set: plus_score counts the
    judges backing the modal non-empty subsumer set, minus_score counts the
    judges marking no subsumption when that is the consensus.
    """

    position: int
    plus_score: int | None
    minus_score: int | None


@dataclass(frozen=True)
class CsisTally:
    rows: tuple[SentenceTally, ...]
    histogram: dict[tuple[int, str], int]  # (judges agreeing, "+"/"-") -> sentences


@dataclass(frozen=True)
class EvalReport:
    """J/R/S/D for a set of systems against one cluster's judges.

    S, R and mean_J are table-rounded; each D is the exact quotient of those
    rounded values (displays round it again).
    """

    cluster_id: str
    r: float
    k: int
    judge_ids: tuple[str, ...]
    J_matrix: tuple[tuple[float, ...], ...]
    J_per_judge: tuple[float, ...]
    mean_J: float
    R: float
    S: dict[str, float]
    D: dict[str, float]
    S_csis: dict[str, float] = field(default_factory=dict)
    D_csis: dict[str, float] = field(default_factory=dict)
    E: float | None = None


@dataclass(frozen=True)
class RunConfig:
    """Settings shared across subcommands."""

    w_c: float = 1.0
    w_p: float = 0.0
    w_f: float = 0.0
    r: float = 0.2
    r_grid: tuple[float, ...] | None = None
    E: float = 1.0
    centroid_threshold: float = 0.0
    sim_threshold: float = 0.1
    agreement_threshold: int = 3
    redundancy: bool = False

    def __post_init__(self) -> None:
        ScoreWeights(self.w_c, self.w_p, self.w_f)  # range check
        for rate in (self.r, *self.rates):
            compression_size(1, rate)  # range check
        if not 0 <= self.E <= 1:
            raise ValueError(f"E must be in [0, 1], got {self.E}")
        if self.agreement_threshold < 1:
            raise ValueError(f"agreement_threshold must be >= 1, got {self.agreement_threshold}")
        _require_finite(centroid_threshold=self.centroid_threshold, sim_threshold=self.sim_threshold)
        for name in ("centroid_threshold", "sim_threshold"):  # added after the records moved off dataclasses
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        tags = [_r_tag(rate) for rate in self.rates]
        shared = sorted({tag for tag in tags if tags.count(tag) > 1})
        if shared:
            grid = format_r_grid(self.r_grid)
            raise ValueError(f"r grid {grid} gives several rates the output tag {', '.join(shared)}")

    @property
    def weights(self) -> ScoreWeights:
        return ScoreWeights(self.w_c, self.w_p, self.w_f)

    @property
    def rates(self) -> tuple[float, ...]:
        return self.r_grid if self.r_grid is not None else (self.r,)

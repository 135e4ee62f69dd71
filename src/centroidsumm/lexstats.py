"""Background IDF statistics and cluster centroids.

A centroid is a pseudo-document of terms whose average-count * IDF weight
clears a threshold; it represents the topical core shared by all documents
in a cluster. Incremental clustering assigns each incoming document to the
most similar existing centroid (cosine over count*IDF vectors) or opens a
new cluster, then rebuilds the affected centroid from scratch. Clusters are
small (a handful of documents), so exact recomputation is cheap.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .text import Cluster, Document, _json_int

# idf floor for terms present in every background document: log2(1) would be 0,
# which the model forbids (idf values must stay strictly positive).
IDF_FLOOR = 0.001


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
        for term, count in self.df.items():
            if not 1 <= count <= self.n_docs:
                raise ValueError(f"df[{term!r}] = {count} outside 1..{self.n_docs}")

    @property
    def default_idf(self) -> float:
        return math.log2(self.n_docs + 1)

    def idf(self, term: str) -> float:
        count = self.df.get(term)
        if count is None:
            return self.default_idf
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
    threshold: float

    def weight(self, term: str) -> float:
        entry = self.entries.get(term)
        return entry.weight if entry is not None else 0.0


def build_idf(background: Iterable[Document]) -> IdfModel:
    """Count document frequencies over a background document collection."""
    df: Counter = Counter()
    n_docs = 0
    for document in background:
        n_docs += 1
        df.update({term for sentence in document.sentences for term in sentence.counts})
    if n_docs == 0:
        raise ValueError("background corpus is empty")
    return IdfModel(n_docs=n_docs, df=dict(df))


def build_centroid(cluster: Cluster, idf: IdfModel, threshold: float = 0.0) -> Centroid:
    """Centroid of a cluster: terms whose count*IDF weight clears the threshold.

    count(w) is the total number of occurrences across the cluster divided by
    the number of documents, i.e. the average occurrences per document.
    """
    # Counting term tuples in cluster order keeps each term at its first
    # occurrence, and that key order fixes the float summation order downstream.
    totals: Counter = Counter()
    for sentence in cluster.sentences():
        totals.update(sentence.terms)
    entries: dict[str, CentroidEntry] = {}
    for term, total in totals.items():
        count = total / cluster.d
        term_idf = idf.idf(term)
        weight = count * term_idf
        if weight >= threshold:
            entries[term] = CentroidEntry(count=count, idf=term_idf, weight=weight)
    return Centroid(cluster_id=cluster.cluster_id, entries=entries, threshold=threshold)


def _cosine(vec_a: dict[str, float], vec_b: dict[str, float]) -> float:
    if len(vec_b) < len(vec_a):
        vec_a, vec_b = vec_b, vec_a
    dot = sum(value * vec_b.get(term, 0.0) for term, value in vec_a.items())
    norm_a = math.sqrt(sum(v * v for v in vec_a.values()))
    norm_b = math.sqrt(sum(v * v for v in vec_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def document_vector(document: Document, idf: IdfModel) -> dict[str, float]:
    """count*IDF vector of a single document, terms in first-occurrence order."""
    counts: Counter = Counter()
    for sentence in document.sentences:
        counts.update(sentence.terms)
    return {term: count * idf.idf(term) for term, count in counts.items()}


def assign_document(
    centroids: Iterable[Centroid],
    doc: Document,
    idf: IdfModel,
    sim_threshold: float,
) -> str | None:
    """Pick the most similar centroid for a document, or None for a new cluster.

    Similarity is cosine between the document's count*IDF vector and each
    centroid's weight vector. Ties keep the earliest centroid given.
    After assignment the caller rebuilds the centroid over the enlarged
    cluster.
    """
    vector = document_vector(doc, idf)
    best_id: str | None = None
    best_sim = 0.0
    for centroid in centroids:
        weights = {term: entry.weight for term, entry in centroid.entries.items()}
        sim = _cosine(vector, weights)
        if sim > best_sim:
            best_sim = sim
            best_id = centroid.cluster_id
    return best_id if best_sim >= sim_threshold else None  # None unless some similarity beat 0


def incremental_cluster(
    documents: Iterable[Document],
    idf: IdfModel,
    sim_threshold: float,
    centroid_threshold: float = 0.0,
    id_prefix: str = "c",
) -> list[Cluster]:
    """Stream documents in chronological order into clusters.

    Each document either joins the most similar existing cluster (rebuilding
    its centroid) or opens a new one named `<prefix><seq>`.
    """
    ordered = sorted(documents, key=lambda doc: (doc.timestamp, doc.doc_id))
    members: dict[str, list[Document]] = {}
    centroids: dict[str, Centroid] = {}  # in creation order, as assign_document breaks ties
    for doc in ordered:
        target = assign_document(centroids.values(), doc, idf, sim_threshold)
        if target is None:
            target = f"{id_prefix}{len(centroids) + 1:03d}"
            members[target] = [doc]
        else:
            members[target].append(doc)
        centroids[target] = build_centroid(
            Cluster.build(target, members[target]), idf, centroid_threshold
        )
    return [Cluster.build(cid, docs) for cid, docs in members.items()]


def save_idf(model: IdfModel, path: str | Path) -> None:
    payload = {"n_docs": model.n_docs, "df": dict(sorted(model.df.items()))}
    Path(path).write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def load_idf(path: str | Path) -> IdfModel:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "n_docs" not in data or "df" not in data:
        raise ValueError(f"{path}: not an IDF model file (need 'n_docs' and 'df')")
    if not isinstance(data["df"], dict):
        raise ValueError(f"{path}: df: must be an object of term -> count")
    n_docs = _json_int(data["n_docs"], f"{path}: n_docs")
    df = {term: _json_int(count, f"{path}: df[{term!r}]") for term, count in data["df"].items()}
    try:
        return IdfModel(n_docs=n_docs, df=df)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_centroid_csv(centroid: Centroid, path: str | Path) -> None:
    """Dump centroid entries as CSV, heaviest terms first."""
    rows = sorted(centroid.entries.items(), key=lambda item: (-item[1].weight, item[0]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["term", "count", "idf", "weight"])
        for term, entry in rows:
            writer.writerow([term, repr(entry.count), repr(entry.idf), repr(entry.weight)])

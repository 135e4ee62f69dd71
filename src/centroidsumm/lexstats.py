"""Background IDF statistics and cluster centroids.

A centroid is a pseudo-document of terms whose average-count * IDF weight
clears a threshold; it represents the topical core shared by all documents
in a cluster. Incremental clustering streams documents in chronological
order into the most similar open cluster (cosine over count*IDF vectors) or
a new one. An open cluster keeps running integer term totals, in the key
order a rebuild would give, and its weight vector and norm; an assignment
updates only that cluster's, with build_centroid's formula, to the same bit.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys
from collections import Counter
from itertools import chain, compress, repeat
from operator import add, ge, mul, truediv
from pathlib import Path
from typing import Callable, Iterable

from .text import Cluster, ClusterParseError, Document, _Record, _all_json_ints, _json_int, read_json, write_json


def _add_from_the_left(values: Iterable[float]) -> float:
    """0 + values[0] + values[1] + ..., one rounding per addition, in order."""
    return functools.reduce(add, values, 0)


# Every float sum that reaches an output adds left to right, so outputs hold the same bytes on every
# Python: 3.12 made the built-in sum compensated (Neumaier), which moves scores and cosines in the last
# digits. Up to 3.11 the built-in already adds that way, in C.
left_sum: Callable[[Iterable[float]], float] = sum if sys.version_info < (3, 12) else _add_from_the_left

# idf floor for terms present in every background document: log2(1) would be 0,
# which the model forbids (idf values must stay strictly positive).
IDF_FLOOR = 0.001


class IdfModel(_Record):
    """Document frequencies over a background corpus.

    idf(w) = log2(n_docs / df(w)), clamped below by IDF_FLOOR. Terms never
    seen in the background get log2(n_docs + 1).
    """

    n_docs: int
    df: dict[str, int]

    def __post_init__(self) -> None:
        n_docs, df = self.n_docs, self.df
        if n_docs < 1:
            raise ValueError("IdfModel requires n_docs >= 1")
        if not all(1 <= count <= n_docs for count in df.values()):
            term, count = next((t, c) for t, c in df.items() if not 1 <= c <= n_docs)
            raise ValueError(f"df[{reprlib.repr(term)}] = {count} outside 1..{n_docs}")

    def idf(self, term: str) -> float:
        count = self.df.get(term)
        if count is None:
            return math.log2(self.n_docs + 1)
        return max(math.log2(self.n_docs / count), IDF_FLOOR)


class CentroidEntry(_Record):
    count: float  # average occurrences per document across the cluster
    idf: float
    weight: float  # count * idf


class Centroid(_Record):
    cluster_id: str
    entries: dict[str, CentroidEntry]

    def weight(self, term: str) -> float:
        entry = self.entries.get(term)
        return entry.weight if entry is not None else 0.0


def build_idf(background: Iterable[Document]) -> IdfModel:
    """Count document frequencies over a background document collection."""
    df: Counter = Counter()
    n_docs = 0
    for document in background:
        n_docs += 1
        df.update({term for sentence in document.sentences for term in sentence.terms})
    if n_docs == 0:
        raise ValueError("background corpus is empty")
    return IdfModel(n_docs=n_docs, df=dict(df))


def _require_finite(**thresholds: float) -> None:
    for name, value in thresholds.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")


def _centroid_terms(totals: Counter, d: int, idf_of: Callable[[str], float], threshold: float) -> tuple:
    """The one weight formula, as columns (terms, counts, idfs, weights), in the key order of totals.

    count = total / d and weight = count * idf; only rows whose weight clears
    threshold are kept, and the columns are filtered only if some row does not.
    """
    terms = list(totals)
    counts = list(map(truediv, totals.values(), repeat(d)))
    idfs = list(map(idf_of, terms))
    weights = list(map(mul, counts, idfs))
    if not all(map(ge, weights, repeat(threshold))):
        keep = list(map(ge, weights, repeat(threshold)))
        terms, counts, idfs, weights = (list(compress(col, keep)) for col in (terms, counts, idfs, weights))
    return terms, counts, idfs, weights


def build_centroid(cluster: Cluster, idf: IdfModel, threshold: float = 0.0) -> Centroid:
    """Centroid of a cluster: terms whose count*IDF weight clears the threshold.

    count(w) is the total number of occurrences across the cluster divided by
    the number of documents, i.e. the average occurrences per document.
    """
    _require_finite(threshold=threshold)
    # Counting term tuples in cluster order keeps each term at its first
    # occurrence, and that key order fixes the float summation order downstream.
    totals: Counter = Counter()
    for sentence in cluster.sentences():
        totals.update(sentence.terms)
    terms, counts, idfs, weights = _centroid_terms(totals, cluster.d, idf.idf, threshold)
    entries = dict(zip(terms, map(CentroidEntry, counts, idfs, weights)))
    return Centroid(cluster_id=cluster.cluster_id, entries=entries)


def _document_vector(document: Document, idf_of: Callable[[str], float]) -> dict[str, float]:
    """count*IDF vector of a single document, terms in first-occurrence order."""
    counts: Counter = Counter()
    for sentence in document.sentences:
        counts.update(sentence.terms)
    return {term: count * idf_of(term) for term, count in counts.items()}


def _norm(vector: dict[str, float]) -> float:
    return math.sqrt(left_sum(map(mul, vector.values(), vector.values())))


def _best_match(vector: dict[str, float], candidates: Iterable[tuple], sim_threshold: float) -> str | None:
    """Id of the first candidate (id, weights, norm) of highest cosine if > 0 and >= sim_threshold, else None.

    The dot product runs over the shorter vector's terms (the document's on equal lengths).
    """
    norm = _norm(vector)
    best_id, best_sim = None, 0.0
    for cluster_id, weights, weights_norm in candidates:
        if norm == 0.0 or weights_norm == 0.0:
            continue  # similarity 0.0 never beats best_sim
        short, long = (weights, vector) if len(weights) < len(vector) else (vector, weights)
        sim = left_sum(map(mul, short.values(), map(long.get, short, repeat(0.0)))) / (norm * weights_norm)
        if sim > best_sim:
            best_id, best_sim = cluster_id, sim
    return best_id if best_sim >= sim_threshold else None


def assign_document(
    centroids: Iterable[Centroid],
    doc: Document,
    idf: IdfModel,
    sim_threshold: float,
) -> str | None:
    """Pick the most similar centroid for a document, or None for a new cluster.

    Similarity is cosine between the document's count*IDF vector and each
    centroid's weight vector. Ties keep the earliest centroid given.
    """
    _require_finite(sim_threshold=sim_threshold)
    weights = [(c.cluster_id, {t: e.weight for t, e in c.entries.items()}) for c in centroids]
    candidates = [(cluster_id, w, _norm(w)) for cluster_id, w in weights]
    return _best_match(_document_vector(doc, idf.idf), candidates, sim_threshold)


def incremental_cluster(
    documents: Iterable[Document],
    idf: IdfModel,
    sim_threshold: float,
    centroid_threshold: float = 0.0,
) -> list[Cluster]:
    """Stream documents in chronological order into clusters.

    Each document either joins the most similar open cluster (updating its
    term totals, weights and norm) or opens a new one named c001, c002, ...
    """
    _require_finite(sim_threshold=sim_threshold, centroid_threshold=centroid_threshold)
    ordered = sorted(documents, key=lambda doc: (doc.timestamp, doc.doc_id))
    idf_of = functools.cache(idf.idf)  # each term's idf is looked up once per run
    members: dict[str, tuple[list[Document], Counter]] = {}
    vectors: dict[str, tuple[str, dict[str, float], float]] = {}  # creation order breaks ties
    for doc in ordered:
        target = _best_match(_document_vector(doc, idf_of), vectors.values(), sim_threshold)
        if target is None:
            target = f"c{len(members) + 1:03d}"
            members[target] = ([], Counter())
        elif any(member.doc_id == doc.doc_id for member in members[target][0]):
            raise ClusterParseError(
                f"cluster {reprlib.repr(target)}: duplicate document id {reprlib.repr(doc.doc_id)}"
            )
        docs, totals = members[target]
        docs.append(doc)
        totals.update(chain.from_iterable(sentence.terms for sentence in doc.sentences))
        terms, _, _, column = _centroid_terms(totals, len(docs), idf_of, centroid_threshold)
        weights = dict(zip(terms, column))
        vectors[target] = (target, weights, _norm(weights))
    return [Cluster.build(cid, docs) for cid, (docs, _) in members.items()]


def save_idf(model: IdfModel, path: str | Path) -> None:
    write_json({"n_docs": model.n_docs, "df": model.df}, path)


def load_idf(path: str | Path) -> IdfModel:
    data = read_json(path)
    if not isinstance(data, dict) or "n_docs" not in data or "df" not in data:
        raise ValueError(f"{path}: not an IDF model file (need 'n_docs' and 'df')")
    if not isinstance(data["df"], dict):
        raise ValueError(f"{path}: df: must be an object of term -> count")
    n_docs = _json_int(data["n_docs"], f"{path}: n_docs")
    df = data["df"]
    if not _all_json_ints(df.values()):  # names the first count that is not an integer
        for term, count in df.items():
            _json_int(count, f"{path}: df[{reprlib.repr(term)}]")
    try:
        return IdfModel(n_docs=n_docs, df=df)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


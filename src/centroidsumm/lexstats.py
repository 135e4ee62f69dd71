"""Background IDF statistics and cluster centroids.

A centroid is a pseudo-document of terms whose average-count * IDF weight
clears a threshold; it represents the topical core shared by all documents
in a cluster. Incremental clustering streams documents in chronological
order into the most similar open cluster (cosine over count*IDF vectors) or
a new one. An open cluster keeps running integer term totals, in the key
order a rebuild would give, and totals * IDF over the terms its centroid
keeps; an assignment updates only the joining document's terms. Cosines
against those vectors skip the clusters that cannot be the best, and near
ties fall back to the rebuilt centroids. Every decision, and so every
cluster file, is the one a rebuild gives; the cosines behind a decision may
differ in the last bits, and never reach an output.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys
from collections import Counter
from heapq import heappop, heappush
from itertools import chain, compress, repeat
from operator import add, and_, ge, lt, mul, truediv
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
    counts = Counter(chain.from_iterable(sentence.terms for sentence in document.sentences))
    return dict(zip(counts, map(mul, counts.values(), map(idf_of, counts))))


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


# The document terms whose products with a cluster enter its cosine bound; the other terms enter it
# through their norm. On the benchmark's 190-term documents, 48 leaves 2,169 of 10,543 products to
# compute; 32 makes as many dict lookups in all but computes 2,580.
_HEAD_TERMS = 48

# A term whose unscaled weight is at least threshold * d * _SURE clears the threshold at d for sure:
# the factor covers the five roundings between that product and _centroid_terms' weight.
_SURE = 1 + 2**-49


class _OpenCluster:
    """An open cluster: its members, integer term totals and running unscaled vector.

    unscaled[t] = totals[t] * idf(t) over exactly the terms that _centroid_terms keeps, so it is the
    centroid's weight vector times d, up to rounding; norm is its norm. due is a min-heap of
    (unscaled[t], t) over the kept terms that could still fall below the threshold in this stream,
    plus stale entries of terms since dropped or updated, which are skipped.
    """

    __slots__ = ("docs", "totals", "unscaled", "norm", "due")

    def __init__(self) -> None:
        self.docs: list[Document] = []
        self.totals: Counter = Counter()
        self.unscaled: dict[str, float] = {}
        self.norm = 0.0
        self.due: list[tuple[float, str]] = []

    def add(
        self, doc: Document, terms: list[str], idf_of: Callable[[str], float], threshold: float, horizon: float
    ) -> None:
        """Count doc, whose distinct terms are terms, then restore the kept set, the vector and its norm.

        A term whose unscaled weight is at least threshold * d * _SURE clears the threshold for sure;
        a term of doc below that bound is tested with _centroid_terms' own float test. A term not in
        doc keeps its total while d grows, so its weight can only fall: a dropped term stays out,
        and a kept one is tested again once its entry in due falls below the bound. Only kept terms
        below horizon, the bound at the stream's last d, can ever leave, so only they enter due.
        """
        totals, unscaled, due = self.totals, self.unscaled, self.due
        self.docs.append(doc)
        d = len(self.docs)
        totals.update(chain.from_iterable(sentence.terms for sentence in doc.sentences))
        values = list(map(mul, map(totals.__getitem__, terms), map(idf_of, terms)))
        unscaled.update(zip(terms, values))
        limit, still = threshold * d * _SURE, []
        smallest = min(values, default=math.inf)
        if smallest < limit:
            low = list(compress(terms, map(lt, values, repeat(limit))))
            weights = map(mul, map(truediv, map(totals.__getitem__, low), repeat(d)), map(idf_of, low))
            for term in compress(low, map(lt, weights, repeat(threshold))):
                del unscaled[term]
        if smallest < horizon:
            near = map(and_, map(lt, values, repeat(horizon)), map(unscaled.__contains__, terms))
            for entry in compress(zip(values, terms), near):
                heappush(due, entry)
        while due and due[0][0] < limit:
            value, term = heappop(due)
            if unscaled.get(term) != value:
                continue  # the term was dropped, or pushed again with a new total
            if totals[term] / d * idf_of(term) >= threshold:
                still.append((value, term))
            else:
                del unscaled[term]
        for entry in still:
            heappush(due, entry)
        values = unscaled.values()
        self.norm = math.sqrt(sum(map(mul, values, values)))


def _dot(part: dict[str, float], other: dict[str, float]) -> float:
    """Sum of part[t] * other[t] over the terms the two share, looked up from the shorter one."""
    if len(other) < len(part):
        part, other = other, part
    return sum(map(mul, part.values(), map(other.get, part, repeat(0.0))))


def _contenders(
    vector: dict[str, float], norm: float, clusters: list[_OpenCluster], sim_threshold: float, margin: float
) -> tuple[float, list[int]]:
    """The best approximate cosine, and the indices, ascending, of clusters whose exact cosine may be the best.

    A cluster's cosine is at most its products over the document's _HEAD_TERMS largest weights, plus
    the norm of the other weights times the cluster's norm (Cauchy-Schwarz), over the two norms. The
    clusters are scored in decreasing bound until a bound widened by margin falls below both the
    best approximate cosine so far and sim_threshold; the rest are skipped, and so is a cluster whose
    approximate cosine is below the best by more than margin.
    """
    ranked = sorted(vector, key=vector.__getitem__, reverse=True)
    head = dict(zip(ranked[:_HEAD_TERMS], map(vector.__getitem__, ranked[:_HEAD_TERMS])))
    tail = dict(zip(ranked[_HEAD_TERMS:], map(vector.__getitem__, ranked[_HEAD_TERMS:])))
    tail_bound = math.sqrt(sum(map(mul, tail.values(), tail.values()))) / norm
    live = [i for i, cluster in enumerate(clusters) if cluster.norm]
    head_dots = [_dot(head, clusters[i].unscaled) for i in live]
    scales = [norm * clusters[i].norm for i in live]
    bounds = list(map(add, map(truediv, head_dots, scales), repeat(tail_bound)))
    best, scored = 0.0, []
    for j in sorted(range(len(live)), key=bounds.__getitem__, reverse=True):
        if bounds[j] + margin < max(best, sim_threshold):
            break
        cosine = (head_dots[j] + _dot(tail, clusters[live[j]].unscaled)) / scales[j]
        scored.append((live[j], cosine))
        best = max(best, cosine)
    return best, [i for i, cosine in sorted(scored) if cosine >= best - margin]


def incremental_cluster(
    documents: Iterable[Document],
    idf: IdfModel,
    sim_threshold: float,
    centroid_threshold: float = 0.0,
) -> list[Cluster]:
    """Stream documents in chronological order into clusters.

    Each document either joins the most similar open cluster or opens a new one named c001, c002,
    ... The pick is _best_match's over the clusters' centroid weights, made from fewer products.
    _contenders ranks the clusters by cosines against their unscaled vectors, which may differ from
    _best_match's in the last bits, and skips the clusters that cannot be the best. A single
    contender with a cosine above 0 that clears sim_threshold by the margin is picked. A best of 0
    picks none, as it does in _best_match: a float sum of positive products is 0 only when it has
    no terms, so an approximate cosine is 0 exactly when the exact one is. A best below
    sim_threshold by the margin picks none too. Otherwise _best_match decides over the contenders
    in creation order, with their weights from _centroid_terms.

    The margin. Every entry of the document vector v, of the unscaled vectors and of the centroid
    weights is positive, and n bounds the length of each. A sum of k positive floats, in any order
    (or compensated, as Python's sum is from 3.12), is within (k - 1) * 2**-53 of its real value,
    relatively, to first order; each product, quotient and square root adds one rounding. So every
    float cosine here (_best_match's, the approximate one, and the two terms of the bound) is within
    (3n + 4) * 2**-53 of the real cosine of its float inputs. The unscaled vectors and the centroid
    weights are within two roundings of the real totals * idf, which moves that cosine by four more.
    With e = (n + 4) * 2**-51, each float cosine is thus within e of the real cosine c of v and
    totals * idf, which is at most 1, and the bound is at least c - 2e. The margin is
    8e = (n + 4) * 2**-48, where 5e would do to first order:
    - a cluster skipped for the best so far, x, has an exact cosine below that of the cluster that
      set x (this needs margin > 5e); one skipped for sim_threshold has one below sim_threshold;
    - a cluster whose approximate cosine is below the best by more than the margin has an exact
      cosine below the best cluster's (4e);
    - an approximate cosine above y + margin, or below y - margin, means an exact one above, or
      below, y (2e).
    """
    _require_finite(sim_threshold=sim_threshold, centroid_threshold=centroid_threshold)
    ordered = sorted(documents, key=lambda doc: (doc.timestamp, doc.doc_id))
    idf_of = functools.cache(idf.idf)  # each term's idf is looked up once per run
    horizon = centroid_threshold * len(ordered) * _SURE
    members: dict[str, _OpenCluster] = {}  # creation order breaks ties
    longest = 0  # the most terms a cluster has counted, so at least any cluster vector's length
    for doc in ordered:
        vector = _document_vector(doc, idf_of)
        squares = sum(map(mul, vector.values(), vector.values()))
        target = None
        if squares:  # a document without terms has cosine 0 with every cluster
            clusters = list(members.values())
            margin = (len(vector) + longest + 4) * 2.0**-48
            best, contenders = _contenders(vector, math.sqrt(squares), clusters, sim_threshold, margin)
            if len(contenders) == 1 and best > 0 and best - margin >= sim_threshold:
                target = f"c{contenders[0] + 1:03d}"
            elif best > 0 and best + margin >= sim_threshold:
                candidates = []
                for i in contenders:
                    terms, _, _, column = _centroid_terms(
                        clusters[i].totals, len(clusters[i].docs), idf_of, centroid_threshold
                    )
                    weights = dict(zip(terms, column))
                    candidates.append((f"c{i + 1:03d}", weights, _norm(weights)))
                target = _best_match(vector, candidates, sim_threshold)
        if target is None:
            target = f"c{len(members) + 1:03d}"
            members[target] = _OpenCluster()
        elif any(member.doc_id == doc.doc_id for member in members[target].docs):
            raise ClusterParseError(
                f"cluster {reprlib.repr(target)}: duplicate document id {reprlib.repr(doc.doc_id)}"
            )
        cluster = members[target]
        cluster.add(doc, list(vector), idf_of, centroid_threshold, horizon)
        longest = max(longest, len(cluster.totals))
    return [Cluster.build(cid, cluster.docs) for cid, cluster in members.items()]


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


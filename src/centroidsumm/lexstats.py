"""Background IDF statistics and cluster centroids.

A centroid is a pseudo-document of terms whose average-count * IDF weight
clears a threshold; it represents the topical core shared by all documents
in a cluster. Incremental clustering streams documents in chronological
order into the most similar open cluster (cosine over count*IDF vectors) or
a new one. An open cluster keeps running integer term totals, in the key
order a rebuild would give, and totals * IDF over the terms its centroid
keeps; an assignment counts the joining document once, updates only its
terms, and tests again the kept terms that its larger size may drop. An
index from each term to the open clusters whose totals hold it gives every
cluster's products over a document's heaviest terms, walking only the
clusters that hold them; those products bound each cosine, the bounds skip
the clusters that cannot be the best, and near ties fall back to the
rebuilt centroids. Every decision, and so every cluster file, is the one a
rebuild gives; the cosines behind a decision may differ in the last bits, and
never reach an output.
"""

from __future__ import annotations

import functools
import math
import reprlib
import sys
from collections import Counter, defaultdict
from itertools import chain, compress, repeat
from operator import add, ge, mul, not_, truediv
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .text import (
    Cluster, ClusterParseError, Document, _Record, _fields, _json, _json_ints, _require_finite, read_json, write_json,
)


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


# The document terms whose products with a cluster enter its cosine bound, summed over the term index;
# the other terms enter it through their norm. On the benchmark's 190-term documents (seed 1), 48
# walks 25,163 (term, cluster) pairs and leaves 2,169 of 10,543 cosines to finish; 96 walks 108,993
# pairs and still leaves 2,010.
_HEAD_TERMS = 48

# A term whose unscaled weight is at least threshold * d * _SURE clears the threshold at d for sure:
# the factor covers the five roundings between that product and _centroid_terms' weight.
_SURE = 1 + 2**-49


class _OpenCluster:
    """An open cluster: its members, integer term totals and running unscaled vector.

    unscaled[t] = totals[t] * idf(t) over exactly the terms that _centroid_terms keeps, so it is the
    centroid's weight vector times d, up to rounding; norm is its norm.
    """

    __slots__ = ("docs", "totals", "unscaled", "norm")

    def __init__(self) -> None:
        self.docs: list[Document] = []
        self.totals: dict[str, int] = {}
        self.unscaled: dict[str, float] = {}
        self.norm = 0.0

    def add(
        self, doc: Document, counts: Counter, idfs: list[float], idf_of: Callable[[str], float], threshold: float
    ) -> Iterator[str]:
        """Add doc, given its term counts and their idfs in the same order; return the terms new to totals.

        The counts update totals and the vector; then the kept set and the norm are restored. A term
        whose unscaled weight is at least threshold * d * _SURE clears the threshold for sure; every
        kept term below that bound, of doc or not, is tested with _centroid_terms' own float test, and
        dropped if it fails. A term not in doc keeps its total while d grows, so its weight can only
        fall, and a dropped term stays out until a document holding it joins.
        """
        totals, unscaled = self.totals, self.unscaled
        self.docs.append(doc)
        d = len(self.docs)
        before = list(map(totals.get, counts, repeat(0)))
        after = list(map(add, before, counts.values()))
        totals.update(zip(counts, after))  # new terms in first-occurrence order, as counting the tokens gives
        unscaled.update(zip(counts, map(mul, after, idfs)))
        if threshold:
            limit = threshold * d * _SURE
            for term in [term for term, value in unscaled.items() if value < limit]:
                if totals[term] / d * idf_of(term) < threshold:
                    del unscaled[term]
        self.norm = math.hypot(*unscaled.values())
        return compress(counts, map(not_, before))


class _Stream:
    """The open clusters of one incremental_cluster run, in creation order, and the term index.

    holders[t] lists the indices of the open clusters whose totals hold t; a cluster enters it when
    t first enters its totals, and totals never lose a term.
    """

    __slots__ = ("clusters", "holders", "idf_of", "sim_threshold", "centroid_threshold", "longest")

    def __init__(self, idf_of: Callable[[str], float], sim_threshold: float, centroid_threshold: float):
        self.clusters: list[_OpenCluster] = []
        self.holders: defaultdict[str, list[int]] = defaultdict(list)
        self.idf_of, self.sim_threshold, self.centroid_threshold = idf_of, sim_threshold, centroid_threshold
        self.longest = 0  # the most terms a cluster has counted, so at least any cluster vector's length

    def place(self, doc: Document) -> None:
        """Add doc to the cluster incremental_cluster picks for it, or to a new one."""
        clusters, idf_of, sim_threshold = self.clusters, self.idf_of, self.sim_threshold
        counts = Counter(chain.from_iterable(sentence.terms for sentence in doc.sentences))
        terms, idfs = list(counts), list(map(idf_of, counts))
        weights = list(map(mul, counts.values(), idfs))  # the document's count * idf vector
        norm = math.hypot(*weights)
        target = None
        if norm:  # a document without terms has cosine 0 with every cluster
            margin = (len(terms) + self.longest + 4) * 2.0**-48
            best, contenders = self.contenders(terms, weights, norm, margin)
            if len(contenders) == 1 and best > 0 and best - margin >= sim_threshold:
                target = contenders[0]
            elif best > 0 and best + margin >= sim_threshold:
                candidates = []
                for i in contenders:
                    kept, _, _, column = _centroid_terms(
                        clusters[i].totals, len(clusters[i].docs), idf_of, self.centroid_threshold
                    )
                    centroid = dict(zip(kept, column))
                    candidates.append((i, centroid, _norm(centroid)))
                target = _best_match(dict(zip(terms, weights)), candidates, sim_threshold)
        if target is None:
            target = len(clusters)
            clusters.append(_OpenCluster())
        elif any(member.doc_id == doc.doc_id for member in clusters[target].docs):
            raise ClusterParseError(
                f"cluster {reprlib.repr(_cluster_id(target))}: duplicate document id {reprlib.repr(doc.doc_id)}"
            )
        cluster, holders = clusters[target], self.holders
        for term in cluster.add(doc, counts, idfs, idf_of, self.centroid_threshold):
            holders[term].append(target)
        self.longest = max(self.longest, len(cluster.totals))

    def contenders(self, terms: list[str], weights: list[float], norm: float, margin: float) -> tuple[float, list[int]]:
        """The best approximate cosine, and the indices, ascending, of clusters whose exact cosine may be the best.

        terms and weights are the document's vector, and norm its norm. A cluster's cosine is at most
        its products over the document's _HEAD_TERMS largest weights, plus the norm of the other
        weights times the cluster's norm (Cauchy-Schwarz), over the two norms. The head products are
        summed term by term over the clusters that holders lists for each head term, as a cluster
        that does not hold a term has a product of 0 with it. The clusters are scored in decreasing
        bound until a bound widened by margin falls below both the best approximate cosine so far
        and sim_threshold; the rest are skipped, and so is a cluster whose approximate cosine is
        below the best by more than margin.
        """
        ranked = sorted(range(len(weights)), key=weights.__getitem__, reverse=True)
        tail = list(map(terms.__getitem__, ranked[_HEAD_TERMS:]))
        tail_weights = list(map(weights.__getitem__, ranked[_HEAD_TERMS:]))
        tail_bound = math.hypot(*tail_weights) / norm
        vectors = [cluster.unscaled for cluster in self.clusters]
        norms = [cluster.norm for cluster in self.clusters]
        head_sums = [0.0] * len(vectors)
        holders = self.holders
        for j in ranked[:_HEAD_TERMS]:
            term, weight = terms[j], weights[j]
            for i in holders.get(term, ()):
                head_sums[i] += weight * vectors[i].get(term, 0.0)
        live = list(compress(range(len(norms)), norms))  # a cluster of norm 0 has cosine 0
        sums = list(map(head_sums.__getitem__, live))
        scales = list(map(mul, repeat(norm), compress(norms, norms)))
        bounds = list(map(add, map(truediv, sums, scales), repeat(tail_bound)))
        best, scored = 0.0, []
        for j in sorted(range(len(live)), key=bounds.__getitem__, reverse=True):
            if bounds[j] + margin < max(best, self.sim_threshold):
                break
            get = vectors[live[j]].get
            cosine = (sums[j] + sum(map(mul, tail_weights, map(get, tail, repeat(0.0))))) / scales[j]
            scored.append((live[j], cosine))
            best = max(best, cosine)
        return best, [i for i, cosine in sorted(scored) if cosine >= best - margin]


def _cluster_id(index: int) -> str:
    return f"c{index + 1:03d}"


def incremental_cluster(
    documents: Iterable[Document],
    idf: IdfModel,
    sim_threshold: float,
    centroid_threshold: float = 0.0,
) -> list[Cluster]:
    """Stream documents in chronological order into clusters.

    Each document either joins the most similar open cluster or opens a new one named c001, c002,
    ... The pick is _best_match's over the clusters' centroid weights, made from fewer products.
    _Stream.contenders ranks the clusters by cosines against their unscaled vectors, which may
    differ from _best_match's in the last bits, and skips the clusters that cannot be the best. A
    single contender with a cosine above 0 that clears sim_threshold by the margin is picked. A
    best of 0 picks none, as it does in _best_match: a float sum of positive products is 0 only
    when it has no terms, so an approximate cosine is 0 exactly when the exact one is. A best below
    sim_threshold by the margin picks none too. Otherwise _best_match decides over the contenders
    in creation order, with their weights from _centroid_terms.

    The margin. Every entry of the document vector v, of the unscaled vectors and of the centroid
    weights is positive, and n bounds the length of each. A sum of k positive floats, in any order
    (or compensated, as Python's sum is from 3.12), is within (k - 1) * 2**-53 of its real value,
    relatively, to first order; each product, quotient and square root adds one rounding, and
    math.hypot, which the approximate norms use, is within one ulp of the real norm. So every
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
    # each term's idf is looked up once per run
    stream = _Stream(functools.cache(idf.idf), sim_threshold, centroid_threshold)
    for doc in ordered:
        stream.place(doc)
    return [Cluster.build(_cluster_id(i), cluster.docs) for i, cluster in enumerate(stream.clusters)]


def save_idf(model: IdfModel, path: str | Path) -> None:
    write_json({"n_docs": model.n_docs, "df": model.df}, path)


def load_idf(path: str | Path) -> IdfModel:
    n_docs, df = _fields(read_json(path), path, ("n_docs", "df"))
    _json(n_docs, int, f"{path}: n_docs")
    _json_ints(_json(df, dict, f"{path}: df").values(), (f"{path}: df[{reprlib.repr(term)}]" for term in df))
    try:
        return IdfModel(n_docs=n_docs, df=df)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


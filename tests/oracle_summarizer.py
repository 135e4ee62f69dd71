"""Reference implementation of scoring, selection and clustering, kept as a test oracle.

These are the summarizer and clustering functions as they stood before each
sentence stored its terms and each cluster its position table. They re-derive
everything on every call: terms from `sentence.text` with the original
tokenizer rule (match words, then lowercase each match), term counts with
fresh Counters, documents and positions by scanning the cluster. The
differential tests in test_summarizer_oracle.py require the library to return
exactly equal results; nothing outside the tests imports this module.

`_overlap_ratios` and `_overlap_rows` are the summarizer's overlap rows as they
stood before dense postings were packed into integers, copied verbatim: one
Counter over a member's posting lists per row, then the ratios from operator
functions. test_summarizer_oracle.py requires the library's rows to hold the
same bytes.

`tokenize` is text.tokenize as it stood before its ASCII path, copied
verbatim with its pattern (renamed `_TOKENIZE_RE`, as `_WORD_RE` here is the
older rule); test_tokenize_oracle.py requires the library's tokenizer to give
the same terms.

Float sums add left to right through `_sum_left`, a plain loop, as the
built-in `sum` did up to Python 3.11; 3.12's built-in compensates, which would
move the oracle's scores and cosines in the last digits.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import Counter
from itertools import chain, repeat
from operator import add, mul, truediv
from typing import Callable, Iterable, Iterator, Sequence

from centroidsumm import (
    Centroid,
    CentroidEntry,
    Cluster,
    Document,
    Extract,
    IdfModel,
    ScoreWeights,
    Sentence,
    SentenceScore,
    compression_size,
)

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)
RERANK_ITERATION_CAP = 100

# A run of letters and digits, with combining diacritics that follow a letter
# or digit kept inside the word (they are not word characters themselves).
_TOKENIZE_RE = re.compile(
    r"[^\W_]+(?:[\u0300-\u036f\u1ab0-\u1aff\u1dc0-\u1dff\u20d0-\u20ff\ufe20-\ufe2f]+[^\W_]*)*"
)


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word strings.

    Splits on any run of non-alphanumeric characters (underscore included),
    keeps digits, drops empty fragments. No stemming, no stopword removal.
    Combining diacritical marks (U+0300-036F and the other combining
    diacritic blocks) directly after a letter or digit stay in its word, so
    decomposed text keeps its words whole: "cafe" plus U+0301 is one term.
    Each match is lowercased on its own. A lowercase form with a combining
    mark, such as that of "İ" (i plus U+0307), stays one word, so tokenizing
    the joined output again gives the same terms.
    """
    return [m.lower() for m in _TOKENIZE_RE.findall(text)]


def norms(sentence: Sentence) -> tuple[str, ...]:
    return tuple(m.lower() for m in _WORD_RE.findall(sentence.text))


def _document(cluster: Cluster, doc_id: str) -> Document:
    for doc in cluster.documents:
        if doc.doc_id == doc_id:
            return doc
    raise KeyError(doc_id)


def _sentences(cluster: Cluster) -> list[Sentence]:
    return [s for doc in cluster.documents for s in doc.sentences]


# --- lexstats ----------------------------------------------------------------


def _doc_counts(document: Document) -> Counter:
    counts: Counter = Counter()
    for sentence in document.sentences:
        counts.update(norms(sentence))
    return counts


def build_centroid(cluster: Cluster, idf: IdfModel, threshold: float = 0.0) -> Centroid:
    totals: Counter = Counter()
    for document in cluster.documents:
        totals.update(_doc_counts(document))
    entries: dict[str, CentroidEntry] = {}
    for term, total in totals.items():
        count = total / cluster.d
        term_idf = idf.idf(term)
        weight = count * term_idf
        if weight >= threshold:
            entries[term] = CentroidEntry(count=count, idf=term_idf, weight=weight)
    return Centroid(cluster_id=cluster.cluster_id, entries=entries)


def _sum_left(values: Iterable[float]) -> float:
    total = 0
    for value in values:
        total += value
    return total


def _cosine(vec_a: dict[str, float], vec_b: dict[str, float]) -> float:
    if len(vec_b) < len(vec_a):
        vec_a, vec_b = vec_b, vec_a
    dot = _sum_left(value * vec_b.get(term, 0.0) for term, value in vec_a.items())
    norm_a = math.sqrt(_sum_left(v * v for v in vec_a.values()))
    norm_b = math.sqrt(_sum_left(v * v for v in vec_b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def document_vector(document: Document, idf: IdfModel) -> dict[str, float]:
    return {term: count * idf.idf(term) for term, count in _doc_counts(document).items()}


def assign_document(
    centroids: Sequence[Centroid], doc: Document, idf: IdfModel, sim_threshold: float
) -> str | None:
    vector = document_vector(doc, idf)
    best_id: str | None = None
    best_sim = 0.0
    for centroid in centroids:
        weights = {term: entry.weight for term, entry in centroid.entries.items()}
        sim = _cosine(vector, weights)
        if sim > best_sim:
            best_sim = sim
            best_id = centroid.cluster_id
    if best_id is not None and best_sim >= sim_threshold:
        return best_id
    return None


def incremental_cluster(
    documents: Iterable[Document],
    idf: IdfModel,
    sim_threshold: float,
    centroid_threshold: float = 0.0,
    id_prefix: str = "c",
) -> list[Cluster]:
    ordered = sorted(documents, key=lambda doc: (doc.timestamp, doc.doc_id))
    members: dict[str, list[Document]] = {}
    centroids: list[Centroid] = []
    for doc in ordered:
        target = assign_document(centroids, doc, idf, sim_threshold)
        if target is None:
            target = f"{id_prefix}{len(centroids) + 1:03d}"
            members[target] = [doc]
        else:
            members[target].append(doc)
        rebuilt = build_centroid(Cluster.build(target, members[target]), idf, centroid_threshold)
        for i, centroid in enumerate(centroids):
            if centroid.cluster_id == target:
                centroids[i] = rebuilt
                break
        else:
            centroids.append(rebuilt)
    return [Cluster.build(cid, docs) for cid, docs in members.items()]


# --- summarizer --------------------------------------------------------------


def centroid_value(sentence: Sentence, centroid: Centroid) -> float:
    return _sum_left(centroid.weight(norm) for norm in norms(sentence))


def positional_value(sentence: Sentence, cluster: Cluster, c_max: float) -> float:
    n_d = len(_document(cluster, sentence.doc_id).sentences)
    return ((n_d - sentence.index_in_doc + 1) / n_d) * c_max


def first_sentence_overlap(sentence: Sentence, cluster: Cluster) -> float:
    first = _document(cluster, sentence.doc_id).sentences[0]
    counts = Counter(norms(sentence))
    first_counts = Counter(norms(first))
    return float(sum(count * first_counts[term] for term, count in counts.items()))


def score_sentences(
    cluster: Cluster, centroid: Centroid, weights: ScoreWeights
) -> list[SentenceScore]:
    if cluster.cluster_id != centroid.cluster_id:
        raise ValueError(
            f"cluster {cluster.cluster_id!r} does not match centroid {centroid.cluster_id!r}"
        )
    sentences = _sentences(cluster)
    c_values = [centroid_value(s, centroid) for s in sentences]
    c_max = max(c_values, default=0.0)
    scores = []
    for position, (sentence, c) in enumerate(zip(sentences, c_values), start=1):
        p = positional_value(sentence, cluster, c_max)
        f = first_sentence_overlap(sentence, cluster)
        base = weights.w_c * c + weights.w_p * p + weights.w_f * f
        scores.append(SentenceScore(position=position, c=c, p=p, f=f, base=base))
    return scores


def _select_top(finals: Sequence[float], k: int) -> tuple[int, ...]:
    order = sorted(range(1, len(finals) + 1), key=lambda pos: (-finals[pos - 1], pos))
    return tuple(sorted(order[:k]))


def _build_extract(
    cluster: Cluster, scores: Sequence[SentenceScore], r: float, k: int, selected: tuple[int, ...]
) -> Extract:
    by_position = {score.position: score for score in scores}
    return Extract(
        cluster_id=cluster.cluster_id,
        r=r,
        k=k,
        selected=selected,
        scores=tuple(by_position[pos] for pos in selected),
    )


def extract(cluster: Cluster, scores: Sequence[SentenceScore], r: float) -> Extract:
    k = compression_size(len(_sentences(cluster)), r)
    selected = _select_top([s.final for s in scores], k)
    return _build_extract(cluster, scores, r, k, selected)


def word_overlap(s1: Sentence, s2: Sentence) -> float:
    len1, len2 = len(norms(s1)), len(norms(s2))
    if len1 == 0 or len2 == 0:
        raise ValueError("word_overlap requires non-empty sentences")
    counts1 = Counter(norms(s1))
    counts2 = Counter(norms(s2))
    shared = sum(min(count, counts2[term]) for term, count in counts1.items())
    return 2.0 * shared / (len1 + len2)


def _overlap_ratios(len_a: int, shared: Iterable[int], lengths: Iterable[int]) -> Iterator[float]:
    """2 * shared / (len_a + len_b) for each shared count and length: the one overlap formula.

    Built from operator functions, so a whole row of ratios is computed in C;
    each ratio is the same float as the expression written out in Python.
    """
    return map(truediv, map(mul, repeat(2.0), shared), map(add, repeat(len_a), lengths))


def _overlap_rows(sentences: Sequence[Sentence]) -> Callable[[int], array]:
    """Index the sentences' terms once; return the function giving one sentence's overlap row.

    postings[term, j] lists the indices of the sentences holding term more
    than j times. Concatenating postings[term, j] for j < count over one
    sentence's term counts lists index i exactly sum(min(count, count_i))
    times, so counting the concatenation (in C, through Counter) gives the
    integer shared count with every sentence at once. The row is the
    word_overlap of the sentence with each sentence, 0.0 where either has no
    terms, and 1.0 at its own index.
    """
    postings: dict[tuple[str, int], list[int]] = {}
    for i, sentence in enumerate(sentences):
        for term, count in sentence.counts.items():
            for j in range(count):
                postings.setdefault((term, j), []).append(i)
    lengths = [len(sentence.terms) for sentence in sentences]
    n = len(sentences)

    def row(i: int) -> array:
        counts = sentences[i].counts
        if not counts:  # a sentence without terms shares nothing; the ratio would be 0/0
            return array("d", [0.0]) * n
        shared = Counter(
            chain.from_iterable(postings[term, j] for term, count in counts.items() for j in range(count))
        )
        return array("d", _overlap_ratios(lengths[i], map(shared.get, range(n), repeat(0)), lengths))

    return row


def redundancy_rerank(
    cluster: Cluster,
    scores: Sequence[SentenceScore],
    r: float,
    max_iterations: int = RERANK_ITERATION_CAP,
) -> Extract:
    sentences = _sentences(cluster)
    k = compression_size(len(sentences), r)
    base = [score.base for score in scores]
    w_r = max(base)
    counts = [Counter(norms(s)) for s in sentences]
    lengths = [len(norms(s)) for s in sentences]
    overlap_cache: dict[tuple[int, int], float] = {}

    def overlap(a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        cached = overlap_cache.get(key)
        if cached is None:
            if lengths[key[0] - 1] == 0 or lengths[key[1] - 1] == 0:
                cached = 0.0
            else:
                shared = sum(
                    min(count, counts[key[1] - 1][term])
                    for term, count in counts[key[0] - 1].items()
                )
                cached = 2.0 * shared / (lengths[key[0] - 1] + lengths[key[1] - 1])
            overlap_cache[key] = cached
        return cached

    finals = list(base)
    penalties = [0.0] * len(base)
    selected = _select_top(finals, k)
    seen = {selected}
    for _ in range(max_iterations):
        new_penalties = []
        for pos in range(1, len(base) + 1):
            worst = 0.0
            for member in selected:
                if member != pos and finals[member - 1] > finals[pos - 1]:
                    worst = max(worst, overlap(pos, member))
            new_penalties.append(w_r * worst)
        penalties = new_penalties
        finals = [b - p for b, p in zip(base, penalties)]
        reselected = _select_top(finals, k)
        if reselected == selected or reselected in seen:
            selected = reselected
            break
        seen.add(reselected)
        selected = reselected

    final_scores = [
        SentenceScore(
            position=score.position,
            c=score.c,
            p=score.p,
            f=score.f,
            base=score.base,
            penalty=penalties[score.position - 1],
        )
        for score in scores
    ]
    return _build_extract(cluster, final_scores, r, k, selected)


def lead_baseline(cluster: Cluster, r: float) -> Extract:
    n = len(_sentences(cluster))
    k = compression_size(n, r)
    per_doc = max(1, math.floor(n * r / cluster.d + 0.5))
    index = {pair: pos for pos, pair in enumerate(
        ((doc.doc_id, s.index_in_doc) for doc in cluster.documents for s in doc.sentences),
        start=1,
    )}
    selected: list[int] = []
    for doc in cluster.documents:
        for sentence in doc.sentences[:per_doc]:
            selected.append(index[(doc.doc_id, sentence.index_in_doc)])
    selected.sort()
    if len(selected) > k:
        selected = selected[:k]
    elif len(selected) < k:
        chosen = set(selected)
        for doc in reversed(cluster.documents):
            for sentence in doc.sentences:
                pos = index[(doc.doc_id, sentence.index_in_doc)]
                if pos not in chosen:
                    chosen.add(pos)
                    if len(chosen) == k:
                        break
            if len(chosen) == k:
                break
        selected = sorted(chosen)
    scores = tuple(
        SentenceScore(position=pos, c=0.0, p=0.0, f=0.0, base=0.0) for pos in selected
    )
    return Extract(cluster_id=cluster.cluster_id, r=r, k=k, selected=tuple(selected), scores=scores)


def extract_to_dict(ext: Extract) -> dict:
    return {
        "cluster_id": ext.cluster_id,
        "r": ext.r,
        "k": ext.k,
        "selected": list(ext.selected),
        "scores": [
            {
                "position": score.position,
                "c": score.c,
                "p": score.p,
                "f": score.f,
                "base": score.base,
                "penalty": score.penalty,
                "final": score.final,
            }
            for score in ext.scores
        ],
    }

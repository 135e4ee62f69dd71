"""Sentence scoring and extract selection for cluster summarization.

Each sentence gets a weighted base score from three features: its centroid
value (sum of centroid weights over its token occurrences), its positional
value (linear front-of-document credit scaled to the cluster's best centroid
value), and its overlap with the first sentence of its own document. The
extract keeps the k = round(n*r) highest-scoring sentences, emitted in
cluster order.

The optional redundancy pass subtracts a penalty, scaled by the maximum base
score, from every sentence that overlaps an extract member with a strictly
higher score, then reselects, repeating until the selected set stabilizes or
repeats. Two named weight presets are evaluated throughout: pure-centroid
(1, 0, 0) and lead+centroid (1, 1, 0).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, replace
from typing import Iterator, Sequence

from .lexstats import Centroid
from .text import Cluster, Sentence

DEFAULT_ENUMERATION_CAP = 10**6
RERANK_ITERATION_CAP = 100


class EnumerationCapError(ValueError):
    """Subset enumeration would exceed the configured cap."""


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


PURE_CENTROID = ScoreWeights(w_c=1.0, w_p=0.0, w_f=0.0)
LEAD_CENTROID = ScoreWeights(w_c=1.0, w_p=1.0, w_f=0.0)

PRESETS = {
    "pure-centroid": PURE_CENTROID,
    "lead-centroid": LEAD_CENTROID,
}


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


def compression_size(n: int, r: float) -> int:
    """k = round-half-up(n*r), never below 1."""
    if not 0 < r <= 1:
        raise ValueError(f"compression rate must be in (0, 1], got {r}")
    return max(1, math.floor(n * r + 0.5))


def centroid_value(sentence: Sentence, centroid: Centroid) -> float:
    """Sum of centroid weights over the sentence's token occurrences.

    Each occurrence counts, so repeated central vocabulary keeps adding. The
    sum runs in token order, not as count * weight, so its rounding is fixed.
    """
    return sum(centroid.weight(term) for term in sentence.terms)


def positional_value(sentence: Sentence, cluster: Cluster, c_max: float) -> float:
    """Front-of-document credit: c_max for the first sentence, c_max/n_d for the last."""
    n_d = len(cluster.document(sentence.doc_id).sentences)
    return ((n_d - sentence.index_in_doc + 1) / n_d) * c_max


def first_sentence_overlap(sentence: Sentence, cluster: Cluster) -> float:
    """Count-vector inner product with the first sentence of the sentence's document."""
    first = cluster.document(sentence.doc_id).sentences[0].counts
    return float(sum(count * first[term] for term, count in sentence.counts.items()))


def score_sentences(
    cluster: Cluster, centroid: Centroid, weights: ScoreWeights
) -> list[SentenceScore]:
    """Base scores for all n sentences, in global order. Penalties stay 0 here."""
    if cluster.cluster_id != centroid.cluster_id:
        raise ValueError(
            f"cluster {cluster.cluster_id!r} does not match centroid {centroid.cluster_id!r}"
        )
    sentences = list(cluster.sentences())
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
    # highest final wins; ties go to the earlier global position
    order = sorted(range(1, len(finals) + 1), key=lambda pos: (-finals[pos - 1], pos))
    return tuple(sorted(order[:k]))


def _build_extract(
    cluster: Cluster, scores: Sequence[SentenceScore], r: float, k: int, selected: tuple[int, ...]
) -> Extract:
    return Extract(
        cluster_id=cluster.cluster_id,
        r=r,
        k=k,
        selected=selected,
        scores=tuple(scores[pos - 1] for pos in selected),  # scores are in global order
    )


def extract(cluster: Cluster, scores: Sequence[SentenceScore], r: float) -> Extract:
    """Keep the k sentences with the highest final scores, in cluster order."""
    if len(scores) != cluster.n:
        raise ValueError(f"expected {cluster.n} scores, got {len(scores)}")
    k = compression_size(cluster.n, r)
    selected = _select_top([s.final for s in scores], k)
    return _build_extract(cluster, scores, r, k, selected)


def word_overlap(s1: Sentence, s2: Sentence) -> float:
    """Cross-sentence word overlap: 2 * shared / (len1 + len2), in [0, 1].

    A term appearing m times in one sentence and n times in the other
    contributes min(m, n) shared occurrences.
    """
    len1, len2 = len(s1.terms), len(s2.terms)
    if len1 == 0 or len2 == 0:
        raise ValueError("word_overlap requires non-empty sentences")
    counts2 = s2.counts
    shared = sum(min(count, counts2[term]) for term, count in s1.counts.items())
    return 2.0 * shared / (len1 + len2)


def redundancy_rerank(
    cluster: Cluster,
    scores: Sequence[SentenceScore],
    r: float,
    max_iterations: int = RERANK_ITERATION_CAP,
) -> Extract:
    """Iteratively demote sentences that repeat higher-scored extract members.

    Each round: take the current top-k, then give every sentence whose word
    overlap with some extract member of strictly higher score is positive a
    penalty of w_R times its largest such overlap, where w_R is the maximum
    base score (frozen before the first round). Finals are recomputed from
    base minus penalty and the top-k reselected. Stops at the first selection
    that is stable or repeats an earlier one; duplicates can oscillate, so
    repeats are detected by hashing the selected set.
    """
    if len(scores) != cluster.n:
        raise ValueError(f"expected {cluster.n} scores, got {len(scores)}")
    if any(score.penalty != 0 for score in scores):
        raise ValueError("redundancy_rerank expects untouched base scores")
    k = compression_size(cluster.n, r)
    base = [score.base for score in scores]
    w_r = max(base)
    sentences = cluster.sentences()
    overlap_cache: dict[tuple[int, int], float] = {}

    def overlap(a: int, b: int) -> float:
        key = (a, b) if a < b else (b, a)
        cached = overlap_cache.get(key)
        if cached is None:
            s1, s2 = sentences[key[0] - 1], sentences[key[1] - 1]
            # sentences without terms share nothing; word_overlap rejects them
            cached = word_overlap(s1, s2) if s1.terms and s2.terms else 0.0
            overlap_cache[key] = cached
        return cached

    finals = list(base)
    penalties = [0.0] * len(base)
    selected = _select_top(finals, k)
    seen = {selected}
    for _ in range(max_iterations):
        penalties = []
        for pos in range(1, len(base) + 1):
            worst = 0.0
            for member in selected:
                if member != pos and finals[member - 1] > finals[pos - 1]:
                    worst = max(worst, overlap(pos, member))
            penalties.append(w_r * worst)
        finals = [b - p for b, p in zip(base, penalties)]
        reselected = _select_top(finals, k)
        if reselected == selected or reselected in seen:
            selected = reselected
            break
        seen.add(reselected)
        selected = reselected

    final_scores = [replace(score, penalty=penalty) for score, penalty in zip(scores, penalties)]
    return _build_extract(cluster, final_scores, r, k, selected)


def lead_baseline(cluster: Cluster, r: float) -> Extract:
    """Positionally-first baseline: the first round(n*r/d) sentences per document.

    Padded or truncated to exactly k = round(n*r) total, adjusting at the tail
    of the global order.
    """
    n = cluster.n
    k = compression_size(n, r)
    per_doc = max(1, math.floor(n * r / cluster.d + 0.5))
    positions = [
        [cluster.offset(doc.doc_id) + s.index_in_doc for s in doc.sentences]
        for doc in cluster.documents
    ]
    selected = sorted(pos for doc_positions in positions for pos in doc_positions[:per_doc])[:k]
    chosen = set(selected)
    # too few: extend into the last document first, then walk backwards
    for pos in (pos for doc_positions in reversed(positions) for pos in doc_positions):
        if len(chosen) == k:
            break
        chosen.add(pos)
    selected = sorted(chosen)
    scores = tuple(
        SentenceScore(position=pos, c=0.0, p=0.0, f=0.0, base=0.0) for pos in selected
    )
    return Extract(cluster_id=cluster.cluster_id, r=r, k=k, selected=tuple(selected), scores=scores)


def enumerate_extracts(
    n: int, k: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> Iterator[tuple[int, ...]]:
    """All k-subsets of positions 1..n, lexicographic, C(n, k) in total."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = math.comb(n, k)
    if total > cap:
        raise EnumerationCapError(
            f"C({n}, {k}) = {total} exceeds the enumeration cap of {cap}; "
            "use the closed-form random-performance mode instead"
        )
    return iter(itertools.combinations(range(1, n + 1), k))


def extract_to_dict(ext: Extract) -> dict:
    return {
        "cluster_id": ext.cluster_id,
        "r": ext.r,
        "k": ext.k,
        "selected": list(ext.selected),
        "scores": [{**asdict(score), "final": score.final} for score in ext.scores],
    }


def summary_text(cluster: Cluster, ext: Extract) -> str:
    """The selected sentences, one per line, in cluster order."""
    lines = [cluster.sentence_at(pos).text for pos in ext.selected]
    return "\n".join(lines)

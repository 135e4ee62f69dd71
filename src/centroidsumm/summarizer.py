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
repeats. It never caches sentence pairs or builds a float per pair: a term
index built once per call, common terms packed into integers with a slot
per sentence, gives each extract member one integer row of doubled shared
counts with every sentence. Each round every sentence, member or not, reads
its own slot of one running slotwise maximum of those rows per member
length, and divides it by the sum of the two lengths as word_overlap does,
so the result equals the pairwise definition bit for bit. Two named weight
presets are evaluated throughout: pure-centroid (1, 0, 0) and
lead+centroid (1, 1, 0).
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
import warnings
from array import array
from bisect import bisect_right
from collections import Counter
from itertools import chain, repeat
from operator import add, attrgetter, itemgetter, truediv
from typing import Callable, Sequence

from .lexstats import Centroid, left_sum
from .text import Cluster, ScoreWeights, Sentence, _Record, compression_size
from .text import LEAD_CENTROID, PRESETS, PURE_CENTROID  # noqa: F401  re-exported: the presets live in text

RERANK_ITERATION_CAP = 100


class SentenceScore(_Record):
    position: int  # global position 1..n
    c: float
    p: float
    f: float
    base: float
    penalty: float = 0.0

    @property
    def final(self) -> float:
        return self.base - self.penalty


class Extract(_Record):
    cluster_id: str
    r: float
    k: int
    selected: tuple[int, ...]  # global positions, strictly ascending
    scores: tuple[SentenceScore, ...]  # one per selected position, same order


def centroid_value(sentence: Sentence, centroid: Centroid) -> float:
    """Sum of centroid weights over the sentence's token occurrences.

    Each occurrence counts, so repeated central vocabulary keeps adding. The
    sum runs in token order, not as count * weight, so its rounding is fixed.
    """
    return left_sum(map(centroid.weight, sentence.terms))


def positional_value(sentence: Sentence, cluster: Cluster, c_max: float) -> float:
    """Front-of-document credit: c_max for the first sentence, c_max/n_d for the last."""
    n_d = len(cluster.document(sentence.doc_id).sentences)
    return ((n_d - sentence.index_in_doc + 1) / n_d) * c_max


def first_sentence_overlap(sentence: Sentence, cluster: Cluster) -> float:
    """Count-vector inner product with the first sentence of the sentence's document.

    Summed per term occurrence, which gives the same integer as count times
    first count per distinct term, so only first sentences build `counts`.
    """
    first = cluster.document(sentence.doc_id).sentences[0].counts
    return float(sum(map(first.get, sentence.terms, repeat(0))))


def score_sentences(
    cluster: Cluster, centroid: Centroid, weights: ScoreWeights
) -> list[SentenceScore]:
    """Base scores for all n sentences, in global order; penalties stay 0. A non-finite base raises."""
    if cluster.cluster_id != centroid.cluster_id:
        raise ValueError(
            f"cluster {reprlib.repr(cluster.cluster_id)} does not match centroid "
            f"{reprlib.repr(centroid.cluster_id)}"
        )
    sentences = list(cluster.sentences())
    c_values = [centroid_value(s, centroid) for s in sentences]
    c_max = max(c_values, default=0.0)
    scores = []
    for position, (sentence, c) in enumerate(zip(sentences, c_values), start=1):
        p = positional_value(sentence, cluster, c_max)
        f = first_sentence_overlap(sentence, cluster)
        base = weights.w_c * c + weights.w_p * p + weights.w_f * f
        if not math.isfinite(base):
            where = f"cluster {reprlib.repr(cluster.cluster_id)}: sentence {position}"
            raise ValueError(f"{where}: base score {base} is not finite")
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


def _check_scores(cluster: Cluster, scores: Sequence[SentenceScore]) -> None:
    if len(scores) != cluster.n:
        raise ValueError(f"expected {cluster.n} scores, got {len(scores)}")


def extract(cluster: Cluster, scores: Sequence[SentenceScore], r: float) -> Extract:
    """Keep the k sentences with the highest final scores, in cluster order."""
    _check_scores(cluster, scores)
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
    return (2 * shared) / (len1 + len2)


def _overlap_rows(sentences: Sequence[Sentence]) -> Callable[[int], array]:
    """Index the sentences' terms once; return the function giving one sentence's row of doubled shared counts.

    postings[term, j] lists the sentences holding term more than j times, so a
    sentence's keys (term, j < its count of term) list sentence i exactly
    sum(min(count, count_i)) times: their shared count. A key held by at least
    n/64 sentences is one int instead, 2 in the slot of each sentence holding
    it; the other keys' short lists are counted and added in. A slot's range
    exceeds 4 * the longest length, so a doubled count (at most the sum of
    the two lengths) never carries into the next slot, and the slot's top bit,
    the guard bit of the rerank's packed maxima, stays clear. A row's own slot
    is 0: no sentence penalizes itself. The overlap of sentences a and b is
    row_a[b] / (len_a + len_b), 0.0 where either has no terms.
    """
    n = len(sentences)
    longest = max((len(sentence.terms) for sentence in sentences), default=0)
    code = next(code for code in "BHIQ" if 4 * longest < 256 ** array(code).itemsize)
    width = array(code).itemsize * n
    postings: dict[tuple[str, int], list[int]] = {}
    for i, sentence in enumerate(sentences):
        for term, count in sentence.counts.items():
            for j in range(count):
                postings.setdefault((term, j), []).append(i)
    packed: dict[tuple[str, int], int] = {}
    for key in [key for key, holders in postings.items() if 64 * len(holders) >= n]:
        slots = array(code, bytes(width))
        for i in postings.pop(key):
            slots[i] = 2
        packed[key] = int.from_bytes(slots, sys.byteorder)

    def row(i: int) -> array:
        keys = [(term, j) for term, count in sentences[i].counts.items() for j in range(count)]
        doubled = array(code, sum(packed.get(key, 0) for key in keys).to_bytes(width, sys.byteorder))
        for b, shared in Counter(chain.from_iterable(postings.get(key, ()) for key in keys)).items():
            doubled[b] += 2 * shared
        doubled[i] = 0
        return doubled

    return row


def _largest_overlaps(ranked: list[int], above: list[int], rows: dict[int, array], lengths: list[int]) -> list[float]:
    """Each sentence i's largest overlap with the first above[i] ranked members, 0.0 if there are none.

    The sentences are grouped by count. Walking the ranking up to each count,
    one running packed maximum of the rows per member length (a slotwise max,
    with a guard bit per slot) holds every sentence's largest doubled count
    with the members walked. After each fold that maximum is spelled out with
    one slot per sentence, next to the sums lengths[i] + length, and a group
    reads only its own slots of each, divides and keeps the largest quotient.
    A member's count is the number of members strictly above it, so its group
    is read before its own row is folded. A member without terms overlaps
    nothing and is not folded, so no sum of lengths is 0.
    """
    worst = [0.0] * len(above)
    groups: dict[int, list[int]] = {}  # count -> 0-based positions of the sentences with that count
    for i, count in enumerate(above):
        if count:
            groups.setdefault(count, []).append(i)
    if not groups:
        return worst
    code = rows[ranked[0]].typecode
    bits, width = 8 * array(code).itemsize, array(code).itemsize * len(above)
    guard = int.from_bytes(array(code, [1 << (bits - 1)]) * len(above), sys.byteorder)
    running: dict[int, int] = {}  # member length -> the slotwise max of the rows walked
    maxima: dict[int, array] = {}  # member length -> the same max, one slot per sentence
    totals: dict[int, list[int]] = {}  # member length -> lengths[i] + that length, in the same key order
    walked = 0
    for count, group in sorted(groups.items()):
        for member in ranked[walked:count]:
            length = lengths[member - 1]
            if not length:
                continue
            b = int.from_bytes(rows[member], sys.byteorder)
            if length in running:
                a = running[length]
                t = ((a | guard) - b) & guard  # a slot's guard bit is set where a >= b
                b ^= (a ^ b) & (t - (t >> (bits - 1)))  # a there, b elsewhere
            else:
                totals[length] = list(map(add, lengths, repeat(length)))
            running[length] = b
            maxima[length] = array(code, b.to_bytes(width, sys.byteorder))
        walked = count
        if maxima:
            read = itemgetter(*group, group[0])  # the first index once more, so that one index still gives a tuple
            quotients = map(map, repeat(truediv), map(read, maxima.values()), map(read, totals.values()))
            for i, largest in zip(group, map(max, repeat(0.0), *quotients)):
                worst[i] = largest
    return worst


class RerankCapWarning(RuntimeWarning):
    """The redundancy rerank used up its rounds before its selection settled."""


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
    repeats are detected by hashing the selected set. If max_iterations
    rounds pass without either, the last selection is kept and a
    RerankCapWarning names the cluster and the cap.

    No pair of sentences is compared on its own, and no float is built per
    pair. `_overlap_rows` indexes the terms once, common ones as packed
    integers; a member's doubled shared counts with all n sentences then come
    as one integer row, built the first time the member's final is above some
    sentence's and kept for later rounds. Each round ranks the members by
    final, highest first, and counts for each sentence the members with a
    strictly higher final, a prefix of that ranking. `_largest_overlaps`
    groups all sentences, members too, by that count and walks the ranking
    once, folding each member's row into a slotwise maximum per member
    length. Before the rows of the members at and below its count are folded,
    a group reads its own slots of each maximum and divides each doubled
    count d by len_i + length; its largest quotient is its overlap.

    Exactness: shared counts are exact integers (packed slots never carry),
    and each quotient is d / (len_a + len_b) with d = 2 * shared, two ints
    divided as in `word_overlap`, one rational correctly rounded, so it is
    the very float the pairwise computation gives. Shared counts are
    symmetric, so a member reads its overlaps from the rows of the members
    above it, as every other sentence does. Correctly rounded division d /
    total by a fixed total never decreases as d grows, so the quotient of the
    largest count among members of one length is the largest of their
    quotients, and a max of floats does not depend on its order. A member
    without terms overlaps nothing; it is not folded, so every total is at
    least 1. The prefix holds exactly the members with a strictly higher
    final (a NaN final is higher than none and lower than none, as in a
    direct comparison). Penalties, finals and selections are therefore equal,
    bit for bit, to comparing every sentence with every member.
    """
    _check_scores(cluster, scores)
    if any(score.penalty != 0 for score in scores):
        raise ValueError("redundancy_rerank expects untouched base scores")
    n = cluster.n
    k = compression_size(n, r)
    base = [score.base for score in scores]
    w_r = max(base)
    sentences = cluster.sentences()
    lengths = [len(sentence.terms) for sentence in sentences]
    overlap_row = _overlap_rows(sentences)
    rows: dict[int, array] = {}  # member position -> its doubled shared counts

    finals = list(base)
    penalties = [0.0] * n
    selected = _select_top(finals, k)
    seen = {selected}
    for _ in range(max_iterations):
        # members that can penalize, highest final first; a NaN final is never higher
        ranked = sorted(
            (m for m in selected if not math.isnan(finals[m - 1])),
            key=lambda m: finals[m - 1],
            reverse=True,
        )
        higher = sorted(finals[m - 1] for m in ranked)
        # how many ranked members have a strictly higher final than each sentence
        above = [len(ranked) - bisect_right(higher, final) for final in finals]
        for member in ranked[: max(above)]:  # the rest are higher than no sentence
            if member not in rows:
                rows[member] = overlap_row(member - 1)
        penalties = [w_r * value for value in _largest_overlaps(ranked, above, rows, lengths)]
        finals = [b - p for b, p in zip(base, penalties)]
        reselected = _select_top(finals, k)
        if reselected == selected or reselected in seen:
            selected = reselected
            break
        seen.add(reselected)
        selected = reselected
    else:
        warnings.warn(
            RerankCapWarning(
                f"cluster {cluster.cluster_id!r} at r={r:g}: the redundancy rerank ran its cap of "
                f"{max_iterations} rounds without a stable or repeated selection; kept the last one"
            ),
            stacklevel=2,
        )

    final_scores = [
        SentenceScore(s.position, s.c, s.p, s.f, s.base, penalty) for s, penalty in zip(scores, penalties)
    ]
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


# The fields of an extract file's score row, in the sorted order the file lists them.
_SCORE_FIELDS = ("base", "c", "f", "final", "p", "penalty", "position")
_score_values = attrgetter(*_SCORE_FIELDS)
# One score row at its indent in an extract file; %r spells a finite float, -0.0
# and an int exactly as json does.
_SCORE_ROW = "{\n" + ",\n".join(f'      "{name}": %r' for name in _SCORE_FIELDS) + "\n    }"
_SCORE_ROW_JSON = _SCORE_ROW.replace("%r", "%s")  # the same row, values spelled by json


def extract_to_dict(ext: Extract) -> dict:
    return {
        "cluster_id": ext.cluster_id,
        "r": ext.r,
        "k": ext.k,
        "selected": list(ext.selected),
        "scores": [dict(zip(_SCORE_FIELDS, _score_values(score))) for score in ext.scores],
    }


def _score_row(values: tuple) -> str:
    try:
        if math.isfinite(sum(values)):  # any NaN or infinity makes the sum non-finite
            return _SCORE_ROW % values
    except OverflowError:  # an int too large for a float; json writes it whole
        pass
    return _SCORE_ROW_JSON % tuple(map(json.dumps, values))  # NaN, Infinity, -Infinity


def _json_array(items: list[str]) -> str:
    """A top-level value's array of already spelled items, laid out as json.dumps(indent=2) does."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def extract_json(ext: Extract) -> str:
    """The text of an extract file: json.dumps(extract_to_dict(ext), sort_keys=True, indent=2) + newline.

    Built from one row template, not through json's indented encoder, which
    is pure Python; the header values still go through json, so any
    cluster_id is escaped exactly as before.
    """
    rows = [_score_row(_score_values(score)) for score in ext.scores]
    return (
        f'{{\n  "cluster_id": {json.dumps(ext.cluster_id)},\n  "k": {json.dumps(ext.k)},\n'
        f'  "r": {json.dumps(ext.r)},\n  "scores": {_json_array(rows)},\n'
        f'  "selected": {_json_array(list(map(repr, ext.selected)))}\n}}\n'
    )


def summary_text(cluster: Cluster, ext: Extract) -> str:
    """The selected sentences, one per line, in cluster order."""
    lines = [cluster.sentence_at(pos).text for pos in ext.selected]
    return "\n".join(lines)

"""Differential tests: scoring, selection and clustering against the reference code.

oracle_summarizer.py re-derives every sentence's terms from its text and every
position by scanning the cluster, as the code did before terms and positions
were stored once. The library must return exactly equal results (==, not
approx), including the key order of centroid entries and document vectors,
which fixes the order of their float sums.
"""

import json
import math
import random
import warnings
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import centroidsumm as cs
import oracle_summarizer as oracle
from centroidsumm import lexstats, summarizer
from helpers import examples

# Mixed case, a digit run, and a capital whose lowercase form carries a
# combining mark, so tokenizing must lowercase each match, not the text.
WORDS = ["flood", "Flood", "RIVER", "river", "rain", "dam", "2024", "warning", "İstanbul", "x"]
SEPARATORS = [" ", ", ", " - ", "_", "; "]


@st.composite
def sentence_text(draw):
    words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=8))
    text = words[0]
    for word in words[1:]:
        text += draw(st.sampled_from(SEPARATORS)) + word
    return text


@st.composite
def documents(draw, max_docs=4):
    # sentences come from a small pool plus "..." (no terms at all), so
    # duplicate sentences and equal scores are common
    pool = draw(st.lists(sentence_text(), min_size=1, max_size=5)) + ["..."]
    docs = []
    for i in range(draw(st.integers(1, max_docs))):
        texts = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
        hour = draw(st.integers(0, 3))  # equal timestamps fall back to doc_id order
        docs.append(cs.document_from_dict({
            "doc_id": f"d{i}",
            "source": "wire",
            "timestamp": f"1999-05-20T{hour:02d}:00:00Z",
            "sentences": texts,
        }))
    return docs


@st.composite
def idf_models(draw):
    n_docs = draw(st.integers(1, 40))
    terms = sorted({word.lower() for word in WORDS})
    known = draw(st.lists(st.sampled_from(terms), unique=True))
    return cs.IdfModel(n_docs=n_docs, df={term: draw(st.integers(1, n_docs)) for term in known})


weights = st.sampled_from([
    cs.PURE_CENTROID,
    cs.LEAD_CENTROID,
    cs.ScoreWeights(1.0, 1.0, 1.0),
    cs.ScoreWeights(0.3, 0.0, 2.5),
    cs.ScoreWeights(0.0, 0.7, 0.0),
])
rates = st.integers(1, 100).map(lambda percent: percent / 100)
thresholds = st.sampled_from([0.0, 0.5, 2.0])


def outcome(func, *args):
    """func's result, or the type and message of the ValueError it raised."""
    try:
        return func(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@given(documents(), idf_models(), weights, rates, thresholds)
@settings(max_examples=examples(300), deadline=None)
def test_scoring_and_selection_equal_reference(docs, idf, score_weights, r, threshold):
    cluster = cs.Cluster.build("c", docs)
    for sentence in cluster.sentences():
        assert sentence.terms == sentence.norms() == oracle.norms(sentence)

    centroid = cs.build_centroid(cluster, idf, threshold)
    expected = oracle.build_centroid(cluster, idf, threshold)
    assert centroid == expected
    assert list(centroid.entries) == list(expected.entries)

    scores = cs.score_sentences(cluster, centroid, score_weights)
    assert scores == oracle.score_sentences(cluster, expected, score_weights)
    for select in ("extract", "redundancy_rerank"):
        chosen = getattr(cs, select)(cluster, scores, r)
        assert chosen == getattr(oracle, select)(cluster, scores, r), select
        assert cs.extract_to_dict(chosen) == oracle.extract_to_dict(chosen)
        assert cs.extract_json(chosen) == extract_file_text(chosen), select
    assert cs.lead_baseline(cluster, r) == oracle.lead_baseline(cluster, r)

    sentences = cluster.sentences()
    for s1 in sentences:
        for s2 in sentences:
            assert outcome(cs.word_overlap, s1, s2) == outcome(
                oracle.word_overlap, s1, s2
            )


def extract_file_text(ext):
    """An extract file as json writes it: the reference for the template writer."""
    return json.dumps(oracle.extract_to_dict(ext), sort_keys=True, indent=2) + "\n"


# Values json spells unlike repr (NaN, Infinity), the signed zero, the extreme
# finite floats, and any float at all.
score_values = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308, math.nan, math.inf, -math.inf,
]) | st.floats()
# Quotes, backslashes, control characters, non-ASCII and astral characters.
cluster_ids = st.text(st.sampled_from('"\\\x00\n\t\x1f\x7f\u2028é€𝄞 ab') | st.characters(), max_size=12)


@st.composite
def direct_extracts(draw):
    """Extracts built directly, with values no CLI run produces: the writer must still equal json."""
    scores = []
    for _ in range(draw(st.integers(0, 6))):
        # a term-less cluster gives the integer c = 0 (an empty sum), which json writes as 0, not 0.0
        c = draw(st.just(0) | score_values)
        scores.append(cs.SentenceScore(
            position=draw(st.integers(-3, 10**6) | st.just(2**1100)),  # 2**1100 overflows a float
            c=c,
            p=draw(score_values),
            f=draw(score_values),
            base=draw(score_values),
            penalty=draw(score_values),
        ))
    return cs.Extract(
        cluster_id=draw(cluster_ids),
        r=draw(score_values),
        k=draw(st.integers(0, 10**6)),
        selected=tuple(score.position for score in scores),
        scores=tuple(scores),
    )


@given(direct_extracts())
@settings(max_examples=examples(300), deadline=None)
def test_extract_writer_equals_json(ext):
    expected = extract_file_text(ext)
    assert cs.extract_json(ext) == expected
    # the library's dict holds the same values under the same keys
    assert json.dumps(cs.extract_to_dict(ext), sort_keys=True, indent=2) + "\n" == expected


@given(documents(max_docs=8), idf_models(), st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]), thresholds)
@settings(max_examples=examples(150), deadline=None)
def test_clustering_equals_reference(docs, idf, sim_threshold, centroid_threshold):
    got = cs.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)
    assert got == oracle.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)


# --- overlap rows from packed postings --------------------------------------

ROW_WORDS = ["the", "flood", "river", "dam", "rain", "2024", "warning", "city"]


def row_sentences(texts):
    return [cs.Sentence(doc_id="d", index_in_doc=i, text=text) for i, text in enumerate(texts, 1)]


def check_rows(sentences):
    """Each row holds twice the shared counts with every other sentence and 0 in its own slot; divided
    by the sums of lengths, it is the oracle's overlap row and the pairwise word_overlap, 0.0 next to
    an empty sentence (whose counts are 0)."""
    row, expected_row = summarizer._overlap_rows(sentences), oracle._overlap_rows(sentences)
    counts = [Counter(oracle.norms(sentence)) for sentence in sentences]
    lengths = [len(sentence.terms) for sentence in sentences]
    for i, s1 in enumerate(sentences):
        doubled, expected = row(i), expected_row(i)
        shared = [sum((counts[i] & other).values()) for other in counts]
        assert list(doubled) == [0 if b == i else 2 * s for b, s in enumerate(shared)], i
        overlaps = array("d", [d / max(1, lengths[i] + length) for d, length in zip(doubled, lengths)])
        pairwise = array("d", [cs.word_overlap(s1, s2) if s1.terms and s2.terms else 0.0 for s2 in sentences])
        del overlaps[i], expected[i], pairwise[i]  # the oracle's row holds the sentence's overlap with itself
        assert overlaps.tobytes() == expected.tobytes() == pairwise.tobytes(), i


def unique_words(i, count):
    """`count` words that no other sentence i holds: keys of one sentence each."""
    return " ".join(f"s{i}w{j % 7}" for j in range(count))


ROW_CASES = {
    "one sentence": ["the flood"],
    "one empty sentence": ["..."],
    "empty sentences among others": ["...", "the flood", "- -", "the river flood", "..."],
    "130 tokens, 2-byte slots": [" ".join(ROW_WORDS * 16 + ["dam", "dam"]), "the flood dam", "dam " * 40],
    "one term 300 times": ["dam " * 300, "dam " * 299 + "flood", "dam", "the dam"],
    # 4 * the longest length must stay below a slot's range: 63 tokens fit a byte, 64 do not
    "63 tokens, 1-byte slots": [" ".join(ROW_WORDS * 8)[:-5], " ".join(ROW_WORDS * 8)[:-5], "the city"],
    "64 tokens, 2-byte slots": [" ".join(ROW_WORDS * 8), " ".join(ROW_WORDS * 8), "the city"],
    # n <= 64: each key is held by at least n/64 sentences, so every key is packed
    "all dense": [" ".join(ROW_WORDS[: 1 + i % 8] * (1 + i % 3)) for i in range(64)],
    # n > 64 and each key in one sentence: no key is packed, every count comes from the lists
    "all sparse": [unique_words(i, i % 9) for i in range(80)],
    "all sparse, 200 tokens": [unique_words(i, 200 if i == 5 else i % 4) for i in range(70)],
    "dense and sparse": [f"{ROW_WORDS[i % 8]} the {unique_words(i, 2)} flood " * (1 + i % 2) for i in range(130)],
}


@pytest.mark.parametrize("texts", ROW_CASES.values(), ids=ROW_CASES.keys())
def test_overlap_rows_equal_reference(texts):
    check_rows(row_sentences(texts))


@pytest.mark.parametrize("name, code", [("63 tokens, 1-byte slots", "B"), ("64 tokens, 2-byte slots", "H")])
def test_row_slots_leave_a_guard_bit(name, code):
    sentences = row_sentences(ROW_CASES[name])
    assert max(len(sentence.terms) for sentence in sentences) == (63 if code == "B" else 64)
    assert summarizer._overlap_rows(sentences)(0).typecode == code


@st.composite
def row_clusters(draw):
    """Sentences over a few common words and many rare ones, some empty, some of 128 or more tokens.

    The texts come from a drawn seed, not word by word: drawing thousands of words would cost more
    than the check.
    """
    n = draw(st.sampled_from([1, 2, 3, 20, 64, 65, 100]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    vocabulary = ROW_WORDS + [f"rare{j}" for j in range(draw(st.sampled_from([1, n, 4 * n])))]
    weights = [draw(st.sampled_from([1, 20, 200]))] * len(ROW_WORDS) + [1] * (len(vocabulary) - len(ROW_WORDS))
    lengths = [rng.randrange(13) for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):  # a long sentence: wider slots
        lengths[rng.randrange(n)] = rng.randrange(128, 321)
    return row_sentences([" ".join(rng.choices(vocabulary, weights, k=length)) for length in lengths])


@given(row_clusters())
@settings(max_examples=examples(25), deadline=None)
def test_overlap_rows_equal_reference_on_drawn_clusters(sentences):
    check_rows(sentences)


# --- the redundancy rerank at a realistic size ------------------------------

RERANK_VOCABULARY = [
    "troops", "entered", "the", "city", "aid", "convoys", "waited", "outside",
    "flood", "river", "rain", "dam", "2024", "said", "officials", "on",
]


@st.composite
def paraphrase_pool(draw):
    """A few source sentences, each with reordered, shortened and extended rewrites."""
    pool = ["...", "- -"]  # sentences without terms
    for words in draw(st.lists(st.lists(st.sampled_from(RERANK_VOCABULARY), min_size=1, max_size=12),
                               min_size=1, max_size=8)):
        pool.append(" ".join(words))
        for _ in range(draw(st.integers(0, 4))):
            rewrite = list(draw(st.permutations(words)))
            rewrite = rewrite[: draw(st.integers(1, len(rewrite)))]
            rewrite += draw(st.lists(st.sampled_from(RERANK_VOCABULARY + words), max_size=3))
            pool.append(" ".join(rewrite))
    return pool


@st.composite
def large_clusters(draw):
    # up to 8 documents of up to 25 sentences, drawn with repeats from one pool
    pool = draw(paraphrase_pool())
    docs = []
    for i in range(draw(st.sampled_from(range(1, 9)))):
        size = draw(st.sampled_from(range(1, 26)))  # near uniform, where integers() favours small
        docs.append(cs.document_from_dict({
            "doc_id": f"d{i}",
            "source": "wire",
            "timestamp": f"1999-05-20T{i:02d}:00:00Z",
            "sentences": draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size)),
        }))
    return cs.Cluster.build("big", docs)


@st.composite
def rerank_scores(draw, cluster):
    """Library scores, or drawn bases with many ties, negative or non-finite values."""
    source = draw(st.sampled_from(["centroid", "ties", "non-finite"]))
    if source == "centroid":
        idf = cs.IdfModel(n_docs=50, df={term: draw(st.integers(1, 50)) for term in RERANK_VOCABULARY})
        return cs.score_sentences(cluster, cs.build_centroid(cluster, idf), draw(weights))
    values = [-2.0, 0.0, 0.5, 1.0, 1.0, 3.0, 7.5]
    if source == "non-finite":
        values += [math.inf, -math.inf, math.nan]
    bases = draw(st.lists(st.sampled_from(values), min_size=cluster.n, max_size=cluster.n))
    return [cs.SentenceScore(position=i, c=b, p=0.0, f=0.0, base=b) for i, b in enumerate(bases, 1)]


@given(st.data(), large_clusters(), rates, st.sampled_from([1, 2, 3, 100]))
@settings(max_examples=examples(100), deadline=None)
def test_rerank_equals_reference_on_large_clusters(data, cluster, r, max_iterations):
    scores = data.draw(rerank_scores(cluster))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cs.RerankCapWarning)
        got = cs.redundancy_rerank(cluster, scores, r, max_iterations)
    expected = oracle.redundancy_rerank(cluster, scores, r, max_iterations)
    # repr tells -0.0 from 0.0 and matches NaN, which == cannot
    assert repr(got) == repr(expected)
    if all(math.isfinite(score.base) for score in scores):
        assert got == expected


def direct_scores(bases):
    return [cs.SentenceScore(position=i, c=b, p=0.0, f=0.0, base=b) for i, b in enumerate(bases, 1)]


def distinct_member_lengths():
    """40 sentences over a few words; the 8 with the highest bases, the extract at r = 0.2, are 1 to 8 tokens
    long, so each member length has one member. The other bases are close below, so penalties reselect."""
    rng = random.Random(5)
    texts = [" ".join(rng.choices(ROW_WORDS, k=rng.randint(2, 9))) for _ in range(40)]
    for length, i in enumerate(range(0, 40, 5), 1):
        texts[i] = " ".join(rng.choices(ROW_WORDS, k=length))
    bases = [10.0 + i / 100 if i % 5 == 0 else 9.0 + rng.random() for i in range(40)]
    return texts, bases, 0.2


def tied_finals(r):
    """Sentence 3 repeats member 2 with the same base but is not selected (ties go to the earlier position),
    so it has one member strictly above it, not two (r = 0.3, k = 2); sentence 6 ties member 5 (r = 0.7, k = 5)."""
    texts = ["troops entered the city", "aid convoys waited outside", "aid convoys waited outside",
             "the river flood", "river dam", "river dam", "officials said on the dam"]
    return texts, [9.0, 5.0, 5.0, 1.0, 0.5, 0.5, 0.25], r


def empty_first():
    """The highest base belongs to a sentence without terms, so the members above sentence 2 hold no term at
    all; sentence 4 has no terms either and ranks below members of every length (r = 0.5, k = 3)."""
    texts = ["...", "aid convoys waited outside", "aid convoys waited", "- -", "the river flood", "river flood dam"]
    return texts, [9.0, 5.0, 4.0, 3.0, 2.0, 1.0], 0.5


RERANK_CASES = {
    "distinct member lengths": distinct_member_lengths(),
    "tied finals, k=2": tied_finals(0.3),
    "tied finals, k=5": tied_finals(0.7),
    "empty sentence first": empty_first(),
}


@pytest.mark.parametrize("texts, bases, r", RERANK_CASES.values(), ids=RERANK_CASES.keys())
def test_rerank_equals_reference_on_cases(texts, bases, r):
    doc = cs.document_from_dict({"doc_id": "d", "source": "wire", "timestamp": "1999-05-20T00:00:00Z",
                                 "sentences": texts})
    cluster = cs.Cluster.build("case", [doc])
    scores = direct_scores(bases)
    assert repr(cs.redundancy_rerank(cluster, scores, r)) == repr(oracle.redundancy_rerank(cluster, scores, r))


# --- incremental clustering at a realistic size -----------------------------

BACKGROUND_POOL = [f"bg{i}" for i in range(30)]
TOPIC_POOLS = [[f"topic{k}w{j}" for j in range(10)] for k in range(6)]


@st.composite
def document_streams(draw):
    """20-60 documents over a shared background pool, most about one of a few topics.

    Structure is drawn; words come from a seeded generator, so a draw stays
    small. Timestamps repeat (ordering falls back to doc_id), some sentences
    have no terms, and some documents reuse an earlier doc_id.
    """
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    topics = TOPIC_POOLS[: draw(st.integers(1, len(TOPIC_POOLS)))]
    duplicate_rate = draw(st.sampled_from([0.0, 0.0, 0.05, 0.2]))
    n_docs = draw(st.integers(20, 60))
    background_weights = [1.0 / rank for rank in range(1, len(BACKGROUND_POOL) + 1)]
    docs = []
    for i in range(n_docs):
        topic = rng.choice(topics) if rng.random() < 0.85 else [f"single{i}w{j}" for j in range(5)]
        density = rng.uniform(0.2, 0.8)
        texts = []
        for _ in range(rng.randint(1, 6)):
            words = rng.choices(BACKGROUND_POOL, background_weights, k=rng.randint(0, 12))
            words = [rng.choice(topic) if rng.random() < density else word for word in words]
            texts.append(" ".join(words) or "...")
        doc_id = f"d{rng.randrange(i):02d}" if i and rng.random() < duplicate_rate else f"d{i:02d}"
        minute = rng.randrange(n_docs)
        docs.append(cs.document_from_dict({
            "doc_id": doc_id,
            "source": "wire",
            "timestamp": f"1999-05-20T{minute // 60:02d}:{minute % 60:02d}:00Z",
            "sentences": texts,
        }))
    return docs


@st.composite
def stream_idf_models(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n_docs = draw(st.integers(1, 60))
    terms = BACKGROUND_POOL + [word for pool in TOPIC_POOLS for word in pool]
    known = rng.sample(terms, rng.randrange(len(terms)))
    return cs.IdfModel(n_docs=n_docs, df={term: rng.randint(1, n_docs) for term in known})


def oracle_best_similarities(docs, idf, sim_threshold, centroid_threshold):
    """Each document's best cosine in the oracle's stream (0.0 when none is positive), in order.

    Records through the oracle's own assign_document and _cosine; a stream
    that stops at a duplicate doc_id gives the documents before it.
    """
    per_doc = []
    assign, cosine = oracle.assign_document, oracle._cosine

    def recording_assign(*args):
        per_doc.append([0.0])
        return assign(*args)

    def recording_cosine(*args):
        per_doc[-1].append(cosine(*args))
        return per_doc[-1][-1]

    oracle.assign_document, oracle._cosine = recording_assign, recording_cosine
    try:
        outcome(oracle.incremental_cluster, docs, idf, sim_threshold, centroid_threshold)
    finally:
        oracle.assign_document, oracle._cosine = assign, cosine
    return [max(sims) for sims in per_doc]


@given(st.data(), document_streams(), stream_idf_models(),
       st.sampled_from([0.0, 0.05, 0.1, 0.3, 0.6]), st.sampled_from([0.0, 0.5, 2.0, 50.0]))
@settings(max_examples=examples(60), deadline=None)
def test_clustering_equals_reference_on_large_streams(data, docs, idf, sim_threshold, centroid_threshold):
    # A threshold equal to a similarity the oracle computed puts that document
    # exactly on the >= tie. It is taken from a document before which no
    # positive best similarity falls on the other side of it than of the drawn
    # threshold, so the stream reaches that document unchanged.
    bests = oracle_best_similarities(docs, idf, sim_threshold, centroid_threshold)
    ties = [
        best for j, best in enumerate(bests)
        if best > 0 and all((b >= sim_threshold) == (b >= best) for b in bests[:j] if b > 0)
    ]
    if ties and data.draw(st.booleans(), label="threshold at a tie"):
        sim_threshold = data.draw(st.sampled_from(ties), label="tied sim_threshold")
    got = outcome(cs.incremental_cluster, docs, idf, sim_threshold, centroid_threshold)
    assert got == outcome(oracle.incremental_cluster, docs, idf, sim_threshold, centroid_threshold)

    # _best_match over many centroids, against the reference assign_document: consecutive groups of
    # distinct documents, one repeated under a later id so that equal best scores tie
    distinct = list({doc.doc_id: doc for doc in docs}.values())
    sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=12), label="group sizes")
    centroids, start = [], 0
    for i, size in enumerate(sizes):
        if start < len(distinct):
            group = cs.Cluster.build(f"g{i:02d}", distinct[start:start + size])
            centroids.append(oracle.build_centroid(group, idf, centroid_threshold))
            start += size
    centroids.append(cs.Centroid("again", centroids[0].entries))
    weights = [{term: entry.weight for term, entry in c.entries.items()} for c in centroids]
    candidates = [(c.cluster_id, w, lexstats._norm(w)) for c, w in zip(centroids, weights)]
    for doc in docs:
        vector = oracle.document_vector(doc, idf)
        best = max(oracle._cosine(vector, w) for w in weights)
        for threshold in (sim_threshold, best, math.nextafter(best, math.inf)):
            expected = oracle.assign_document(centroids, doc, idf, threshold)
            assert lexstats._best_match(vector, candidates, threshold) == expected


# --- pruned clustering: ties, long documents, terms that leave and return ---

VOCABULARY = [f"w{i:03d}" for i in range(400)]
# Base sizes on both sides of lexstats._HEAD_TERMS, so that a document's tail is empty or not.
BASE_SIZES = [1, 2, 5, 30, 47, 48, 49, 120, 300]


def stream_document(i, texts):
    return cs.document_from_dict({
        "doc_id": f"d{i:02d}",
        "source": "wire",
        "timestamp": f"1999-05-20T{i // 60:02d}:{i % 60:02d}:00Z",
        "sentences": texts,
    })


def tie_stream(rng):
    """Copies of a few base documents under new ids, some with every sentence repeated.

    A copy has its base's vector, and a repeated copy that vector times 2 or 3, so open clusters
    of equal or proportional vectors are common: a document's cosines with them tie exactly or
    differ in the last bits. Some copies carry one extra sentence, which breaks the tie a little.
    """
    bases = []
    for _ in range(rng.randint(1, 4)):
        words = rng.sample(VOCABULARY, rng.choice(BASE_SIZES))
        texts = [" ".join(rng.choices(words, k=rng.randint(1, 60))) for _ in range(rng.randint(1, 4))]
        bases.append([" ".join(words), *texts])  # every word at least once
    docs = []
    for i in range(rng.randint(2, 30)):
        texts = rng.choice(bases) * rng.choice([1, 1, 1, 2, 3])
        if rng.random() < 0.2:
            texts = [*texts, rng.choice(VOCABULARY)]
        docs.append(stream_document(i, texts))
    return docs


def tie_idf_model(rng):
    """No term known, so that every idf is log2(n_docs + 1) (3.0 at n_docs 7), or random frequencies."""
    n_docs = rng.choice([7, 7, 12, 40])
    if rng.random() < 0.5:
        return cs.IdfModel(n_docs=n_docs, df={})
    known = rng.sample(VOCABULARY, rng.randrange(len(VOCABULARY)))
    return cs.IdfModel(n_docs=n_docs, df={term: rng.randint(1, n_docs) for term in known})


# centroid_threshold as a multiple of an unknown term's idf: a term then stays in the kept set
# while its total over d is at least the multiple, with equality reachable at 0.5, 1 and 2.
THRESHOLD_MULTIPLES = [0.0, 0.5, 1.0, 4 / 3, 2.0]


def tie_case(rng):
    """A tie stream, an idf model and the two thresholds; half the time sim_threshold is a best similarity."""
    docs, idf = tie_stream(rng), tie_idf_model(rng)
    sim_threshold = rng.choice([0.0, 0.3, 0.9, 1.0])
    centroid_threshold = rng.choice(THRESHOLD_MULTIPLES) * idf.idf("")
    bests = [best for best in oracle_best_similarities(docs, idf, sim_threshold, centroid_threshold) if best > 0]
    if bests and rng.random() < 0.5:
        sim_threshold = rng.choice(bests)
    return docs, idf, sim_threshold, centroid_threshold


def check_tie_case(seed):
    docs, idf, sim_threshold, centroid_threshold = tie_case(random.Random(seed))
    got = outcome(cs.incremental_cluster, docs, idf, sim_threshold, centroid_threshold)
    assert got == outcome(oracle.incremental_cluster, docs, idf, sim_threshold, centroid_threshold)


seeds = st.integers(0, 2**32 - 1)


@given(seeds)
@settings(max_examples=examples(150), deadline=None)
def test_clustering_equals_reference_on_ties(seed):
    check_tie_case(seed)


# Streams on which a pick made without the float margin, or without the exact fallback on near
# ties, differs from the reference.
@pytest.mark.parametrize("seed", [9, 24, 26, 30, 33])
def test_clustering_equals_reference_on_known_ties(seed):
    check_tie_case(seed)


# Tie streams on which the exact fallback picks an open cluster at a centroid threshold above 0, so
# the joining document is then added with its own terms after the fallback has built centroids.
@pytest.mark.parametrize("seed", [0, 7, 15, 24, 30])
def test_clustering_equals_reference_after_the_fallback_joins(seed, monkeypatch):
    docs, idf, sim_threshold, centroid_threshold = tie_case(random.Random(seed))
    picks = []

    def recording_best_match(*args):
        picks.append(best_match(*args))
        return picks[-1]

    best_match = lexstats._best_match
    monkeypatch.setattr(lexstats, "_best_match", recording_best_match)
    got = cs.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)
    assert centroid_threshold > 0 and any(pick is not None for pick in picks)
    assert got == oracle.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)


def add_document(cluster, doc, idf, threshold):
    """_OpenCluster.add with the document's term counts and idfs, as _Stream.place passes them."""
    counts = Counter(term for sentence in doc.sentences for term in sentence.terms)
    return cluster.add(doc, counts, list(map(idf.idf, counts)), idf.idf, threshold)


@given(seeds, st.sampled_from(THRESHOLD_MULTIPLES), st.sampled_from([0.0, 0.3, 0.9]))
@settings(max_examples=examples(150), deadline=None)
def test_running_vector_keeps_the_centroid_terms(seed, multiple, sim_threshold):
    """After each document, every open cluster holds its centroid's terms, and the index its clusters.

    The joining cluster's unscaled vector holds exactly its centroid's terms, at totals * idf, and
    holders lists, for every term, exactly the open clusters whose documents hold it, in the
    clusters and order of the reference run.
    """
    rng = random.Random(seed)
    docs, idf = tie_stream(rng), tie_idf_model(rng)
    threshold = multiple * idf.idf("")
    reference = oracle.incremental_cluster(docs, idf, sim_threshold, threshold)
    placed = {doc.doc_id: i for i, cluster in enumerate(reference) for doc in cluster.documents}
    stream = lexstats._Stream(idf.idf, sim_threshold, threshold)
    members, holders = [[] for _ in reference], {}
    for doc in docs:
        stream.place(doc)
        i = placed[doc.doc_id]
        members[i].append(doc)
        for term in {term for sentence in doc.sentences for term in sentence.terms}:
            holders.setdefault(term, set()).add(i)
        assert [cluster.docs for cluster in stream.clusters] == [m for m in members if m]
        assert {term: sorted(ids) for term, ids in stream.holders.items()} == {
            term: sorted(ids) for term, ids in holders.items()
        }
        cluster = stream.clusters[i]
        expected = oracle.build_centroid(cs.Cluster.build("c", members[i]), idf, threshold)
        assert cluster.unscaled.keys() == expected.entries.keys()
        assert all(value == cluster.totals[term] * idf.idf(term) for term, value in cluster.unscaled.items())
        assert cluster.norm == math.hypot(*cluster.unscaled.values())


def test_a_term_leaves_the_centroid_and_returns():
    """At a threshold of one idf, f is kept while its total is at least d: it leaves at d = 3 and 5, returns at 4 and 6."""
    idf = cs.IdfModel(n_docs=7, df={})  # every term's idf is 3.0
    core = "alpha beta gamma " * 3
    flicker = [2, 0, 0, 2, 0, 4]
    docs = [stream_document(i, [core, "f " * count + "filler"]) for i, count in enumerate(flicker)]
    threshold = idf.idf("f")
    kept = [("f" in oracle.build_centroid(cs.Cluster.build("c", docs[:j]), idf, threshold).entries)
            for j in range(1, len(docs) + 1)]
    assert kept == [True, True, False, True, False, True]
    assert [c.d for c in oracle.incremental_cluster(docs, idf, 0.1, threshold)] == [6]
    assert cs.incremental_cluster(docs, idf, 0.1, threshold) == oracle.incremental_cluster(docs, idf, 0.1, threshold)
    cluster = lexstats._OpenCluster()
    for j, doc in enumerate(docs):
        add_document(cluster, doc, idf, threshold)
        assert ("f" in cluster.unscaled) == kept[j]


def test_a_bound_equal_to_the_floor_is_scored():
    """A cluster is skipped only when its widened bound is below both the best so far and sim_threshold.

    With a document shorter than the head, a cluster's bound is its approximate cosine, so of two
    equal clusters the second one's bound equals the best so far, and at sim_threshold equal to the
    bound it equals the threshold too; with no margin, both must still be scored.
    """
    idf = cs.IdfModel(n_docs=7, df={})
    stream = lexstats._Stream(idf.idf, 2.0, 0.0)  # above every cosine, so each member opens a cluster
    for i in range(2):
        stream.place(stream_document(i + 1, ["alpha beta beta delta"]))
    vector = oracle.document_vector(stream_document(0, ["alpha alpha beta gamma"]), idf)
    terms, weights = list(vector), list(vector.values())
    norm = math.hypot(*weights)
    stream.sim_threshold = 0.0
    best, contenders = stream.contenders(terms, weights, norm, 0.0)
    assert contenders == [0, 1]
    stream.sim_threshold = best
    assert stream.contenders(terms, weights, norm, 0.0) == (best, [0, 1])

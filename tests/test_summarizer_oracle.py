"""Differential tests: scoring, selection and clustering against the reference code.

oracle_summarizer.py re-derives every sentence's terms from its text and every
position by scanning the cluster, as the code did before terms and positions
were stored once. The library must return exactly equal results (==, not
approx), including the key order of centroid entries and document vectors,
which fixes the order of their float sums.
"""

from hypothesis import given, settings, strategies as st

import centroidsumm as cs
import oracle_summarizer as oracle

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


def overlap_outcome(func, s1, s2):
    try:
        return func(s1, s2)
    except ValueError as exc:
        return str(exc)


@given(documents(), idf_models(), weights, rates, thresholds)
@settings(max_examples=300, deadline=None)
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
    assert cs.lead_baseline(cluster, r) == oracle.lead_baseline(cluster, r)

    sentences = cluster.sentences()
    for s1 in sentences:
        for s2 in sentences:
            assert overlap_outcome(cs.word_overlap, s1, s2) == overlap_outcome(
                oracle.word_overlap, s1, s2
            )


@given(documents(max_docs=8), idf_models(), st.sampled_from([0.0, 0.1, 0.3, 0.6, 0.9]), thresholds)
@settings(max_examples=150, deadline=None)
def test_clustering_equals_reference(docs, idf, sim_threshold, centroid_threshold):
    for doc in docs:
        vector = cs.document_vector(doc, idf)
        assert list(vector.items()) == list(oracle.document_vector(doc, idf).items())
    got = cs.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)
    assert got == oracle.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)

"""Seeded input generator for the benchmark.

Everything here depends only on the seed and the fixed size schedules, so
the same seed always writes byte-identical files. Sentence counts (per
cluster and per corpus) never depend on the seed, so runs on different seeds
do about the same amount of work; the seed picks the words, the paraphrases,
the judges' noise and how a cluster's sentences split into documents.

Text follows the planted-corpus style of acceptance criterion 11: each event
has its own topic vocabulary, mixed into sentences drawn from a Zipf-weighted
background vocabulary, with topic words denser near the start of a document.
Some sentences are paraphrases of an earlier sentence in the same cluster, so
the redundancy rerank sees real overlaps and judges mark real subsumption
edges. Judge utilities share a per-sentence base, so judges agree above
chance by construction.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from datetime import datetime, timedelta, timezone
from pathlib import Path

SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
BACKGROUND_WORDS = 3000
TOPIC_WORDS = 40
PARAPHRASE_RATE = 0.12
JUDGES = 5
EPOCH = datetime(1999, 5, 20, 8, 0, 0, tzinfo=timezone.utc)

# Fixed sizes per workload; see README.md for why each was chosen.
BACKGROUND_DOCS = 400
BACKGROUND_SENTENCES = 12
DESK_GRID_SIZES = (300, 450, 700, 1000, 1500)
RERANK_SIZES = (600, 1500)
STREAM_EVENTS = 16
STREAM_EVENT_DOCS = 16
STREAM_SINGLETONS = 44
STREAM_DOC_SENTENCES = 20


class Vocab:
    """Seeded background and per-event topic vocabularies."""

    def __init__(self, rng: random.Random) -> None:
        words: set[str] = set()
        while len(words) < BACKGROUND_WORDS:
            words.add("".join(rng.choices(SYLLABLES, k=rng.randint(1, 4))))
        self.background = sorted(words)
        rng.shuffle(self.background)
        # Zipf weights: a few function-like words dominate, as in news text.
        self.cum_weights = list(itertools.accumulate(1.0 / rank for rank in range(1, BACKGROUND_WORDS + 1)))

    def topic(self, rng: random.Random, event: int) -> list[str]:
        # Topic words carry the event number, so no two events share one and
        # none appears in the background corpus.
        return [f"{rng.choice(SYLLABLES)}{rng.choice(SYLLABLES)}x{event}t{j}" for j in range(TOPIC_WORDS)]

    def filler(self, rng: random.Random, k: int) -> list[str]:
        return rng.choices(self.background, cum_weights=self.cum_weights, k=k)


def _sentence_words(rng: random.Random, vocab: Vocab, topic: list[str], density: float) -> list[str]:
    length = rng.randint(8, 25)
    words = vocab.filler(rng, length)
    for i in range(length):
        if rng.random() < density:
            words[i] = rng.choice(topic)
    return words


def _paraphrase(rng: random.Random, vocab: Vocab, words: list[str]) -> list[str]:
    out = list(words)
    for i in range(len(out)):
        if rng.random() < 0.25:
            out[i] = vocab.filler(rng, 1)[0]
    if len(out) > 3 and rng.random() < 0.5:
        i = rng.randrange(len(out) - 1)
        out[i], out[i + 1] = out[i + 1], out[i]
    return out


def _text(words: list[str]) -> str:
    return " ".join([words[0].capitalize(), *words[1:]]) + "."


def _split(rng: random.Random, n: int, low: int, high: int) -> list[int]:
    """Document lengths in [low, high] summing exactly to n."""
    lengths = []
    left = n
    while left > high:
        take = rng.randint(low, high)
        if left - take < low:
            take = left - low
        lengths.append(take)
        left -= take
    lengths.append(left)
    return lengths


def _timestamp(minutes: int) -> str:
    return (EPOCH + timedelta(minutes=minutes)).isoformat()


class Cluster:
    """One generated event cluster plus what the judges need to annotate it."""

    def __init__(self, cluster_id: str, documents: list[dict], words: list[list[str]],
                 topic: set[str], paraphrase_of: dict[int, int]) -> None:
        self.cluster_id = cluster_id
        self.documents = documents
        self.words = words  # per global position (index 0 is position 1)
        self.topic = topic
        self.paraphrase_of = paraphrase_of  # later position -> earlier position

    @property
    def n(self) -> int:
        return len(self.words)

    def as_json(self) -> dict:
        return {"cluster_id": self.cluster_id, "documents": self.documents}


def make_cluster(rng: random.Random, vocab: Vocab, cluster_id: str, event: int, n: int) -> Cluster:
    topic = vocab.topic(rng, event)
    documents = []
    words: list[list[str]] = []
    paraphrase_of: dict[int, int] = {}
    for d, length in enumerate(_split(rng, n, 10, 30)):
        texts = []
        first_of_doc = len(words)
        for i in range(length):
            if words and first_of_doc > 0 and rng.random() < PARAPHRASE_RATE:
                source = rng.randrange(first_of_doc)  # from an earlier document
                sentence = _paraphrase(rng, vocab, words[source])
                paraphrase_of[len(words) + 1] = source + 1
            else:
                density = 0.35 if i < 3 else 0.08
                sentence = _sentence_words(rng, vocab, topic, density)
            words.append(sentence)
            texts.append(_text(sentence))
        documents.append({
            "doc_id": f"{cluster_id}d{d:03d}",
            "source": f"wire{rng.randrange(8)}",
            "timestamp": _timestamp(60 * d),
            "sentences": texts,
        })
    return Cluster(cluster_id, documents, words, set(topic), paraphrase_of)


def utility_annotations(rng: random.Random, cluster: Cluster) -> list[dict]:
    """Five judges scoring from one shared base, each with its own noise."""
    base = []
    for position, words in enumerate(cluster.words, 1):
        dense = sum(1 for w in words if w in cluster.topic) / len(words)
        repeat = 2 if position in cluster.paraphrase_of else 0
        base.append(12 * dense + rng.uniform(0, 3) - repeat)
    judges = []
    for j in range(JUDGES):
        utilities = [max(0, min(10, round(b + rng.gauss(0, 1.2)))) for b in base]
        judges.append({"judge_id": f"J{j + 1}", "cluster_id": cluster.cluster_id, "utilities": utilities})
    return judges


def subsumption_annotations(rng: random.Random, cluster: Cluster) -> list[dict]:
    """Each judge marks most planted paraphrases as subsumed by their source."""
    judges = []
    for j in range(JUDGES):
        subsumers = {
            str(later): [earlier]
            for later, earlier in sorted(cluster.paraphrase_of.items())
            if rng.random() < 0.8
        }
        judges.append({"judge_id": f"J{j + 1}", "cluster_id": cluster.cluster_id, "subsumers": subsumers})
    return judges


def background_documents(rng: random.Random, vocab: Vocab) -> list[dict]:
    docs = []
    for i in range(BACKGROUND_DOCS):
        texts = [_text(vocab.filler(rng, rng.randint(8, 25))) for _ in range(BACKGROUND_SENTENCES)]
        docs.append({"doc_id": f"bg{i:04d}", "source": "archive", "timestamp": _timestamp(i), "sentences": texts})
    return docs


def stream_documents(rng: random.Random, vocab: Vocab) -> list[dict]:
    """Loose documents from a known number of events plus singletons, interleaved in time."""
    docs = []
    for event in range(STREAM_EVENTS + STREAM_SINGLETONS):
        topic = vocab.topic(rng, 1000 + event)
        count = STREAM_EVENT_DOCS if event < STREAM_EVENTS else 1
        for d in range(count):
            texts = []
            for i in range(STREAM_DOC_SENTENCES):
                density = 0.35 if i < 3 else 0.12
                texts.append(_text(_sentence_words(rng, vocab, topic, density)))
            docs.append({"source": f"wire{rng.randrange(8)}", "sentences": texts})
    rng.shuffle(docs)
    for i, doc in enumerate(docs):
        doc["doc_id"] = f"s{i:04d}"
        doc["timestamp"] = _timestamp(i)
    return docs


def _dump(payload: object, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _counts(documents: list[dict]) -> dict:
    sentences = [s for d in documents for s in d["sentences"]]
    return {"documents": len(documents), "sentences": len(sentences),
            "tokens": sum(len(s.split()) for s in sentences)}


def generate(workload: str, seed: int, root: Path) -> dict:
    """Write the workload's inputs under `root` and return the input manifest.

    The manifest holds the sha256 of each input (path relative to `root`),
    document, sentence and token counts of the background corpus and of the
    workload's own corpus, and the generated clusters with their sizes.
    """
    rng = random.Random(f"{workload}:{seed}")
    vocab = Vocab(rng)
    background = background_documents(rng, vocab)
    for doc in background:
        _dump(doc, root / "background" / f"{doc['doc_id']}.json")
    corpus: list[dict] = []
    clusters = []
    if workload == "stream-cluster":
        corpus = stream_documents(rng, vocab)
        for doc in corpus:
            _dump(doc, root / "docs" / f"{doc['doc_id']}.json")
    elif workload in ("desk-grid", "rerank-large"):
        sizes, prefix = (DESK_GRID_SIZES, "g") if workload == "desk-grid" else (RERANK_SIZES, "r")
        for c, n in enumerate(sizes):
            cluster = make_cluster(rng, vocab, f"{prefix}{c:02d}", c, n)
            _dump(cluster.as_json(), root / "clusters" / f"{cluster.cluster_id}.json")
            corpus.extend(cluster.documents)
            info = {"cluster_id": cluster.cluster_id, "n": cluster.n}
            if workload == "desk-grid":
                for judge in utility_annotations(rng, cluster):
                    _dump(judge, root / "judges" / cluster.cluster_id / f"{judge['judge_id']}.json")
                # CSIS discounting on the two smallest clusters only: at n=1,500 it
                # makes one evaluate take ~9 s, too long to repeat within a run.
                info["subsumption"] = c < 2
                if info["subsumption"]:
                    for judge in subsumption_annotations(rng, cluster):
                        _dump(judge, root / "subsumption" / cluster.cluster_id / f"{judge['judge_id']}.json")
            clusters.append(info)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    files = sorted(p for p in root.rglob("*.json") if p.is_file())
    return {
        "workload": workload,
        "seed": seed,
        "background": _counts(background),
        "corpus": _counts(corpus),
        "clusters": clusters,
        "inputs": {str(p.relative_to(root)): sha256_file(p) for p in files},
    }

"""Shared construction helpers for the test suite."""

from datetime import datetime, timezone

from hypothesis import settings

from centroidsumm import Cluster, Document, Sentence, SubsumptionAnnotation, UtilityAnnotation
from centroidsumm.text import write_json


def make_document(doc_id: str, texts, hour: int = 8, source: str = "wire") -> Document:
    sentences = tuple(
        Sentence(doc_id=doc_id, index_in_doc=i, text=text)
        for i, text in enumerate(texts, 1)
    )
    return Document(
        doc_id=doc_id,
        source=source,
        timestamp=datetime(1999, 5, 20, hour, 0, 0, tzinfo=timezone.utc),
        sentences=sentences,
    )


def make_cluster(cluster_id: str, docs: dict) -> Cluster:
    """docs: doc_id -> sentence text list; dict order becomes chronological order."""
    documents = [
        make_document(doc_id, texts, hour=8 + i) for i, (doc_id, texts) in enumerate(docs.items())
    ]
    return Cluster.build(cluster_id, documents)


# Generic wire-service boilerplate with none of the fixture articles' topic
# vocabulary. An IDF model built from it keeps function words cheap while
# unseen topical terms get the default weight, which is what a realistically
# sized background corpus does. Building IDF from just the two fixture docs
# instead floors every shared term and makes same-event docs look unrelated.
BACKGROUND_TEXTS = [
    [
        "The government said on Thursday that the talks would continue next week.",
        "Officials in the capital declined to comment on the report.",
    ],
    [
        "A spokesman for the ministry told reporters that no decision had been made.",
        "The meeting is expected to take place at the end of the month.",
    ],
    [
        "Police said the man was arrested on Tuesday near the border.",
        "He is expected to appear in court later this week.",
    ],
    [
        "The company reported higher profits for the first quarter of the year.",
        "Shares rose in early trading on the news.",
    ],
    [
        "Heavy rain caused flooding in parts of the city over the weekend.",
        "Emergency services said no one was injured.",
    ],
    [
        "The two sides agreed to meet again after the holiday.",
        "A final statement is due to be released on Friday.",
    ],
]


def background_documents() -> list:
    return [make_document(f"bg{i}", texts, hour=6) for i, texts in enumerate(BACKGROUND_TEXTS)]


def save_utility_annotation(annotation: UtilityAnnotation, path) -> None:
    payload = {
        "judge_id": annotation.judge_id,
        "cluster_id": annotation.cluster_id,
        "utilities": list(annotation.utilities),
    }
    write_json(payload, path)


def save_subsumption_annotation(annotation: SubsumptionAnnotation, path) -> None:
    subsumers = {str(pos): sorted(targets) for pos, targets in annotation.subsumers.items() if targets}
    write_json({"judge_id": annotation.judge_id, "cluster_id": annotation.cluster_id, "subsumers": subsumers}, path)


def examples(floor: int) -> int:
    """Hypothesis examples for a test: `floor`, or more if the loaded profile asks for more."""
    return max(floor, settings.default.max_examples)

"""Pinned error texts of the loaders that check whole arrays at once.

Each loader checks its arrays in one pass and formats a message only when a
check fails; the message must still name the first bad element. Every case
puts the bad value last, after valid ones, and pins the whole text.
"""

import pytest

from centroidsumm import (
    ClusterParseError,
    IdfModel,
    UtilityAnnotation,
    document_from_dict,
    load_idf,
    load_subsumption_annotation,
    load_utility_annotation,
)
from centroidsumm.text import write_json

LONG = "t" * 100  # reprlib shortens it to 'tttttttttttt...ttttttttttttt'
SHORT_LONG = "'tttttttttttt...ttttttttttttt'"


@pytest.mark.parametrize(
    "df, expected",
    [
        ({"a": 1, "b": 3, "zeta": 2.5}, "df['zeta']: must be an integer, got 2.5"),
        ({"a": 1, "b": 3, "zeta": True}, "df['zeta']: must be an integer, got True"),
        ({"a": 1, "b": 3, LONG: "2"}, f"df[{SHORT_LONG}]: must be an integer, got '2'"),
        ({"a": 1, "b": 3, "zeta": 4}, "df['zeta'] = 4 outside 1..3"),
        ({"a": 1, "b": 3, LONG: 0}, f"df[{SHORT_LONG}] = 0 outside 1..3"),
    ],
)
def test_load_idf(tmp_path, df, expected):
    path = tmp_path / "idf.json"
    write_json({"n_docs": 3, "df": df}, path)
    with pytest.raises(ValueError) as err:
        load_idf(path)
    assert str(err.value) == f"{path}: {expected}"


def test_idf_model():
    with pytest.raises(ValueError) as err:
        IdfModel(n_docs=3, df={"a": 1, "b": 3, "zeta": 0})
    assert str(err.value) == "df['zeta'] = 0 outside 1..3"


@pytest.mark.parametrize(
    "utilities, expected",
    [
        ([5, 3, 10, 2.0], "utilities[3]: must be an integer, got 2.0"),
        ([5, 3, 10, "7"], "utilities[3]: must be an integer, got '7'"),
        ([5, 3, 10, None], "utilities[3]: must be an integer, got None"),
        ([5, 3, 10, 11], "judge 'B': utility 11 at position 4 outside 0..10"),
        ([5, 3, 10, -1], "judge 'B': utility -1 at position 4 outside 0..10"),
    ],
)
def test_load_utility_annotation(tmp_path, utilities, expected):
    path = tmp_path / "judge.json"
    write_json({"judge_id": "B", "cluster_id": "quad", "utilities": utilities}, path)
    with pytest.raises(ValueError) as err:
        load_utility_annotation(path)
    assert str(err.value) == f"{path}: {expected}"


def test_utility_annotation():
    with pytest.raises(ValueError) as err:
        UtilityAnnotation(LONG, "quad", (5, 3, 10, 12))
    assert str(err.value) == f"judge {SHORT_LONG}: utility 12 at position 4 outside 0..10"


@pytest.mark.parametrize(
    "subsumers, expected",
    [
        ({"1": [2], "3": [1, "2"]}, "subsumers['3']: must be an integer, got '2'"),
        ({"1": [2], "3": [1, 2.0]}, "subsumers['3']: must be an integer, got 2.0"),
        ({"1": [2], "3": [1, 0]}, "subsumers['3']: positions and subsumers must be integers >= 1"),
        ({"1": [2], "0": [1]}, "subsumers['0']: positions and subsumers must be integers >= 1"),
        ({"1": [2], "x": [1]}, "subsumers['x']: positions and subsumers must be integers >= 1"),
        ({"1": [2], "3": 1}, "subsumers['3']: must be an array, got 1"),
        ({"1": [2], LONG: [1, "2"]}, f"subsumers[{SHORT_LONG}]: must be an integer, got '2'"),
    ],
)
def test_load_subsumption_annotation(tmp_path, subsumers, expected):
    path = tmp_path / "marks.json"
    write_json({"judge_id": "S", "cluster_id": "quad", "subsumers": subsumers}, path)
    with pytest.raises(ValueError) as err:
        load_subsumption_annotation(path)
    assert str(err.value) == f"{path}: {expected}"


GOOD_DOCUMENT = {"doc_id": "d", "source": "s", "timestamp": "1999-05-20T08:30Z", "sentences": ["a", "b"]}
DROP = object()  # a change that removes the field


@pytest.mark.parametrize(
    "change, expected",
    [
        ({"sentences": ["a", "b", 3]}, "doc.sentences[2]: must be a string"),
        ({"sentences": ["a", "b", None]}, "doc.sentences[2]: must be a string"),
        ({"sentences": []}, "doc: document has no sentences"),
        ({"sentences": "a"}, "doc.sentences: must be an array"),
        ({"sentences": DROP}, "doc: missing field 'sentences'"),
        ({"doc_id": ""}, "doc.doc_id: must be a non-empty string"),
        ({"source": 1}, "doc.source: must be a string"),
        ({"timestamp": 19990520}, "doc.timestamp: timestamp must be an ISO-8601 string"),
        ({"timestamp": "1999-05-20T24:00"}, "doc.timestamp: invalid ISO-8601 timestamp '1999-05-20T24:00'"),
        ({"timestamp": "1999-02-30"}, "doc.timestamp: invalid ISO-8601 timestamp '1999-02-30'"),
        (
            {"timestamp": "1999-05-20 " + LONG},
            "doc.timestamp: invalid ISO-8601 timestamp '1999-05-20 t...ttttttttttttt'",
        ),
    ],
)
def test_document_from_dict(change, expected):
    data = {key: value for key, value in {**GOOD_DOCUMENT, **change}.items() if value is not DROP}
    with pytest.raises(ClusterParseError) as err:
        document_from_dict(data, "doc")
    assert str(err.value) == expected

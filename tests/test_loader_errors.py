"""Pinned error texts of the JSON loaders.

Every loader reads its fields through one reader, so a file that is not an
object, a missing field and a field of the wrong kind each have one message
form, pinned here in whole for every loader. The loaders check whole arrays in
one pass and format a message only when a check fails; the message must still
name the first bad element. Every array case puts the bad value last, after
valid ones.
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
    parse_cluster,
)
from centroidsumm.cli import main
from centroidsumm.text import write_json
from conftest import JUDGE_UTILITIES
from helpers import save_utility_annotation

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
        ({"sentences": ["a", "b", 3]}, "doc.sentences[2]: must be a string, got 3"),
        ({"sentences": ["a", "b", None]}, "doc.sentences[2]: must be a string, got None"),
        ({"sentences": []}, "doc: document has no sentences"),
        ({"sentences": "a"}, "doc.sentences: must be an array, got 'a'"),
        ({"sentences": DROP}, "doc: missing field 'sentences'"),
        ({"doc_id": ""}, "doc.doc_id: must be a non-empty string"),
        ({"source": 1}, "doc.source: must be a string, got 1"),
        ({"timestamp": 19990520}, "doc.timestamp: must be a string, got 19990520"),
        ({"timestamp": "1999-05-20T24:00"}, "doc.timestamp: invalid ISO-8601 timestamp '1999-05-20T24:00'"),
        ({"timestamp": "1999-02-30"}, "doc.timestamp: invalid ISO-8601 timestamp '1999-02-30'"),
        (
            {"timestamp": "1999-05-20 " + LONG},
            "doc.timestamp: invalid ISO-8601 timestamp '1999-05-20 t...ttttttttttttt'",
        ),
        ({"doc_id": 5}, "doc.doc_id: must be a string, got 5"),
    ],
)
def test_document_from_dict(change, expected):
    data = {key: value for key, value in {**GOOD_DOCUMENT, **change}.items() if value is not DROP}
    with pytest.raises(ClusterParseError) as err:
        document_from_dict(data, "doc")
    assert str(err.value) == expected


# --- the one field reader: not an object, a missing field, a field of the wrong kind ---

GOOD_FILES = {  # a valid file of each loader, its loader and the loader's exception class
    "idf": ({"n_docs": 3, "df": {"a": 1}}, load_idf, ValueError),
    "utility": ({"judge_id": "J", "cluster_id": "quad", "utilities": [5, 3]}, load_utility_annotation, ValueError),
    "subsumption": (
        {"judge_id": "J", "cluster_id": "quad", "subsumers": {"1": [2]}}, load_subsumption_annotation, ValueError,
    ),
    "cluster": ({"cluster_id": "c", "documents": [GOOD_DOCUMENT]}, parse_cluster, ClusterParseError),
}


def load_fault(tmp_path, kind: str, data: object) -> str:
    """The message of the error that loading `data` as a file of `kind` raises, of the loader's exception class."""
    _, load, error = GOOD_FILES[kind]
    path = tmp_path / f"{kind}.json"
    write_json(data, path)
    with pytest.raises(error) as err:
        load(path)
    assert type(err.value) is error
    return str(err.value).replace(str(path), "<path>")


@pytest.mark.parametrize("kind", sorted(GOOD_FILES))
@pytest.mark.parametrize(
    "data, shown", [([1, 2], "[1, 2]"), ("x", "'x'"), (5, "5"), (None, "None"), (["t" * 100], f"[{SHORT_LONG}]")],
    ids=["array", "string", "integer", "null", "long"],
)
def test_not_an_object(tmp_path, kind, data, shown):
    assert load_fault(tmp_path, kind, data) == f"<path>: expected an object, got {shown}"


@pytest.mark.parametrize("kind", sorted(GOOD_FILES))
def test_first_missing_field_is_named(tmp_path, kind):
    good = GOOD_FILES[kind][0]
    for field in good:
        data = {key: value for key, value in good.items() if key != field}
        assert load_fault(tmp_path, kind, data) == f"<path>: missing field {field!r}"
    assert load_fault(tmp_path, kind, {}) == f"<path>: missing field {next(iter(good))!r}"


@pytest.mark.parametrize("kind", sorted(GOOD_FILES))
def test_presence_is_checked_before_kind(tmp_path, kind):
    """A file with its first field of the wrong kind and its last field missing names the missing field."""
    good = GOOD_FILES[kind][0]
    *fields, last = good
    data = {fields[0]: 2.5, **{field: good[field] for field in fields[1:]}}
    assert load_fault(tmp_path, kind, data) == f"<path>: missing field {last!r}"


@pytest.mark.parametrize(
    "kind, field, value, expected",
    [
        ("idf", "n_docs", "3", "<path>: n_docs: must be an integer, got '3'"),
        ("idf", "n_docs", True, "<path>: n_docs: must be an integer, got True"),
        ("idf", "n_docs", 3.0, "<path>: n_docs: must be an integer, got 3.0"),
        ("idf", "df", [1], "<path>: df: must be an object, got [1]"),
        ("utility", "judge_id", 5, "<path>: judge_id: must be a string, got 5"),
        ("utility", "cluster_id", None, "<path>: cluster_id: must be a string, got None"),
        ("utility", "utilities", {"1": 5}, "<path>: utilities: must be an array, got {'1': 5}"),
        ("utility", "utilities", "5310", "<path>: utilities: must be an array, got '5310'"),
        ("subsumption", "judge_id", ["J"], "<path>: judge_id: must be a string, got ['J']"),
        ("subsumption", "cluster_id", 7, "<path>: cluster_id: must be a string, got 7"),
        ("subsumption", "subsumers", [1], "<path>: subsumers: must be an object, got [1]"),
        ("subsumption", "subsumers", "1", "<path>: subsumers: must be an object, got '1'"),
        ("cluster", "cluster_id", 5, "<path>.cluster_id: must be a string, got 5"),
        ("cluster", "documents", {}, "<path>.documents: must be an array, got {}"),
    ],
    ids=[
        "idf-n_docs-string", "idf-n_docs-bool", "idf-n_docs-float", "idf-df", "utility-judge_id",
        "utility-cluster_id", "utility-utilities-object", "utility-utilities-string", "subsumption-judge_id",
        "subsumption-cluster_id", "subsumption-subsumers-array", "subsumption-subsumers-string",
        "cluster-cluster_id", "cluster-documents",
    ],
)
def test_field_of_the_wrong_kind(tmp_path, kind, field, value, expected):
    assert load_fault(tmp_path, kind, {**GOOD_FILES[kind][0], field: value}) == expected


@pytest.mark.parametrize(
    "data, expected",
    [
        ("x", "<path>: expected an object, got 'x'"),
        ([1, 2], "<path>: expected an object, got [1, 2]"),
        ({"cluster_id": "quad"}, "<path>: missing field 'selected'"),
        ({"selected": [1, 2]}, "<path>: missing field 'cluster_id'"),
        ({"cluster_id": 5, "selected": [1, 2]}, "<path>: cluster_id: must be a string, got 5"),
        ({"cluster_id": "quad", "selected": "12"}, "<path>: selected: must be an array, got '12'"),
        ({"cluster_id": "quad", "selected": [1, True]}, "<path>: selected[1]: must be an integer, got True"),
    ],
    ids=["string", "array", "no-selected", "no-cluster_id", "cluster_id", "selected", "selected-element"],
)
def test_extract_file(tmp_path, capsys, data, expected):
    judges = []
    for judge_id, utilities in JUDGE_UTILITIES.items():
        judges.append(str(tmp_path / f"{judge_id}.json"))
        save_utility_annotation(UtilityAnnotation(judge_id, "quad", utilities), judges[-1])
    path = tmp_path / "x.json"
    write_json(data, path)
    assert main(["evaluate", "--annotations", *judges, "--extract", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {expected.replace('<path>', str(path))}\n"


def test_cli_names_the_subsumers_field(tmp_path, capsys):
    good, bad = tmp_path / "g.json", tmp_path / "s.json"
    write_json({"judge_id": "G", "cluster_id": "quad", "subsumers": {}}, good)
    write_json({"judge_id": "S", "cluster_id": "quad", "subsumers": [1]}, bad)
    args = ["agreement", "--mode", "csis", "--annotations", str(good), str(bad), "--out", str(tmp_path / "out")]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {bad}: subsumers: must be an object, got [1]\n"

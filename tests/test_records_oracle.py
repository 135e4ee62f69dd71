"""Differential test: the library's 16 record classes against their frozen-dataclass declarations.

oracle_records.py keeps each record as it was declared with
`@dataclass(frozen=True)`. Each example draws a record's constructor
arguments as a spec, in which a nested record is a `Make` node, then builds
the spec once with the library's classes and once with the oracle's. The two
must raise the same error (type and message) or give the same repr, the same
attributes and derived fields, the same results from every property and
method, the same hash (or the same TypeError), the same answers to == and !=
against a second drawn record and against an equal-valued instance of a
subclass, and the same AttributeError on assigning or deleting any attribute.
"""

import inspect
import math
from datetime import timezone
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

import oracle_records as oracle
from centroidsumm import cli, evaluation, lexstats, summarizer, text
from helpers import examples

NAMES = (
    "Sentence", "Document", "Cluster", "IdfModel", "CentroidEntry", "Centroid", "ScoreWeights", "SentenceScore",
    "Extract", "UtilityAnnotation", "SubsumptionAnnotation", "SubsumptionGraph", "SentenceTally", "CsisTally",
    "EvalReport", "RunConfig",
)
MODULES = (text, lexstats, summarizer, evaluation, cli)
LIBRARY = {name: next(getattr(m, name) for m in MODULES if hasattr(m, name)) for name in NAMES}
ORACLE = {name: getattr(oracle, name) for name in NAMES}


class Make(NamedTuple):
    """A record to build: the class name and its constructor arguments, nested records as Make nodes."""

    name: str
    args: tuple
    kwargs: dict


def build(classes: dict, value):
    if isinstance(value, Make):
        return classes[value.name](*build(classes, value.args), **build(classes, value.kwargs))
    if isinstance(value, tuple):
        return tuple(build(classes, item) for item in value)
    if isinstance(value, dict):
        return {key: build(classes, item) for key, item in value.items()}
    return value


def outcome(call, *args):
    """("value", result), or the type and message of what the call raised."""
    try:
        return "value", call(*args)
    except Exception as exc:  # the comparison is the point: any error must match
        return type(exc), str(exc)


@st.composite
def make(draw, name: str, *params):
    """A Make for `name`; params are (parameter, strategy, has a default) in signature order.

    A parameter with a default is sometimes left out; of the leading run of
    given parameters, a drawn number is passed by position, the rest by keyword.
    """
    given_ = [(param, draw(strategy, label=param)) for param, strategy, optional in params
              if not (optional and draw(st.booleans(), label=f"omit {param}"))]
    leading = next((i for i, (param, _) in enumerate(given_) if param != params[i][0]), len(given_))
    cut = draw(st.integers(0, leading), label="positional")
    return Make(name, tuple(value for _, value in given_[:cut]), dict(given_[cut:]))


def required(name: str, *params):
    return make(name, *((param, strategy, False) for param, strategy in params))


ids = st.text("ab1İ", max_size=3)
numbers = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, -1.0, math.inf, -math.inf]), st.floats(allow_nan=False)
)
small_ints = st.integers(-2, 12)
rates = st.sampled_from([0.0, 0.05, 0.1, 0.104, 0.2, 0.5, 1.0, 1.5, math.inf])

sentences = required(
    "Sentence", ("doc_id", ids), ("index_in_doc", small_ints),
    ("text", st.one_of(st.text("Ab c.İß1́", max_size=12), st.none())),
)
valid_sentences = required("Sentence", ("doc_id", ids), ("index_in_doc", small_ints), ("text", st.text("Ab c.1")))
documents = required(
    "Document", ("doc_id", ids), ("source", ids),
    ("timestamp", st.datetimes(timezones=st.just(timezone.utc))),
    ("sentences", st.lists(valid_sentences, max_size=3).map(tuple)),
)
scores = make(
    "SentenceScore", ("position", small_ints, False), ("c", numbers, False), ("p", numbers, False),
    ("f", numbers, False), ("base", numbers, False), ("penalty", numbers, True),
)
tallies = required(
    "SentenceTally", ("position", small_ints), ("plus_score", st.none() | small_ints),
    ("minus_score", st.none() | small_ints),
)
float_maps = st.dictionaries(ids, numbers, max_size=3)
float_rows = st.lists(numbers, max_size=3).map(tuple)

RECORDS = {
    "Sentence": sentences,
    "Document": documents,
    "Cluster": required("Cluster", ("cluster_id", ids), ("documents", st.lists(documents, max_size=3).map(tuple))),
    "IdfModel": required(
        "IdfModel", ("n_docs", st.integers(-1, 5)), ("df", st.dictionaries(ids, st.integers(-1, 6)))
    ),
    "CentroidEntry": required("CentroidEntry", ("count", numbers), ("idf", numbers), ("weight", numbers)),
    "Centroid": required(
        "Centroid", ("cluster_id", ids),
        ("entries", st.dictionaries(ids, required("CentroidEntry", ("count", numbers), ("idf", numbers),
                                                  ("weight", numbers)), max_size=3)),
    ),
    "ScoreWeights": required("ScoreWeights", ("w_c", numbers), ("w_p", numbers), ("w_f", numbers)),
    "SentenceScore": scores,
    "Extract": required(
        "Extract", ("cluster_id", ids), ("r", numbers), ("k", small_ints),
        ("selected", st.lists(small_ints, max_size=3).map(tuple)),
        ("scores", st.lists(scores, max_size=3).map(tuple)),
    ),
    "UtilityAnnotation": required(
        "UtilityAnnotation", ("judge_id", ids), ("cluster_id", ids),
        ("utilities", st.lists(st.integers(-1, 11), max_size=6).map(tuple)),
    ),
    "SubsumptionAnnotation": required(
        "SubsumptionAnnotation", ("judge_id", ids), ("cluster_id", ids),
        ("subsumers", st.dictionaries(st.integers(1, 4), st.frozensets(st.integers(1, 4)), max_size=3)),
    ),
    "SubsumptionGraph": required(
        "SubsumptionGraph", ("cluster_id", ids),
        ("edges", st.frozensets(st.tuples(st.integers(1, 4), st.integers(1, 4)), max_size=5)),
        ("agreement_threshold", small_ints),
    ),
    "SentenceTally": tallies,
    "CsisTally": required(
        "CsisTally", ("rows", st.lists(tallies, max_size=3).map(tuple)),
        ("histogram", st.dictionaries(st.tuples(small_ints, st.sampled_from("+-")), small_ints, max_size=3)),
    ),
    "EvalReport": make(
        "EvalReport", ("cluster_id", ids, False), ("r", numbers, False), ("k", small_ints, False),
        ("judge_ids", st.lists(ids, max_size=3).map(tuple), False),
        ("J_matrix", st.lists(float_rows, max_size=2).map(tuple), False), ("J_per_judge", float_rows, False),
        ("mean_J", numbers, False), ("R", numbers, False), ("S", float_maps, False), ("D", float_maps, False),
        ("S_csis", float_maps, True), ("D_csis", float_maps, True), ("E", st.none() | numbers, True),
    ),
    "RunConfig": make(
        "RunConfig", ("w_c", numbers, True), ("w_p", numbers, True), ("w_f", numbers, True), ("r", rates, True),
        ("r_grid", st.none() | st.lists(rates, min_size=1, max_size=3).map(tuple), True),
        ("E", st.sampled_from([0.0, 0.5, 1.0, 1.5, -0.1]), True), ("centroid_threshold", numbers, True),
        ("sim_threshold", numbers, True), ("agreement_threshold", st.integers(0, 4), True),
        ("redundancy", st.booleans(), True),
    ),
}

PROBES = range(-1, 6)  # positions and counts around the drawn ones


def reads(record) -> tuple:
    """Every property and method result of a record, errors included as outcomes."""
    name = type(record).__name__
    if name == "Sentence":
        return record.counts, record.norms()
    if name == "Cluster":
        return (
            record.d, record.n, record.sentences(), [outcome(record.sentence_at, p) for p in PROBES],
            [(record.document(doc.doc_id), record.offset(doc.doc_id)) for doc in record.documents],
        )
    if name == "IdfModel":
        return [record.idf(term) for term in (*record.df, "unseen")]
    if name == "Centroid":
        return [record.weight(term) for term in (*record.entries, "unseen")]
    if name == "SentenceScore":
        return record.final
    if name == "UtilityAnnotation":
        return record.n, [outcome(record.utility, p) for p in PROBES]
    if name == "SubsumptionAnnotation":
        return [record.subsumers_of(p) for p in PROBES]
    if name == "SubsumptionGraph":
        return [b in record.neighbours.get(a, ()) for a in PROBES for b in PROBES]
    if name == "RunConfig":
        return record.weights, record.rates
    return ()


def modify(record, name: str, delete: bool):
    """Whether assigning (or deleting) the attribute raised AttributeError, and its message."""
    try:
        if delete:
            delattr(record, name)
        else:
            setattr(record, name, 0)
    except AttributeError as exc:
        return True, str(exc)
    return False, ""


@pytest.mark.parametrize("name", NAMES)
@given(data=st.data())
@settings(max_examples=examples(100), deadline=None)
def test_record_behaves_as_its_dataclass(name, data):
    spec = data.draw(RECORDS[name], label="record")
    other = data.draw(st.one_of(st.just(spec), RECORDS[name]), label="other")
    got, expected = outcome(build, LIBRARY, spec), outcome(build, ORACLE, spec)
    if expected[0] != "value" or got[0] != "value":
        assert got == expected
        return
    record, reference = got[1], expected[1]
    assert type(record) is LIBRARY[name]
    assert repr(record) == repr(reference)
    assert repr(vars(record)) == repr(vars(reference))
    assert repr(reads(record)) == repr(reads(reference))
    assert repr(vars(record)) == repr(vars(reference))  # with what the reads cached
    assert outcome(hash, record) == outcome(hash, reference)

    got_other, expected_other = outcome(build, LIBRARY, other), outcome(build, ORACLE, other)
    assert got_other[0] == expected_other[0]
    if got_other[0] == "value":
        mine, theirs = got_other[1], expected_other[1]
        assert (record == mine, record != mine) == (reference == theirs, reference != theirs)
    assert (record == build(LIBRARY, spec)) == (reference == build(ORACLE, spec))
    # an equal-valued instance of a subclass is not equal: equality needs the same class
    twins = [build({**classes, name: type("Twin", (classes[name],), {})}, spec) for classes in (LIBRARY, ORACLE)]
    assert (record == twins[0], record != twins[0]) == (reference == twins[1], reference != twins[1])
    assert (record.__eq__(0), record == 0, record != 0) == (reference.__eq__(0), reference == 0, reference != 0)

    before = repr(vars(record))
    for attr in (*vars(reference), "counts", "unknown"):
        for delete in (False, True):
            assert modify(record, attr, delete) == modify(reference, attr, delete)
    assert repr(vars(record)) == before


@pytest.mark.parametrize("name", NAMES)
def test_record_signature_matches_its_dataclass(name):
    library, reference = LIBRARY[name], ORACLE[name]

    def shape(cls):
        return [(p.name, p.kind, p.default is p.empty) for p in inspect.signature(cls).parameters.values()]

    assert shape(library) == shape(reference)
    too_many = range(len(inspect.signature(reference).parameters) + 1)
    for call in (lambda cls: cls(), lambda cls: cls(*too_many), lambda cls: cls(unknown=1)):
        assert repr(outcome(call, library)) == repr(outcome(call, reference))


def test_eval_report_defaults_give_each_report_its_own_dicts():
    args = ("c", 0.2, 1, ("J1",), ((1.0,),), (1.0,), 1.0, 0.5, {}, {})
    first, second = LIBRARY["EvalReport"](*args), LIBRARY["EvalReport"](*args)
    assert first.S_csis == first.D_csis == {} and first.E is None
    assert first.S_csis is not second.S_csis and first.D_csis is not second.D_csis
    assert first.S_csis is not first.D_csis

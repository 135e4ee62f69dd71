"""Fuzz tests of the command line: malformed input files and flag values.

Each example runs one subcommand through main() in-process, with one of its
input files corrupted (truncated, deeply nested, not UTF-8, with one value of
the wrong JSON type, or with one object naming a key twice), with its flags
drawn at random, or with a cluster id drawn from pieces that break a file
name. Whatever the input, the command exits 0, 2 or 3; a key named twice
always exits 2. A failure prints exactly one stderr line, which
starts with "error:" and, for a corrupted file, names that file; it prints no
traceback and leaves no --out directory behind.
"""

import contextlib
import io
import json
import reprlib
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from centroidsumm import (
    SubsumptionAnnotation,
    UtilityAnnotation,
    build_idf,
    document_to_dict,
    parse_cluster,
    save_idf,
)
from centroidsumm.cli import main
from centroidsumm.text import write_json
from helpers import background_documents, examples, save_subsumption_annotation, save_utility_annotation

FIXTURE = Path(__file__).parent / "fixtures" / "cluster_alg.json"

# The inputs every command reads, relative to an example's directory.
JUDGES = ["j_a.json", "j_b.json", "j_c.json"]
MARKS = ["s_a.json", "s_b.json"]
CORPUS = ["corpus/18853.json", "corpus/18854.json"]
COMMANDS = {
    "idf": (["idf", "corpus"], CORPUS),
    "cluster": (["cluster", "corpus", "--idf", "idf.json"], ["idf.json", *CORPUS]),
    "summarize": (["summarize", "cluster.json", "--idf", "idf.json"], ["cluster.json", "idf.json"]),
    "evaluate": (
        ["evaluate", "--annotations", *JUDGES, "--extract", "extract.json", "--lead", "cluster.json",
         "--system", "cluster.json", "--idf", "idf.json", "--subsumption", *MARKS, "--agreement-threshold", "1"],
        [*JUDGES, "extract.json", "cluster.json", "idf.json", *MARKS],
    ),
    "cbsu": (["agreement", "--mode", "cbsu", "--annotations", *JUDGES], JUDGES),
    "csis": (["agreement", "--mode", "csis", "--annotations", *MARKS], MARKS),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """Valid inputs for every command: the 20-sentence fixture cluster, its judges and an IDF model."""
    root = tmp_path_factory.mktemp("inputs")
    cluster = parse_cluster(FIXTURE)
    shutil.copy(FIXTURE, root / "cluster.json")
    (root / "corpus").mkdir()
    for doc in cluster.documents:
        write_json(document_to_dict(doc), root / "corpus" / f"{doc.doc_id}.json")
    save_idf(build_idf([*cluster.documents, *background_documents()]), root / "idf.json")
    vectors = [tuple(10 - i // 2 for i in range(20)), tuple(max(10 - i, 1) for i in range(20)),
               tuple(10 - i // 3 for i in range(20))]
    for name, utilities in zip(JUDGES, vectors):
        save_utility_annotation(UtilityAnnotation(name[:3], "alg", utilities), root / name)
    for name, marks in zip(MARKS, [{2: {1}, 14: {3, 12}}, {2: {1}, 20: {19}}]):
        marks = {pos: frozenset(targets) for pos, targets in marks.items()}
        save_subsumption_annotation(SubsumptionAnnotation(name[:3], "alg", marks), root / name)
    write_json({"cluster_id": "alg", "selected": [1, 2, 12, 13]}, root / "extract.json")
    return root


def run(workdir: Path, argv: list[str]) -> tuple[int, str]:
    """main() on argv, its input paths taken relative to workdir, writing to workdir/out; exit code and stderr."""
    argv = [str(workdir / arg) if arg.endswith(".json") or arg == "corpus" else arg for arg in argv]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([*argv, "--out", str(workdir / "out")])
    return code, err.getvalue()


def check_outcome(code: int, err: str, workdir: Path, culprit: str | None) -> None:
    assert code in (0, 2, 3), err
    if code == 0:
        return
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    if culprit is not None:
        assert str(workdir / culprit) in lines[0], err
    assert not (workdir / "out").exists()


# Any JSON value; deep nesting is drawn separately, as text.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
DEPTHS = st.sampled_from([1, 2, 50, 900, 990, 999, 1000, 1001, 5000, 200_000])


def value_paths(value, path=()):
    """The path of every value inside a decoded JSON document, the document itself first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from value_paths(inner, (*path, key))


def replaced(document, path, new):
    if not path:
        return new
    copy = dict(document) if isinstance(document, dict) else list(document)
    copy[path[0]] = replaced(document[path[0]], path[1:], new)
    return copy


@st.composite
def corrupted(draw, raw: bytes) -> bytes:
    """One corruption of a valid JSON file's bytes."""
    kind = draw(st.sampled_from(["truncated", "nested", "not utf-8", "wrong type"]))
    if kind == "truncated":
        return raw[: draw(st.integers(0, len(raw) - 2))]  # the last byte is the newline
    if kind == "nested":
        depth = draw(DEPTHS)
        return b"[" * depth + b"]" * draw(st.sampled_from([0, depth]))
    if kind == "not utf-8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:]
    document = json.loads(raw)
    path = draw(st.sampled_from(list(value_paths(document))))
    old = document
    for key in path:
        old = old[key]
    if draw(st.booleans()):
        depth = draw(DEPTHS)
        text = json.dumps(replaced(document, path, "\0deep"))
        return text.replace('"\\u0000deep"', "[" * depth + "]" * depth).encode()
    new = draw(json_values.filter(lambda value: type(value) is not type(old)))
    return json.dumps(replaced(document, path, new)).encode()


@given(data=st.data())
@settings(max_examples=examples(120), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_corrupted_input_file(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv, files = COMMANDS[command]
    culprit = data.draw(st.sampled_from(files))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        (workdir / culprit).write_bytes(data.draw(corrupted((inputs / culprit).read_bytes())))
        code, err = run(workdir, argv)
        check_outcome(code, err, workdir, culprit)


@st.composite
def duplicated_key(draw, raw: bytes) -> tuple[bytes, str]:
    """A valid JSON file's bytes with one key of one of its objects given again, after the first, and that key."""
    document = json.loads(raw)
    objects = []
    for path in value_paths(document):
        value = document
        for key in path:
            value = value[key]
        if isinstance(value, dict) and value:
            objects.append((path, value))
    path, obj = draw(st.sampled_from(objects))
    key = draw(st.sampled_from(sorted(obj)))
    marker = "\0again"
    text = json.dumps(replaced(document, path, {**obj, marker: None}))
    again = f"{json.dumps(key)}: {json.dumps(draw(json_values))}"
    return text.replace(f"{json.dumps(marker)}: null", again).encode(), key


@given(data=st.data())
@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_duplicate_key_in_input_file(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv, files = COMMANDS[command]
    culprit = data.draw(st.sampled_from(files))
    raw, key = data.draw(duplicated_key((inputs / culprit).read_bytes()))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        (workdir / culprit).write_bytes(raw)
        code, err = run(workdir, argv)
        assert (code, err) == (2, f"error: {workdir / culprit}: duplicate key {reprlib.repr(key)}\n")
        assert not (workdir / "out").exists()


numbers = st.floats().map(repr) | st.integers(-3, 200).map(str) | st.sampled_from(["1e308", "-0", "1e-320"])


@st.composite
def flags(draw, command: str) -> list[str]:
    """Flag values argparse accepts but the command may reject."""
    rates = st.floats(-0.5, 1.5) | st.sampled_from([0.0, 1e-300, 1.0, float("nan"), float("inf")])
    grid = st.tuples(rates, rates, st.floats(1e-9, 2) | st.sampled_from([1e-300, 5e-324, float("nan")]))
    choices = {
        "--r": st.builds(repr, rates),
        "--r-grid": grid.map(lambda parts: ":".join(map(repr, parts))) | st.text(max_size=12),
        "--weights": st.lists(numbers, min_size=1, max_size=4).map(",".join) | st.text(max_size=12),
        "--redundancy": st.sampled_from(["on", "off"]),
        "--centroid-threshold": numbers,
        "--sim-threshold": numbers,
        "--E": numbers,
        "--agreement-threshold": st.integers(-2, 6).map(str),
    }
    allowed = {
        "cluster": ["--sim-threshold", "--centroid-threshold"],
        "summarize": ["--r", "--r-grid", "--weights", "--redundancy", "--centroid-threshold"],
        "evaluate": ["--r", "--r-grid", "--weights", "--redundancy", "--E"],
        "cbsu": ["--r-grid"],
        "csis": [],
    }[command]
    chosen = draw(st.lists(st.sampled_from(allowed), unique=True, max_size=3)) if allowed else []
    argv = []
    for flag in chosen:
        value = draw(choices[flag])
        argv += [flag, value] if not value.startswith("-") else [f"{flag}={value}"]
    return argv


@given(data=st.data())
@settings(max_examples=examples(80), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flag_values(inputs, data):
    command = data.draw(st.sampled_from(sorted(set(COMMANDS) - {"idf"})))
    argv, _ = COMMANDS[command]
    extra = data.draw(flags(command))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        code, err = run(workdir, [*argv, *extra])
        check_outcome(code, err, workdir, None)


# Pieces that break a file name (a separator, NUL, controls, a lone surrogate, dot names, long runs)
# and pieces that do not.
hostile_ids = st.lists(
    st.sampled_from(["/", "\0", "\n", "\x1f", "\x7f", "\x85", "\ud800", ".", "..", "a", "é", "𝄞", "x" * 60, "é" * 40]),
    min_size=1, max_size=6,
).map("".join)


@given(cluster_id=hostile_ids, command=st.sampled_from(["summarize", "evaluate"]))
@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_hostile_cluster_id(inputs, cluster_id, command):
    """A cluster id becomes part of output file names: either every file lands inside --out, or the run fails."""
    argv, _ = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        write_json({**json.loads((inputs / "cluster.json").read_text()), "cluster_id": cluster_id},
                   workdir / "cluster.json")
        code, err = run(workdir, argv)
        check_outcome(code, err, workdir, "cluster.json")
        if code == 0:
            out = workdir / "out"
            assert all(path.parent == out for path in out.rglob("*"))
            assert command == "summarize" and len(list(out.iterdir())) == 2

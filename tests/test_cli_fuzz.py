"""Fuzz tests of the command line: malformed input files and flag values.

Each example runs one subcommand through main() in-process, with one of its
input files corrupted (truncated, deeply nested, not UTF-8, with one value of
the wrong JSON type, or with one object naming a key twice), with its flags
drawn at random (settings, and the input, settings-file and output paths),
with a settings file naming a key twice, or with a cluster id drawn from
pieces that break a file name. Whatever the input, the command exits 0, 2 or
3; a key named twice, in a JSON object or a settings file, always exits 2, and
so does a usage error, with its own message, whatever the input files hold. A
failure prints exactly one stderr line, which starts with "error:" and, for a
corrupted file, names that file; it prints no traceback and leaves nothing
beside the inputs in the example's directory, which is the working directory.
A whole file or a top-level field replaced by a value of another JSON type
exits 2 naming "expected an object" or that field; no message is a Python
indexing or attribute error.
"""

import contextlib
import io
import json
import os
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
    """main() on argv in workdir, its input paths made absolute, writing to workdir/out unless argv names
    another --out; exit code and stderr."""
    argv = [str(workdir / arg) if arg.endswith(".json") or arg == "corpus" else arg for arg in argv]
    err = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)  # a relative path that a drawn flag names resolves here
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([argv[0], "--out", str(workdir / "out"), *argv[1:]])
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


INPUTS = {*JUDGES, *MARKS, "corpus", "cluster.json", "idf.json", "extract.json"}  # the names in an example's directory


def check_outcome(code: int, err: str, workdir: Path, culprit: str | None) -> None:
    assert code in (0, 2, 3), err
    if code == 0:
        return
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "indices must be integers" not in err and "object has no attribute" not in err, err
    if culprit is not None:
        assert str(workdir / culprit) in lines[0], err
    assert {path.name for path in workdir.iterdir()} == INPUTS


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
def corrupted(draw, raw: bytes) -> tuple[bytes, tuple | None]:
    """One corruption of a valid JSON file's bytes, and the path of the value it replaced by one of another
    JSON type, or None for any other corruption."""
    kind = draw(st.sampled_from(["truncated", "nested", "not utf-8", "wrong type"]))
    if kind == "truncated":
        return raw[: draw(st.integers(0, len(raw) - 2))], None  # the last byte is the newline
    if kind == "nested":
        depth = draw(DEPTHS)
        return b"[" * depth + b"]" * draw(st.sampled_from([0, depth])), None
    if kind == "not utf-8":
        at = draw(st.integers(0, len(raw)))
        return raw[:at] + bytes([draw(st.integers(0x80, 0xFF))]) + raw[at:], None
    document = json.loads(raw)
    path = draw(st.sampled_from(list(value_paths(document))))
    old = document
    for key in path:
        old = old[key]
    if draw(st.booleans()):
        depth = draw(DEPTHS)
        text = json.dumps(replaced(document, path, "\0deep"))
        return text.replace('"\\u0000deep"', "[" * depth + "]" * depth).encode(), None
    new = draw(json_values.filter(lambda value: type(value) is not type(old)))
    return json.dumps(replaced(document, path, new)).encode(), path


@given(data=st.data())
@settings(max_examples=examples(120), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_corrupted_input_file(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv, files = COMMANDS[command]
    culprit = data.draw(st.sampled_from(files))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        raw, path = data.draw(corrupted((inputs / culprit).read_bytes()))
        (workdir / culprit).write_bytes(raw)
        code, err = run(workdir, argv)
        check_outcome(code, err, workdir, culprit)
        where = f"error: {workdir / culprit}"
        if path == ():
            assert code == 2 and err.startswith(f"{where}: expected an object, got "), err
        elif path is not None and len(path) == 1:  # a cluster or document file's fields follow a ".", others a ": "
            assert code == 2 and err.startswith((f"{where}: {path[0]}: ", f"{where}.{path[0]}: ")), err


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


# Paths for the flags that name an input, the settings file or the output directory, read in the example's
# directory: "--" (what argparse before 3.13 reads as []), "-" and "missing.json" name no file, "" is the
# working directory and "corpus" a directory, and the rest are inputs of the wrong kind for most flags.
PATHS = st.sampled_from(["--", "-", "", "missing.json", "corpus", "cluster.json", "idf.json", "j_a.json", "s_a.json"])
PATH_FLAGS = {
    "idf": ["--out"],
    "cluster": ["--idf", "--config", "--out"],
    "summarize": ["--idf", "--config", "--out"],
    "evaluate": ["--annotations", "--extract", "--lead", "--system", "--idf", "--subsumption", "--config", "--out"],
    "cbsu": ["--annotations", "--config", "--out"],
    "csis": ["--annotations", "--config", "--out"],
}


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
        "idf": [],
        "cluster": ["--sim-threshold", "--centroid-threshold"],
        "summarize": ["--r", "--r-grid", "--weights", "--redundancy", "--centroid-threshold"],
        "evaluate": ["--r", "--r-grid", "--weights", "--redundancy", "--E"],
        "cbsu": ["--r-grid"],
        "csis": [],
    }[command] + PATH_FLAGS[command]
    chosen = draw(st.lists(st.sampled_from(allowed), unique=True, max_size=3))
    argv = []
    for flag in chosen:
        value = draw(choices.get(flag, PATHS))
        argv += [flag, value] if not value.startswith("-") else [f"{flag}={value}"]
    return argv


@given(data=st.data())
@settings(max_examples=examples(80), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_flag_values(inputs, data):
    command = data.draw(st.sampled_from(sorted(COMMANDS)))
    argv, _ = COMMANDS[command]
    extra = data.draw(flags(command))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        code, err = run(workdir, [*argv, *extra])
        check_outcome(code, err, workdir, None)


# Valid values for every settings-file key; a line's setting is read by one `_apply` step, as a flag's is.
CONFIG_VALUES = {
    "weights": ["1,0,0", "1,1,0"],
    "r": ["0.1", "0.3"],
    "r_grid": ["0.1:0.2:0.1", ""],
    "E": ["0.5", "1"],
    "centroid_threshold": ["0", "2"],
    "sim_threshold": ["0.2"],
    "agreement_threshold": ["2"],
    "redundancy": ["on", "off"],
}
# The RunConfig fields each key sets or resets: two lines that share one cannot be combined.
CONFIG_FIELDS = {"weights": {"w_c", "w_p", "w_f"}, "r": {"r", "r_grid"}}


@st.composite
def repeated_keys(draw) -> list[str]:
    """Settings-file keys, one of them given again later, so some two lines set one field."""
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_VALUES)), min_size=1, max_size=6, unique=True))
    again = draw(st.sampled_from(keys))
    keys.insert(draw(st.integers(keys.index(again) + 1, len(keys))), again)
    return keys


@given(data=st.data())
@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_repeated_key_in_config_file(inputs, data):
    """A field set by two lines of one settings file exits 2, naming the later line: no line is ignored."""
    keys = data.draw(repeated_keys())
    lines = [f"{key}={data.draw(st.sampled_from(CONFIG_VALUES[key]))}" for key in keys]
    notes = data.draw(st.lists(st.sampled_from(["", "# note\n", "\n"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(f"{note}{line}\n" for note, line in zip(notes, lines))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        cfg = workdir / "run.cfg"
        cfg.write_text(text)
        argv, _ = COMMANDS["summarize"]
        code, err = run(workdir, [*argv, "--config", str(cfg)])
        # the first line whose fields meet an earlier line's is the one named second
        numbered = [(n, line.partition("=")[0]) for n, line in enumerate(text.splitlines(), 1) if "=" in line]
        seen: set[str] = set()
        for lineno, key in numbered:
            fields = CONFIG_FIELDS.get(key, {key})
            if seen & fields:
                break
            seen |= fields
        assert code == 2
        assert err.startswith(f"error: {cfg}:") and err.count("\n") == 1, err
        assert f" and {cfg}:{lineno}: {key} cannot be combined: both set " in err, err
        assert not (workdir / "out").exists()


EXTRACT_WITH_GRID = "--extract files are fixed to one rate; use --lead/--system with --r-grid"

# Usage errors over an example's inputs: argv and the error, "{w}" standing for the example's directory.
# grid.cfg holds an r_grid line.
USAGE_ERRORS = [
    (["evaluate", "--annotations", *JUDGES, "--extract", "extract.json", "--r-grid", "0.1:0.2:0.1"], EXTRACT_WITH_GRID),
    (["evaluate", "--annotations", *JUDGES, "--extract", "extract.json", "--config", "grid.cfg"], EXTRACT_WITH_GRID),
    (["evaluate", "--annotations", *JUDGES, "--config", "grid.cfg"], "--r-grid needs --lead and/or --system"),
    (["evaluate", "--annotations", *JUDGES, "--lead", "cluster.json", "--idf", "idf.json"],
     "--idf applies only with --system"),
    (["evaluate", "--annotations", *JUDGES, "--system", "cluster.json"], "--system needs --idf to score sentences"),
    (["evaluate", "--annotations", *JUDGES, "--lead", "cluster.json", "--E", "0.5"],
     "--E applies only with --subsumption"),
    (["evaluate", "--annotations", *JUDGES, "--subsumption", *MARKS, "--lead", "cluster.json", "--weights", "0,1,0"],
     "--weights applies only with --system"),
    (["evaluate", "--annotations", *JUDGES, "--extract", "lead.json", "--lead", "cluster.json"],
     "{w}/lead.json and --lead {w}/cluster.json both give the report label 'lead'"),
    (["agreement", "--mode", "csis", "--annotations", *MARKS, "--r-grid", "0.1:0.2:0.1"],
     "--r-grid applies to --mode cbsu only"),
]


@given(data=st.data())
@settings(max_examples=examples(60), deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_usage_error_whatever_the_inputs_hold(inputs, data):
    """No missing, corrupted or contradicting input file is reported in place of a usage error."""
    argv, error = data.draw(st.sampled_from(USAGE_ERRORS))
    culprit = data.draw(st.sampled_from(sorted(set(argv) & INPUTS)))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp) / "work"
        shutil.copytree(inputs, workdir)
        fault = data.draw(st.sampled_from(["missing", "corrupted", "all-zero judge"]))
        if fault == "missing":
            (workdir / culprit).unlink()
        elif fault == "corrupted":
            (workdir / culprit).write_bytes(data.draw(corrupted((inputs / culprit).read_bytes()))[0])
        else:
            write_json({"judge_id": "Z", "cluster_id": "alg", "utilities": [0] * 20}, workdir / culprit)
        (workdir / "grid.cfg").write_text("r_grid=0.1:0.2:0.1\n")
        code, err = run(workdir, argv)
        assert (code, err) == (2, f"error: {error.format(w=workdir)}\n")
        assert not (workdir / "out").exists()


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

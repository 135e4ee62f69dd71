"""Command-line front end.

Subcommands cover the batch pipeline end to end: build an IDF model from a
background corpus (idf), group documents into event clusters (cluster),
produce extracts at one or many compression rates (summarize), score extracts
and baselines against judge annotations (evaluate), and dump inter-judge
agreement tables (agreement). Identical inputs and settings always produce
byte-identical output files.

A command reads its inputs and computes its results, then returns its output
files as a dict from each file name to a function that writes that file to a
given path. It creates no directory and writes no file: `main` hands the dict
to `_publish`, the one step that writes under --out. The lines a command prints
to stdout are held until `_publish` returns, so a run whose files could not be
published prints only its error; warnings go to stderr at once.

The layers below are bound as modules and each name is looked up at its call,
so a launch runs only the layers its subcommand calls (see the package's
lazy loading); `launch` then exits without interpreter teardown.

Exit codes: 0 success, 2 bad input or configuration, 3 evaluation
precondition failure (for instance judges who agree no better than chance).
"""

from __future__ import annotations

import argparse
import csv
import errno
import os
import re
import reprlib
import sys
import warnings
from contextlib import redirect_stdout, suppress
from functools import partial
from io import StringIO
from itertools import combinations, count, takewhile
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from . import evaluation, lexstats, summarizer
from .text import (
    PRESETS,
    Cluster,
    EvaluationError,
    ScoreWeights,
    _Record,
    _first_repeat,
    _fields,
    _json,
    _json_ints,
    _require_finite,
    cluster_from_dict,
    compression_size,
    document_from_dict,
    parse_cluster,
    read_json,
    write_cluster,
    write_json,
)


class RunConfig(_Record):
    """Settings shared across subcommands, read from key=value files and flags (see `_SETTINGS`)."""

    w_c: float = 1.0
    w_p: float = 0.0
    w_f: float = 0.0
    r: float = 0.2
    r_grid: tuple[float, ...] | None = None
    E: float = 1.0
    centroid_threshold: float = 0.0
    sim_threshold: float = 0.1
    agreement_threshold: int = 3
    redundancy: bool = False

    def __post_init__(self) -> None:
        ScoreWeights(self.w_c, self.w_p, self.w_f)  # range check
        for rate in (self.r, *self.rates):
            compression_size(1, rate)  # range check
        if not 0 <= self.E <= 1:
            raise ValueError(f"E must be in [0, 1], got {self.E}")
        if self.agreement_threshold < 1:
            raise ValueError(f"agreement_threshold must be >= 1, got {self.agreement_threshold}")
        _require_finite(centroid_threshold=self.centroid_threshold, sim_threshold=self.sim_threshold)
        for name in ("centroid_threshold", "sim_threshold"):  # a weight or cosine is never negative
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        tags = [_r_tag(rate) for rate in self.rates]
        shared = sorted({tag for tag in tags if tags.count(tag) > 1})
        if shared:
            grid = format_r_grid(self.r_grid)
            raise ValueError(f"r grid {grid} gives several rates the output tag {', '.join(shared)}")

    @property
    def weights(self) -> ScoreWeights:
        return ScoreWeights(self.w_c, self.w_p, self.w_f)

    @property
    def rates(self) -> tuple[float, ...]:
        return self.r_grid if self.r_grid is not None else (self.r,)

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        """The defaults with a key=value file's lines set in file order; two lines setting one field fail."""
        return _apply(cls(), _file_lines(path))


def _numbers(text: str, form: str = "a number", sep: str = ",", count: int = 1, kind: type = float) -> tuple:
    """The `count` numbers `text` holds between `sep`s; anything else is an error quoting `text`."""
    parts = text.split(sep)
    if len(parts) == count:
        try:
            return tuple(map(kind, parts))
        except ValueError:
            pass
    raise ValueError(f"expected {form}, got {reprlib.repr(text)}")


def _choose(text: str, options: dict):
    if text not in options:
        raise ValueError(f"expected {' or '.join(options)}, got {reprlib.repr(text)}")
    return options[text]


def parse_weights(text: str) -> tuple[float, float, float]:
    return _numbers(text, "three comma-separated numbers w_c,w_p,w_f", count=3)  # type: ignore[return-value]


def parse_r_grid(text: str) -> tuple[float, ...]:
    """Expand "start:stop:step" into the rates from start in whole steps up to stop, never past it."""
    start, stop, step = _numbers(text, "an r grid of three numbers start:stop:step", ":", 3)
    if not (0 < start <= stop <= 1 and step > 0):
        raise ValueError(f"r grid {reprlib.repr(text)} outside 0 < start <= stop <= 1 with step > 0")
    steps = (stop - start) / step + 1e-11  # so a stop on the grid is reached despite rounding in the division
    if steps >= 101:  # checked before the grid is built: a huge grid would exhaust memory
        raise ValueError(f"r grid {reprlib.repr(text)} has more than 101 rates, one per output tag r00..r100")
    return tuple(round(start + i * step, 10) for i in range(int(steps) + 1))


def format_r_grid(grid: tuple[float, ...]) -> str:
    if len(grid) == 1:
        return f"{grid[0]:g}:{grid[0]:g}:1"
    return f"{grid[0]:g}:{grid[-1]:g}:{grid[1] - grid[0]:.10g}"


def parse_on_off(value: str) -> bool:
    return _choose(value, {"on": True, "off": False})


class _Arg(_Record):
    """A positional argument or flag of the subcommands in `commands`, with its help and usage rules.

    `kind` is "path" (one path: an input, the settings file or the output directory), "paths" (one or
    more after the flag), "repeated" (the flag once per path), "choice" (one of `choices`) or
    "setting". A setting's line or flag is parsed into the RunConfig `fields` and resets `resets` to
    their defaults (an explicit rate replaces a grid).

    A rule (kind, names, message) applies in a subcommand that has the first flag of `names`. An
    "only with" rule rejects the flag given without any of `names`; a settings-file line is accepted,
    since one file serves every subcommand. A "needs" or "excludes" rule rejects the value the run
    uses, from the flag or the settings file, without any of `names` or with any of them. A name is a
    flag's dest, or "dest=value" for that value. An empty message is "--flag applies only with --names".
    """

    name: str  # a flag's starts with "--"; a positional's is its dest
    commands: str
    help: str | None = None
    kind: str = "path"
    fields: tuple[str, ...] = ()
    parse: Callable[[str], tuple] = _numbers
    resets: tuple[str, ...] = ()
    required: bool = False
    choices: tuple[str, ...] = ()
    rules: tuple[tuple[str, str, str], ...] = ()

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")


def _apply(config: RunConfig, settings: Iterable[tuple[str, str, str]]) -> RunConfig:
    """`config` with each (key, text, where) parsed into its entry's fields and its resets at their defaults.

    Each step is range-checked, and an error starts with its `where`. Two settings that set one field,
    or a field and a field the other resets, fail naming both.
    """
    claimed: dict[str, str] = {}
    for key, text, where in settings:
        entry = _SETTINGS[key]
        for name in (*entry.fields, *entry.resets):
            if claimed.setdefault(name, where) != where:
                raise ValueError(f"{claimed[name]} and {where} cannot be combined: both set {name}")
        try:
            values = dict(zip(entry.fields, entry.parse(text)))
            defaults = {name: getattr(RunConfig, name) for name in entry.resets}
            config = RunConfig(**{**config.__dict__, **defaults, **values})
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from None
    return config


def _file_lines(path: str | Path) -> Iterator[tuple[str, str, str]]:
    """A settings file's (key, value, `path:line: key`) in file order, comments and blank lines left out."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {reprlib.repr(line)}")
        key, _, value = map(str.strip, line.partition("="))
        if key not in _SETTINGS or key == "preset":  # preset is a flag only
            raise ValueError(f"{path}:{lineno}: unknown setting {reprlib.repr(key)}")
        yield key, value, f"{path}:{lineno}: {key}"


_COMMANDS = {
    "idf": "build an IDF model from a corpus directory",
    "cluster": "group documents into event clusters",
    "summarize": "extract a summary from a cluster file",
    "evaluate": "score extracts and baselines against judges",
    "agreement": "inter-judge agreement tables",
}
_WITH_SYSTEM, _WITH_SUBSUMPTION = (("only with", "system", ""),), (("only with", "subsumption", ""),)

# Every argument of every subcommand, in the order of its subcommand's help. Entries call public
# functions by name, so wrapped ones see every call.
_ARGS = (
    _Arg("corpus_dir", "idf"),
    _Arg("docs_dir", "cluster"),
    _Arg("cluster_file", "summarize"),
    _Arg("--idf", "cluster summarize", "IDF model file", required=True),
    _Arg("--mode", "agreement", kind="choice", required=True, choices=("cbsu", "csis")),
    _Arg("--annotations", "evaluate", "utility annotation files", "paths", required=True),
    _Arg("--annotations", "agreement", kind="paths", required=True),
    _Arg("--extract", "evaluate", "extract file to evaluate (repeatable)", "repeated"),
    _Arg("--lead", "evaluate", "cluster file; evaluate its lead baseline"),
    _Arg("--system", "evaluate", "cluster file; evaluate a freshly scored extract",
         rules=(("needs", "idf", "--system needs --idf to score sentences"),)),
    _Arg("--idf", "evaluate", "IDF model file (needed with --system)", rules=_WITH_SYSTEM),
    _Arg("--subsumption", "evaluate", "subsumption annotation files", "paths"),
    _Arg("--config", "cluster summarize evaluate agreement", "key=value settings file; flags override it"),
    _Arg("--out", " ".join(_COMMANDS), "output directory (default: current directory)"),
    _Arg("--weights", "summarize evaluate", "w_c,w_p,w_f", "setting", ("w_c", "w_p", "w_f"),
         lambda text: parse_weights(text), rules=_WITH_SYSTEM),
    _Arg("--preset", "summarize evaluate", f"named weights: {' or '.join(PRESETS)}", "setting",
         ("w_c", "w_p", "w_f"), lambda text: _choose(text, PRESETS)._values(), rules=_WITH_SYSTEM),
    _Arg("--r", "summarize evaluate", "compression rate in (0, 1]", "setting", ("r",), resets=("r_grid",)),
    _Arg("--r-grid", "summarize evaluate agreement", "rate grid start:stop:step, e.g. 0.1:0.9:0.1", "setting",
         ("r_grid",), lambda text: (parse_r_grid(text) if text else None,), rules=(
             ("only with", "mode=cbsu", "--r-grid applies to --mode cbsu only"),
             ("excludes", "extract", "--extract files are fixed to one rate; use --lead/--system with --r-grid"),
             ("needs", "lead system", "--r-grid needs --lead and/or --system"),
         )),
    _Arg("--E", "evaluate", "subsumption discount factor in [0, 1]", "setting", ("E",), rules=_WITH_SUBSUMPTION),
    _Arg("--centroid-threshold", "cluster summarize evaluate", "least term weight", "setting",
         ("centroid_threshold",), rules=_WITH_SYSTEM),
    _Arg("--sim-threshold", "cluster", "least similarity that joins an open cluster", "setting", ("sim_threshold",)),
    _Arg("--agreement-threshold", "evaluate", "judges needed for a consensus subsumption edge", "setting",
         ("agreement_threshold",), lambda text: _numbers(text, "an integer", kind=int), rules=_WITH_SUBSUMPTION),
    _Arg("--redundancy", "summarize evaluate", "on or off: rerank with the redundancy penalty", "setting",
         ("redundancy",), lambda text: (parse_on_off(text),), rules=_WITH_SYSTEM),
)
_SETTINGS = {entry.dest: entry for entry in _ARGS if entry.kind == "setting"}  # settings-file key -> entry
_LISTS = {"paths": {"nargs": "+"}, "repeated": {"action": "append"}}  # the list kinds' argparse options


def _entries(command: str) -> list[_Arg]:
    return [entry for entry in _ARGS if command in entry.commands.split()]


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by --config file lines, overridden by explicit flags; reads no other file.

    The lines, then the flags, take the same `_apply` step, which parses and range-checks each value;
    an error starts with `path:line: key:` or `--flag:`. Two lines or two flags setting one field fail.
    """
    config = RunConfig.from_file(args.config) if getattr(args, "config", None) is not None else RunConfig()
    flags = [(key, getattr(args, key, None), entry.name) for key, entry in _SETTINGS.items()]
    return _apply(config, [flag for flag in flags if flag[1] is not None])


def _check_usage(args: argparse.Namespace, config: RunConfig) -> None:
    """Raise the run's first usage error: two evaluate systems with one report label, a value outside its
    flag's choices, or a broken rule of the table's. It reads no input file, so it runs before the
    command reads one.
    """
    labelled = [(Path(path).stem, path) for path in getattr(args, "extract", None) or []]
    baselines = [(label, getattr(args, label, None)) for label in ("lead", "system")]
    labelled += [(label, f"--{label} {path}") for label, path in baselines if path is not None]
    for (label, first), (other, second) in combinations(labelled, 2):
        if label == other:
            raise ValueError(f"{first} and {second} both give the report label {reprlib.repr(label)}")
    for entry in _entries(args.command):
        value = getattr(args, entry.dest)
        if entry.kind == "choice" and value not in entry.choices:  # argparse before 3.13 lets --mode=-- pass
            raise ValueError(f"{entry.name}: expected {' or '.join(entry.choices)}, got {reprlib.repr(value)}")
        for kind, names, message in entry.rules:
            wanted = [name.partition("=") for name in names.split()]  # (dest, "=", value) or (dest, "", "")
            if not hasattr(args, wanted[0][0]):  # a subcommand without the flags the rule names
                continue
            # "only with" reads the flag; "needs" and "excludes" read the setting the run uses, from either source
            used = getattr(config, entry.dest) if kind != "only with" and entry.kind == "setting" else value
            met = any(getattr(args, key) == target if target else getattr(args, key) is not None
                      for key, _, target in wanted)
            if used is not None and met == (kind == "excludes"):
                raise ValueError(message or f"{entry.name} applies only with --{names}")


_CLUSTER_FILE = re.compile(r"c[0-9]{3,}\.json")  # the names `cluster` gives its files
_Outputs = dict[str, Callable[[Path], None]]  # a command's output files: name -> writer to a given path


def _publish(out: Path, outputs: _Outputs) -> None:
    """Write a command's outputs into `out`, the one step of a run that writes files.

    `out` is made with its missing parents. Each output is written under a new temporary name,
    `.<name>.tmp` with more leading dots while that name exists; after the last write, and only if no
    directory holds one of the names, each is renamed to its name. On any error the temporary files,
    the names that did not exist before and the directories made here are removed, each on its own,
    and the error is raised again; a file that was there before keeps its name.
    """
    made = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))  # deepest first
    paths = [out / name for name in outputs]
    new = [path for path in paths if not path.exists()]
    temps: list[Path] = []
    try:
        out.mkdir(parents=True, exist_ok=True)
        for path, write in zip(paths, outputs.values()):
            temp = path.with_name(f".{path.name}.tmp")
            while temp.exists():  # never a file that was there before
                temp = temp.with_name("." + temp.name)
            temps.append(temp)
            write(temp)
        for path in paths:
            if path.is_dir():  # a rename would fail there, after the earlier names were replaced
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
        for temp, path in zip(temps, paths):
            temp.replace(path)
    except BaseException:  # what cannot be removed stays; the run's own error is the one reported
        for path in (*temps, *new):
            with suppress(OSError):
                path.unlink()
        for directory in made:
            with suppress(OSError):
                directory.rmdir()
        raise


def _write_text(text: str, path: Path) -> None:
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _r_tag(r: float) -> str:
    return f"r{int(round(r * 100)):02d}"


def _load_corpus_documents(corpus_dir: str) -> list:
    """Documents from a directory of document and/or cluster JSON files; none, or one doc_id twice, is an error."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise ValueError(f"{corpus_dir}: not a directory")
    documents = []
    held_by: dict[str, Path] = {}  # doc_id -> the file that holds it
    for path in sorted(root.glob("*.json")):
        data = read_json(path)
        is_cluster = isinstance(data, dict) and "documents" in data
        found = cluster_from_dict(data, str(path)).documents if is_cluster else (document_from_dict(data, str(path)),)
        for doc in found:
            if held_by.setdefault(doc.doc_id, path) != path:  # a cluster file's own ids are already distinct
                field = "doc_id"
                if is_cluster:  # documents are sorted by time; name the entry as the file orders it
                    field = f"documents[{[raw['doc_id'] for raw in data['documents']].index(doc.doc_id)}].doc_id"
                raise ValueError(
                    f"{path}.{field}: duplicate document id {reprlib.repr(doc.doc_id)}, also in {held_by[doc.doc_id]}"
                )
        documents.extend(found)
    if not documents:
        raise ValueError(f"{corpus_dir}: no documents found")
    return documents


def cmd_idf(args: argparse.Namespace, config: RunConfig) -> _Outputs:
    documents = _load_corpus_documents(args.corpus_dir)
    model = lexstats.build_idf(documents)
    print(f"wrote {args.out / 'idf.json'} ({model.n_docs} documents, {len(model.df)} terms)")
    return {"idf.json": lambda path: lexstats.save_idf(model, path)}


def cmd_cluster(args: argparse.Namespace, config: RunConfig) -> _Outputs:
    documents = _load_corpus_documents(args.docs_dir)
    idf = lexstats.load_idf(args.idf)
    clusters = lexstats.incremental_cluster(
        documents, idf, sim_threshold=config.sim_threshold, centroid_threshold=config.centroid_threshold
    )
    outputs = {f"{cluster.cluster_id}.json": partial(write_cluster, cluster) for cluster in clusters}
    for path in sorted(args.out.iterdir()) if args.out.is_dir() else ():
        if _CLUSTER_FILE.fullmatch(path.name) and path.name not in outputs:
            raise ValueError(f"{path}: a cluster file that this run does not write; remove it or use another --out")
    for cluster in clusters:
        print(f"{cluster.cluster_id}: {cluster.d} documents, {cluster.n} sentences")
    print(f"{len(clusters)} clusters")
    return outputs


def _score_and_select(cluster: Cluster, idf_path: str, config: RunConfig) -> dict[float, summarizer.Extract]:
    """Score the cluster once, then select its extract at each of the config's rates."""
    centroid = lexstats.build_centroid(cluster, lexstats.load_idf(idf_path), config.centroid_threshold)
    scores = summarizer.score_sentences(cluster, centroid, config.weights)
    select = summarizer.redundancy_rerank if config.redundancy else summarizer.extract
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", summarizer.RerankCapWarning)
        extracts = {r: select(cluster, scores, r) for r in config.rates}
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return extracts


def cmd_summarize(args: argparse.Namespace, config: RunConfig) -> _Outputs:
    cluster = parse_cluster(args.cluster_file)
    outputs = {}
    for r, ext in _score_and_select(cluster, args.idf, config).items():
        tag = _r_tag(r)
        outputs[f"extract_{cluster.cluster_id}_{tag}.json"] = partial(_write_text, summarizer.extract_json(ext))
        text = summarizer.summary_text(cluster, ext) + "\n"
        outputs[f"summary_{cluster.cluster_id}_{tag}.txt"] = partial(_write_text, text)
        print(f"{cluster.cluster_id} {tag}: {ext.k} of {cluster.n} sentences -> {sorted(ext.selected)}")
    return outputs


def _load_extract_file(path: str, judged: evaluation.UtilityAnnotation, r: float) -> list[int]:
    """An extract file's positions; it must be for the judged cluster and hold k(r) distinct ones in 1..n.

    A file that states its rate must state a number in (0, 1] with the same k as r. `judged` is the
    first of the checked judges, and `evaluation._check_fits` checks the file against it.
    """
    data = read_json(path)
    cluster_id, selected = _fields(data, path, ("cluster_id", "selected"))
    _json(cluster_id, str, f"{path}: cluster_id")
    _json_ints(_json(selected, list, f"{path}: selected"), (f"{path}: selected[{i}]" for i in count()))
    repeat = _first_repeat(selected)
    if repeat is not None:
        raise ValueError(f"{path}: selected[{repeat}]: position {selected[repeat]} is selected twice")
    evaluation._check_fits(judged, f"{path}: extract", cluster_id)
    k = compression_size(judged.n, r)
    stated = data.get("r", r)  # a file need not state its rate
    if type(stated) not in (int, float) or not 0 < stated <= 1 or compression_size(judged.n, stated) != k:
        raise ValueError(f"{path}: r: expected a rate in (0, 1] with k={k} as at r={r:g}, got {reprlib.repr(stated)}")
    evaluation._check_fits(judged, f"{path}: selected", positions=selected, k=k)
    return sorted(selected)


def _load_judges(paths: Sequence[str], load: Callable) -> list:
    """Utility or subsumption files, loaded and checked as one judge set by `evaluation._check_judge_set`.

    A fault names the file at fault and the file it disagrees with. The judge count is checked where the
    judges are used.
    """
    judges = [load(path) for path in paths]
    evaluation._check_judge_set(judges, 1, paths)
    return judges


def _judged_subsumption(path: str, judged: evaluation.UtilityAnnotation) -> evaluation.SubsumptionAnnotation:
    """Load subsumption marks and require them to be for the judged cluster and its positions."""
    marks = evaluation.load_subsumption_annotation(path)
    evaluation._check_fits(judged, f"{path}: subsumption file", marks.cluster_id)
    positions = [p for pos, targets in marks.subsumers.items() for p in (pos, *targets)]
    evaluation._check_fits(judged, f"{path}: subsumers", positions=positions)
    return marks


def _system_cells(figures: dict) -> list[str]:
    """A system's figures from report_to_dict (s, d and, with subsumption, s_csis, d_csis) as table text."""
    return [f"{figures[key]:.3f}" for key in ("s", "d", "s_csis", "d_csis") if key in figures]


def _write_report_csv(report: dict, path: Path) -> None:
    """Judge-vs-judge table with per-judge means, then one row per system, from report_to_dict."""
    rows = [
        [judge_id, *(f"{value:.3f}" for value in row), f"{per_judge:.3f}"]
        for judge_id, row, per_judge in zip(report["judges"], report["j_matrix"], report["j_per_judge"])
    ]
    rows += [["mean_j", f"{report['mean_j']:.3f}"], ["random", f"{report['random']:.3f}"]]
    rows.append(["system", "s", "d"] + (["s_csis", "d_csis"] if "e" in report else []))
    rows += [[label, *_system_cells(figures)] for label, figures in sorted(report["systems"].items())]
    _write_csv(path, ["judge", *report["judges"], "per_judge"], rows)


def _write_d_grid(reports: Sequence[dict], path: Path) -> None:
    """One row per rate and system: s, random, mean_j, d (and the CSIS pair), from report_to_dict."""
    header = ["r", "system", "s", "random", "mean_j", "d"]
    if "e" in reports[0]:
        header += ["s_csis", "d_csis"]
    rows = []
    for report in reports:
        shared = [f"{report['random']:.3f}", f"{report['mean_j']:.3f}"]
        for label, figures in sorted(report["systems"].items()):
            s, *d_and_csis = _system_cells(figures)
            rows.append([f"{report['r']:.2f}", label, s, *shared, *d_and_csis])
    _write_csv(path, header, rows)


def cmd_evaluate(args: argparse.Namespace, config: RunConfig) -> _Outputs:
    annotations = _load_judges(args.annotations, evaluation.load_utility_annotation)
    judged = annotations[0]
    graph = None
    if args.subsumption:
        subs = _load_judges(args.subsumption, lambda path: _judged_subsumption(path, judged))
        graph = evaluation.csis_consensus(subs, config.agreement_threshold)
    fixed = {Path(path).stem: _load_extract_file(path, judged, config.r) for path in args.extract or []}
    # --lead and --system often name the same file; each distinct path is parsed once
    paths = [path for path in dict.fromkeys((args.lead, args.system)) if path is not None]
    clusters = {}
    for path in paths:
        clusters[path] = cluster = parse_cluster(path)
        evaluation._check_fits(judged, f"{path}: cluster file", cluster.cluster_id, n=cluster.n)
    lead_cluster, system_cluster = clusters.get(args.lead), clusters.get(args.system)
    system_extracts = _score_and_select(system_cluster, args.idf, config) if system_cluster else {}
    reports = []
    for r in config.rates:
        systems = dict(fixed)
        if lead_cluster is not None:
            systems["lead"] = summarizer.lead_baseline(lead_cluster, r).selected
        if system_extracts:
            systems["system"] = system_extracts[r].selected
        reports.append(evaluation.report_to_dict(evaluation.build_report(annotations, systems, r, graph, config.E)))
    if config.r_grid is not None:
        print(f"wrote {args.out / 'd_grid.csv'}")
        return {"d_grid.csv": partial(_write_d_grid, reports)}
    report = reports[0]
    print(f"mean_j={report['mean_j']:.3f} random={report['random']:.3f}")
    for label, figures in sorted(report["systems"].items()):
        print(f"{label}: s={figures['s']:.3f} d={figures['d']:.3f}")
    return {"report.json": partial(write_json, report), "report.csv": partial(_write_report_csv, report)}


def cmd_agreement(args: argparse.Namespace, config: RunConfig) -> _Outputs:
    if args.mode == "cbsu":
        annotations = _load_judges(args.annotations, evaluation.load_utility_annotation)
        curve = [[f"{r:.2f}", f"{mean_j:.3f}"] for r, mean_j in evaluation.agreement_curve(annotations, config.r_grid)]
        print(f"wrote {args.out / 'agreement_curve.csv'}")
        return {"agreement_curve.csv": lambda path: _write_csv(path, ["r", "mean_j"], curve)}
    tally = evaluation.csis_agreement_tally(_load_judges(args.annotations, evaluation.load_subsumption_annotation))
    rows = [[row.position, row.plus_score, row.minus_score] for row in tally.rows]  # None -> ""
    histogram = sorted(tally.histogram.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    levels = [[level, sign, count] for (level, sign), count in histogram]
    print(f"wrote {args.out / 'csis_tally.csv'} and {args.out / 'csis_histogram.csv'}")
    return {
        "csis_tally.csv": lambda path: _write_csv(path, ["position", "plus_score", "minus_score"], rows),
        "csis_histogram.csv": lambda path: _write_csv(path, ["agreement", "sign", "sentences"], levels),
    }


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser: every subcommand's name and help, and the arguments of `command` alone.

    `main` builds it for the subcommand its argv names, the one argparse reads arguments for.
    """
    parser = argparse.ArgumentParser(
        prog="centroidsumm",
        description="Cluster news documents, extract summaries, and evaluate them against judges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, summary in _COMMANDS.items():
        command_parser = sub.add_parser(name, help=summary)
        for entry in _entries(command) if name == command else ():
            required = {"required": True} if entry.required else {}  # argparse takes no `required` for positionals
            options = {**_LISTS.get(entry.kind, {}), **required, "choices": entry.choices or None}
            command_parser.add_argument(entry.name, help=entry.help, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(next((arg for arg in argv if not arg.startswith("-")), None)).parse_args(argv)
    # argparse before 3.13 reads the value of --flag=-- as [] (appended, as [[]]) where 3.13 reads "--"
    for entry in _entries(args.command):
        value = getattr(args, entry.dest)
        if entry.kind in _LISTS and value is not None:
            setattr(args, entry.dest, ["--" if item == [] else item for item in value] or ["--"])
        elif value == []:
            setattr(args, entry.dest, "--")
    args.out = Path(args.out or ".")
    try:
        config = resolve_config(args)  # reads the settings file, the one input file read before the check
        _check_usage(args, config)
        with redirect_stdout(StringIO()) as held:  # a run's result lines print only once its files are published
            outputs = globals()[f"cmd_{args.command}"](args, config)  # looked up at the call, so a wrapped command runs
        _publish(args.out, outputs)
        print(held.getvalue(), end="")  # print, as the command would, writes nothing where stdout is None
        return 0
    except (ValueError, OSError) as exc:  # EvaluationError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EvaluationError) else 2


def launch() -> None:
    """The console entry point: run `main`, flush stdout and stderr, and exit without interpreter teardown.

    `os._exit` skips the teardown's few ms, which is a large share of a short launch. Whatever a run must
    finish (its files, a log) has to finish before `main` returns; only the two streams are flushed here.
    If a flush fails, `sys.exit` exits as a normal process would, with the teardown and its report.
    """
    code = main()
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):  # None in a process started without one
            stream.flush()
    except (OSError, ValueError):  # a closed pipe or stream
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    launch()

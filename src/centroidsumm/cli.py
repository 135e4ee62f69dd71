"""Command-line front end.

Subcommands cover the batch pipeline end to end: build an IDF model from a
background corpus (idf), group documents into event clusters (cluster),
produce extracts at one or many compression rates (summarize), score extracts
and baselines against judge annotations (evaluate), and dump inter-judge
agreement tables (agreement). Identical inputs and settings always produce
byte-identical output files.

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
from contextlib import suppress
from itertools import combinations, takewhile
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .evaluation import (
    EvaluationError,
    SubsumptionAnnotation,
    UtilityAnnotation,
    agreement_curve,
    build_report,
    csis_agreement_tally,
    csis_consensus,
    load_subsumption_annotation,
    load_utility_annotation,
    report_to_dict,
)
from .lexstats import _require_finite, build_centroid, build_idf, incremental_cluster, load_idf, save_idf
from .summarizer import (
    PRESETS,
    Extract,
    RerankCapWarning,
    ScoreWeights,
    extract,
    extract_json,
    lead_baseline,
    redundancy_rerank,
    score_sentences,
    summary_text,
)
from .text import (
    Cluster,
    _Record,
    _first_repeat,
    _json_int,
    _json_str,
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
        try:
            text = Path(path).read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
        config = cls()
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {reprlib.repr(line)}")
            key, _, value = map(str.strip, line.partition("="))
            if key not in _SETTINGS or key == "preset":  # preset is a flag only
                raise ValueError(f"{path}:{lineno}: unknown setting {reprlib.repr(key)}")
            config = _set(config, _SETTINGS[key], value, f"{path}:{lineno}: {key}")
        return config


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
    """Expand "start:stop:step" into an inclusive grid of rates."""
    start, stop, step = _numbers(text, "an r grid of three numbers start:stop:step", ":", 3)
    if not (0 < start <= stop <= 1 and step > 0):
        raise ValueError(f"r grid {reprlib.repr(text)} outside 0 < start <= stop <= 1 with step > 0")
    steps = (stop - start) / step + 0.5
    if steps >= 101:  # checked before the grid is built: a huge grid would exhaust memory
        raise ValueError(f"r grid {reprlib.repr(text)} has more than 101 rates, one per output tag r00..r100")
    return tuple(round(start + i * step, 10) for i in range(int(steps) + 1))


def format_r_grid(grid: tuple[float, ...]) -> str:
    if len(grid) == 1:
        return f"{grid[0]:g}:{grid[0]:g}:1"
    return f"{grid[0]:g}:{grid[-1]:g}:{grid[1] - grid[0]:.10g}"


def parse_on_off(value: str) -> bool:
    return _choose(value, {"on": True, "off": False})


class _Setting(_Record):
    """A setting: the RunConfig fields it sets, the subcommands with its flag, and the flag's help.

    `parse` turns text into the fields' values, and the flag also resets `resets` to their
    defaults: an explicit rate replaces a grid.
    """

    fields: tuple[str, ...]
    commands: str
    help: str
    parse: Callable[[str], tuple] = _numbers
    resets: tuple[str, ...] = ()
    needs: str | None = None  # an input flag: a subcommand that has it reads the setting only with it


def _set(config: RunConfig, entry: _Setting, text: str, where: str, resets: Sequence[str] = ()) -> RunConfig:
    """`config` with the entry's fields parsed from `text` and `resets` at their defaults, range-checked.

    The rest of `config` passed the same checks, so an error is the entry's; it starts with `where`.
    """
    try:
        values = dict(zip(entry.fields, entry.parse(text)))
        return RunConfig(**{**config.__dict__, **{name: getattr(RunConfig, name) for name in resets}, **values})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


# Settings-file key -> setting. Entries call public functions by name: wrapped ones see every call.
_SETTINGS = {
    "weights": _Setting(
        ("w_c", "w_p", "w_f"), "summarize evaluate", "w_c,w_p,w_f", lambda text: parse_weights(text), needs="system"
    ),
    "preset": _Setting(
        ("w_c", "w_p", "w_f"), "summarize evaluate", f"named weights: {' or '.join(PRESETS)}",
        lambda text: _choose(text, PRESETS)._values(), needs="system",
    ),
    "r": _Setting(("r",), "summarize evaluate", "compression rate in (0, 1]", resets=("r_grid",)),
    "r_grid": _Setting(
        ("r_grid",), "summarize evaluate agreement", "rate grid start:stop:step, e.g. 0.1:0.9:0.1",
        lambda text: (parse_r_grid(text) if text else None,),
    ),
    "E": _Setting(("E",), "evaluate", "subsumption discount factor in [0, 1]", needs="subsumption"),
    "centroid_threshold": _Setting(
        ("centroid_threshold",), "cluster summarize evaluate", "least term weight", needs="system"
    ),
    "sim_threshold": _Setting(("sim_threshold",), "cluster", "least similarity that joins an open cluster"),
    "agreement_threshold": _Setting(
        ("agreement_threshold",), "evaluate", "judges needed for a consensus subsumption edge",
        lambda text: _numbers(text, "an integer", kind=int), needs="subsumption",
    ),
    "redundancy": _Setting(
        ("redundancy",), "summarize evaluate", "on or off: rerank with the redundancy penalty",
        lambda text: (parse_on_off(text),), needs="system",
    ),
}
_FLAGS = {key: "--" + key.replace("_", "-") for key in _SETTINGS}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by --config file lines, overridden by explicit flags.

    A line and a flag take the same `_set` step, which parses and range-checks the value; an error
    starts with `path:line: key:` or `--flag:`. Flags setting one field, or a flag without its `needs`, fail.
    """
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    claimed: dict[str, str] = {}
    for key, entry in _SETTINGS.items():
        text, flag = getattr(args, key, None), _FLAGS[key]
        if text is not None:
            for name in (*entry.fields, *entry.resets):
                if claimed.setdefault(name, flag) != flag:
                    raise ValueError(f"{claimed[name]} and {flag} cannot be combined: both set {name}")
            config = _set(config, entry, text, flag, entry.resets)
            if entry.needs and not getattr(args, entry.needs, True):
                raise ValueError(f"{flag} applies only with --{entry.needs}")
    return config


_CLUSTER_FILE = re.compile(r"c[0-9]{3,}\.json")  # the names `cluster` gives its files


def _out_dir(args: argparse.Namespace) -> Path:
    """The --out directory, made with its missing parents; `main` removes what a failed command adds."""
    out = Path(getattr(args, "out", None) or ".")
    made = list(takewhile(lambda path: not path.exists(), (out, *out.parents)))  # deepest first
    args.created = out, made, set(out.iterdir()) if out.is_dir() else set()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _staged(args: argparse.Namespace, path: Path) -> Path:
    """A new temporary name in --out that a command writes `path` under; `_commit` gives it its name."""
    temp = path.with_name(f".{path.name}.tmp")
    while temp.exists():  # never a file that was there before
        temp = temp.with_name("." + temp.name)
    args.staged.append((temp, path))
    return temp


def _commit(args: argparse.Namespace) -> None:
    """After a command's last write, rename each staged file, unless a directory holds one of the names."""
    for _, path in args.staged:
        if path.is_dir():  # a rename would fail there, after the earlier names were replaced
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    for temp, path in args.staged:
        temp.replace(path)


def _remove_created(args: argparse.Namespace) -> None:
    """Remove the files a failed command added to --out, staged ones too, then the directories `_out_dir` made."""
    out, made, kept = getattr(args, "created", (None, [], set()))
    with suppress(OSError):  # what cannot be removed stays; the command's own error is the one reported
        for path in set(out.iterdir()) - kept if out and out.is_dir() else ():
            path.unlink()
        for directory in made:
            directory.rmdir()


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


def cmd_idf(args: argparse.Namespace) -> int:
    documents = _load_corpus_documents(args.corpus_dir)
    model = build_idf(documents)
    out = _out_dir(args) / "idf.json"
    save_idf(model, _staged(args, out))
    print(f"wrote {out} ({model.n_docs} documents, {len(model.df)} terms)")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    documents = _load_corpus_documents(args.docs_dir)
    idf = load_idf(args.idf)
    clusters = incremental_cluster(
        documents, idf, sim_threshold=config.sim_threshold, centroid_threshold=config.centroid_threshold
    )
    out = _out_dir(args)
    names = {f"{cluster.cluster_id}.json" for cluster in clusters}
    for path in sorted(out.iterdir()):
        if _CLUSTER_FILE.fullmatch(path.name) and path.name not in names:
            raise ValueError(f"{path}: a cluster file that this run does not write; remove it or use another --out")
    for cluster in clusters:
        write_cluster(cluster, _staged(args, out / f"{cluster.cluster_id}.json"))
        print(f"{cluster.cluster_id}: {cluster.d} documents, {cluster.n} sentences")
    print(f"{len(clusters)} clusters")
    return 0


def _score_and_select(cluster: Cluster, idf_path: str, config: RunConfig) -> dict[float, Extract]:
    """Score the cluster once, then select its extract at each of the config's rates."""
    centroid = build_centroid(cluster, load_idf(idf_path), config.centroid_threshold)
    scores = score_sentences(cluster, centroid, config.weights)
    select = redundancy_rerank if config.redundancy else extract
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RerankCapWarning)
        extracts = {r: select(cluster, scores, r) for r in config.rates}
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return extracts


def cmd_summarize(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    cluster = parse_cluster(args.cluster_file)
    extracts = _score_and_select(cluster, args.idf, config)
    out = _out_dir(args)
    for r, ext in extracts.items():
        tag = _r_tag(r)
        extract_path = _staged(args, out / f"extract_{cluster.cluster_id}_{tag}.json")
        extract_path.write_text(extract_json(ext), encoding="utf-8")
        text = summary_text(cluster, ext)
        _staged(args, out / f"summary_{cluster.cluster_id}_{tag}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"{cluster.cluster_id} {tag}: {ext.k} of {cluster.n} sentences -> {sorted(ext.selected)}")
    return 0


def _load_extract_file(path: str, annotations: Sequence[UtilityAnnotation], r: float) -> list[int]:
    """An extract file's positions; it must be for the judged cluster and hold k(r) distinct ones."""
    data = read_json(path)
    try:
        cluster_id, positions = data["cluster_id"], data["selected"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not an extract file: {exc}") from None
    _json_str(cluster_id, f"{path}: cluster_id")
    if not isinstance(positions, list):
        raise ValueError(f"{path}: selected: must be an array of integers, got {reprlib.repr(positions)}")
    selected = [_json_int(p, f"{path}: selected[{i}]") for i, p in enumerate(positions)]
    repeat = _first_repeat(selected)
    if repeat is not None:
        raise ValueError(f"{path}: selected[{repeat}]: position {selected[repeat]} is selected twice")
    _require_judged(path, annotations, "extract is for cluster", cluster_id)
    k = compression_size(annotations[0].n, r)
    if len(selected) != k:
        raise EvaluationError(f"{path}: extract selects {len(selected)} sentences, expected k={k} at r={r:g}")
    return sorted(selected)


def _load_judges(paths: Sequence[str], load: Callable) -> list:
    """Utility or subsumption files of one cluster, utilities of one size, each of its own judge.

    Every file is compared with the first, and a judge id with the file that first gave it; a
    mismatch or a repeat names the files. The library checks the judge count.
    """
    judges = [load(path) for path in paths]
    first = judges[0]
    for path, judge in zip(paths[1:], judges[1:]):
        if judge.cluster_id != first.cluster_id:
            raise EvaluationError(
                f"{path}: annotations mix clusters {reprlib.repr(first.cluster_id)} "
                f"and {reprlib.repr(judge.cluster_id)}, the first from {paths[0]}"
            )
        if isinstance(judge, UtilityAnnotation) and judge.n != first.n:
            raise EvaluationError(
                f"{path}: judge {reprlib.repr(judge.judge_id)} annotated {judge.n} sentences, "
                f"expected {first.n} as in {paths[0]}"
            )
    ids = [judge.judge_id for judge in judges]
    repeat = _first_repeat(ids)
    if repeat is not None:
        judge, first_path = reprlib.repr(ids[repeat]), paths[ids.index(ids[repeat])]
        raise EvaluationError(f"{paths[repeat]}: judge {judge} is already the judge of {first_path}")
    return judges


def _require_judged(path: str, annotations: Sequence, what: str, cluster_id: str, n: int | None = None) -> None:
    """Exit 3 unless a file is for the judged cluster and, given n, of its size; `what` words the file's side."""
    judged = annotations[0]
    if cluster_id != judged.cluster_id or n not in (None, judged.n):
        sizes = ("", "") if n is None else (f" has {n} sentences", f" with {judged.n}")
        raise EvaluationError(
            f"{path}: {what} {reprlib.repr(cluster_id)}{sizes[0]}; the annotations are for cluster "
            f"{reprlib.repr(judged.cluster_id)}{sizes[1]}"
        )


def _judged_subsumption(path: str, annotations: Sequence[UtilityAnnotation]) -> SubsumptionAnnotation:
    """Load subsumption marks and require them to be for the judged cluster and its positions."""
    marks = load_subsumption_annotation(path)
    _require_judged(path, annotations, "subsumption marks are for cluster", marks.cluster_id)
    n = annotations[0].n
    highest = max((p for pos, targets in marks.subsumers.items() for p in (pos, *targets)), default=0)
    if highest > n:
        raise EvaluationError(f"{path}: subsumption position {highest} outside 1..{n} of the annotations")
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


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    labelled = [(Path(path).stem, path) for path in args.extract or []]
    labelled += [(label, f"--{label} {path}") for label, path in (("lead", args.lead), ("system", args.system)) if path]
    for (label, first), (other, second) in combinations(labelled, 2):
        if label == other:
            raise ValueError(f"{first} and {second} both give the report label {reprlib.repr(label)}")
    annotations = _load_judges(args.annotations, load_utility_annotation)
    graph = None
    if args.subsumption:
        subs = _load_judges(args.subsumption, lambda path: _judged_subsumption(path, annotations))
        graph = csis_consensus(subs, config.agreement_threshold)
    if config.r_grid is not None and args.extract:
        raise ValueError("--extract files are fixed to one rate; use --lead/--system with --r-grid")
    if config.r_grid is not None and not (args.lead or args.system):
        raise ValueError("--r-grid needs --lead and/or --system")
    if bool(args.idf) != bool(args.system):
        raise ValueError("--idf applies only with --system" if args.idf else "--system needs --idf to score sentences")
    fixed = {Path(path).stem: _load_extract_file(path, annotations, config.r) for path in args.extract or []}
    # --lead and --system often name the same file; each distinct path is parsed once
    paths = [path for path in dict.fromkeys((args.lead, args.system)) if path]
    clusters = {}
    for path in paths:
        clusters[path] = cluster = parse_cluster(path)
        _require_judged(path, annotations, "cluster", cluster.cluster_id, cluster.n)
    lead_cluster, system_cluster = clusters.get(args.lead), clusters.get(args.system)
    system_extracts = _score_and_select(system_cluster, args.idf, config) if system_cluster else {}
    reports = []
    for r in config.rates:
        systems = dict(fixed)
        if lead_cluster is not None:
            systems["lead"] = lead_baseline(lead_cluster, r).selected
        if system_extracts:
            systems["system"] = system_extracts[r].selected
        reports.append(report_to_dict(build_report(annotations, systems, r, graph, config.E)))
    out = _out_dir(args)
    if config.r_grid is not None:
        _write_d_grid(reports, _staged(args, out / "d_grid.csv"))
        print(f"wrote {out / 'd_grid.csv'}")
        return 0
    report = reports[0]
    write_json(report, _staged(args, out / "report.json"))
    _write_report_csv(report, _staged(args, out / "report.csv"))
    print(f"mean_j={report['mean_j']:.3f} random={report['random']:.3f}")
    for label, figures in sorted(report["systems"].items()):
        print(f"{label}: s={figures['s']:.3f} d={figures['d']:.3f}")
    return 0


def cmd_agreement(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if args.mode == "cbsu":
        annotations = _load_judges(args.annotations, load_utility_annotation)
        curve = agreement_curve(annotations, config.r_grid)
        path = _out_dir(args) / "agreement_curve.csv"
        _write_csv(_staged(args, path), ["r", "mean_j"], [[f"{r:.2f}", f"{mean_j:.3f}"] for r, mean_j in curve])
        print(f"wrote {path}")
        return 0
    if args.r_grid is not None:
        raise ValueError("--r-grid applies to --mode cbsu only")
    tally = csis_agreement_tally(_load_judges(args.annotations, load_subsumption_annotation))
    out = _out_dir(args)
    tally_path = out / "csis_tally.csv"
    rows = [[row.position, row.plus_score, row.minus_score] for row in tally.rows]  # None -> ""
    _write_csv(_staged(args, tally_path), ["position", "plus_score", "minus_score"], rows)
    hist_path = out / "csis_histogram.csv"
    histogram = sorted(tally.histogram.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    rows = [[level, sign, count] for (level, sign), count in histogram]
    _write_csv(_staged(args, hist_path), ["agreement", "sign", "sentences"], rows)
    print(f"wrote {tally_path} and {hist_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centroidsumm",
        description="Cluster news documents, extract summaries, and evaluate them against judges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_idf = sub.add_parser("idf", help="build an IDF model from a corpus directory")
    p_idf.add_argument("corpus_dir")
    p_idf.set_defaults(func=cmd_idf)
    p_cluster = sub.add_parser("cluster", help="group documents into event clusters")
    p_cluster.add_argument("docs_dir")
    p_cluster.add_argument("--idf", required=True, help="IDF model file")
    p_cluster.set_defaults(func=cmd_cluster)
    p_sum = sub.add_parser("summarize", help="extract a summary from a cluster file")
    p_sum.add_argument("cluster_file")
    p_sum.add_argument("--idf", required=True, help="IDF model file")
    p_sum.set_defaults(func=cmd_summarize)
    p_eval = sub.add_parser("evaluate", help="score extracts and baselines against judges")
    p_eval.add_argument("--annotations", nargs="+", required=True, help="utility annotation files")
    p_eval.add_argument("--extract", action="append", help="extract file to evaluate (repeatable)")
    p_eval.add_argument("--lead", help="cluster file; evaluate its lead baseline")
    p_eval.add_argument("--system", help="cluster file; evaluate a freshly scored extract")
    p_eval.add_argument("--idf", help="IDF model file (needed with --system)")
    p_eval.add_argument("--subsumption", nargs="+", help="subsumption annotation files")
    p_eval.set_defaults(func=cmd_evaluate)
    p_agree = sub.add_parser("agreement", help="inter-judge agreement tables")
    p_agree.add_argument("--mode", choices=["cbsu", "csis"], required=True)
    p_agree.add_argument("--annotations", nargs="+", required=True)
    p_agree.set_defaults(func=cmd_agreement)
    for command, command_parser in sub.choices.items():
        if command != "idf":
            command_parser.add_argument("--config", help="key=value settings file; flags override it")
        command_parser.add_argument("--out", help="output directory (default: current directory)")
        for key, entry in _SETTINGS.items():
            if command in entry.commands.split():
                command_parser.add_argument(_FLAGS[key], help=entry.help)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.staged = []
    try:
        code = args.func(args)
        _commit(args)
        return code
    except (ValueError, OSError) as exc:  # EvaluationError and JSONDecodeError are ValueErrors
        _remove_created(args)
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EvaluationError) else 2


if __name__ == "__main__":
    sys.exit(main())

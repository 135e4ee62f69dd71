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
import json
import math
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .evaluation import (
    EvalConfig,
    EvalReport,
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
    round_half_up,
)
from .lexstats import build_centroid, build_idf, incremental_cluster, load_idf, save_idf
from .summarizer import (
    PRESETS,
    Extract,
    ScoreWeights,
    extract,
    extract_to_dict,
    lead_baseline,
    redundancy_rerank,
    score_sentences,
    summary_text,
)
from .text import Cluster, cluster_from_dict, document_from_dict, parse_cluster, write_cluster


@dataclass(frozen=True)
class RunConfig:
    """Settings shared across subcommands; round-trips through key=value files."""

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
            EvalConfig(rate, self.E, self.agreement_threshold)
        for name in ("centroid_threshold", "sim_threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be a finite number, got {getattr(self, name)}")
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

    def to_file(self, path: str | Path) -> None:
        lines = [f"{key}={format_(self)}" for key, (_, format_) in _SETTINGS.items()]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        updates: dict = {}
        for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _SETTINGS:
                raise ValueError(f"{path}:{lineno}: unknown setting {key!r}")
            updates.update(_SETTINGS[key][0](value))
        return cls(**updates)


def _field(name: str, parse=float, format_=lambda value: f"{value:g}"):
    return lambda text: {name: parse(text)}, lambda config: format_(getattr(config, name))


# Settings-file key -> (parse its value into RunConfig fields, format it back).
# Entries call functions by name, so wrapped or patched ones see every call.
_SETTINGS = {
    "weights": (
        lambda text: dict(zip(("w_c", "w_p", "w_f"), parse_weights(text))),
        lambda c: f"{c.w_c:g},{c.w_p:g},{c.w_f:g}",
    ),
    "r": _field("r"),
    "r_grid": _field(
        "r_grid", lambda text: parse_r_grid(text) if text else None, lambda grid: format_r_grid(grid)
    ),
    "E": _field("E"),
    "centroid_threshold": _field("centroid_threshold"),
    "sim_threshold": _field("sim_threshold"),
    "agreement_threshold": _field("agreement_threshold", int, str),
    "redundancy": _field("redundancy", lambda text: parse_on_off(text), lambda on: "on" if on else "off"),
}


def parse_weights(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"weights need three comma-separated numbers, got {text!r}")
    return tuple(float(p) for p in parts)  # type: ignore[return-value]


def parse_r_grid(text: str) -> tuple[float, ...]:
    """Expand "start:stop:step" into an inclusive grid of rates."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"r grid must be start:stop:step, got {text!r}")
    start, stop, step = (float(p) for p in parts)
    if step <= 0 or start <= 0 or start > stop or stop > 1:
        raise ValueError(f"r grid {text!r} outside 0 < start <= stop <= 1 with step > 0")
    count = int(math.floor((stop - start) / step + 0.5)) + 1
    return tuple(round(start + i * step, 10) for i in range(count))


def format_r_grid(grid: tuple[float, ...] | None) -> str:
    if grid is None:
        return ""
    if len(grid) == 1:
        return f"{grid[0]:g}:{grid[0]:g}:1"
    return f"{grid[0]:g}:{grid[-1]:g}:{grid[1] - grid[0]:.10g}"


def parse_on_off(value: str) -> bool:
    if value not in ("on", "off"):
        raise ValueError(f"expected on or off, got {value!r}")
    return value == "on"


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, overridden by --config file, overridden by explicit flags.

    Each flag is named after its settings-file key and parsed the same way.
    """
    config = RunConfig.from_file(args.config) if getattr(args, "config", None) else RunConfig()
    updates = asdict(PRESETS[args.preset]) if getattr(args, "preset", None) else {}
    if getattr(args, "r", None) is not None:
        updates["r_grid"] = None  # an explicit rate replaces a configured grid
    for key, (parse, _) in _SETTINGS.items():
        value = getattr(args, key, None)
        if value is not None:
            updates.update(parse(value))
    return replace(config, **updates)


def _out_dir(args: argparse.Namespace) -> Path:
    out = Path(getattr(args, "out", None) or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(payload: dict, path: Path) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence, rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _r_tag(r: float) -> str:
    return f"r{int(round(r * 100)):02d}"


def _load_corpus_documents(corpus_dir: str) -> list:
    """Documents from a directory of document and/or cluster JSON files."""
    root = Path(corpus_dir)
    if not root.is_dir():
        raise ValueError(f"{corpus_dir}: not a directory")
    documents = []
    for path in sorted(root.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, dict) and "documents" in data:
            documents.extend(cluster_from_dict(data, where=str(path)).documents)
        else:
            documents.append(document_from_dict(data, where=str(path)))
    return documents


def cmd_idf(args: argparse.Namespace) -> int:
    documents = _load_corpus_documents(args.corpus_dir)
    if not documents:
        raise ValueError(f"{args.corpus_dir}: no documents found")
    model = build_idf(documents)
    out = _out_dir(args) / "idf.json"
    save_idf(model, out)
    print(f"wrote {out} ({model.n_docs} documents, {len(model.df)} terms)")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    documents = _load_corpus_documents(args.docs_dir)
    idf = load_idf(args.idf)
    clusters = incremental_cluster(
        documents,
        idf,
        sim_threshold=config.sim_threshold,
        centroid_threshold=config.centroid_threshold,
    )
    out = _out_dir(args)
    for cluster in clusters:
        write_cluster(cluster, out / f"{cluster.cluster_id}.json")
        print(f"{cluster.cluster_id}: {cluster.d} documents, {cluster.n} sentences")
    print(f"{len(clusters)} clusters")
    return 0


def _score_and_select(cluster: Cluster, idf_path: str, config: RunConfig) -> dict[float, Extract]:
    """Score the cluster once, then select its extract at each of the config's rates."""
    centroid = build_centroid(cluster, load_idf(idf_path), config.centroid_threshold)
    scores = score_sentences(cluster, centroid, config.weights)
    select = redundancy_rerank if config.redundancy else extract
    return {r: select(cluster, scores, r) for r in config.rates}


def cmd_summarize(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    cluster = parse_cluster(args.cluster_file)
    out = _out_dir(args)
    for r, ext in _score_and_select(cluster, args.idf, config).items():
        tag = _r_tag(r)
        _write_json(extract_to_dict(ext), out / f"extract_{cluster.cluster_id}_{tag}.json")
        text = summary_text(cluster, ext)
        (out / f"summary_{cluster.cluster_id}_{tag}.txt").write_text(text + "\n", encoding="utf-8")
        print(f"{cluster.cluster_id} {tag}: {ext.k} of {cluster.n} sentences -> {sorted(ext.selected)}")
    return 0


def _load_extract_file(path: str, annotations: Sequence[UtilityAnnotation]) -> list[int]:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        cluster_id, selected = str(data["cluster_id"]), sorted(int(p) for p in data["selected"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not an extract file: {exc}") from None
    if cluster_id != annotations[0].cluster_id:
        raise EvaluationError(
            f"extract {path} is for cluster {cluster_id!r}, "
            f"annotations are for {annotations[0].cluster_id!r}"
        )
    return selected


def _judged_cluster(path: str, annotations: Sequence[UtilityAnnotation]) -> Cluster:
    """Parse a cluster file and require it to be the one the judges annotated."""
    cluster = parse_cluster(path)
    judged = annotations[0]
    if (cluster.cluster_id, cluster.n) != (judged.cluster_id, judged.n):
        raise EvaluationError(
            f"{path}: cluster {cluster.cluster_id!r} has {cluster.n} sentences; the "
            f"annotations are for cluster {judged.cluster_id!r} with {judged.n}"
        )
    return cluster


def _judged_subsumption(path: str, annotations: Sequence[UtilityAnnotation]) -> SubsumptionAnnotation:
    """Load subsumption marks and require every position to lie in the judged cluster."""
    marks = load_subsumption_annotation(path)
    n = annotations[0].n
    highest = max((p for pos, targets in marks.subsumers.items() for p in (pos, *targets)), default=0)
    if highest > n:
        raise EvaluationError(f"{path}: subsumption position {highest} outside 1..{n} of the annotations")
    return marks


def _system_cells(report: EvalReport, label: str) -> list[str]:
    """s, d and, with subsumption, s_csis and d_csis of one system as table text."""
    cells = [f"{report.S[label]:.3f}", f"{round_half_up(report.D[label]):.3f}"]
    if report.E is not None:
        cells += [f"{report.S_csis[label]:.3f}", f"{round_half_up(report.D_csis[label]):.3f}"]
    return cells


def _write_report_csv(report: EvalReport, path: Path) -> None:
    """Judge-vs-judge table with per-judge means, then one row per system."""
    rows = [
        [judge_id, *(f"{value:.3f}" for value in row), f"{per_judge:.3f}"]
        for judge_id, row, per_judge in zip(report.judge_ids, report.J_matrix, report.J_per_judge)
    ]
    rows += [["mean_j", f"{report.mean_J:.3f}"], ["random", f"{report.R:.3f}"]]
    rows.append(["system", "s", "d"] + (["s_csis", "d_csis"] if report.E is not None else []))
    rows += [[label, *_system_cells(report, label)] for label in sorted(report.S)]
    _write_csv(path, ["judge", *report.judge_ids, "per_judge"], rows)


def _write_d_grid(reports: Sequence[EvalReport], path: Path) -> None:
    """One row per rate and system: s, random, mean_j, d (and the CSIS pair)."""
    header = ["r", "system", "s", "random", "mean_j", "d"]
    if reports[0].E is not None:
        header += ["s_csis", "d_csis"]
    rows = []
    for report in reports:
        for label in sorted(report.S):
            s, *d_and_csis = _system_cells(report, label)
            rows.append([f"{report.r:.2f}", label, s, f"{report.R:.3f}", f"{report.mean_J:.3f}"] + d_and_csis)
    _write_csv(path, header, rows)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    annotations = [load_utility_annotation(p) for p in args.annotations]
    graph = None
    if args.subsumption:
        subs = [_judged_subsumption(p, annotations) for p in args.subsumption]
        graph = csis_consensus(subs, config.agreement_threshold)
    if config.r_grid is not None and args.extract:
        raise ValueError("--extract files are fixed to one rate; use --lead/--system with --r-grid")
    if config.r_grid is not None and not (args.lead or args.system):
        raise ValueError("--r-grid needs --lead and/or --system")
    if args.system and not args.idf:
        raise ValueError("--system needs --idf to score sentences")
    fixed = {Path(path).stem: _load_extract_file(path, annotations) for path in args.extract or []}
    lead_cluster = _judged_cluster(args.lead, annotations) if args.lead else None
    system_cluster = _judged_cluster(args.system, annotations) if args.system else None
    system_extracts = _score_and_select(system_cluster, args.idf, config) if system_cluster else {}
    reports = []
    for r in config.rates:
        systems = dict(fixed)
        if lead_cluster is not None:
            systems["lead"] = lead_baseline(lead_cluster, r).selected
        if system_extracts:
            systems["system"] = system_extracts[r].selected
        reports.append(build_report(annotations, systems, r, graph, config.E))
    out = _out_dir(args)
    if config.r_grid is not None:
        _write_d_grid(reports, out / "d_grid.csv")
        print(f"wrote {out / 'd_grid.csv'}")
        return 0
    report = reports[0]
    _write_json(report_to_dict(report), out / "report.json")
    _write_report_csv(report, out / "report.csv")
    print(f"mean_j={report.mean_J:.3f} random={report.R:.3f}")
    for label in sorted(report.D):
        print(f"{label}: s={report.S[label]:.3f} d={report.D[label]:.3f}")
    return 0


def cmd_agreement(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    out = _out_dir(args)
    if args.mode == "cbsu":
        annotations = [load_utility_annotation(p) for p in args.annotations]
        curve = agreement_curve(annotations, config.r_grid)
        path = out / "agreement_curve.csv"
        _write_csv(path, ["r", "mean_j"], [[f"{r:.2f}", f"{mean_j:.3f}"] for r, mean_j in curve])
        print(f"wrote {path}")
        return 0
    annotations = [load_subsumption_annotation(p) for p in args.annotations]
    tally = csis_agreement_tally(annotations)
    tally_path = out / "csis_tally.csv"
    rows = [[row.position, row.plus_score, row.minus_score] for row in tally.rows]  # None -> ""
    _write_csv(tally_path, ["position", "plus_score", "minus_score"], rows)
    hist_path = out / "csis_histogram.csv"
    histogram = sorted(tally.histogram.items(), key=lambda kv: (-kv[0][0], kv[0][1]))
    rows = [[level, sign, count] for (level, sign), count in histogram]
    _write_csv(hist_path, ["agreement", "sign", "sentences"], rows)
    print(f"wrote {tally_path} and {hist_path}")
    return 0


def _add_common(parser: argparse.ArgumentParser, *, rates: bool = False, scoring: bool = False) -> None:
    parser.add_argument("--config", help="key=value settings file; flags override it")
    parser.add_argument("--out", help="output directory (default: current directory)")
    if rates:
        parser.add_argument("--r", type=float, help="compression rate in (0, 1]")
        parser.add_argument("--r-grid", dest="r_grid", help="rate grid start:stop:step, e.g. 0.1:0.9:0.1")
    if scoring:
        group = parser.add_mutually_exclusive_group()
        group.add_argument("--preset", choices=sorted(PRESETS), help="named weight combination")
        group.add_argument("--weights", help="w_c,w_p,w_f")
        parser.add_argument("--redundancy", choices=["on", "off"], help="rerank with the redundancy penalty")
        parser.add_argument("--centroid-threshold", dest="centroid_threshold", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centroidsumm",
        description="Cluster news documents, extract summaries, and evaluate them against judges.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_idf = sub.add_parser("idf", help="build an IDF model from a corpus directory")
    p_idf.add_argument("corpus_dir")
    p_idf.add_argument("--out", help="output directory (default: current directory)")
    p_idf.set_defaults(func=cmd_idf)

    p_cluster = sub.add_parser("cluster", help="group documents into event clusters")
    p_cluster.add_argument("docs_dir")
    p_cluster.add_argument("--idf", required=True, help="IDF model file")
    p_cluster.add_argument("--sim-threshold", dest="sim_threshold", type=float)
    p_cluster.add_argument("--centroid-threshold", dest="centroid_threshold", type=float)
    _add_common(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_sum = sub.add_parser("summarize", help="extract a summary from a cluster file")
    p_sum.add_argument("cluster_file")
    p_sum.add_argument("--idf", required=True, help="IDF model file")
    _add_common(p_sum, rates=True, scoring=True)
    p_sum.set_defaults(func=cmd_summarize)

    p_eval = sub.add_parser("evaluate", help="score extracts and baselines against judges")
    p_eval.add_argument("--annotations", nargs="+", required=True, help="utility annotation files")
    p_eval.add_argument("--extract", action="append", help="extract file to evaluate (repeatable)")
    p_eval.add_argument("--lead", help="cluster file; evaluate its lead baseline")
    p_eval.add_argument("--system", help="cluster file; evaluate a freshly scored extract")
    p_eval.add_argument("--idf", help="IDF model file (needed with --system)")
    p_eval.add_argument("--subsumption", nargs="+", help="subsumption annotation files")
    p_eval.add_argument("--E", dest="E", type=float, help="subsumption discount factor in [0, 1]")
    p_eval.add_argument("--agreement-threshold", dest="agreement_threshold", type=int)
    _add_common(p_eval, rates=True, scoring=True)
    p_eval.set_defaults(func=cmd_evaluate)

    p_agree = sub.add_parser("agreement", help="inter-judge agreement tables")
    p_agree.add_argument("--mode", choices=["cbsu", "csis"], required=True)
    p_agree.add_argument("--annotations", nargs="+", required=True)
    p_agree.add_argument("--r-grid", dest="r_grid", help="rate grid start:stop:step")
    _add_common(p_agree)
    p_agree.set_defaults(func=cmd_agreement)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # EvaluationError and JSONDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, EvaluationError) else 2


if __name__ == "__main__":
    sys.exit(main())

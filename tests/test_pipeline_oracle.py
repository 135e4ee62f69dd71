"""Differential test of the evaluate command against the oracles.

Each example draws a small cluster, an IDF model, utility judges, optional
subsumption judges and the settings: one rate or a rate grid, E, the agreement
threshold, weights or a preset, and the redundancy rerank. It runs
`evaluate --lead --system [--subsumption] [--r-grid]` and, at the first rate,
`evaluate --extract` on the oracle's own extracts, through main() in a
temporary directory. Every value of report.json and every cell of report.csv
or d_grid.csv must equal what oracle_evaluation.build_report gives for the
extracts of oracle_summarizer, with the consensus graph counted here; a run
exits 3 exactly when the oracle raises EvaluationError, and then writes no file.
"""

import csv
import json
import tempfile
import warnings
from collections import Counter
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracle_evaluation
import oracle_summarizer
from centroidsumm import (
    PRESETS,
    Cluster,
    EvaluationError,
    IdfModel,
    ScoreWeights,
    SubsumptionAnnotation,
    SubsumptionGraph,
    UtilityAnnotation,
    document_from_dict,
    parse_cluster,
    save_idf,
    write_cluster,
)
from centroidsumm.cli import main, parse_r_grid
from centroidsumm.text import write_json
from helpers import examples, save_subsumption_annotation, save_utility_annotation

WORDS = ["flood", "river", "rain", "dam", "warning", "city", "x"]
WEIGHTS = ["1,0,0", "1,1,1", "0.3,0,2.5", "0,0.7,0", "2,0.5,0"]


@st.composite
def cases(draw):
    """A cluster, an IDF model, utility and subsumption judges (maybe none), and the settings, each a dict
    from flag to value: the rate or rate grid, the --system scoring flags and the consensus flags."""
    pool = [" ".join(draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))) for _ in range(4)] + ["..."]
    docs = [
        document_from_dict({
            "doc_id": f"d{i}",
            "source": "wire",
            "timestamp": f"1999-05-20T0{i}:00:00Z",
            "sentences": draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4)),
        })
        for i in range(draw(st.integers(1, 3)))
    ]
    cluster = Cluster.build("c", docs)
    n_docs = draw(st.integers(1, 20))
    idf = IdfModel(n_docs=n_docs, df={w: draw(st.integers(1, n_docs)) for w in draw(st.sets(st.sampled_from(WORDS)))})
    utility = st.lists(st.integers(0, 10), min_size=cluster.n, max_size=cluster.n)
    judges = [UtilityAnnotation(f"J{j}", "c", tuple(draw(utility))) for j in range(draw(st.integers(2, 4)))]
    positions = st.integers(1, cluster.n)
    marks = [
        SubsumptionAnnotation(f"S{j}", "c", {
            pos: frozenset(draw(st.sets(positions, min_size=1, max_size=2)) - {pos})
            for pos in draw(st.sets(positions, max_size=4))
        })
        for j in range(draw(st.integers(0, 3)))
    ]
    if draw(st.booleans()):
        start, step = draw(st.integers(1, 60)), draw(st.integers(1, 30))
        stop = start + step * draw(st.integers(0, min(3, (100 - start) // step)))  # on the grid
        rate = {"--r-grid": f"{start / 100}:{stop / 100}:{step / 100}"}
    else:
        rate = {"--r": str(draw(st.integers(1, 100)) / 100)}
    score = {"--preset": draw(st.sampled_from(list(PRESETS)))} if draw(st.booleans()) else {
        "--weights": draw(st.sampled_from(WEIGHTS))
    }
    scoring = {**score, "--redundancy": draw(st.sampled_from(["on", "off"]))}
    consensus = {"--E": repr(draw(st.floats(0, 1))), "--agreement-threshold": str(draw(st.integers(1, len(marks))))
                 } if marks else {}
    return cluster, idf, judges, marks, rate, scoring, consensus


def expected_reports(cluster, idf, judges, marks, rate, scoring, consensus):
    """Each rate's extracts from the oracles, and its report as report.json holds it or None where the
    oracle raises EvaluationError."""
    rates = parse_r_grid(rate["--r-grid"]) if "--r-grid" in rate else (float(rate["--r"]),)
    preset = scoring.get("--preset")
    weights = PRESETS[preset] if preset else ScoreWeights(*map(float, scoring["--weights"].split(",")))
    scores = oracle_summarizer.score_sentences(cluster, oracle_summarizer.build_centroid(cluster, idf), weights)
    select = oracle_summarizer.redundancy_rerank if scoring["--redundancy"] == "on" else oracle_summarizer.extract
    graph, E = None, 1.0
    if marks:
        threshold, E = int(consensus["--agreement-threshold"]), float(consensus["--E"])
        support = Counter((pos, t) for ann in marks for pos, targets in ann.subsumers.items() for t in targets)
        graph = SubsumptionGraph("c", frozenset(edge for edge, count in support.items() if count >= threshold), threshold)
    results = []
    for r in rates:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the rerank's cap warning
            systems = {"lead": oracle_summarizer.lead_baseline(cluster, r).selected,
                       "system": select(cluster, scores, r).selected}
        try:
            report = oracle_evaluation.build_report(judges, systems, r, graph, E)
        except EvaluationError:
            results.append((systems, None))
            continue
        payload = {
            "cluster_id": report.cluster_id, "r": r, "k": report.k, "judges": list(report.judge_ids),
            "j_matrix": [list(row) for row in report.J_matrix], "j_per_judge": list(report.J_per_judge),
            "mean_j": report.mean_J, "random": report.R,
            "systems": {label: {"s": s, "d": oracle_evaluation.round_half_up(report.D[label])}
                        for label, s in report.S.items()},
        }
        if graph is not None:
            payload["e"] = E
            for label, s in report.S_csis.items():
                payload["systems"][label].update(s_csis=s, d_csis=oracle_evaluation.round_half_up(report.D_csis[label]))
        results.append((systems, payload))
    return rates, results


def cells(report, label):
    figures = report["systems"][label]
    return [f"{figures[key]:.3f}" for key in ("s", "d", "s_csis", "d_csis") if key in figures]


def report_rows(report):
    rows = [["judge", *report["judges"], "per_judge"]]
    for judge, row, per_judge in zip(report["judges"], report["j_matrix"], report["j_per_judge"]):
        rows.append([judge, *(f"{value:.3f}" for value in row), f"{per_judge:.3f}"])
    rows += [["mean_j", f"{report['mean_j']:.3f}"], ["random", f"{report['random']:.3f}"]]
    rows.append(["system", "s", "d"] + (["s_csis", "d_csis"] if "e" in report else []))
    return rows + [[label, *cells(report, label)] for label in sorted(report["systems"])]


def grid_rows(reports):
    rows = [["r", "system", "s", "random", "mean_j", "d"] + (["s_csis", "d_csis"] if "e" in reports[0] else [])]
    for report in reports:
        for label in sorted(report["systems"]):
            s, *rest = cells(report, label)
            rows.append([f"{report['r']:.2f}", label, s, f"{report['random']:.3f}", f"{report['mean_j']:.3f}", *rest])
    return rows


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def check_run(argv, out, reports, grid):
    """Run evaluate into `out`: exit 3 and no --out if a report is None, else the files of `reports`."""
    code = main([*argv, "--out", str(out)])
    if None in reports:
        assert code == 3 and not out.exists()
    elif grid:
        assert code == 0 and sorted(path.name for path in out.iterdir()) == ["d_grid.csv"]
        assert read_rows(out / "d_grid.csv") == grid_rows(reports)
    else:
        assert code == 0 and sorted(path.name for path in out.iterdir()) == ["report.csv", "report.json"]
        assert json.loads((out / "report.json").read_text(encoding="utf-8")) == reports[0]
        assert read_rows(out / "report.csv") == report_rows(reports[0])


def as_flags(flags):
    return [item for pair in flags.items() for item in pair]


@given(cases())
@settings(max_examples=examples(40), deadline=None)
def test_evaluate_equals_the_oracles(case):
    cluster, idf, judges, marks, rate, scoring, consensus = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_cluster(cluster, root / "c.json")
        save_idf(idf, root / "idf.json")
        judge_paths = [str(root / f"{ann.judge_id}.json") for ann in judges]
        for ann, path in zip(judges, judge_paths):
            save_utility_annotation(ann, path)
        mark_paths = [str(root / f"{ann.judge_id}.json") for ann in marks]
        for ann, path in zip(marks, mark_paths):
            save_subsumption_annotation(ann, path)
        rates, results = expected_reports(parse_cluster(root / "c.json"), idf, judges, marks, rate, scoring, consensus)
        subsumption = ["--subsumption", *mark_paths, *as_flags(consensus)] if marks else []
        baselines = ["--lead", str(root / "c.json"), "--system", str(root / "c.json"), "--idf", str(root / "idf.json")]
        argv = ["evaluate", "--annotations", *judge_paths, *baselines, *as_flags(scoring), *as_flags(rate), *subsumption]
        check_run(argv, root / "run", [report for _, report in results], "--r-grid" in rate)

        # the same judges on the oracle's extracts at the first rate, read from extract files
        systems, report = results[0]
        extracts = []
        for label, selected in systems.items():
            write_json({"cluster_id": "c", "selected": list(selected)}, root / f"{label}.json")
            extracts += ["--extract", str(root / f"{label}.json")]
        argv = ["evaluate", "--annotations", *judge_paths, *extracts, "--r", repr(rates[0]), *subsumption]
        check_run(argv, root / "extracts", [report], False)

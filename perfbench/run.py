#!/usr/bin/env python3
"""Benchmark of the centroidsumm command-line pipeline.

Usage (from the repository root):
    python3 perfbench/run.py --workload desk-grid --seed 1 --seconds 20 --trace 0

Generates the workload's inputs from the seed, times the one-time `idf`
build (set-up), then runs the workload's CLI invocations as child processes
in a closed loop with one client (one child at a time) for about --seconds,
in whole passes over the workload's invocation list. Every invocation's
output files are hashed and checked; one cluster per workload is recomputed
through the library and compared with the CLI's files.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
passes with passes run through traced_cli.py and reports per-layer metrics
for one set-up plus one pass, and the tracing overhead. The last line of
stdout is one JSON object: correct, attempted, failed, metrics. Everything
else goes to stderr; details land in .perfbench/<workload>/report.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

WORKLOADS = ("desk-grid", "rerank-large", "stream-cluster")
DEFAULT_SEED = 1
SETUP_REPEATS = 7
R_GRID = "0.1:0.9:0.1"
RATES = tuple(round(0.1 * i, 10) for i in range(1, 10))  # what R_GRID expands to
RERANK_RATE = 0.2
SIM_THRESHOLD = 0.1
# A fixed hash seed keeps dict and set layouts, and so their speed, the same
# from one run to the next; outputs do not depend on it.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}

END_TO_END_UNITS = {
    "setup_s": "s",
    "sentences_per_s": "1/s",
    "op_p50_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Functions whose calls and self time are reported for every workload.
TRACED_CALLS = (
    "summarizer.redundancy_rerank", "lexstats.build_centroid", "lexstats.assign_document",
    "summarizer.score_sentences", "summarizer.extract", "summarizer.lead_baseline",
    "summarizer.summary_text", "evaluation.build_report", "evaluation.report_cross_judge",
    "evaluation.agreement_curve", "evaluation.csis_consensus", "evaluation.load_utility_annotation",
    "text.parse_cluster", "text.cluster_from_dict", "text.document_from_dict", "text.write_cluster",
)
TRACED_SELF_ONLY = ("lexstats.incremental_cluster", "lexstats.build_idf", "cli.main")
TRACED_COUNTS = (
    "summarizer.rerank_sentences", "lexstats.clusters_out", "summarizer.sentences_scored",
    "text.sentences_in", "text.tokens_in",
)
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in TRACED_CALLS},
    **{f"{name}.self_s": "s" for name in TRACED_CALLS + TRACED_SELF_ONLY},
    **{name: "count" for name in TRACED_COUNTS},
    "lexstats.load_idf.calls": "count",
    "cli.score_reuse_ratio": "ratio",
    "cli.import_s": "s",
    "cli.invocations": "count",
    "cli.failed": "count",
    "trace.sentences_per_s_delta": "1/s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Item:
    """One CLI invocation of the workload; `sentences` is its input size."""

    id: str
    args: list[str]
    sentences: int


@dataclass
class Outcome:
    item: Item
    traced: bool
    code: int
    wall: float
    cpu: float
    rss_mb: float
    digest: str | None
    spans: Path | None = None
    failed: bool = False


def run_child(cmd: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one child to completion: exit code, wall s, user+sys CPU s, peak RSS MB."""
    with open(log, "wb") as sink:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=sink, stderr=subprocess.STDOUT, env=CHILD_ENV, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


def cli_command(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "centroidsumm.cli", *args]


def traced_command(args: list[str], spans: Path, invocation: str) -> list[str]:
    return [sys.executable, str(BENCH / "traced_cli.py"), str(spans), invocation, *args]


def output_digest(out: Path) -> str | None:
    """sha256 over every output file's name and bytes; None when there are none."""
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.is_dir() else []
    if not files:
        return None
    h = hashlib.sha256()
    for path in files:
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


class Workload:
    """Generated inputs, set-up model and invocation list of one workload run."""

    def __init__(self, name: str, seed: int, root: Path) -> None:
        self.name = name
        self.root = root
        self.inputs = root / "inputs"
        self.out = root / "out"
        self.logs = root / "logs"
        self.manifest = gen.generate(name, seed, self.inputs)
        self.idf = self.inputs / "models" / "idf.json"
        self.items = self._items()

    def out_dir(self, item: Item) -> Path:
        return self.out / item.id

    def _items(self) -> list[Item]:
        idf = ["--idf", str(self.idf)]
        items = []
        for info in self.manifest["clusters"]:
            cid, n = info["cluster_id"], info["n"]
            cluster = str(self.inputs / "clusters" / f"{cid}.json")
            if self.name == "rerank-large":
                items.append(Item(f"{cid}-rerank", ["summarize", cluster, *idf, "--r", str(RERANK_RATE),
                                                    "--redundancy", "on", "--preset", "pure-centroid"], n))
                continue
            judges = [str(p) for p in sorted((self.inputs / "judges" / cid).glob("*.json"))]
            scoring = ["--r-grid", R_GRID, "--preset", "lead-centroid"]
            evaluate = ["evaluate", "--annotations", *judges, "--system", cluster, "--lead", cluster, *idf, *scoring]
            if info["subsumption"]:
                evaluate += ["--subsumption", *(str(p) for p in sorted((self.inputs / "subsumption" / cid).glob("*.json")))]
            items += [
                Item(f"{cid}-summarize", ["summarize", cluster, *idf, *scoring], n),
                Item(f"{cid}-evaluate", evaluate, n),
                Item(f"{cid}-agreement", ["agreement", "--mode", "cbsu", "--annotations", *judges], n),
            ]
        if self.name == "stream-cluster":
            items.append(Item("cluster", ["cluster", str(self.inputs / "docs"), *idf,
                                          "--sim-threshold", str(SIM_THRESHOLD)],
                              self.manifest["corpus"]["sentences"]))
        return items

    def setup_args(self, out: Path) -> list[str]:
        return ["idf", str(self.inputs / "background"), "--out", str(out)]

    def invoke(self, item: Item, traced: bool, tag: str) -> Outcome:
        out = self.out_dir(item)
        shutil.rmtree(out, ignore_errors=True)
        args = [*item.args, "--out", str(out)]
        spans = None
        if traced:
            spans = self.root / "spans" / f"{item.id}.{tag}.json"
            cmd = traced_command(args, spans, f"{item.id}.{tag}")
        else:
            cmd = cli_command(args)
        code, wall, cpu, rss = run_child(cmd, self.logs / f"{item.id}.log")
        digest = output_digest(out) if code == 0 else None
        return Outcome(item, traced, code, wall, cpu, rss, digest, spans, failed=code != 0 or digest is None)


def set_up(workload: Workload, traced: bool) -> tuple[list[float], Path | None]:
    """Build the IDF model SETUP_REPEATS times (the last also traced when asked)."""
    walls = []
    digests = set()
    for i in range(SETUP_REPEATS):
        out = workload.root / "setup" / str(i)
        code, wall, _, _ = run_child(cli_command(workload.setup_args(out)), workload.logs / "setup.log")
        if code != 0:
            raise RuntimeError(f"idf set-up exited {code}; see {workload.logs / 'setup.log'}")
        walls.append(wall)
        digests.add(output_digest(out))
    if len(digests) != 1:
        raise RuntimeError("idf set-up is not deterministic")
    spans = None
    if traced:
        spans = workload.root / "spans" / "setup.json"
        code, _, _, _ = run_child(traced_command(workload.setup_args(workload.root / "setup" / "traced"),
                                                 spans, "setup"), workload.logs / "setup.log")
        if code != 0:
            raise RuntimeError(f"traced idf set-up exited {code}")
    workload.idf.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(out / "idf.json", workload.idf)
    return walls, spans


def measure(workload: Workload, seconds: float, trace: bool) -> list[list[Outcome]]:
    """Closed loop, one client: whole passes, ending within half a round of `seconds`.

    With tracing, each round is an untraced pass followed by a traced one.
    """
    kinds = (False, True) if trace else (False,)
    passes: list[list[Outcome]] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in kinds:
            passes.append([workload.invoke(item, traced, f"p{len(passes)}") for item in workload.items])
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds / 2 > seconds:
            return passes


def check_repeats(passes: list[list[Outcome]], expected: dict[str, str] | None) -> dict[str, str]:
    """Fail every invocation whose outputs differ from its first run or the recorded ones."""
    first: dict[str, str] = {}
    for outcome in (o for p in passes for o in p):
        if outcome.digest is None:
            continue
        reference = first.setdefault(outcome.item.id, outcome.digest)
        if expected is not None:
            reference = expected.get(outcome.item.id)
        if outcome.digest != reference:
            outcome.failed = True
    return first


def workload_digest(items: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{k}:{v}\n" for k, v in sorted(items.items())).encode()).hexdigest()


def library_check(workload: Workload) -> list[str]:
    """Recompute one cluster's outputs through the public library and diff them with the CLI's."""
    sys.path.insert(0, str(SRC))
    import centroidsumm as cs

    def dumped(payload: dict) -> str:
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def tag(r: float) -> str:
        return f"r{int(round(r * 100)):02d}"

    expected: dict[Path, str] = {}
    idf = cs.load_idf(workload.idf)
    item = workload.items[0]
    out = workload.out_dir(item)
    if workload.name == "stream-cluster":
        docs = [cs.document_from_dict(json.loads(p.read_text(encoding="utf-8")))
                for p in sorted((workload.inputs / "docs").glob("*.json"))]
        for cluster in cs.incremental_cluster(docs, idf, sim_threshold=SIM_THRESHOLD):
            expected[out / f"{cluster.cluster_id}.json"] = dumped(cs.cluster_to_dict(cluster))
    else:
        cluster = cs.parse_cluster(item.args[1])
        centroid = cs.build_centroid(cluster, idf)
        if workload.name == "rerank-large":
            scores = cs.score_sentences(cluster, centroid, cs.PURE_CENTROID)
            extracts = {RERANK_RATE: cs.redundancy_rerank(cluster, scores, RERANK_RATE)}
        else:
            scores = cs.score_sentences(cluster, centroid, cs.LEAD_CENTROID)
            extracts = {r: cs.extract(cluster, scores, r) for r in RATES}
        for r, ext in extracts.items():
            name = f"{cluster.cluster_id}_{tag(r)}"
            expected[out / f"extract_{name}.json"] = dumped(cs.extract_to_dict(ext))
            expected[out / f"summary_{name}.txt"] = cs.summary_text(cluster, ext) + "\n"
        if workload.name == "desk-grid":
            expected.update(_evaluation_files(cs, workload, cluster, extracts))
    produced = {p for p in out.rglob("*") if p.is_file()}
    mismatches = sorted(str(p) for p in produced - set(expected))
    mismatches += sorted(str(p) for p, text in expected.items()
                         if not p.is_file() or p.read_text(encoding="utf-8") != text)
    return mismatches


def _evaluation_files(cs, workload: Workload, cluster, extracts: dict) -> dict[Path, str]:
    """The d_grid.csv and agreement_curve.csv that desk-grid's first cluster must produce."""
    cid = cluster.cluster_id
    judges = [cs.load_utility_annotation(p) for p in sorted((workload.inputs / "judges" / cid).glob("*.json"))]
    subs = sorted((workload.inputs / "subsumption" / cid).glob("*.json"))
    graph = cs.csis_consensus([cs.load_subsumption_annotation(p) for p in subs], 3) if subs else None
    header = "r,system,s,random,mean_j,d" + (",s_csis,d_csis" if graph else "")
    rows = [header]
    for r in RATES:
        systems = {"lead": cs.lead_baseline(cluster, r).selected, "system": extracts[r].selected}
        report = cs.build_report(judges, systems, r, graph, 1.0)
        for label in sorted(report.S):
            row = f"{r:.2f},{label},{report.S[label]:.3f},{report.R:.3f},{report.mean_J:.3f},"
            row += f"{cs.round_half_up(report.D[label]):.3f}"
            if graph:
                row += f",{report.S_csis[label]:.3f},{cs.round_half_up(report.D_csis[label]):.3f}"
            rows.append(row)
    curve = ["r,mean_j"] + [f"{r:.2f},{j:.3f}" for r, j in cs.agreement_curve(judges)]
    return {
        workload.out / f"{cid}-evaluate" / "d_grid.csv": "\n".join(rows) + "\n",
        workload.out / f"{cid}-agreement" / "agreement_curve.csv": "\n".join(curve) + "\n",
    }


def end_to_end(setup_walls: list[float], passes: list[list[Outcome]]) -> dict[str, float]:
    outcomes = [o for p in passes for o in p]
    walls = [o.wall for o in outcomes]
    return {
        "setup_s": statistics.median(setup_walls),
        "sentences_per_s": sum(o.item.sentences for o in outcomes) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "cpu_s": sum(o.cpu for o in outcomes) / len(passes),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


def span_profile(paths: list[Path]) -> tuple[dict, list[str]]:
    """Aggregate span files: per-name calls and self time, counts, and problems found."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    inclusive_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    per_invocation = {}
    problems = []
    import_s = 0.0
    for path in paths:
        if not path.is_file():
            problems.append(f"{path.name}: the traced invocation wrote no spans")
            continue
        data = json.loads(path.read_text(encoding="utf-8"))
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for sid, parent, name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
            elif name != "cli.main":
                problems.append(f"{data['invocation']}: top-level span {name} outside cli.main")
        tops = [s for s in spans if s[1] is None]
        if len(tops) != 1:
            problems.append(f"{data['invocation']}: {len(tops)} cli.main spans")
        if data["escaped"]:
            problems.append(f"{data['invocation']}: unwrapped bindings {data['escaped']}")
        inclusive: dict[str, tuple[int, float]] = {}
        for sid, parent, name, start, end in spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[sid]
            inclusive_s[name] = inclusive_s.get(name, 0.0) + end - start
            n, t = inclusive.get(name, (0, 0.0))
            inclusive[name] = (n + 1, t + end - start)
        for name, value in data["counts"].items():
            counts[name] = counts.get(name, 0) + value
        import_s += data["import_s"]
        per_invocation[data["invocation"]] = {
            "score_sentences_calls": sum(1 for s in spans if s[2] == "summarizer.score_sentences"),
            "clusters_scored": data["counts"].get("cli.clusters_scored", 0),
            "per_call": inclusive,
        }
    return {"calls": calls, "self_s": self_s, "inclusive_s": inclusive_s, "counts": counts, "import_s": import_s,
            "invocations": per_invocation}, problems


def per_layer(profile: dict, traced_passes: int, untraced: dict, traced: dict, failed: int) -> dict[str, float]:
    """Per-layer metrics for one set-up plus one pass (pass totals divided by traced passes)."""
    calls, self_s, counts, setup = profile["calls"], profile["self_s"], profile["counts"], profile["setup"]

    def per_pass(total: float, at_setup: float = 0.0) -> float:
        return at_setup + total / traced_passes

    metrics: dict[str, float] = {}
    for name in TRACED_CALLS:
        metrics[f"{name}.calls"] = per_pass(calls.get(name, 0), setup["calls"].get(name, 0))
    for name in TRACED_CALLS + TRACED_SELF_ONLY:
        metrics[f"{name}.self_s"] = per_pass(self_s.get(name, 0.0), setup["self_s"].get(name, 0.0))
    for name in TRACED_COUNTS:
        metrics[name] = per_pass(counts.get(name, 0), setup["counts"].get(name, 0))
    metrics["lexstats.load_idf.calls"] = per_pass(calls.get("lexstats.load_idf", 0))
    scored = calls.get("summarizer.score_sentences", 0)
    metrics["cli.score_reuse_ratio"] = counts.get("cli.clusters_scored", 0) / scored if scored else 1.0
    metrics["cli.import_s"] = per_pass(profile["import_s"], setup["import_s"])
    metrics["cli.invocations"] = per_pass(calls.get("cli.main", 0), setup["calls"].get("cli.main", 0))
    metrics["cli.failed"] = failed
    metrics["trace.sentences_per_s_delta"] = traced["sentences_per_s"] - untraced["sentences_per_s"]
    metrics["trace.overhead_ratio"] = 1 - traced["sentences_per_s"] / untraced["sentences_per_s"]
    return metrics


def _top(shares: dict[str, float], n: int = 10) -> dict[str, float]:
    return dict(sorted(shares.items(), key=lambda kv: -kv[1])[:n])


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    root = WORK / workload_name
    shutil.rmtree(root, ignore_errors=True)
    workload = Workload(workload_name, seed, root)
    workload.logs.mkdir(parents=True)
    (root / "spans").mkdir()
    (root / "manifest.json").write_text(json.dumps(workload.manifest, indent=1, sort_keys=True) + "\n")
    setup_walls, setup_spans = set_up(workload, trace)
    passes = measure(workload, seconds, trace)

    recorded = json.loads((BENCH / "digests.json").read_text(encoding="utf-8")).get(workload_name)
    expected = recorded["items"] if seed == DEFAULT_SEED and recorded else None
    digests = check_repeats(passes, expected)
    digest = workload_digest(digests)
    problems = []
    if seed == DEFAULT_SEED and digest != (recorded or {}).get("digest"):
        problems.append(f"output digest {digest} differs from the one recorded for seed {DEFAULT_SEED}")
    mismatches = library_check(workload)
    if mismatches:
        problems.append(f"library recompute differs from CLI output: {mismatches[:5]}")
        passes[0][0].failed = True

    outcomes = [o for p in passes for o in p]
    untraced = [o for o in outcomes if not o.traced]
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)
    report = {
        "workload": workload_name, "seed": seed, "trace": trace,
        "inputs": {k: workload.manifest[k] for k in ("background", "corpus")},
        "sentences_per_pass": sum(i.sentences for i in workload.items),
        "invocations_per_pass": len(workload.items),
        "passes": len(passes),
        "invocations": [[o.item.id, o.traced, o.code, o.wall, o.cpu, o.rss_mb] for o in outcomes],
        "digest": digest, "item_digests": digests,
        "attempted": attempted, "failed": failed,
        "failed_ops_ratio": failed / attempted,
    }
    if len(untraced) >= 100:
        report["op_p90_s"] = statistics.quantiles([o.wall for o in untraced], n=10)[-1]
        report["op_p90_samples"] = len(untraced)
    kinds = {False: [p for p in passes if not p[0].traced], True: [p for p in passes if p[0].traced]}
    summary = {t: end_to_end(setup_walls, ps) for t, ps in kinds.items() if ps}
    if trace:
        profile, trace_problems = span_profile([o.spans for o in outcomes if o.traced])
        profile["setup"], setup_problems = span_profile([setup_spans])
        problems += trace_problems + setup_problems
        metrics = per_layer(profile, len(kinds[True]), summary[False], summary[True], failed)
        units = PER_LAYER_UNITS
        report["traced_per_call_s"] = {
            inv: {k: [calls, incl / calls] for k, (calls, incl) in info["per_call"].items()}
            for inv, info in profile["invocations"].items()
        }
        traced_s = profile["inclusive_s"]["cli.main"]
        report["self_share"] = _top({k: v / traced_s for k, v in profile["self_s"].items()})
        report["inclusive_share"] = _top({k: v / traced_s for k, v in profile["inclusive_s"].items()})
        report["score_reuse_by_invocation"] = {
            inv: [info["clusters_scored"], info["score_sentences_calls"]]
            for inv, info in profile["invocations"].items() if info["score_sentences_calls"]
        }
    else:
        metrics = summary[False]
        units = END_TO_END_UNITS
    report["problems"] = problems
    report["metrics"] = metrics
    (root / "report.json").write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    print(f"{workload_name} seed={seed}: {len(passes)} passes, {len(outcomes)} invocations, "
          f"{report['sentences_per_pass']} sentences per pass, failed_ops_ratio={report['failed_ops_ratio']:.3f}"
          + (f", op_p90_s={report['op_p90_s']:.4f} over {report['op_p90_samples']} invocations"
             if "op_p90_s" in report else ""), file=sys.stderr)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "centroidsumm" / "cli.py").is_file():
        print(f"error: {SRC / 'centroidsumm'} not found; run from a full checkout", file=sys.stderr)
        return 2
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Mutation checks: each entry breaks one guard in a copy of src/, and the tests it names must then fail.

Usage, from the repository root:
    python3 tests/mutations.py [NAME ...]

Each entry of MUTATIONS is (name, file under src/centroidsumm, exact old text, new text, tests). The
old text must occur exactly once in the file; an entry whose text no longer occurs fails the check,
so a refactor that moves a guard carries its mutation along. First the named tests of all entries
run once against an unmutated copy of src/ and must pass. Then each entry is applied to a fresh
copy, its tests run against it, and every one of them must fail. Prints one line per entry and
exits 1 if any entry is missing, survives or lets one of its tests pass. The tests run with the
hypothesis database in a temporary directory, so no example from a mutated run is kept.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutation(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


ORACLE = "tests/test_summarizer_oracle.py::"
USAGE = "tests/test_cli.py::TestUsageCheck::test_exits_2_before_the_judges_are_read"
FAILED_RUNS = "tests/test_cli.py::TestFailedRunsLeaveNothing::"
EVALUATE = "tests/test_cli.py::TestEvaluateCommand::"
COMMAND_CALL = (  # the lines of cli.main that run the command
    "        with redirect_stdout(StringIO()) as held:  # a run's result lines print only once its files are published\n"
    '            outputs = globals()[f"cmd_{args.command}"](args, config)  # looked up at the call, so a wrapped command runs\n'
)
GRAPH = "tests/test_evaluation.py::TestSubsumption::test_graph_of_another_cluster_rejected"
LOADERS = "tests/test_loader_errors.py::"

MUTATIONS = [
    # --- the redundancy rerank (summarizer._largest_overlaps and its counts) ---
    Mutation(
        "fold one member too many before a group reads its slots",
        "summarizer.py",
        "        for member in ranked[walked:count]:\n",
        "        for member in ranked[walked:count + 1]:\n",
        (ORACLE + "test_rerank_equals_reference_on_cases[tied finals, k=5]",),
    ),
    Mutation(
        "count the members at or above a final, not strictly above",
        "summarizer.py",
        "above = [len(ranked) - bisect_right(higher, final) for final in finals]",
        "above = [len(ranked) - bisect_left(higher, final) for final in finals]",
        (ORACLE + "test_rerank_equals_reference_on_cases[tied finals, k=5]",),
    ),
    Mutation(
        "fold members without terms, so a sum of lengths can be 0",
        "summarizer.py",
        "            if not length:\n                continue\n",
        "",
        (ORACLE + "test_rerank_equals_reference_on_cases[empty sentence first]",),
    ),
    Mutation(
        "read a group's slots when no member with terms was folded yet",
        "summarizer.py",
        "        if maxima:\n",
        "        if True:\n",
        (ORACLE + "test_rerank_equals_reference_on_cases[empty sentence first]",),
    ),
    Mutation(
        "take the slotwise maximum without guard bits",
        "summarizer.py",
        "t = ((a | guard) - b) & guard",
        "t = (a - b) & guard",
        (ORACLE + "test_rerank_equals_reference_on_cases[distinct member lengths]",),
    ),
    # --- certified pruning of the stream clustering (lexstats._Stream and _OpenCluster) ---
    Mutation(
        "drop the float margin",
        "lexstats.py",
        "            margin = (len(terms) + self.longest + 4) * 2.0**-48\n",
        "            margin = 0.0\n",
        (ORACLE + "test_clustering_equals_reference_on_known_ties[9]",
         ORACLE + "test_clustering_equals_reference_on_known_ties[26]"),
    ),
    Mutation(
        "prune a cluster whose widened bound equals the floor",
        "lexstats.py",
        "            if bounds[j] + margin < max(best, self.sim_threshold):\n",
        "            if bounds[j] + margin <= max(best, self.sim_threshold):\n",
        (ORACLE + "test_a_bound_equal_to_the_floor_is_scored",),
    ),
    Mutation(
        "pick the earliest contender instead of the exact fallback on a near tie",
        "lexstats.py",
        "            if len(contenders) == 1 and best > 0 and best - margin >= sim_threshold:\n",
        "            if best > 0 and best >= sim_threshold:\n",
        (ORACLE + "test_clustering_equals_reference_on_known_ties[9]",
         ORACLE + "test_clustering_equals_reference_after_the_fallback_joins[0]"),
    ),
    Mutation(
        "keep a term below the sure bound without testing it again",
        "lexstats.py",
        "                if totals[term] / d * idf_of(term) < threshold:\n",
        "                if False:\n",
        (ORACLE + "test_a_term_leaves_the_centroid_and_returns",),
    ),
    Mutation(
        "let a later candidate with an equal cosine win",
        "lexstats.py",
        "        if sim > best_sim:\n",
        "        if sim >= best_sim:\n",
        ("tests/test_lexstats.py::TestIncrementalCluster::test_a_tie_joins_the_earliest_cluster",),
    ),
    Mutation(
        "skip the term index update",
        "lexstats.py",
        "            holders[term].append(target)\n",
        "            pass\n",
        ("tests/test_lexstats.py::TestIncrementalCluster::test_near_duplicates_merge",
         ORACLE + "test_clustering_equals_reference_on_known_ties[33]"),
    ),
    Mutation(
        "list a cluster again under every kept term it adds",
        "lexstats.py",
        "        return compress(counts, map(not_, before))\n",
        "        return compress(counts, map(unscaled.__contains__, counts))\n",
        (ORACLE + "test_running_vector_keeps_the_centroid_terms",
         ORACLE + "test_clustering_equals_reference_after_the_fallback_joins[15]"),
    ),
    Mutation(
        "rebind the document's terms in the fallback loop",
        "lexstats.py",
        "                    kept, _, _, column = _centroid_terms(\n"
        "                        clusters[i].totals, len(clusters[i].docs), idf_of, self.centroid_threshold\n"
        "                    )\n"
        "                    centroid = dict(zip(kept, column))\n",
        "                    terms, _, _, column = _centroid_terms(\n"
        "                        clusters[i].totals, len(clusters[i].docs), idf_of, self.centroid_threshold\n"
        "                    )\n"
        "                    centroid = dict(zip(terms, column))\n",
        (ORACLE + "test_clustering_equals_reference_after_the_fallback_joins[15]",
         ORACLE + "test_clustering_equals_reference_on_known_ties[33]"),
    ),
    # --- the command line: lazily loaded layers, the launch's exit, the settings' ranges and the usage check ---
    Mutation(
        "import a name from evaluation when cli is imported",
        "cli.py",
        "from . import evaluation, lexstats, summarizer\n",
        "from . import evaluation, lexstats, summarizer\nfrom .evaluation import UtilityAnnotation\n",
        ("tests/test_cli.py::test_a_subcommand_runs_only_the_layers_it_calls[idf]",
         "tests/test_cli.py::test_a_subcommand_runs_only_the_layers_it_calls[summarize]"),
    ),
    Mutation(
        "exit without flushing stdout and stderr",
        "cli.py",
        "            stream.flush()\n",
        "            pass\n",
        ("tests/test_cli.py::test_a_launch_gives_the_bytes_and_code_of_main[idf]",),
    ),
    Mutation(
        "accept a negative threshold",
        "cli.py",
        "            if getattr(self, name) < 0:\n",
        "            if False:\n",
        ("tests/test_cli.py::TestNegativeThresholds::test_cluster_exits_2_naming_the_flag[sim_threshold]",
         "tests/test_cli.py::TestArgumentErrors::test_flag_and_config_line_give_the_same_error[centroid_threshold--5]"),
    ),
    Mutation(
        "leave an extract file's positions and size to the library's check of the system",
        "cli.py",
        'evaluation._check_fits(judged, f"{path}: selected", positions=selected, k=k)',
        "None",
        (EVALUATE + "test_out_of_range_extract_exits_3", EVALUATE + "test_wrong_size_extract_exits_3"),
    ),
    Mutation(
        "check usage after the command has read its judges",
        "cli.py",
        "        _check_usage(args, config)\n" + COMMAND_CALL,
        COMMAND_CALL + "        _check_usage(args, config)\n",
        (USAGE + "[idf-without-system-all-zero]", USAGE + "[extract-with-a-grid-flag-given-twice]"),
    ),
    Mutation(
        "drop a rule from the flag table",
        "cli.py",
        '            ("excludes", "extract", "--extract files are fixed to one rate; use --lead/--system with --r-grid"),\n',
        "",
        (USAGE + "[extract-with-a-grid-flag-missing]", USAGE + "[extract-with-a-grid-line-all-zero]",
         "tests/test_cli.py::TestEvaluateCommand::test_grid_rejects_fixed_extracts"),
    ),
    Mutation(
        "skip an empty --lead or --system path in evaluate",
        "cli.py",
        "    paths = [path for path in dict.fromkeys((args.lead, args.system)) if path is not None]\n",
        "    paths = [path for path in dict.fromkeys((args.lead, args.system)) if path]\n",
        ("tests/test_cli.py::test_an_empty_path_flag_is_read_and_exits_2[lead]",),
    ),
    Mutation(
        "read a settings line without = as an unknown key",
        "cli.py",
        '        if "=" not in line:\n',
        "        if False:\n",
        ("tests/test_cli.py::TestArgumentErrors::test_config_line_without_equals_exits_2",),
    ),
    Mutation(
        "list a corpus that is a file as an empty directory",
        "cli.py",
        "    if not root.is_dir():\n",
        "    if False:\n",
        ("tests/test_cli.py::TestIdfCommand::test_corpus_that_is_a_file_exits_2[idf]",
         "tests/test_cli.py::TestIdfCommand::test_corpus_that_is_a_file_exits_2[cluster]"),
    ),
    # --- the one step that writes --out (cli._publish) ---
    Mutation(
        "rename before checking that no directory holds an output name",
        "cli.py",
        "        for path in paths:\n            if path.is_dir():",
        "        for path in paths:\n            if False:",
        (FAILED_RUNS + "test_failed_write_keeps_the_files_it_would_replace",),
    ),
    Mutation(
        "leave the temporary files behind when a run fails",
        "cli.py",
        "        for path in (*temps, *new):\n",
        "        for path in new:\n",
        (FAILED_RUNS + "test_failed_write_removes_the_files_it_wrote",
         FAILED_RUNS + "test_a_failed_rename_removes_the_new_names[extract_alg_r20.json]"),
    ),
    Mutation(
        "keep the names a failed run gave before its failing rename",
        "cli.py",
        "    new = [path for path in paths if not path.exists()]\n",
        "    new = []\n",
        (FAILED_RUNS + "test_a_failed_rename_removes_the_new_names[summary_alg_r30.txt]",),
    ),
    Mutation(
        "print a run's result lines before its files are published",
        "cli.py",
        '        _publish(args.out, outputs)\n        print(held.getvalue(), end="")',
        '        print(held.getvalue(), end="")\n        _publish(args.out, outputs)',
        (FAILED_RUNS + "test_a_run_that_cannot_publish_prints_only_its_error[idf]",
         FAILED_RUNS + "test_a_run_that_cannot_publish_prints_only_its_error[summarize]"),
    ),
    Mutation(
        "keep the directories made for --out when a run fails",
        "cli.py",
        "                directory.rmdir()\n",
        "                pass\n",
        (FAILED_RUNS + "test_failed_write_removes_a_nested_out",),
    ),
    # --- the package and the summarizer's library guards ---
    Mutation(
        "answer None for every unknown package name",
        "__init__.py",
        '    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")\n',
        "    pass\n",
        ("tests/test_package.py::test_an_unknown_name_is_missing",),
    ),
    Mutation(
        "extract from fewer scores than sentences",
        "summarizer.py",
        '    """Keep the k sentences with the highest final scores, in cluster order."""\n    _check_scores(cluster, scores)\n',
        '    """Keep the k sentences with the highest final scores, in cluster order."""\n',
        ("tests/test_summarizer.py::TestExtract::test_too_few_scores_rejected[extract]",),
    ),
    Mutation(
        "rerank fewer scores than sentences",
        "summarizer.py",
        "    _check_scores(cluster, scores)\n    if any(score.penalty != 0 for score in scores):\n",
        "    if any(score.penalty != 0 for score in scores):\n",
        ("tests/test_summarizer.py::TestExtract::test_too_few_scores_rejected[redundancy_rerank]",),
    ),
    # --- the evaluator ---
    Mutation(
        "drop the file from a self-subsuming mark's error",
        "evaluation.py",
        "        return SubsumptionAnnotation(judge_id=judge_id, cluster_id=cluster_id, subsumers=subsumers)\n"
        "    except ValueError as exc:\n"
        '        raise ValueError(f"{path}: {exc}") from None\n',
        "        return SubsumptionAnnotation(judge_id=judge_id, cluster_id=cluster_id, subsumers=subsumers)\n"
        "    except ValueError as exc:\n"
        "        raise\n",
        ("tests/test_cli.py::TestAgreementCommand::test_csis_self_subsuming_mark_names_the_file",),
    ),
    Mutation(
        "let a judge set mix sizes",
        "evaluation.py",
        "        if utility and ann.n != first.n:\n",
        "        if False:\n",
        ("tests/test_evaluation.py::TestCrossJudge::test_rejects_mismatched_lengths",
         "tests/test_cli.py::TestJudgeFiles::test_mismatch_names_the_file[n-evaluate]"),
    ),
    Mutation(
        "let a judge set give one judge twice",
        "evaluation.py",
        "    if i is not None:\n",
        "    if False:\n",
        ("tests/test_evaluation.py::TestCrossJudge::test_rejects_a_judge_given_twice",
         "tests/test_cli.py::TestOneJudgeOneVote::test_utility_judge_given_twice_exits_3[evaluate]"),
    ),
    Mutation(
        "let a judge set hold a judge whose utilities are all 0",
        "evaluation.py",
        "        if not ann.best[-1]:\n",
        "        if False:\n",
        ("tests/test_evaluation.py::TestCrossJudge::test_rejects_all_zero_judge",
         "tests/test_cli.py::TestJudgeFiles::test_all_zero_judge_names_the_file[evaluate]"),
    ),
    Mutation(
        "ignore the files in a judge-set fault",
        "evaluation.py",
        '        return EvaluationError(f"{files[i]}: {text}{named}" if files else text)\n',
        "        return EvaluationError(text)\n",
        ("tests/test_cli.py::TestJudgeFiles::test_mismatch_names_the_file[cluster_id-agreement]",),
    ),
    # the one check that an evaluate input fits the judges: each rule's entry names a CLI and a library test
    Mutation(
        "let an input of another cluster or size fit the judges",
        "evaluation.py",
        "    if cluster_id not in (None, judged.cluster_id) or n not in (None, judged.n):\n",
        "    if False:\n",
        (EVALUATE + "test_cluster_not_judged_exits_3[n---lead]", GRAPH + "[another-cluster]"),
    ),
    Mutation(
        "let an input hold positions outside 1..n",
        "evaluation.py",
        "    if outside:\n",
        "    if False:\n",
        (EVALUATE + "test_out_of_range_extract_exits_3", "tests/test_evaluation_oracle.py::TestJudgeConsistency::"
         "test_position_outside_cluster"),
    ),
    Mutation(
        "let an input hold other than k positions",
        "evaluation.py",
        "    if k not in (None, len(positions)):\n",
        "    if False:\n",
        (EVALUATE + "test_wrong_size_extract_exits_3",
         "tests/test_evaluation.py::TestBuildReport::test_wrong_extract_size_rejected"),
    ),
    Mutation(
        "credit through a subsumption graph of another cluster",
        "evaluation.py",
        '"subsumption graph", graph.cluster_id,',
        '"subsumption graph", None,',
        (GRAPH + "[another-cluster]",),
    ),
    Mutation(
        "credit through a subsumption graph with positions outside 1..n",
        "evaluation.py",
        "graph.cluster_id, graph.neighbours)",
        "graph.cluster_id)",
        (GRAPH + "[beyond-n]", GRAPH + "[position-0]"),
    ),
    Mutation(
        "build a consensus at a threshold above the judge count",
        "evaluation.py",
        "    if threshold > len(annotations):  # no edge could reach it\n",
        "    if False:\n",
        ("tests/test_evaluation.py::TestSubsumption::test_consensus_threshold_above_the_judges_rejected",
         "tests/test_cli.py::TestStrictNumbers::test_threshold_above_the_subsumption_judges_exits_3[default]"),
    ),
    Mutation(
        "credit a subsumed extract member in full, not E times its utility",
        "evaluation.py",
        "            total += E * u\n",
        "            total += u\n",
        ("tests/test_evaluation.py::TestSubsumption::test_partial_discount",),
    ),
    # --- the one JSON field reader (text._fields, _json and _json_ints) ---
    Mutation(
        "read a file that is not an object as one",
        "text.py",
        "    if not isinstance(data, dict):\n        raise error(",
        "    if False:\n        raise error(",
        (LOADERS + "test_not_an_object[array-utility]", LOADERS + "test_extract_file[string]"),
    ),
    Mutation(
        "read a missing field without naming it",
        "text.py",
        "        if name not in data:\n",
        "        if False:\n",
        (LOADERS + "test_first_missing_field_is_named[subsumption]", LOADERS + "test_extract_file[no-selected]"),
    ),
    Mutation(
        "accept a field of the wrong kind",
        "text.py",
        "    if type(value) is not kind and (kind is int or not isinstance(value, kind)):\n",
        "    if False:\n",
        (LOADERS + "test_field_of_the_wrong_kind[subsumption-subsumers-array]",
         LOADERS + "test_document_from_dict[change11-doc.doc_id: must be a string, got 5]"),
    ),
    Mutation(
        "take a bool for an integer",
        "text.py",
        "(kind is int or not isinstance(value, kind))",
        "(not isinstance(value, kind))",
        (LOADERS + "test_field_of_the_wrong_kind[idf-n_docs-bool]", LOADERS + "test_extract_file[selected-element]"),
    ),
    Mutation(
        "let an array of integers hold another value when the one-pass check fails",
        "text.py",
        "            _json(value, int, where)\n",
        "            pass\n",
        (LOADERS + "test_extract_file[selected-element]",),
    ),
]


def copy_of_src(tmp: Path, mutation: Mutation | None = None) -> Path:
    """src/ copied under tmp, with the mutation applied; a ValueError if its old text is not there once."""
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    if mutation is not None:
        path = src / "centroidsumm" / mutation.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutation.old) != 1:
            raise ValueError(f"its old text occurs {text.count(mutation.old)} times in {mutation.file}, not once")
        path.write_text(text.replace(mutation.old, mutation.new), encoding="utf-8")
    return src


def failed_tests(src: Path, tests: list[str], cwd: Path) -> set[str] | None:
    """The named tests that fail against src, or None if pytest did not run them all."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
               *(str(ROOT / test) for test in tests)]
    result = subprocess.run(command, cwd=cwd, env=env, capture_output=True, text=True)
    if result.returncode not in (0, 1):
        print(result.stdout[-2000:] + result.stderr[-2000:], file=sys.stderr)
        return None
    # pytest names a failed test by its path from cwd; name it from the repository root, as the table does
    failed = {
        (cwd / path).resolve().relative_to(ROOT).as_posix() + "::" + test
        for path, test in re.findall(r"^FAILED (\S+?)::(.*?)(?: - .*)?$", result.stdout, re.MULTILINE)
    }
    summary = re.search(r"(\d+) passed", result.stdout)
    ran = len(failed) + (int(summary.group(1)) if summary else 0)
    return failed if ran == len(tests) else None


def main(names: list[str]) -> int:
    unknown = set(names) - {mutation.name for mutation in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [mutation for mutation in MUTATIONS if not names or mutation.name in names]
    problems = 0
    with tempfile.TemporaryDirectory() as tmp:
        tests = sorted({test for mutation in chosen for test in mutation.tests})
        failed = failed_tests(copy_of_src(Path(tmp) / "unmutated"), tests, Path(tmp))
        if failed != set():
            print(f"the unmutated copy does not pass: {sorted(failed) if failed else 'pytest did not run'}")
            return 1
        print(f"unmutated copy: {len(tests)} tests pass")
        for i, mutation in enumerate(chosen):
            try:
                src = copy_of_src(Path(tmp) / f"m{i}", mutation)
            except ValueError as exc:
                problems += 1
                print(f"MISSING  {mutation.name}: {exc}")
                continue
            failed = failed_tests(src, list(mutation.tests), Path(tmp))
            survived = None if failed is None else [test for test in mutation.tests if test not in failed]
            problems += survived != []
            status = "caught" if survived == [] else "pytest did not run" if survived is None else "SURVIVED"
            print(f"{status:8} {mutation.name}" + (f" (passing: {', '.join(survived)})" if survived else ""))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Tests of the benchmark itself (not of centroidsumm).

Run from the repository root: python3 perfbench/selftest.py
Takes about half a minute; it runs the stream-cluster workload three times.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import run  # noqa: E402

SCRATCH = run.WORK / "selftest"


def bench_result(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(run.BENCH / "run.py"), *args],
                          capture_output=True, text=True, cwd=run.ROOT, check=True, timeout=170)
    return json.loads(done.stdout.strip().splitlines()[-1])


class GeneratorTest(unittest.TestCase):
    def tearDown(self) -> None:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    def test_seed_fixes_input_hashes(self) -> None:
        for workload in run.WORKLOADS:
            first = gen.generate(workload, 7, SCRATCH / workload / "a")
            again = gen.generate(workload, 7, SCRATCH / workload / "b")
            other = gen.generate(workload, 8, SCRATCH / workload / "c")
            self.assertEqual(first, again, workload)
            self.assertEqual(first["inputs"].keys(), other["inputs"].keys(), workload)
            changed = [k for k in first["inputs"] if first["inputs"][k] != other["inputs"][k]]
            self.assertEqual(len(changed), len(first["inputs"]), workload)
            for part in ("background", "corpus"):
                self.assertEqual(first[part]["sentences"], other[part]["sentences"], workload)


class ResultTest(unittest.TestCase):
    def test_every_named_metric_is_emitted_with_its_unit(self) -> None:
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for trace, key, units in (("0", "end_to_end", run.END_TO_END_UNITS), ("1", "per_layer", run.PER_LAYER_UNITS)):
            result = bench_result("--workload", "stream-cluster", "--seed", str(run.DEFAULT_SEED),
                                  "--seconds", "1", "--trace", trace)
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)
            named = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(named, units)
            self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, named)
            for name, metric in result["metrics"].items():
                self.assertIsInstance(metric["value"], (int, float), name)

    def test_injected_failing_invocation_counts_as_failed(self) -> None:
        items = run.Workload._items

        def with_bad_item(workload: run.Workload) -> list[run.Item]:
            bad = run.Item("missing-input", ["summarize", str(workload.inputs / "nope.json"),
                                             "--idf", str(workload.idf)], 10)
            return [*items(workload), bad]

        run.Workload._items = with_bad_item
        try:
            result = run.run("stream-cluster", run.DEFAULT_SEED, 0.1, False)
        finally:
            run.Workload._items = items
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], 2)
        self.assertEqual(result["failed"], 1)
        report = json.loads((run.WORK / "stream-cluster" / "report.json").read_text(encoding="utf-8"))
        self.assertEqual(report["failed_ops_ratio"], 0.5)


if __name__ == "__main__":
    unittest.main()

"""Clustering at benchmark scale against the reference implementation.

Usage, from the repository root:
    python3 tests/clustering_at_scale.py

Generates the stream-cluster inputs of perfbench seeds 1 and 2 into a
temporary directory through perfbench/gen.py, builds the IDF model from their
background documents, as the benchmark's `idf` set-up does, and compares
`incremental_cluster` with `oracle_summarizer.incremental_cluster` on every
setting of the grid below. Prints one line per setting and exits 1 if any
clustering differs. The reference takes seconds per setting, so this runs
outside tier-1.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

import centroidsumm as cs  # noqa: E402
import gen  # noqa: E402
import oracle_summarizer as oracle  # noqa: E402

SEEDS = (1, 2)
SIM_THRESHOLDS = (0.0, 0.1, 0.3, 1.0)
CENTROID_THRESHOLDS = (0.0, 0.1, 1.0, 5.0)


def documents(folder: Path) -> list[cs.Document]:
    return [
        cs.document_from_dict(json.loads(path.read_text(encoding="utf-8")), str(path))
        for path in sorted(folder.glob("*.json"))
    ]


def main() -> int:
    differences = 0
    for seed in SEEDS:
        with tempfile.TemporaryDirectory() as tmp:
            gen.generate("stream-cluster", seed, Path(tmp))
            docs = documents(Path(tmp) / "docs")
            idf = cs.build_idf(documents(Path(tmp) / "background"))
        for sim_threshold in SIM_THRESHOLDS:
            for centroid_threshold in CENTROID_THRESHOLDS:
                got = cs.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)
                same = got == oracle.incremental_cluster(docs, idf, sim_threshold, centroid_threshold)
                differences += not same
                print(
                    f"seed {seed}, sim_threshold {sim_threshold}, centroid_threshold {centroid_threshold}: "
                    f"{len(got)} clusters, {'equal to' if same else 'DIFFERENT FROM'} the reference",
                    flush=True,
                )
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())

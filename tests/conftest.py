from pathlib import Path

import pytest
from hypothesis import settings

from centroidsumm import SubsumptionAnnotation, UtilityAnnotation, parse_cluster

FIXTURES = Path(__file__).parent / "fixtures"

# For CI: pytest --hypothesis-profile=ci. The differential tests against the
# oracles take helpers.examples(floor) examples: 1000 under this profile, their
# own floor under the default one, so a local run stays as fast as it was.
settings.register_profile("ci", max_examples=1000, deadline=None)

# three judges scoring a four-sentence cluster, 0-10 each
JUDGE_UTILITIES = {
    "J1": (10, 8, 2, 5),
    "J2": (10, 9, 3, 6),
    "J3": (5, 8, 4, 9),
}

# five judges marking subsumption over a two-article cluster; the second
# article's sentence j sits at global position 11 + j
SUBSUMPTION_MARKS = {
    "J1": {2: (16,), 4: (21,)},
    "J2": {1: (12,), 2: (16,), 4: (21,), 5: (12,)},
    "J3": {1: (12,), 4: (21,)},
    "J4": {5: (13,)},
    "J5": {1: (12,), 2: (16,), 3: (21,), 4: (21,), 5: (15,), 6: (18,), 7: (19,)},
}


@pytest.fixture
def judges() -> list[UtilityAnnotation]:
    return [
        UtilityAnnotation(judge_id, "quad", utilities)
        for judge_id, utilities in JUDGE_UTILITIES.items()
    ]


@pytest.fixture
def subsumption_judges() -> list[SubsumptionAnnotation]:
    return [
        SubsumptionAnnotation(
            judge_id,
            "pair",
            {pos: frozenset(targets) for pos, targets in marks.items()},
        )
        for judge_id, marks in SUBSUMPTION_MARKS.items()
    ]


@pytest.fixture
def news_cluster():
    return parse_cluster(FIXTURES / "cluster_alg.json")


@pytest.fixture
def news_cluster_path() -> Path:
    return FIXTURES / "cluster_alg.json"

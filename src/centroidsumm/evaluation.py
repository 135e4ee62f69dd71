"""Utility-based evaluation of sentence extracts.

Judges assign every sentence a 0-10 utility. From those vectors this module
derives, at a given compression rate:

  J  cross-judge agreement: how well each judge's own extract satisfies the
     other judges' utilities (an asymmetric matrix; its mean is the upper
     reference for system scores),
  R  random performance: the expected score of a uniformly random extract
     (the lower reference), by full enumeration or the exact closed form,
  S  system performance: mean over judges of credited utility divided by
     that judge's maximum achievable utility,
  D  normalized performance: (S - R) / (J - R).

Subsumption annotations mark sentences whose information is contained in
other sentences. A consensus graph over them discounts, by a factor E, the
credit of any extract sentence whose subsumption partner was already
credited, so redundant selections can be punished or ignored. Legacy
precision/recall and percent agreement are included for comparison.

J, R and S are means over judges of one per-judge ratio (credited utility
over that judge's best k-sentence utility), computed in full precision.
Report construction instead rounds half-up to 3 decimals at each aggregation
step (per-judge ratios, their mean, and the S/R/J inputs of D), which is the
arithmetic the reference result tables were produced with.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from math import fsum
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .summarizer import compression_size, enumerate_extracts, DEFAULT_ENUMERATION_CAP
from .text import _json_int


class EvaluationError(ValueError):
    """An evaluation precondition does not hold for the given data."""


@dataclass(frozen=True)
class UtilityAnnotation:
    """One judge's 0-10 utility for every sentence of a cluster.

    utilities[i] belongs to global position i + 1; every position gets
    exactly one value.
    """

    judge_id: str
    cluster_id: str
    utilities: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.utilities:
            raise ValueError(f"judge {self.judge_id!r}: empty utility vector")
        for i, u in enumerate(self.utilities):
            if not 0 <= u <= 10:
                raise ValueError(
                    f"judge {self.judge_id!r}: utility {u} at position {i + 1} outside 0..10"
                )

    @property
    def n(self) -> int:
        return len(self.utilities)

    def utility(self, position: int) -> int:
        return self.utilities[position - 1]


@dataclass(frozen=True)
class SubsumptionAnnotation:
    """One judge's subsumption marks: position -> the positions subsuming it."""

    judge_id: str
    cluster_id: str
    subsumers: Mapping[int, frozenset[int]]

    def __post_init__(self) -> None:
        for position, targets in self.subsumers.items():
            if position in targets:
                raise ValueError(
                    f"judge {self.judge_id!r}: sentence {position} cannot subsume itself"
                )

    def subsumers_of(self, position: int) -> frozenset[int]:
        return self.subsumers.get(position, frozenset())


@dataclass(frozen=True)
class SubsumptionGraph:
    """Consensus subsumption edges: (a, b) means a's content is contained in b's.

    Mutual edges are allowed; mutually subsuming sentences form an
    equivalence class and are interchangeable.
    """

    cluster_id: str
    edges: frozenset[tuple[int, int]]
    agreement_threshold: int

    def related(self, a: int, b: int) -> bool:
        return (a, b) in self.edges or (b, a) in self.edges


@dataclass(frozen=True)
class EvalConfig:
    r: float
    E: float = 1.0
    agreement_threshold: int = 3

    def __post_init__(self) -> None:
        if not 0 < self.r <= 1:
            raise ValueError(f"compression rate must be in (0, 1], got {self.r}")
        if not 0 <= self.E <= 1:
            raise ValueError(f"E must be in [0, 1], got {self.E}")
        if self.agreement_threshold < 1:
            raise ValueError("agreement threshold must be >= 1")


def judge_extract(annotation: UtilityAnnotation, k: int) -> frozenset[int]:
    """The k positions this judge values most, ties to the earlier position."""
    if not 1 <= k <= annotation.n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={annotation.n}")
    ranked = sorted(range(1, annotation.n + 1), key=lambda pos: (-annotation.utility(pos), pos))
    return frozenset(ranked[:k])


def max_utility(annotation: UtilityAnnotation, k: int) -> int:
    """The most utility any k-sentence extract can earn from this judge."""
    return sum(annotation.utility(pos) for pos in judge_extract(annotation, k))


def extract_utility(
    extract: Iterable[int],
    annotation: UtilityAnnotation,
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> float:
    """Utility an extract earns from one judge, optionally subsumption-discounted.

    With a graph, extract members are credited in ascending position order; a
    member linked (in either direction) to an already-credited member earns
    E times its utility, so later members of an equivalence class are
    discounted while the earliest earns full credit. A subsumed sentence
    whose partner is absent from the extract keeps full credit.
    """
    positions = sorted(set(extract))
    if graph is None:
        return float(sum(annotation.utility(pos) for pos in positions))
    total = 0.0
    credited: list[int] = []
    for pos in positions:
        u = annotation.utility(pos)
        if any(graph.related(pos, earlier) for earlier in credited):
            total += E * u
        else:
            total += u
        credited.append(pos)
    return total


def _check_judges(annotations: Sequence[UtilityAnnotation], minimum: int = 1) -> int:
    """The one judge-consistency check: enough judges, one cluster, one n (returned)."""
    if len(annotations) < minimum:
        raise EvaluationError(f"need at least {minimum} judge{'s' if minimum > 1 else ''}")
    first = annotations[0]
    for ann in annotations[1:]:
        if ann.cluster_id != first.cluster_id:
            raise EvaluationError(
                f"annotations mix clusters {first.cluster_id!r} and {ann.cluster_id!r}"
            )
        if ann.n != first.n:
            raise EvaluationError(
                f"judge {ann.judge_id!r} annotated {ann.n} sentences, expected {first.n}"
            )
    return first.n


def _maxima(annotations: Sequence[UtilityAnnotation], k: int) -> list[int]:
    """Each judge's best k-sentence utility, the denominator of every ratio."""
    maxima = [max_utility(ann, k) for ann in annotations]
    for ann, m in zip(annotations, maxima):
        if m == 0:
            raise EvaluationError(
                f"judge {ann.judge_id!r} assigns zero utility everywhere; ratios undefined"
            )
    return maxima


# Per-judge ratio producers: credited utility over that judge's maximum, one
# ratio per judge (one row per extracting judge for the cross-judge matrix).


def _cross_judge_ratios(
    annotations: Sequence[UtilityAnnotation], k: int, maxima: Sequence[int]
) -> list[list[float]]:
    extracts = [judge_extract(ann, k) for ann in annotations]
    return [[extract_utility(e, ann) / m for ann, m in zip(annotations, maxima)] for e in extracts]


def _system_ratios(
    label: str,
    extract: Iterable[int],
    annotations: Sequence[UtilityAnnotation],
    maxima: Sequence[int] | None = None,
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> list[float]:
    positions = sorted(set(extract))
    if maxima is None:  # a standalone score; no caller checked the judges
        _check_judges(annotations)
        maxima = _maxima(annotations, len(positions))
    n = annotations[0].n
    outside = [pos for pos in positions if not 1 <= pos <= n]
    if outside:
        raise EvaluationError(f"system {label!r} selects position {outside[0]}, outside 1..{n}")
    return [extract_utility(positions, ann, graph, E) / m for ann, m in zip(annotations, maxima)]


def _random_ratios(
    annotations: Sequence[UtilityAnnotation], k: int, maxima: Sequence[int]
) -> list[float]:
    """Per-judge expected ratio of a uniform random k-subset (exact)."""
    return [k * (fsum(ann.utilities) / ann.n) / m for ann, m in zip(annotations, maxima)]


# Aggregations. The reference result tables round half-up to 3 decimals at
# every step: per-judge ratios (or matrix entries) first, then the mean of the
# rounded values, and D from the rounded S, R and J. Reproducing them exactly
# requires the same chain in Decimal; everything else stays full precision.

_QUANTUM = Decimal("0.001")


def _exact_mean(values: Sequence[float]) -> float:
    return fsum(values) / len(values)


def _table_mean(values: Iterable[float]) -> float:
    """Round each value, then round the Decimal mean of the rounded values."""
    rounded = [Decimal(str(v)).quantize(_QUANTUM, rounding=ROUND_HALF_UP) for v in values]
    mean = sum(rounded, Decimal(0)) / len(rounded)
    return float(mean.quantize(_QUANTUM, rounding=ROUND_HALF_UP))


def _matrix_means(
    matrix: Sequence[Sequence[float]], mean: Callable[[Sequence[float]], float]
) -> tuple[tuple[float, ...], float]:
    per_judge = tuple(
        mean([value for j, value in enumerate(row) if j != i]) for i, row in enumerate(matrix)
    )
    return per_judge, mean(per_judge)


def _check_above_chance(mean_J: float, R: float) -> None:
    if mean_J <= R:
        raise EvaluationError("judges agree no better than chance (J <= R)")


def _table_normalized(S: float, mean_J: float, R: float) -> float:
    s, j, r = (Decimal(str(v)) for v in (S, mean_J, R))
    return float((s - r) / (j - r))


def cross_judge_matrix(
    annotations: Sequence[UtilityAnnotation], r: float
) -> list[list[float]]:
    """J[i][j]: how much of judge j's maximum utility judge i's extract earns."""
    k = compression_size(_check_judges(annotations, 2), r)
    return _cross_judge_ratios(annotations, k, _maxima(annotations, k))


def mean_cross_judge(matrix: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], float]:
    """Per-judge agreement (row mean excluding the diagonal) and its mean."""
    return _matrix_means(matrix, _exact_mean)


def report_cross_judge(
    annotations: Sequence[UtilityAnnotation], r: float
) -> tuple[list[list[float]], tuple[float, ...], float]:
    """Table-style J: rounded matrix, rounded per-judge means, rounded mean."""
    matrix = cross_judge_matrix(annotations, r)
    per_judge, mean_j = _matrix_means(matrix, _table_mean)
    return [[round_half_up(value) for value in row] for row in matrix], per_judge, mean_j


def system_performance(
    extract: Iterable[int],
    annotations: Sequence[UtilityAnnotation],
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> float:
    """Mean over judges of credited utility over that judge's achievable maximum.

    The judges' maxima stay undiscounted; only the evaluated extract's credit
    is subject to the subsumption discount.
    """
    return _exact_mean(_system_ratios("extract", extract, annotations, None, graph, E))


def report_system_performance(
    extract: Iterable[int],
    annotations: Sequence[UtilityAnnotation],
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> float:
    """Table-style S: each judge's ratio rounded before the rounded mean."""
    return _table_mean(_system_ratios("extract", extract, annotations, None, graph, E))


def random_performance(
    annotations: Sequence[UtilityAnnotation],
    r: float,
    mode: str = "closed_form",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Expected performance of a uniformly random k-sentence extract.

    "enumerate" averages the system performance of every k-subset;
    "closed_form" uses linearity of expectation: a random k-subset earns
    k * mean(utility) from each judge. The two agree exactly.
    """
    n = _check_judges(annotations)
    k = compression_size(n, r)
    maxima = _maxima(annotations, k)
    if mode == "enumerate":
        return _exact_mean([
            _exact_mean(_system_ratios("subset", subset, annotations, maxima))
            for subset in enumerate_extracts(n, k, cap)
        ])
    if mode == "closed_form":
        return _exact_mean(_random_ratios(annotations, k, maxima))
    raise ValueError(f"unknown mode {mode!r}; use 'enumerate' or 'closed_form'")


def report_random_performance(annotations: Sequence[UtilityAnnotation], r: float) -> float:
    """Table-style R over the closed-form per-judge expectations."""
    k = compression_size(_check_judges(annotations), r)
    return _table_mean(_random_ratios(annotations, k, _maxima(annotations, k)))


def normalized_performance(S: float, mean_J: float, R: float) -> float:
    """D = (S - R) / (J - R): 0 at chance level, 1 at judge level.

    Only meaningful when the judges agree better than randomly (J > R); D may
    exceed 1 when a system beats the judges.
    """
    _check_above_chance(mean_J, R)
    return (S - R) / (mean_J - R)


def precision_recall(system: Iterable[int], ideal: Iterable[int]) -> tuple[float, float]:
    system_set, ideal_set = set(system), set(ideal)
    if not system_set or not ideal_set:
        raise ValueError("precision/recall need non-empty extracts")
    hits = len(system_set & ideal_set)
    return hits / len(system_set), hits / len(ideal_set)


def percent_agreement(system: Iterable[int], ideal: Iterable[int], n: int) -> float:
    """Fraction of the n in-or-out decisions on which the two extracts match."""
    disagreements = len(set(system) ^ set(ideal))
    return (n - disagreements) / n


def ideal_extract(annotations: Sequence[UtilityAnnotation], k: int) -> frozenset[int]:
    """Majority extract: positions ranked by how many judges picked them.

    Ties break by summed utility, then by earlier position.
    """
    n = _check_judges(annotations)
    votes: Counter = Counter()
    for ann in annotations:
        votes.update(judge_extract(ann, k))
    totals = {pos: sum(ann.utility(pos) for ann in annotations) for pos in range(1, n + 1)}
    ranked = sorted(
        range(1, n + 1),
        key=lambda pos: (-votes[pos], -totals[pos], pos),
    )
    return frozenset(ranked[:k])


def csis_consensus(
    annotations: Sequence[SubsumptionAnnotation], threshold: int
) -> SubsumptionGraph:
    """Keep the subsumption edges at least `threshold` judges agree on."""
    if not annotations:
        raise EvaluationError("need at least 1 judge")
    cluster_id = annotations[0].cluster_id
    for ann in annotations[1:]:
        if ann.cluster_id != cluster_id:
            raise EvaluationError(
                f"annotations mix clusters {cluster_id!r} and {ann.cluster_id!r}"
            )
    support: Counter = Counter()
    for ann in annotations:
        for position, targets in ann.subsumers.items():
            for target in targets:
                support[(position, target)] += 1
    edges = frozenset(edge for edge, count in support.items() if count >= threshold)
    return SubsumptionGraph(cluster_id=cluster_id, edges=edges, agreement_threshold=threshold)


@dataclass(frozen=True)
class SentenceTally:
    """Modal agreement on one sentence's subsumption marks.

    Exactly one of plus_score / minus_score is set: plus_score counts the
    judges backing the modal non-empty subsumer set, minus_score counts the
    judges marking no subsumption when that is the consensus.
    """

    position: int
    plus_score: int | None
    minus_score: int | None

    @property
    def agreement(self) -> int:
        return self.plus_score if self.plus_score is not None else self.minus_score or 0


@dataclass(frozen=True)
class CsisTally:
    rows: tuple[SentenceTally, ...]
    histogram: dict[tuple[int, str], int]  # (judges agreeing, "+"/"-") -> sentences


def csis_agreement_tally(
    annotations: Sequence[SubsumptionAnnotation], n: int | None = None
) -> CsisTally:
    """Per-sentence modal agreement and the agreement-level histogram.

    Covers positions 1..n when n is given, otherwise every position any judge
    marked. A tie between the empty answer and a non-empty one counts as
    agreement on subsumption.
    """
    if not annotations:
        raise EvaluationError("need at least 1 judge")
    if n is not None:
        positions = range(1, n + 1)
    else:
        marked = sorted({pos for ann in annotations for pos in ann.subsumers if ann.subsumers[pos]})
        positions = marked
    rows = []
    histogram: dict[tuple[int, str], int] = {}
    for position in positions:
        answers = [ann.subsumers_of(position) for ann in annotations]
        tallies = Counter(answers)
        # modal answer: highest count; ties prefer a non-empty set, then the
        # smallest sorted tuple for determinism
        modal, modal_count = min(
            tallies.items(), key=lambda item: (-item[1], len(item[0]) == 0, tuple(sorted(item[0])))
        )
        if modal:
            row = SentenceTally(position=position, plus_score=modal_count, minus_score=None)
            sign = "+"
        else:
            row = SentenceTally(position=position, plus_score=None, minus_score=modal_count)
            sign = "-"
        rows.append(row)
        key = (modal_count, sign)
        histogram[key] = histogram.get(key, 0) + 1
    return CsisTally(rows=tuple(rows), histogram=histogram)


# --- report construction -----------------------------------------------------


def round_half_up(value: float, places: int = 3) -> float:
    """Round to `places` decimals with ties away from zero (table style)."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


@dataclass(frozen=True)
class EvalReport:
    """J/R/S/D for a set of systems against one cluster's judges.

    S, R and mean_J are table-rounded; each D is the exact quotient of those
    rounded values (displays round it again).
    """

    cluster_id: str
    r: float
    k: int
    judge_ids: tuple[str, ...]
    J_matrix: tuple[tuple[float, ...], ...]
    J_per_judge: tuple[float, ...]
    mean_J: float
    R: float
    S: dict[str, float]
    D: dict[str, float]
    S_csis: dict[str, float] = field(default_factory=dict)
    D_csis: dict[str, float] = field(default_factory=dict)
    E: float | None = None


def build_report(
    annotations: Sequence[UtilityAnnotation],
    systems: Mapping[str, Iterable[int]],
    r: float,
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> EvalReport:
    """Evaluate named extracts against the judges at compression rate r."""
    k = compression_size(_check_judges(annotations, 2), r)
    maxima = _maxima(annotations, k)
    matrix = _cross_judge_ratios(annotations, k, maxima)
    per_judge, mean_j = _matrix_means(matrix, _table_mean)
    r_value = _table_mean(_random_ratios(annotations, k, maxima))
    _check_above_chance(mean_j, r_value)
    s_scores: dict[str, float] = {}
    s_csis: dict[str, float] = {}
    for label in sorted(systems):
        positions = sorted(set(systems[label]))
        if len(positions) != k:
            raise EvaluationError(
                f"system {label!r} selected {len(positions)} sentences, expected k={k}"
            )
        s_scores[label] = _table_mean(_system_ratios(label, positions, annotations, maxima))
        if graph is not None:
            s_csis[label] = _table_mean(_system_ratios(label, positions, annotations, maxima, graph, E))
    return EvalReport(
        cluster_id=annotations[0].cluster_id,
        r=r,
        k=k,
        judge_ids=tuple(ann.judge_id for ann in annotations),
        J_matrix=tuple(tuple(round_half_up(value) for value in row) for row in matrix),
        J_per_judge=per_judge,
        mean_J=mean_j,
        R=r_value,
        S=s_scores,
        D={label: _table_normalized(s, mean_j, r_value) for label, s in s_scores.items()},
        S_csis=s_csis,
        D_csis={label: _table_normalized(s, mean_j, r_value) for label, s in s_csis.items()},
        E=E if graph is not None else None,
    )


def agreement_curve(
    annotations: Sequence[UtilityAnnotation],
    r_grid: Sequence[float] | None = None,
) -> list[tuple[float, float]]:
    """Table-style mean J at each compression rate (default 10%..90%)."""
    if r_grid is None:
        r_grid = [i / 10 for i in range(1, 10)]
    return [(r, report_cross_judge(annotations, r)[2]) for r in r_grid]


# --- file formats -------------------------------------------------------------


def load_utility_annotation(path: str | Path) -> UtilityAnnotation:
    """Load one judge's utilities: an array of JSON integers 0..10."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        judge_id, cluster_id = str(data["judge_id"]), str(data["cluster_id"])
        utilities = data["utilities"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path}: not a utility annotation file: {exc}") from None
    if not isinstance(utilities, list):
        raise ValueError(f"{path}: utilities: must be an array, got {utilities!r}")
    values = tuple(_json_int(u, f"{path}: utilities[{i}]") for i, u in enumerate(utilities))
    try:
        return UtilityAnnotation(judge_id=judge_id, cluster_id=cluster_id, utilities=values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_utility_annotation(annotation: UtilityAnnotation, path: str | Path) -> None:
    payload = {
        "judge_id": annotation.judge_id,
        "cluster_id": annotation.cluster_id,
        "utilities": list(annotation.utilities),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def load_subsumption_annotation(path: str | Path) -> SubsumptionAnnotation:
    """Load one judge's marks; every position and subsumer is an integer >= 1."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        judge_id, cluster_id = str(data["judge_id"]), str(data["cluster_id"])
        marks = data["subsumers"].items()
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not a subsumption annotation file: {exc}") from None
    subsumers = {}
    for key, targets in marks:
        where = f"{path}: subsumers[{key!r}]"
        if not isinstance(targets, list):
            raise ValueError(f"{where}: must be an array, got {targets!r}")
        position = int(key) if key.isascii() and key.isdigit() else 0
        found = [_json_int(t, where) for t in targets]
        if min([position, *found]) < 1:
            raise ValueError(f"{where}: positions and subsumers must be integers >= 1")
        subsumers[position] = frozenset(found)
    try:
        return SubsumptionAnnotation(judge_id=judge_id, cluster_id=cluster_id, subsumers=subsumers)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_subsumption_annotation(annotation: SubsumptionAnnotation, path: str | Path) -> None:
    payload = {
        "judge_id": annotation.judge_id,
        "cluster_id": annotation.cluster_id,
        "subsumers": {
            str(pos): sorted(targets)
            for pos, targets in sorted(annotation.subsumers.items())
            if targets
        },
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def report_to_dict(report: EvalReport) -> dict:
    payload = {
        "cluster_id": report.cluster_id,
        "r": report.r,
        "k": report.k,
        "judges": list(report.judge_ids),
        "j_matrix": [list(row) for row in report.J_matrix],
        "j_per_judge": list(report.J_per_judge),
        "mean_j": report.mean_J,
        "random": report.R,
        "systems": {
            label: {"s": report.S[label], "d": round_half_up(report.D[label])}
            for label in report.S
        },
    }
    if report.E is not None:
        payload["e"] = report.E
        for label in report.S_csis:
            payload["systems"][label]["s_csis"] = report.S_csis[label]
            payload["systems"][label]["d_csis"] = round_half_up(report.D_csis[label])
    return payload

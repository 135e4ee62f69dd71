"""Reference implementation of the evaluation arithmetic, kept as a test oracle.

These are the ratio and report functions as they stood before the evaluation
module moved to one per-judge-ratio core, and the credit and ranking
functions (`judge_extract`, `max_utility`, `extract_utility`) as they stood
before the ranking and the subsumption neighbour map were derived once, all
copied verbatim. The one edit: `extract_utility` tests a pair through
`_related`, the old `SubsumptionGraph.related` body over the edge set, so the
oracle shares no derived index with the library. The differential tests in
test_evaluation_oracle.py require the library to return exactly equal
results; nothing outside the tests imports this module.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Decimal
from math import fsum
from typing import Iterable, Mapping, Sequence

from centroidsumm import (
    DEFAULT_ENUMERATION_CAP,
    EvalReport,
    EvaluationError,
    SubsumptionGraph,
    UtilityAnnotation,
    compression_size,
    enumerate_extracts,
)


def _related(graph: SubsumptionGraph, a: int, b: int) -> bool:
    return (a, b) in graph.edges or (b, a) in graph.edges


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
        if any(_related(graph, pos, earlier) for earlier in credited):
            total += E * u
        else:
            total += u
        credited.append(pos)
    return total


def cross_judge_matrix(
    annotations: Sequence[UtilityAnnotation], r: float
) -> list[list[float]]:
    """J[i][j]: how much of judge j's maximum utility judge i's extract earns."""
    if len(annotations) < 2:
        raise EvaluationError("need at least 2 judges")
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
    k = compression_size(first.n, r)
    maxima = []
    for ann in annotations:
        m = max_utility(ann, k)
        if m == 0:
            raise EvaluationError(
                f"judge {ann.judge_id!r} assigns zero utility everywhere; ratios undefined"
            )
        maxima.append(m)
    extracts = [judge_extract(ann, k) for ann in annotations]
    return [
        [extract_utility(extracts[i], annotations[j]) / maxima[j] for j in range(len(annotations))]
        for i in range(len(annotations))
    ]


def mean_cross_judge(matrix: Sequence[Sequence[float]]) -> tuple[tuple[float, ...], float]:
    """Per-judge agreement (row mean excluding the diagonal) and its mean."""
    per_judge = tuple(
        fsum(value for j, value in enumerate(row) if j != i) / (len(row) - 1)
        for i, row in enumerate(matrix)
    )
    return per_judge, fsum(per_judge) / len(per_judge)


def _checked_max(annotation: UtilityAnnotation, k: int) -> int:
    m = max_utility(annotation, k)
    if m == 0:
        raise EvaluationError(
            f"judge {annotation.judge_id!r} assigns zero utility everywhere; ratios undefined"
        )
    return m


def _system_ratios(
    extract: Iterable[int],
    annotations: Sequence[UtilityAnnotation],
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> list[float]:
    positions = sorted(set(extract))
    k = len(positions)
    return [
        extract_utility(positions, ann, graph, E) / _checked_max(ann, k)
        for ann in annotations
    ]


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
    ratios = _system_ratios(extract, annotations, graph, E)
    return fsum(ratios) / len(ratios)


def random_performance(
    annotations: Sequence[UtilityAnnotation],
    r: float,
    mode: str = "closed_form",
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> float:
    """Expected performance of a uniformly random k-sentence extract.

    "enumerate" averages system_performance over every k-subset;
    "closed_form" uses linearity of expectation: a random k-subset earns
    k * mean(utility) from each judge. The two agree exactly.
    """
    if not annotations:
        raise EvaluationError("need at least 1 judge")
    n = annotations[0].n
    k = compression_size(n, r)
    if mode == "enumerate":
        values = [
            system_performance(subset, annotations)
            for subset in enumerate_extracts(n, k, cap)
        ]
        return fsum(values) / len(values)
    if mode == "closed_form":
        ratios = _random_ratios(annotations, k)
        return fsum(ratios) / len(ratios)
    raise ValueError(f"unknown mode {mode!r}; use 'enumerate' or 'closed_form'")


def _random_ratios(annotations: Sequence[UtilityAnnotation], k: int) -> list[float]:
    """Per-judge expected ratio of a uniform random k-subset (exact)."""
    n = annotations[0].n
    return [
        k * (fsum(ann.utilities) / n) / _checked_max(ann, k)
        for ann in annotations
    ]


def normalized_performance(S: float, mean_J: float, R: float) -> float:
    """D = (S - R) / (J - R): 0 at chance level, 1 at judge level.

    Only meaningful when the judges agree better than randomly (J > R); D may
    exceed 1 when a system beats the judges.
    """
    if mean_J <= R:
        raise EvaluationError("judges agree no better than chance (J <= R)")
    return (S - R) / (mean_J - R)


_QUANTUM = Decimal("0.001")


def round_half_up(value: float, places: int = 3) -> float:
    """Round to `places` decimals with ties away from zero (table style)."""
    quantum = Decimal(1).scaleb(-places)
    return float(Decimal(str(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def _decimal_mean(values: Iterable[float]) -> Decimal:
    decimals = [Decimal(str(v)) for v in values]
    return sum(decimals, Decimal(0)) / len(decimals)


def _report_ratio_mean(ratios: Iterable[float]) -> float:
    """Round each per-judge ratio, then round their mean (table arithmetic)."""
    rounded = [round_half_up(v) for v in ratios]
    return float(_decimal_mean(rounded).quantize(_QUANTUM, rounding=ROUND_HALF_UP))


def report_system_performance(
    extract: Iterable[int],
    annotations: Sequence[UtilityAnnotation],
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> float:
    """Table-style S: each judge's ratio rounded before the rounded mean."""
    return _report_ratio_mean(_system_ratios(extract, annotations, graph, E))


def report_random_performance(annotations: Sequence[UtilityAnnotation], r: float) -> float:
    """Table-style R over the closed-form per-judge expectations."""
    if not annotations:
        raise EvaluationError("need at least 1 judge")
    k = compression_size(annotations[0].n, r)
    return _report_ratio_mean(_random_ratios(annotations, k))


def report_cross_judge(
    annotations: Sequence[UtilityAnnotation], r: float
) -> tuple[list[list[float]], tuple[float, ...], float]:
    """Table-style J: rounded matrix, rounded per-judge means, rounded mean."""
    matrix = cross_judge_matrix(annotations, r)
    rounded = [[round_half_up(value) for value in row] for row in matrix]
    per_judge = tuple(
        float(
            _decimal_mean(v for j, v in enumerate(row) if j != i).quantize(
                _QUANTUM, rounding=ROUND_HALF_UP
            )
        )
        for i, row in enumerate(rounded)
    )
    mean_j = float(_decimal_mean(per_judge).quantize(_QUANTUM, rounding=ROUND_HALF_UP))
    return rounded, per_judge, mean_j


def build_report(
    annotations: Sequence[UtilityAnnotation],
    systems: Mapping[str, Iterable[int]],
    r: float,
    graph: SubsumptionGraph | None = None,
    E: float = 1.0,
) -> EvalReport:
    """Evaluate named extracts against the judges at compression rate r."""
    matrix, per_judge, mean_j = report_cross_judge(annotations, r)
    n = annotations[0].n
    k = compression_size(n, r)
    r_value = report_random_performance(annotations, r)
    if mean_j <= r_value:
        raise EvaluationError("judges agree no better than chance (J <= R)")
    denominator = Decimal(str(mean_j)) - Decimal(str(r_value))
    s_scores: dict[str, float] = {}
    d_scores: dict[str, float] = {}
    s_csis: dict[str, float] = {}
    d_csis: dict[str, float] = {}
    for label in sorted(systems):
        positions = sorted(set(systems[label]))
        if len(positions) != k:
            raise EvaluationError(
                f"system {label!r} selected {len(positions)} sentences, expected k={k}"
            )
        s_val = report_system_performance(positions, annotations)
        s_scores[label] = s_val
        d_scores[label] = float(
            (Decimal(str(s_val)) - Decimal(str(r_value))) / denominator
        )
        if graph is not None:
            s_adj = report_system_performance(positions, annotations, graph, E)
            s_csis[label] = s_adj
            d_csis[label] = float(
                (Decimal(str(s_adj)) - Decimal(str(r_value))) / denominator
            )
    return EvalReport(
        cluster_id=annotations[0].cluster_id,
        r=r,
        k=k,
        judge_ids=tuple(ann.judge_id for ann in annotations),
        J_matrix=tuple(tuple(row) for row in matrix),
        J_per_judge=per_judge,
        mean_J=mean_j,
        R=r_value,
        S=s_scores,
        D=d_scores,
        S_csis=s_csis,
        D_csis=d_csis,
        E=E if graph is not None else None,
    )



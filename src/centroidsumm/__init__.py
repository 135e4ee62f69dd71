"""Centroid-based multi-document summarization with utility-based evaluation.

Importing the package runs only `text`. `lexstats`, `summarizer` and `evaluation` are registered in
`sys.modules` through importlib's `LazyLoader` and run on their first attribute access, so a command
compiles only the layers it calls; an error raised while a layer loads surfaces at that first use.
The package's own names resolve through `__getattr__`, which reads each from its module.

Before Python 3.13 `LazyLoader` takes no lock, so threads that may first use a layer at the same moment
should find it loaded.
"""

import importlib.util
import sys

from . import text


def _lazy(name: str):
    """The submodule `name`, in sys.modules but not yet run (the importlib documentation's recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    loader.exec_module(module)
    return module


lexstats, summarizer, evaluation = map(_lazy, ("lexstats", "summarizer", "evaluation"))

# Public name -> the module that defines it.
_MODULE_OF = {
    name: module
    for module, names in {
        "text": "Cluster ClusterParseError Document EvaluationError LEAD_CENTROID PRESETS PURE_CENTROID ScoreWeights "
        "Sentence cluster_from_dict cluster_to_dict compression_size document_from_dict document_to_dict "
        "parse_cluster tokenize write_cluster",
        "lexstats": "IDF_FLOOR Centroid CentroidEntry IdfModel build_centroid build_idf "
        "incremental_cluster load_idf save_idf",
        "summarizer": "RERANK_ITERATION_CAP Extract RerankCapWarning SentenceScore centroid_value extract "
        "extract_json extract_to_dict first_sentence_overlap lead_baseline positional_value redundancy_rerank "
        "score_sentences summary_text word_overlap",
        "evaluation": "DEFAULT_ENUMERATION_CAP CsisTally EnumerationCapError EvalReport SentenceTally "
        "SubsumptionAnnotation SubsumptionGraph UtilityAnnotation agreement_curve build_report cross_judge_matrix "
        "csis_agreement_tally csis_consensus enumerate_extracts extract_utility judge_extract "
        "load_subsumption_annotation load_utility_annotation max_utility mean_cross_judge normalized_performance "
        "percent_agreement precision_recall random_performance report_cross_judge report_random_performance "
        "report_system_performance report_to_dict round_half_up system_performance",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(globals()[_MODULE_OF[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

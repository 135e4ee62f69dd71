"""Run one centroidsumm CLI invocation with the library's layers traced.

Usage: python3 perfbench/traced_cli.py SPANS_FILE INVOCATION_ID CLI_ARG...

Wraps every public function of the five modules (text, lexstats, summarizer,
evaluation, cli) and rebinds the wrapper in every centroidsumm module that
binds the original, including the names cli imports from the other modules,
so calls within a module are traced too. Spans (id, parent, name, start,
end) and counts stay in memory and are written to SPANS_FILE as JSON when
the invocation ends; then the process exits with the CLI's exit code.
Nothing under src/ changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import re
import sys
import time
from collections import Counter

LAYERS = ("text", "lexstats", "summarizer", "evaluation", "cli")
WORD = re.compile(r"[^\W_]+")  # text.tokenize's rule, read from the text so no data model is assumed

# Called once per sentence, token pair or table cell: a span each would cost
# more than the work it times, so their time stays in the caller's self time.
UNTRACED = frozenset({
    "tokenize", "centroid_value", "positional_value", "first_sentence_overlap",
    "word_overlap", "round_half_up", "compression_size",
})


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_documents(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["text.sentences_in"] += len(result.sentences)
    tracer.counts["text.tokens_in"] += sum(len(WORD.findall(s.text)) for s in result.sentences)


def _count_scored(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["summarizer.sentences_scored"] += len(result)
    tracer.scored.add(_arg(args, kwargs, 0, "cluster").cluster_id)


def _count_reranked(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["summarizer.rerank_sentences"] += len(_arg(args, kwargs, 1, "scores"))


def _count_clusters(tracer: "Tracer", args: tuple, kwargs: dict, result) -> None:
    tracer.counts["lexstats.clusters_out"] += len(result)


COUNTERS = {
    "text.document_from_dict": _count_documents,
    "summarizer.score_sentences": _count_scored,
    "summarizer.redundancy_rerank": _count_reranked,
    "lexstats.incremental_cluster": _count_clusters,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent id or None, name, start, end]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.scored: set[str] = set()

    def wrap(self, name: str, func):
        count = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else None, name, clock(), None]
            self.spans.append(span)
            self.stack.append(span[0])
            try:
                result = func(*args, **kwargs)
            finally:
                span[4] = clock()
                self.stack.pop()
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap and rebind; return the bindings of an original that were left unwrapped."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"centroidsumm.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    originals[id(value)] = self.wrap(f"{layer}.{attr}", value)
        modules = [m for n, m in sys.modules.items() if n == "centroidsumm" or n.startswith("centroidsumm.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in originals:
                    setattr(module, attr, originals[id(value)])
        return _escapes(modules, {id(w.__wrapped__) for w in originals.values()})


def _escapes(modules: list, original_ids: set[int]) -> list[str]:
    """Places that still reach an original: module globals, class attributes, containers."""
    found = []
    for module in modules:
        for attr, value in vars(module).items():
            places = [(f"{module.__name__}.{attr}", value)]
            if inspect.isclass(value) and value.__module__ == module.__name__:
                places += [(f"{module.__name__}.{attr}.{k}", v) for k, v in vars(value).items()]
            elif isinstance(value, dict):
                places += [(f"{module.__name__}.{attr}[{k!r}]", v) for k, v in value.items()]
            elif isinstance(value, (list, tuple, set, frozenset)):
                places += [(f"{module.__name__}.{attr}[]", v) for v in value]
            for where, target in places:
                if isinstance(target, (staticmethod, classmethod)):
                    target = target.__func__
                if id(target) in original_ids:
                    found.append(where)
                elif inspect.isfunction(target) and any(id(d) in original_ids for d in target.__defaults__ or ()):
                    found.append(f"{where} (default argument)")
    return found


def main(argv: list[str]) -> int:
    spans_file, invocation, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import centroidsumm.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    escaped = tracer.install()
    code = 1
    try:
        code = centroidsumm.cli.main(cli_args)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.counts["cli.clusters_scored"] = len(tracer.scored)
        payload = {
            "invocation": invocation,
            "exit": code,
            "import_s": import_s,
            "escaped": escaped,
            "counts": dict(tracer.counts),
            "spans": tracer.spans,
        }
        with open(spans_file, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Outside-in span tracer for the benchmark's traced runs.

The tracer never edits the program.  It wraps public entry points of the
``repro`` package from here, after the workload has imported them: a method
is replaced on its defining class, and a module-level function is replaced
in every ``repro`` module that bound it by name (``from x import f``), which
is how ``driver/harness.py`` holds its own ``cached_compile_source`` and
``preprocess/rewriter.py`` its own ``tokenize``.  Every binding gets a
wrapper of its own that counts its calls, so :meth:`Tracer.silent_sites`
can name a boundary that recorded none on a workload where it must do work:
a wrapper patched onto the wrong binding reads as zero calls there, even
when the missed time only moves into the self time of the span around it.

Counts the program keeps itself (``ANALYSIS_STATS``, ``VECTORIZER_STATS``)
are read as deltas over the timed region (:meth:`Tracer.begin` /
:meth:`Tracer.end`) rather than rebuilt from the wrappers.

Each span keeps its layer name, start, end and parent in memory, all under
one run id, and is written out by :meth:`Tracer.write` when the run ends.
Self time (a span minus the spans directly inside it) and counts are also
folded in as spans close, so the per-layer table costs no second pass.

Populations: the frontend and preprocess layers serve three different
inputs.  A span inherits its parent's population unless its own boundary
sets one: the mine and preprocess stages and ``run_corpus_stats`` set
``corpus``, ``CLgen.generate_kernel_range`` sets ``candidates`` and
``HostDriver.measure_source`` sets ``measure``.  Work outside all of them
(e.g. the lazy recompiles of unpickled measurements) is ``other``.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

PHASES = ("preprocess", "train", "sample", "execute")

#: Shorthand for the boundary table below.
_CORPUS, _CANDIDATES, _MEASURE = "corpus", "candidates", "measure"


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.active = False
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array("i")
        self._span_start = array("d")
        self._span_end = array("d")
        self._span_parent = array("i")
        #: One entry per open span: [index, child seconds, stage-child
        #: seconds, population].
        self._stack: list[list] = []
        #: (layer, population) -> self seconds / calls.
        self.self_seconds: defaultdict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        #: Named exact counts gathered by the boundary hooks.
        self.counts: Counter = Counter()
        #: Phase -> [wall seconds, uncovered seconds].
        self.phases: dict[str, list[float]] = {phase: [0.0, 0.0] for phase in PHASES}
        #: Inclusive milliseconds of each measure_source call that executed.
        self.measure_ms: list[float] = []
        self._specialized: dict[int, object] = {}
        self._feature_inputs: dict[tuple[int, str | None], object] = {}
        self._corpora: dict[int, object] = {}
        self._restore: list[tuple[object, str, object]] = []
        #: Binding site ("module.name" or "module.Class.method") -> [calls].
        self.site_calls: dict[str, list[int]] = {}
        self._program_start: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return index

    def _open(self, name_id: int, population: str | None) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        index = len(self._span_name)
        self._span_name.append(name_id)
        self._span_parent.append(parent[0] if parent else -1)
        self._span_start.append(0.0)
        self._span_end.append(0.0)
        if population is None:
            population = parent[3] if parent else "other"
        entry = [index, 0.0, 0.0, population]
        stack.append(entry)
        return entry

    def _close(self, entry: list, layer: str, start: float, end: float) -> float:
        self._stack.pop()
        index = entry[0]
        self._span_start[index] = start
        self._span_end[index] = end
        duration = end - start
        if self._stack:
            parent = self._stack[-1]
            parent[1] += duration
            if layer.startswith("stage."):
                parent[2] += duration
        key = (layer, entry[3])
        self.self_seconds[key] += duration - entry[1]
        self.calls[key] += 1
        if layer.startswith("stage."):
            phase = self.phases[layer[len("stage."):]]
            phase[0] += duration - entry[2]
            phase[1] += duration - entry[1]
        return duration

    def span(self, layer: str, population: str | None = None):
        """Context manager for a span opened by the benchmark's own code."""
        return _Span(self, layer, population)

    # ------------------------------------------------------------------
    # Wrapping.
    # ------------------------------------------------------------------

    def _wrapper(self, layer, function, site, population=None, before=None, after=None):
        tracer = self
        name_id = self._name_id(layer)
        clock = time.perf_counter
        calls = self.site_calls.setdefault(site, [0])

        def traced(*args, **kwargs):
            if not tracer.active:
                return function(*args, **kwargs)
            calls[0] += 1
            token = before(args) if before is not None else None
            entry = tracer._open(name_id, population)
            start = clock()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer._close(entry, layer, start, clock())
                raise
            duration = tracer._close(entry, layer, start, clock())
            if after is not None:
                after(token, args, result, duration)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", layer)
        traced.__qualname__ = getattr(function, "__qualname__", layer)
        return traced

    def wrap_method(self, module_name: str, qualname: str, layer: str, **hooks) -> None:
        """Replace ``Class.method`` of *module_name* on its class."""
        class_name, method_name = qualname.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[method_name]
        site = f"{module_name}.{qualname}"
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrapper(layer, raw.__func__, site, **hooks))
        else:
            replacement = self._wrapper(layer, raw, site, **hooks)
        self._restore.append((owner, method_name, raw))
        setattr(owner, method_name, replacement)

    def wrap_function(self, module_name: str, name: str, layer: str, **hooks) -> None:
        """Replace function *name* of *module_name* in every ``repro`` module
        that holds it under any name, with one counting wrapper per binding."""
        original = getattr(importlib.import_module(module_name), name)
        for module in list(sys.modules.values()):
            owner = getattr(module, "__name__", "")
            if not owner.startswith("repro"):
                continue
            for attribute, value in list(vars(module).items()):
                if value is original:
                    replacement = self._wrapper(layer, original, f"{owner}.{attribute}", **hooks)
                    self._restore.append((module, attribute, original))
                    setattr(module, attribute, replacement)

    def begin(self) -> None:
        """Switch the wrappers on and note the program's own counters."""
        self._program_start = _program_counters()
        self.active = True

    def end(self) -> None:
        """Switch the wrappers off and add the program's counter deltas."""
        self.active = False
        for name, value in _program_counters().items():
            self.counts[name] += value - self._program_start[name]

    def silent_sites(self, required) -> list[str]:
        """The *required* binding sites that recorded no call."""
        return [site for site in required if not self.site_calls.get(site, [0])[0]]

    def uninstall(self) -> None:
        """Put every wrapped binding back."""
        self.active = False
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Output.
    # ------------------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self._span_name)

    def write(self, path) -> None:
        """Write every span (name, start and end in ns from the first span,
        parent index) plus the run id as one JSON document."""
        origin = min(self._span_start) if self._span_start else 0.0
        document = {
            "run_id": self.run_id,
            "names": self._names,
            "name": list(self._span_name),
            "start_ns": [round((value - origin) * 1e9) for value in self._span_start],
            "end_ns": [round((value - origin) * 1e9) for value in self._span_end],
            "parent": list(self._span_parent),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, separators=(",", ":"))

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric; 0 where a layer did no work."""
        seconds = self.self_seconds
        calls = self.calls
        counts = self.counts

        def self_s(layer: str, population: str | None = None) -> float:
            return sum(
                value
                for (name, pop), value in seconds.items()
                if name == layer and (population is None or pop == population)
            )

        def calls_of(layer: str, population: str | None = None) -> int:
            return sum(
                value
                for (name, pop), value in calls.items()
                if name == layer and (population is None or pop == population)
            )

        def ratio(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        metrics: dict[str, float] = {"corpus.mine_s": self_s("corpus.mine")}
        for step in ("reject", "rewrite"):
            for population in (_CORPUS, _CANDIDATES):
                metrics[f"preprocess.{step}.{population}_s"] = self_s(
                    f"preprocess.{step}", population
                )
        metrics["preprocess.other_s"] = self_s("preprocess.reject", "other") + self_s(
            "preprocess.rewrite", "other"
        )
        metrics["preprocess.cache_s"] = self_s("preprocess.cache")
        metrics["preprocess.cache_hit_ratio"] = ratio(
            counts["preprocess.cache_hits"], counts["preprocess.cache_gets"]
        )
        metrics["preprocess.accept_ratio"] = ratio(
            counts["preprocess.accepted_files"], counts["preprocess.content_files"]
        )

        frontend = ("cpp", "lex", "parse", "check", "lower")
        for step in frontend:
            for population in (_CORPUS, _CANDIDATES, _MEASURE):
                metrics[f"clc.{step}.{population}_s"] = self_s(f"clc.{step}", population)
        for population in (_CORPUS, _CANDIDATES, _MEASURE):
            metrics[f"clc.parse.{population}_calls"] = calls_of("clc.parse", population)
        metrics["clc.other_s"] = sum(self_s(f"clc.{step}", "other") for step in frontend)
        metrics["clc.tokens_per_s"] = ratio(counts["clc.tokens"], self_s("clc.lex"))

        metrics["model.fit_s"] = self_s("model.fit")
        metrics["model.step_s"] = self_s("model.step")
        metrics["model.steps"] = calls_of("model.step")
        metrics["model.chars_per_s"] = ratio(counts["model.chars"], metrics["model.step_s"])

        metrics["synthesis.loop_s"] = self_s("synthesis.loop")
        metrics["synthesis.seed_s"] = self_s("synthesis.seed")
        metrics["synthesis.attempts"] = counts["synthesis.attempts"]
        metrics["synthesis.accept_ratio"] = ratio(
            counts["synthesis.generated"], counts["synthesis.attempts"]
        )
        metrics["synthesis.duplicate_ratio"] = ratio(
            counts["synthesis.duplicates"], counts["synthesis.attempts"]
        )

        for population in (_CANDIDATES, _MEASURE, "other"):
            metrics[f"analysis.analyze.{population}_s"] = self_s("analysis.analyze", population)
        metrics["analysis.kernels"] = calls_of("analysis.analyze")
        metrics["analysis.routed_skips"] = counts["analysis.routed_skips"]

        metrics["execution.compile_lookup_s"] = self_s("execution.compile_lookup")
        metrics["execution.build_s"] = self_s("execution.build")
        metrics["execution.lockstep_s"] = self_s("execution.lockstep")
        metrics["execution.closure_s"] = self_s("execution.closure")
        for tier in ("specialized", "generic", "closure"):
            metrics[f"execution.{tier}_runs"] = counts[f"execution.{tier}_runs"]
        metrics["execution.bailouts"] = counts["execution.bailouts"]
        metrics["execution.lockstep_success_ratio"] = ratio(
            counts["execution.lockstep_attempts"] - counts["execution.bailouts"],
            counts["execution.lockstep_attempts"],
        )
        metrics["execution.lockstep_items_per_s"] = ratio(
            counts["execution.lockstep_items"], metrics["execution.lockstep_s"]
        )
        metrics["execution.closure_items_per_s"] = ratio(
            counts["execution.closure_items"], metrics["execution.closure_s"]
        )

        metrics["driver.measure_s"] = self_s("driver.measure")
        metrics["driver.payload_s"] = self_s("driver.payload")
        metrics["driver.platform_model_s"] = self_s("driver.platform_model")
        ordered = sorted(self.measure_ms)
        metrics["driver.measure_samples"] = len(ordered)
        metrics["driver.measure_p50_ms"] = _nearest_rank(ordered, 50)
        metrics["driver.measure_tail_ms"] = _nearest_rank(ordered, tail_percentile(len(ordered)))
        metrics["driver.reuse_ratio"] = ratio(
            calls_of("driver.measure") - len(ordered), calls_of("driver.measure")
        )

        metrics["features.static_s"] = self_s("features.static")
        metrics["features.static_calls"] = calls_of("features.static")
        metrics["features.vector_s"] = self_s("features.vector")
        metrics["features.recompute_ratio"] = ratio(
            calls_of("features.static") - len(self._feature_inputs),
            calls_of("features.static"),
        )

        metrics["predictive.fit_s"] = self_s("predictive.fit")
        metrics["predictive.fits"] = calls_of("predictive.fit")
        metrics["predictive.predict_s"] = self_s("predictive.predict")
        metrics["predictive.cv_s"] = self_s("predictive.cv")

        metrics["store.put_s"] = self_s("store.put")
        metrics["store.get_s"] = self_s("store.get")

        for experiment in EXPERIMENTS:
            metrics[f"experiments.{experiment}_s"] = self_s(f"experiments.{experiment}")

        for phase in PHASES:
            metrics[f"trace.uncovered.{phase}_s"] = self.phases[phase][1]
        metrics["trace.spans"] = self.span_count
        return metrics

    def coverage(self) -> dict[str, dict[str, float]]:
        """Per phase that ran: wall seconds, uncovered seconds, covered share."""
        report = {}
        for phase, (wall, uncovered) in self.phases.items():
            if wall > 0:
                report[phase] = {
                    "wall_s": wall,
                    "uncovered_s": uncovered,
                    "covered": 1.0 - uncovered / wall,
                }
        return report


class _Span:
    def __init__(self, tracer: Tracer, layer: str, population: str | None):
        self._tracer = tracer
        self._layer = layer
        self._population = population

    def __enter__(self):
        if self._tracer.active:
            self._entry = self._tracer._open(self._tracer._name_id(self._layer), self._population)
            self._start = time.perf_counter()
        else:
            self._entry = None
        return self

    def __exit__(self, *exc):
        if self._entry is not None:
            self._tracer._close(self._entry, self._layer, self._start, time.perf_counter())
        return False


def tail_percentile(samples: int) -> int:
    """The highest whole percentile with at least ten samples beyond it."""
    if samples <= 10:
        return 0
    return (100 * (samples - 10)) // samples


def _nearest_rank(ordered: list[float], percentile: int) -> float:
    if not ordered:
        return 0.0
    rank = max(1, -(-percentile * len(ordered) // 100))
    return ordered[rank - 1]


#: ``run_all``'s experiments: metric suffix -> (module, function).
EXPERIMENTS = {
    "corpus_stats": ("repro.experiments.corpus_stats", "run_corpus_stats"),
    "table1": ("repro.experiments.table1", "run_table1"),
    "figure3": ("repro.experiments.figure3", "run_figure3"),
    "figure7": ("repro.experiments.figure7", "run_figure7"),
    "figure8": ("repro.experiments.figure8", "run_figure8"),
    "figure9": ("repro.experiments.figure9", "run_figure9"),
    "turing": ("repro.experiments.turing", "run_turing_test"),
}


#: Binding sites that must record calls on each workload: the bindings the
#: program calls through, such as the ``clc`` package's own ``tokenize``
#: (``repro.clc.tokenize``) and the harness's own ``cached_compile_source``.
#: A site here with no call means the program reaches that layer through a
#: binding the tracer did not wrap, and the layer's time is being charged
#: to the span around it.
_MEASURE_SITES = (
    "repro.driver.harness.HostDriver.measure_source",
    "repro.driver.harness.cached_compile_source",
    "repro.driver.payload.PayloadGenerator.generate",
    "repro.execution.device.Platform.runtimes",
    "repro.clc.preprocessor.Preprocessor.preprocess",
    "repro.clc.tokenize",
    "repro.clc.parser.Parser.parse_translation_unit",
    "repro.clc.check",
    "repro.clc.lower",
    "repro.analysis.analyze_kernel",
    "repro.execution.cache.specialized_kernel_for",
    "repro.execution.cache.vectorized_kernel_for",
    "repro.execution.cache.compiled_kernel_for",
    "repro.execution.vectorizer.VectorizedKernel.execute",
    "repro.execution.compiler.CompiledKernel.execute",
)
_PIPELINE_SITES = _MEASURE_SITES + (
    "repro.store.stages.PipelineRunner.content_files",
    "repro.store.stages.PipelineRunner.corpus",
    "repro.store.stages.PipelineRunner.trained_model",
    "repro.store.stages.PipelineRunner.synthesis",
    "repro.store.stages.PipelineRunner.suite_measurements",
    "repro.store.stages.PipelineRunner.synthetic_measurements",
    "repro.store.artifact_store.ArtifactStore.get",
    "repro.store.artifact_store.ArtifactStore.put",
    "repro.corpus.github.GitHubMiner.mine",
    "repro.preprocess.rejection.RejectionFilter.check",
    "repro.preprocess.rewriter.CodeRewriter.rewrite_or_none",
    "repro.preprocess.rewriter.CodeRewriter.rewrite_parsed",
    "repro.preprocess.rewriter.tokenize",
    "repro.preprocess.cache.PreprocessCache.get",
    "repro.preprocess.cache.PreprocessCache.put",
    "repro.model.ngram.NgramLanguageModel.fit",
    "repro.model.ngram.NgramBatchSamplerState.sample",
    "repro.synthesis.generator.CLgen.generate_kernel_range",
    "repro.synthesis.generator.merge_stream_results",
    "repro.clc.compile_parsed_body",
    "repro.execution.cache.seed_compiled_source",
)
REQUIRED_SITES: dict[str, tuple[str, ...]] = {
    "pipeline": _PIPELINE_SITES,
    "measure-wide": _MEASURE_SITES,
    "experiments": _PIPELINE_SITES + (
        "repro.features.static_features.StaticFeatures.from_compilation",
        "repro.predictive.model.grewe_feature_vector",
        "repro.predictive.model.extended_feature_vector",
        "repro.predictive.decision_tree.DecisionTreeClassifier.fit",
        "repro.predictive.decision_tree.DecisionTreeClassifier.predict_one",
        "repro.experiments.figure8.leave_one_benchmark_out",
        *(f"repro.experiments.runner.{name}" for _, name in EXPERIMENTS.values()),
    ),
}


def _program_counters() -> dict[str, int]:
    """The counters the program keeps itself, under their metric names."""
    from repro.analysis import ANALYSIS_STATS
    from repro.execution.vectorizer import VECTORIZER_STATS

    return {
        "analysis.routed_skips": ANALYSIS_STATS.routed_skips,
        "execution.lockstep_attempts": VECTORIZER_STATS.executions,
        "execution.bailouts": VECTORIZER_STATS.bailouts,
    }


def install(tracer: Tracer) -> None:
    """Wrap every public boundary the per-layer table names."""
    counts = tracer.counts

    def count_tokens(token, args, result, duration):
        counts["clc.tokens"] += len(result)

    def count_chars(token, args, result, duration):
        counts["model.chars"] += len(result)

    def count_cache(token, args, result, duration):
        counts["preprocess.cache_gets"] += 1
        if result is not None:
            counts["preprocess.cache_hits"] += 1

    def count_corpus(token, args, result, duration):
        # Live-object repeats of the stage return the same Corpus again.
        if id(result) not in tracer._corpora:
            tracer._corpora[id(result)] = result
            counts["preprocess.content_files"] += result.statistics.content_files
            counts["preprocess.accepted_files"] += result.statistics.accepted_files

    def count_synthesis(token, args, result, duration):
        # The merged batch statistics: cross-stream duplicates only exist here.
        statistics = result.statistics
        counts["synthesis.attempts"] += statistics.attempts
        counts["synthesis.generated"] += statistics.generated
        counts["synthesis.duplicates"] += statistics.duplicates

    def tag_specialized(token, args, result, duration):
        if result is not None:
            tracer._specialized[id(result)] = result

    def count_lockstep(token, args, result, duration):
        # VECTORIZER_STATS has no tier split: an instance that
        # specialized_kernel_for returned is the specialized tier.
        tier = "specialized" if id(args[0]) in tracer._specialized else "generic"
        counts[f"execution.{tier}_runs"] += 1
        counts["execution.lockstep_items"] += args[3].total_work_items

    def count_closure(token, args, result, duration):
        counts["execution.closure_runs"] += 1
        counts["execution.closure_items"] += args[3].total_work_items

    def payloads_before(args):
        return counts["driver.payloads"]

    def count_payload(token, args, result, duration):
        counts["driver.payloads"] += 1

    def measure_sample(payloads, args, result, duration):
        # A measure that generated no payload was served from the HostDriver's
        # execution-record cache (another dataset of the same kernel).
        if counts["driver.payloads"] != payloads:
            tracer.measure_ms.append(duration * 1e3)

    def count_features(token, args, result, duration):
        key = (id(args[1]), args[2] if len(args) > 2 else None)
        if key not in tracer._feature_inputs:
            tracer._feature_inputs[key] = args[1]

    method = tracer.wrap_method
    function = tracer.wrap_function

    stages = {
        "content_files": "preprocess",
        "corpus": "preprocess",
        "trained_model": "train",
        "synthesis": "sample",
        "suite_measurements": "execute",
        "synthetic_measurements": "execute",
    }
    for name, phase in stages.items():
        method(
            "repro.store.stages",
            f"PipelineRunner.{name}",
            f"stage.{phase}",
            population=_CORPUS if phase == "preprocess" else None,
            after=count_corpus if name == "corpus" else None,
        )

    method("repro.corpus.github", "GitHubMiner.mine", "corpus.mine")
    method("repro.preprocess.rejection", "RejectionFilter.check", "preprocess.reject")
    method("repro.preprocess.rewriter", "CodeRewriter.rewrite_or_none", "preprocess.rewrite")
    method("repro.preprocess.rewriter", "CodeRewriter.rewrite_parsed", "preprocess.rewrite")
    method("repro.preprocess.cache", "PreprocessCache.get", "preprocess.cache", after=count_cache)
    method("repro.preprocess.cache", "PreprocessCache.put", "preprocess.cache")

    method("repro.clc.preprocessor", "Preprocessor.preprocess", "clc.cpp")
    function("repro.clc.lexer", "tokenize", "clc.lex", after=count_tokens)
    method("repro.clc.parser", "Parser.parse_translation_unit", "clc.parse")
    function("repro.clc.semantics", "check", "clc.check")
    function("repro.clc.codegen", "lower", "clc.lower")

    method("repro.model.ngram", "NgramLanguageModel.fit", "model.fit")
    method("repro.model.ngram", "NgramBatchSamplerState.sample", "model.step", after=count_chars)

    method(
        "repro.synthesis.generator",
        "CLgen.generate_kernel_range",
        "synthesis.loop",
        population=_CANDIDATES,
    )
    function(
        "repro.synthesis.generator", "merge_stream_results", "synthesis.merge",
        after=count_synthesis,
    )
    function("repro.clc", "compile_parsed_body", "synthesis.seed")
    function("repro.execution.cache", "seed_compiled_source", "synthesis.seed")

    function("repro.analysis", "analyze_kernel", "analysis.analyze")

    function("repro.execution.cache", "cached_compile_source", "execution.compile_lookup")
    function("repro.execution.cache", "compiled_kernel_for", "execution.build")
    function("repro.execution.cache", "vectorized_kernel_for", "execution.build")
    function(
        "repro.execution.cache", "specialized_kernel_for", "execution.build", after=tag_specialized
    )
    method(
        "repro.execution.vectorizer",
        "VectorizedKernel.execute",
        "execution.lockstep",
        after=count_lockstep,
    )
    method(
        "repro.execution.compiler", "CompiledKernel.execute", "execution.closure", after=count_closure
    )

    method(
        "repro.driver.harness",
        "HostDriver.measure_source",
        "driver.measure",
        population=_MEASURE,
        before=payloads_before,
        after=measure_sample,
    )
    method("repro.driver.payload", "PayloadGenerator.generate", "driver.payload", after=count_payload)
    method("repro.execution.device", "Platform.runtimes", "driver.platform_model")

    method(
        "repro.features.static_features",
        "StaticFeatures.from_compilation",
        "features.static",
        after=count_features,
    )
    function("repro.features.grewe", "grewe_feature_vector", "features.vector")
    function("repro.features.grewe", "extended_feature_vector", "features.vector")

    method("repro.predictive.decision_tree", "DecisionTreeClassifier.fit", "predictive.fit")
    method(
        "repro.predictive.decision_tree", "DecisionTreeClassifier.predict_one", "predictive.predict"
    )
    function("repro.predictive.crossval", "leave_one_benchmark_out", "predictive.cv")

    method("repro.store.artifact_store", "ArtifactStore.put", "store.put")
    method("repro.store.artifact_store", "ArtifactStore.get", "store.get")

    for experiment, (module_name, name) in EXPERIMENTS.items():
        function(
            module_name,
            name,
            f"experiments.{experiment}",
            population=_CORPUS if experiment == "corpus_stats" else None,
        )

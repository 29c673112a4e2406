#!/usr/bin/env python
"""Four-way differential verification of the specialized lockstep tier.

Synthesizes ``--count`` kernels (default 500) with the trained CLgen model
and executes every one through all four engines — legacy interpreter,
closure compiler, generic lockstep, and the analyzer-specialized lockstep
tier — asserting bit-identical buffer contents and identical execution
stats at every step.  It also re-checks every suite kernel, and verifies
the sample-time compile seeding (``compile_parsed_body`` →
``seed_compiled_source``) against a fresh frontend run: printed unit, IR
pickle and semantics pickle must match byte-for-byte.

The specialized tier skips hazard tracking on every buffer of a kernel the
race pass proved race-free (SAFE), with no dynamic guard behind that
proof; this run is the large-scale check of it against the interpreter,
and the ``LINT=1`` leg of ``scripts/ci_check.sh`` runs it.  Exit status is
non-zero on any divergence.

Usage::

    PYTHONPATH=src python scripts/verify_specialization.py
    PYTHONPATH=src python scripts/verify_specialization.py --count 500 --seed 7
"""

from __future__ import annotations

import argparse
import dataclasses
import pickle
import sys
import time


def _bit_identical(a, b) -> bool:
    from repro.execution import VectorValue

    if isinstance(a, VectorValue) and isinstance(b, VectorValue):
        return a.element_kind == b.element_kind and all(
            _bit_identical(x, y) for x, y in zip(a.values, b.values)
        )
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)  # NaN-tolerant exact compare
    return type(a) is type(b) and a == b


def _execute(engine, payload):
    result = engine.execute(payload.pool, payload.scalar_args, payload.ndrange)
    buffers = {name: buffer.to_list() for name, buffer in payload.pool.buffers.items()}
    return buffers, dataclasses.asdict(result.stats)


def _diff(reference, candidate) -> str | None:
    buffers_reference, stats_reference = reference
    buffers_candidate, stats_candidate = candidate
    if stats_candidate != stats_reference:
        return f"stats differ: {stats_reference} vs {stats_candidate}"
    if buffers_candidate.keys() != buffers_reference.keys():
        return "buffer sets differ"
    for name in buffers_reference:
        a_values, b_values = buffers_reference[name], buffers_candidate[name]
        if len(a_values) != len(b_values):
            return f"buffer {name!r} length differs"
        for index, (a, b) in enumerate(zip(a_values, b_values)):
            if not _bit_identical(a, b):
                return f"buffer {name!r}[{index}]: {a!r} vs {b!r}"
    return None


def _verify_kernel(source: str, counters: dict[str, int], failures: list[str]) -> None:
    """Run one kernel through all four engines and record agreement."""
    from repro.analysis import analyze_kernel
    from repro.clc import compile_source
    from repro.driver.harness import HostDriver
    from repro.driver.payload import PayloadConfig, PayloadGenerator
    from repro.errors import KernelTimeoutError, LockstepBailout
    from repro.execution import CompiledKernel, KernelInterpreter, try_vectorize
    from repro.execution.vectorizer import NotVectorizable, VectorizedKernel
    from repro.preprocess.shim import shim_include_resolver, with_shim

    unit = compile_source(
        with_shim(source), include_resolver=shim_include_resolver, strict=False
    ).unit
    kernel = unit.kernels[0]
    work_dim = HostDriver._kernel_work_dim(kernel)
    generator = PayloadGenerator(PayloadConfig(global_size=32, local_size=8, seed=3))
    payload = generator.generate(kernel, work_dim=work_dim)
    clones = [payload.clone() for _ in range(3)]

    try:
        reference = _execute(KernelInterpreter(unit, kernel.name), payload)
    except KernelTimeoutError:
        # Behavioural identity still holds when every engine times out.
        for label, engine in (
            ("closure", CompiledKernel(unit, kernel.name)),
            ("lockstep", try_vectorize(unit, kernel.name)),
        ):
            if engine is None:
                continue
            try:
                _execute(engine, clones.pop())
            except (KernelTimeoutError, LockstepBailout):
                continue
            failures.append(f"{kernel.name}: interpreter timed out, {label} did not")
        counters["timeout"] += 1
        return

    closure = _execute(CompiledKernel(unit, kernel.name), clones[0])
    error = _diff(reference, closure)
    if error:
        failures.append(f"{kernel.name}: closure-vs-interpreter {error}")
        return
    counters["closure"] += 1

    vectorized = try_vectorize(unit, kernel.name)
    if vectorized is None:
        counters["not-vectorizable"] += 1
        return
    try:
        lockstep = _execute(vectorized, clones[1])
        counters["lockstep"] += 1
    except LockstepBailout:
        lockstep = _execute(CompiledKernel(unit, kernel.name), clones[1])
        counters["lockstep-bailout"] += 1
    error = _diff(reference, lockstep)
    if error:
        failures.append(f"{kernel.name}: lockstep-vs-interpreter {error}")
        return

    facts = analyze_kernel(unit, kernel.name).specialization
    if facts is None or not facts.eligible:
        counters["not-eligible"] += 1
        return
    try:
        specialized_engine = VectorizedKernel(unit, kernel.name, specialization=facts)
    except NotVectorizable:
        counters["not-eligible"] += 1
        return
    try:
        specialized = _execute(specialized_engine, clones[2])
    except LockstepBailout as bailout:
        # Eligible kernels carry the never-bails promise: a bailout here is
        # a specialization soundness failure, not a fallback.
        failures.append(f"{kernel.name}: specialized tier bailed out: {bailout}")
        return
    error = _diff(reference, specialized)
    if error:
        failures.append(f"{kernel.name}: specialized-vs-interpreter {error}")
        return
    counters["specialized"] += 1


def _verify_seed_fidelity(source: str, failures: list[str]) -> bool:
    """Compare the sample-time seeded compilation against a fresh one.

    Returns True when a seeded entry existed for *source* (synthesis put
    one there) and it matched the fresh frontend run field-for-field.
    """
    from repro.clc import compile_source
    from repro.clc.printer import SourcePrinter
    from repro.execution.cache import _SOURCE_CACHE, _source_cache_key
    from repro.preprocess.shim import shim_include_resolver, with_shim

    text = with_shim(source)
    key = _source_cache_key(
        text, {"include_resolver": shim_include_resolver, "strict": False}
    )
    seeded = _SOURCE_CACHE.get(key)
    if seeded is None:
        return False
    fresh = compile_source(text, include_resolver=shim_include_resolver, strict=False)
    printer = SourcePrinter()
    checks = (
        ("unit print", printer.print_translation_unit(seeded.unit),
         printer.print_translation_unit(fresh.unit)),
        ("preprocessed", seeded.preprocessed, fresh.preprocessed),
        ("ir pickle", pickle.dumps(seeded.ir), pickle.dumps(fresh.ir)),
        ("semantics pickle", pickle.dumps(seeded.semantics), pickle.dumps(fresh.semantics)),
        ("static count", seeded.static_instruction_count, fresh.static_instruction_count),
    )
    ok = True
    for label, a, b in checks:
        if a != b:
            failures.append(f"seed fidelity: {label} differs for a seeded kernel")
            ok = False
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=500,
                        help="synthesized kernels to verify (default 500)")
    parser.add_argument("--seed", type=int, default=0, help="synthesis seed")
    args = parser.parse_args(argv)

    from repro.experiments import ExperimentConfig, build_clgen
    from repro.suites.registry import all_suites

    counters: dict[str, int] = {
        "closure": 0, "lockstep": 0, "lockstep-bailout": 0, "specialized": 0,
        "not-vectorizable": 0, "not-eligible": 0, "timeout": 0,
    }
    failures: list[str] = []

    suite_kernels = 0
    for suite in all_suites():
        for benchmark in suite.benchmarks:
            _verify_kernel(benchmark.source, counters, failures)
            suite_kernels += 1
    print(f"suite kernels verified: {suite_kernels}")

    started = time.perf_counter()
    config = ExperimentConfig.full()
    clgen = build_clgen(config)
    # One batch deduplicates across its streams, so a single request rarely
    # yields `count` unique kernels; accumulate across seeds until it does.
    sources: list[str] = []
    unique: set[str] = set()
    for round_index in range(8):
        result = clgen.generate_kernels(args.count, seed=args.seed + round_index)
        for source in result.sources:
            if source not in unique:
                unique.add(source)
                sources.append(source)
        if len(sources) >= args.count:
            sources = sources[: args.count]
            break
    print(
        f"synthesized {len(sources)} unique kernels in "
        f"{time.perf_counter() - started:.1f}s (requested {args.count})"
    )

    seeded_checked = 0
    for source in sources:
        if _verify_seed_fidelity(source, failures):
            seeded_checked += 1
        _verify_kernel(source, counters, failures)
    print(f"seeded compilations checked against fresh compiles: {seeded_checked}")

    total = suite_kernels + len(sources)
    print(f"kernels verified four-way: {total}")
    for name in sorted(counters):
        print(f"  {name:<18}{counters[name]:>6}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    if len(sources) < args.count:
        print(
            f"FAIL: only {len(sources)} unique kernels synthesized "
            f"(requested {args.count})",
            file=sys.stderr,
        )
        return 1
    print("OK: all engines bit-identical on every kernel")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

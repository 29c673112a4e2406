"""Cross-module property-based tests and CLI smoke tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import build_parser, main
from repro.clc import lower, parse
from repro.clc.printer import print_source
from repro.corpus import ContentFileGenerator
from repro.preprocess import CodeRewriter, RejectionFilter
from repro.store import STAGE_ORDER

_ARCHETYPES = [
    "add", "saxpy", "scale", "map", "zip", "stencil", "reduce", "dot",
    "matmul", "transpose", "activation", "threshold", "triad", "heavy", "copy",
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(_ARCHETYPES), st.integers(min_value=0, max_value=500))
def test_rewriting_preserves_static_feature_counts(archetype, seed):
    """Invariant: the rewriter is behaviour-preserving, so the static memory
    and branch profile of a kernel must survive normalization."""
    generated = ContentFileGenerator(seed=seed).generate_archetype(archetype)
    rewriter = CodeRewriter()
    rewritten = rewriter.rewrite_or_none(generated.text)
    if rewritten is None:
        return
    from repro.features import extract_static_features

    before = extract_static_features(generated.text)
    after = extract_static_features(rewritten.text)
    if before is None or after is None:
        return
    assert after.mem == before.mem
    assert after.localmem == before.localmem
    assert after.branches == before.branches


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_ARCHETYPES), st.integers(min_value=0, max_value=300))
def test_printer_is_idempotent_on_normalized_code(archetype, seed):
    """Invariant: printing a parsed, already-normalized kernel is a fixpoint."""
    generated = ContentFileGenerator(seed=seed).generate_archetype(archetype)
    rewritten = CodeRewriter().rewrite_or_none(generated.text)
    if rewritten is None:
        return
    once = print_source(parse(rewritten.text))
    twice = print_source(parse(once))
    assert once == twice


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(_ARCHETYPES), st.integers(min_value=0, max_value=300))
def test_accepted_kernels_always_have_min_instructions(archetype, seed):
    """Invariant: anything the rejection filter accepts lowers to >= 3 instructions."""
    generated = ContentFileGenerator(seed=seed).generate_archetype(archetype)
    result = RejectionFilter().check(generated.text)
    if result.accepted:
        assert result.compilation is not None
        assert result.compilation.static_instruction_count >= 3


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100))
def test_synthesized_candidates_never_exceed_max_length(clgen, seed):
    """Invariant: Algorithm 1 respects its maximum kernel length."""
    from repro.synthesis import ArgumentSpec

    candidate = clgen.sample_candidate(ArgumentSpec.paper_default(), random.Random(seed))
    assert candidate.characters_sampled <= clgen.sampler.config.max_kernel_length


class TestCLI:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("mine", "train", "sample", "experiments"):
            assert command in text

    def test_mine_command_runs(self, capsys):
        assert main(["mine", "--repositories", "10", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "corpus:" in captured.out

    def test_sample_command_emits_kernels(self, capsys):
        assert main(["sample", "--count", "2", "--repositories", "20", "--seed", "1"]) == 0
        captured = capsys.readouterr()
        assert "__kernel void A(" in captured.out

    def test_pipeline_table_cold_then_warm(self, tmp_path, capsys):
        """``repro pipeline`` twice on one ``--cache-dir``: the per-stage
        cold/warm table (the store's work, stage by stage)."""
        flags = ["--repositories", "10", "--count", "2", "--global-size", "16",
                 "--local-size", "8", "--cache-dir", str(tmp_path / "store")]

        def table() -> list[tuple[str, str, float]]:
            assert main(["pipeline", *flags]) == 0
            rows = [line.split() for line in capsys.readouterr().out.splitlines()]
            return [(row[0], row[1], float(row[2])) for row in rows if row[0] in STAGE_ORDER]

        cold = table()
        assert {stage for stage, result, _ in cold if result == "miss"} == set(STAGE_ORDER)
        assert all(seconds >= 0.0 for _, _, seconds in cold)
        warm = table()
        assert warm and {result for _, result, _ in warm} == {"hit"}

    def test_train_command_with_checkpoint(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.json"
        assert main(["train", "--repositories", "15", "--checkpoint", str(checkpoint)]) == 0
        assert checkpoint.exists()

"""The Section 4 transforms as framework transformations.

Each class is the one implementation of its transform — vertical fusion,
CSE, code motion, strip mining, tile-copy insertion, interchange: its
``apply`` rewrites the program with the private helpers of
:mod:`repro.transforms` (the ``Transformer`` sweeps, the strip-mining axis
plans, the interchange rules) and returns the program it was given when
nothing fired.  The ordering search (:mod:`repro.rewrite.orderings`)
sequences them by name.

``requires_tiling`` is the only tiling gate: fusion runs unconditionally
(the paper assumes it pre-tiling *and* it is semantics preserving on the
baseline), everything else only fires on tiled configurations — the
untiled baseline program must reach hardware generation untouched.
:class:`repro.pipeline.passes.TransformationStage` enforces it; calling
``apply`` directly applies the transform whatever the configuration.
"""

from __future__ import annotations

from typing import Tuple

from repro.ppl.program import Program
from repro.rewrite.framework import Transformation
from repro.transforms.code_motion import _PatternLICM
from repro.transforms.cse import _LetCSE
from repro.transforms.fusion import _VerticalFusion
from repro.transforms.interchange import _InterchangeRewriter
from repro.transforms.strip_mining import _StripMiner, _TileCopier

__all__ = [
    "VerticalFusion",
    "LetCse",
    "InvariantCodeMotion",
    "StripMine",
    "TileCopies",
    "Interchange",
]


def _tiling_structure(config) -> Tuple:
    """The memo-key part of a configuration for the symbolic tiling passes.

    Which keys are tiled and the split budget: tile *values* enter a
    symbolic run only as placeholders and as guarded decisions
    (:mod:`repro.transforms.symbolic`), so every configuration with the
    same structure shares one entry.  The tiling flag is keyed by
    :class:`~repro.pipeline.passes.TransformationStage`.
    """
    return ("structure", tuple(sorted(config.tile_sizes)), config.split_budget)


def _with_body(program, body):
    """The program with ``body``, or the program itself if nothing changed."""
    return program if body is program.body else program.with_body(body)


def _until_stable(transformer, body):
    """Rerun a ``Transformer`` sweep until the body stops changing."""
    for _ in range(10):
        new_body = transformer().transform(body)
        if new_body is body:
            break
        body = new_body
    return body


class VerticalFusion(Transformation):
    """Fuse a Let-bound Map producer into its sole element-wise consumer."""

    name = "fusion"
    requires_tiling = False

    def apply(self, program, ctx):
        return _with_body(program, _until_stable(_VerticalFusion, program.body))


class LetCse(Transformation):
    """Drop duplicate and dead Let bindings (duplicate tile copies)."""

    name = "cse"
    requires_tiling = True

    def apply(self, program, ctx):
        return _with_body(program, _LetCSE().transform(program.body))


class InvariantCodeMotion(Transformation):
    """Hoist pattern-invariant Lets (array tiles) out of pattern functions."""

    name = "code-motion"
    requires_tiling = True

    def apply(self, program, ctx):
        # Iterate to a fixed point: hoisting out of an inner pattern can
        # expose a hoist out of the enclosing pattern.
        return _with_body(program, _until_stable(_PatternLICM, program.body))


class StripMine(Transformation):
    """Table 1: split tiled pattern domains into perfectly nested pairs."""

    name = "strip-mine"
    requires_tiling = True

    def apply(self, program, ctx):
        miner = _StripMiner(ctx.config, ctx.tile_guards, program.sizes)
        body = miner.strip(program.body)
        if body is program.body:
            return program
        return Program(
            name=program.name,
            inputs=list(program.inputs),
            sizes=list(program.sizes)
            + [size for size in miner.placeholders.values() if size not in program.sizes],
            body=body,
            output_names=list(program.output_names),
        )

    def config_key(self, ctx) -> Tuple:
        return _tiling_structure(ctx.config)


class TileCopies(Transformation):
    """Table 2: materialise affine accesses of strided patterns as tiles."""

    name = "tile-copies"
    requires_tiling = True

    def apply(self, program, ctx):
        copier = _TileCopier(program.inputs)
        return _with_body(program, copier.process(program.body, tile_syms=set()))


class Interchange(Transformation):
    """Table 3 / Figure 5: move strided folds out of unstrided patterns.

    ``apply`` records the rules that fired, in order, in
    ``ctx.artifacts["applied_interchanges"]`` (``"rule1"`` or ``"split"``).
    """

    name = "interchange"
    requires_tiling = True

    def apply(self, program, ctx):
        body = program.body
        applied = []
        for _ in range(5):
            rewriter = _InterchangeRewriter(ctx.config.split_budget, ctx.tile_guards)
            new_body = rewriter.transform(body)
            applied.extend(rewriter.applied)
            if new_body is body:
                break
            body = new_body
        ctx.artifacts["applied_interchanges"] = applied
        return _with_body(program, body)

    def config_key(self, ctx) -> Tuple:
        return _tiling_structure(ctx.config)

    def payload(self, program, ctx) -> object:
        return (program, tuple(ctx.artifacts.get("applied_interchanges", ())))

    def restore(self, payload: object, ctx):
        program, applied = payload
        ctx.artifacts["applied_interchanges"] = list(applied)
        return program

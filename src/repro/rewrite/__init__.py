"""repro.rewrite — the transformation framework.

One :class:`~repro.rewrite.framework.Transformation` protocol over both
IRs (apply, plus the keys and signature the pipeline memoises it under),
the Section 4 transforms and the schedule rewrites as its only
implementations, and the legal-ordering search the DSE sweeps through the
``pipeline`` gene.  See the module docstrings of
:mod:`repro.rewrite.framework` and :mod:`repro.rewrite.orderings`.
"""

from repro.rewrite.framework import (
    ScheduleTransformation,
    Transformation,
    TransformationError,
)
from repro.rewrite.orderings import (
    AUTO_PREFIX,
    DEFAULT_ORDERING,
    STEPS,
    enumerate_legal_orderings,
    guided_orderings,
    is_legal_ordering,
    ordering_name,
    parse_ordering_name,
    pipeline_for_name,
    pipeline_for_ordering,
)
from repro.rewrite.ppl import (
    Interchange,
    InvariantCodeMotion,
    LetCse,
    StripMine,
    TileCopies,
    VerticalFusion,
)
from repro.rewrite.schedule import (
    CoalesceTransfers,
    FlattenDegenerateGroups,
    RebalanceStages,
    ScheduleRewrite,
)

__all__ = [
    "AUTO_PREFIX",
    "CoalesceTransfers",
    "DEFAULT_ORDERING",
    "FlattenDegenerateGroups",
    "Interchange",
    "InvariantCodeMotion",
    "LetCse",
    "RebalanceStages",
    "STEPS",
    "ScheduleRewrite",
    "ScheduleTransformation",
    "StripMine",
    "TileCopies",
    "Transformation",
    "TransformationError",
    "VerticalFusion",
    "enumerate_legal_orderings",
    "guided_orderings",
    "is_legal_ordering",
    "ordering_name",
    "parse_ordering_name",
    "pipeline_for_name",
    "pipeline_for_ordering",
]

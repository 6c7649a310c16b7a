"""The rewrite machinery of the Section 4 parallel pattern transformations.

Each transform is one framework class in :mod:`repro.rewrite.ppl`, which
owns its apply; these modules hold the private helpers those classes
call:

* :mod:`repro.transforms.fusion` — vertical fusion of producer/consumer
  patterns (assumed to have already run before tiling in the paper);
* :mod:`repro.transforms.cse` — common subexpression elimination over Lets;
* :mod:`repro.transforms.code_motion` — loop-invariant code motion of Lets
  out of patterns;
* :mod:`repro.transforms.strip_mining` — the Table 1 strip-mining rules and
  the tile-copy insertion that converts predictable accesses into explicit
  tile copies (Table 2);
* :mod:`repro.transforms.interchange` — the two pattern-interchange rules and
  the split heuristic (Table 3, Figure 5);
* :mod:`repro.transforms.symbolic` — placeholder tile sizes, the guards on
  tile values, and the instantiation of a symbolic tiling per configuration.

The pipeline sequences them (:mod:`repro.rewrite.orderings`); the paper's
Figure 1 flow is the ``default`` ordering.
"""

"""Workbench for computads over the strict n-category monad."""

from .freecat import (
    Bounds, Comp, Gen, Id, Term,
    equal_cells, verify_certificate,
)
from .globular import GlobularSet, GlobMap, ParallelPair, parallel_pairs, pullback_glob
from .pasting import Tree, enumerate_trees, height, pasting_cells, truncate_tree
from .computads import (
    Algebra, Computad, ComputadMap, build_computad, computad_of_algebra,
    free_algebra, pullback_computads, t_functor, theta_computad,
)
from .operads import (
    NonSymCollection, Presentation, SymCollection,
    eval_analytic, eval_strongly_analytic, is_strongly_regular_presentation,
    known_slice_oracle, slice_of_strict,
)
from .limitlab import (
    FinSetMap, FunctorOnSets, Square,
    computad_topos_gate, is_pullback, is_weak_pullback,
    preserves_pullbacks_experiment, pullback_sets, run_path_preservation,
)

__version__ = "0.1.0"

"""Workbench for computads over the strict n-category monad."""

from .freecat import (
    Bounds, Comp, Gen, Id, Term,
    equal_cells, verify_certificate,
)
from .pasting import Tree, enumerate_trees
from .computads import (
    Computad, ComputadMap, build_computad, free_algebra, pullback_computads,
    theta_computad,
)
from .operads import (
    NonSymCollection, Presentation, SymCollection,
    eval_analytic, eval_strongly_analytic, is_strongly_regular_presentation,
    slice_arities, slice_of_strict,
)
from .limitlab import (
    FinSetMap, Square,
    check_cospan, check_square, computad_topos_gate, pullback_sets,
    run_path_preservation,
)

__version__ = "0.1.0"

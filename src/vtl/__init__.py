"""Exact computational engine for virtual strand diagram algebras.

Three layers:

- diagram algebra: perfect matchings of 2n boundary points with loop value
  lambda (`diagrams`, `elements`), all arithmetic exact over Q(sqrt(D));
- presentation: generator words, formal linear combinations, the closed
  registry of defining relations, and a brute-force expansion cross-check
  (`words`, `expressions`, `relations`, `expand`, `rho`);
- tensor representation: the swap / partial-transpose model on (C^d)^n
  (`tensorrep`, `linalg`, `reps`).

`verify` ties them together and `cli` exposes it as the `vtl` command.
"""

from .diagrams import (
    Matching,
    closure_loops,
    compose,
    e_diagram,
    identity_diagram,
    matching_from_labels,
    permutation_diagram,
    random_matching,
    v_diagram,
)
from .elements import (
    AlgebraElement,
    closure_trace,
    e_element,
    element_inverse,
    element_multiply,
    identity_element,
    v_element,
)
from .errors import (
    DegenerateParamsError,
    FieldMismatchError,
    NonInvertibleError,
    StrandMismatchError,
    WordParseError,
)
from .expand import braid_matches_registry, expand_bgr, registry_combo
from .expressions import Expr, e_star, gen_e, gen_rho, gen_v
from .linalg import DenseMatrix, invert, rank
from .relations import (
    CheckReport,
    RelationInstance,
    check_relation,
    relation_instances,
)
from .reps import (
    DiagramRep,
    MatrixRep,
    evaluate_expr,
    evaluate_word,
    make_rep,
    rho_image,
)
from .rho import RhoParams, solve_ab
from .scalars import QuadScalar, as_scalar
from .tensorrep import (
    factor_matching,
    matching_matrix,
    perm_matrix,
    pstar_complement,
    ptranspose_matrix,
    rep_element,
    site_embed,
)
from .verify import VerifyRequest, expected_zero, run_verify
from .words import GeneratorSymbol, GeneratorWord, parse_word, render_word

__all__ = [
    "AlgebraElement",
    "CheckReport",
    "DegenerateParamsError",
    "DenseMatrix",
    "DiagramRep",
    "Expr",
    "FieldMismatchError",
    "GeneratorSymbol",
    "GeneratorWord",
    "Matching",
    "MatrixRep",
    "NonInvertibleError",
    "QuadScalar",
    "RelationInstance",
    "RhoParams",
    "StrandMismatchError",
    "VerifyRequest",
    "WordParseError",
    "as_scalar",
    "braid_matches_registry",
    "check_relation",
    "closure_loops",
    "closure_trace",
    "compose",
    "e_diagram",
    "e_element",
    "e_star",
    "element_inverse",
    "element_multiply",
    "evaluate_expr",
    "evaluate_word",
    "expand_bgr",
    "expected_zero",
    "factor_matching",
    "gen_e",
    "gen_rho",
    "gen_v",
    "identity_diagram",
    "identity_element",
    "invert",
    "make_rep",
    "matching_from_labels",
    "matching_matrix",
    "parse_word",
    "perm_matrix",
    "permutation_diagram",
    "pstar_complement",
    "ptranspose_matrix",
    "random_matching",
    "rank",
    "registry_combo",
    "relation_instances",
    "render_word",
    "rep_element",
    "rho_image",
    "run_verify",
    "site_embed",
    "solve_ab",
    "v_diagram",
    "v_element",
]

__version__ = "0.1.0"

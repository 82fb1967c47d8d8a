"""Exact invariants of simplicial posets and torus quotient ranks.

Submodules: ``poset`` (face lattices, up-sets, subdivision),
``homology`` (Smith normal form Betti numbers of a poset and of the
links of its faces), ``facevec`` (f/h/ft/h'/h'' and the identity
suite), ``classify`` (Buchsbaum / Cohen-Macaulay / homology manifold),
``charfn`` (characteristic functions), ``spectral`` (rank tables of
quotient constructions), ``corpus`` (built-in examples), ``io`` (JSON
formats) and ``cli``.
"""

from .charfn import CharFunction
from .classify import Classification, classify
from .corpus import corpus, corpus_names
from .errors import SposetError
from .facevec import FaceVectorReport, face_vector_report, identity_report
from .homology import (
    Coefficients,
    INTEGERS,
    RATIONALS,
    parse_coefficients,
    prime_field,
    reduced_betti,
    smith_normal_form,
)
from .poset import (
    SimplexElem,
    SimplicialPoset,
    barycentric,
    from_face_lattice,
    from_facets,
    validate_stats,
)
from .spectral import (
    CONE,
    MANIFOLD,
    QuotientProblem,
    Tables,
    solve,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CharFunction",
    "Classification",
    "Coefficients",
    "CONE",
    "FaceVectorReport",
    "INTEGERS",
    "MANIFOLD",
    "QuotientProblem",
    "RATIONALS",
    "SimplexElem",
    "SimplicialPoset",
    "SposetError",
    "Tables",
    "barycentric",
    "classify",
    "corpus",
    "corpus_names",
    "face_vector_report",
    "from_face_lattice",
    "from_facets",
    "identity_report",
    "parse_coefficients",
    "prime_field",
    "reduced_betti",
    "smith_normal_form",
    "solve",
    "validate_stats",
    "verify",
]

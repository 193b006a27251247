"""Exact-arithmetic knot Floer standard complexes and the gamma_0 invariant."""

from .algebra import Mode, alexander_torus
from .complexes import ChainComplex, Endomorphism
from .involutive import basic_involution, phi_psi, tensor_involution, verify_lemma_43_44
from .knots import (
    Cable2,
    Mirror,
    Sum,
    Torus,
    Unknot,
    cable2,
    cable_genus,
    eval_expr,
    genus_of,
    locally_equivalent,
    p_knot,
    parse_expr,
    staircase_from_alexander,
    sum_with_T2,
    tau_cable_formula,
    torus_staircase,
)
from .standard import (
    epsilon,
    extract_gamma0,
    seq_to_complex,
    tau,
    top_alexander,
    validate_seq,
)

__version__ = "0.1.0"

__all__ = [
    "Mode",
    "alexander_torus",
    "ChainComplex",
    "Endomorphism",
    "basic_involution",
    "phi_psi",
    "tensor_involution",
    "verify_lemma_43_44",
    "Cable2",
    "Mirror",
    "Sum",
    "Torus",
    "Unknot",
    "cable2",
    "cable_genus",
    "eval_expr",
    "genus_of",
    "locally_equivalent",
    "p_knot",
    "parse_expr",
    "staircase_from_alexander",
    "sum_with_T2",
    "tau_cable_formula",
    "torus_staircase",
    "epsilon",
    "extract_gamma0",
    "seq_to_complex",
    "tau",
    "top_alexander",
    "validate_seq",
    "__version__",
]

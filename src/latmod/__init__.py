"""Finite multiplicative lattices and lattice modules.

Build or load finite instances, classify their elements (prime, primary,
semiprime, classical prime, pseudo-primary, pseudo-classical primary, ...)
with counterexample witnesses, and run an executable registry of structural
theorems over them.
"""

from .lattice import (
    LElementFlags,
    MultiplicativeLattice,
    ValidationError,
    Violation,
    is_p_primary_l,
    is_pg_lattice,
    is_principal_l,
    l_element_flags,
    lattice_flags,
    residual_ll,
    sqrt,
    stable_power,
    validate_lattice,
)
from .module import (
    LatticeModule,
    is_faithful,
    is_multiplication_module,
    is_pg_module,
    is_principal_m,
    maximal_elements,
    prime_elements,
    rad,
    residual_ml,
    residual_mm,
    saturation,
    validate_module,
    variety,
    variety_l,
)
from .classify import (
    Classification,
    PAttachments,
    classify,
    classify_all,
    is_classical_prime,
    is_minimal_prime_over,
    is_prime_m,
    is_primary_m,
    is_pseudo_classical_primary,
    is_pseudo_primary,
    is_radical_element,
    is_semiprime,
    is_two_absorbing,
    p_attachments,
)
from .instances import (
    DEFAULT_SQUARE_CAP,
    InstanceSpec,
    ParseError,
    gen_zn_ideal_lattice,
    gen_zn_self_module,
    gen_zn_square_module,
    parse_instance,
    serialize_instance,
)

__version__ = "0.1.0"

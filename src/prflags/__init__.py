"""Polygons with rational slopes, Hodge polygons of modules over truncated
polynomial rings, Pappas-Rapoport filtrations, the complete e=3
classification by polygon triples, its stratification poset, and lifting
lemmas over truncated power series -- all in exact arithmetic, each
theorem backed by a brute-force oracle at desk scale."""

from .gf import (
    DEFAULT_ENUM_CAP,
    AmbientMismatchError,
    EnumerationCapError,
    F2,
    F3,
    Matrix,
    PrimeField,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    image,
    preimage,
    subspaces_between,
)
from .polygon import Polygon, PolygonError
from .tmodule import (
    ConcreteModule,
    JordanType,
    delta_vector,
    hodge_polygon,
    jordan_type,
    power_image,
    realize,
    restrict_module,
    torsion_flag,
)
from .pr import (
    InfeasiblePRError,
    InfeasibleTargetError,
    PRDatum,
    PRError,
    alpha_table,
    check_hdg_filt,
    pr_all_data,
    pr_construct,
    pr_exists,
    pr_oracle_exists,
    pr_permute,
    subspace_in_flag,
    validate_pr,
)
from .e3 import (
    AdmissibilityError,
    StrataPoint,
    enum_Y,
    enum_Yadm,
    enum_Ypol,
    in_Y,
    iso_classes_oracle,
    normal_form,
    phi,
    violation,
)
from .strat import StrataPoset, export_dot, export_json, leq
from .lift import (
    Degeneration,
    LiftConstructionError,
    LiftInfeasibleError,
    LiftProblem,
    PolyMatrix,
    PolyModule,
    StratOrderError,
    TheoremGapError,
    degenerate_step,
    generic_rank,
    lift_isotropic,
    lift_subspace,
    polarized_normal_form,
    standard_symplectic,
    verify_lift,
)

__version__ = "0.1.0"

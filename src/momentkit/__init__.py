"""momentkit: inversion of finite Markov moment systems.

Recovers positive/negative branch values from signed power-sum moments,
certifies solvability and uniqueness, enumerates degenerate solution
families, propagates higher moments stably, checks the classical Markov
interlacing picture, and inverts trigonometric moment systems.
"""

from .errors import (
    FamilyOverflow,
    IllConditionedNodes,
    MomentProblemError,
    NonRealSolution,
    NoPositiveBranches,
    NoSolution,
    RankDeficientSignal,
    RepeatedRoots,
    SingularReducedSystem,
)
from .inversion import (
    companion_coefficients,
    d_coefficients,
    extend_moments,
    family_member,
    invert_min_degree,
    next_moment,
)
from .markov import (
    MarkovCertificate,
    WeightData,
    density_eval,
    factorization_residual,
    markov_certificate,
    weights,
)
from .structure import (
    HankelSystem,
    SolvabilityReport,
    analyze,
    build_hankel,
    numeric_rank,
)
from .tolerances import ToleranceSet
from .transform import (
    BranchSolution,
    ExpCoefficients,
    MomentSequence,
    exp_transform,
    forward_moments,
    poly_from_roots,
)
from .trig import TrigSignal, trig_forward, trig_invert

__version__ = "0.1.0"

__all__ = [
    "BranchSolution",
    "ExpCoefficients",
    "FamilyOverflow",
    "HankelSystem",
    "IllConditionedNodes",
    "MarkovCertificate",
    "MomentProblemError",
    "MomentSequence",
    "NoPositiveBranches",
    "NoSolution",
    "NonRealSolution",
    "RankDeficientSignal",
    "RepeatedRoots",
    "SingularReducedSystem",
    "SolvabilityReport",
    "ToleranceSet",
    "TrigSignal",
    "WeightData",
    "analyze",
    "build_hankel",
    "companion_coefficients",
    "d_coefficients",
    "density_eval",
    "exp_transform",
    "extend_moments",
    "factorization_residual",
    "family_member",
    "forward_moments",
    "invert_min_degree",
    "markov_certificate",
    "next_moment",
    "numeric_rank",
    "poly_from_roots",
    "trig_forward",
    "trig_invert",
    "weights",
]

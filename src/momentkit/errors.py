"""Domain exceptions raised by the moment inversion pipeline."""


class MomentProblemError(Exception):
    """Base class for failures that are properties of the data, not bugs."""


class NoSolution(MomentProblemError):
    """The moment data admits no solution (first Hankel column outside range(A1))."""


class NonRealSolution(MomentProblemError):
    """A retained root has a significant imaginary part; no real branch solution."""


class SingularReducedSystem(MomentProblemError):
    """The reduced Hankel matrix is numerically singular.

    On exactly solvable data this cannot happen; it signals either
    unsolvable data or a rank tolerance that misjudged the problem.
    """


class NoPositiveBranches(MomentProblemError):
    """Raised by ``markov_certificate`` when n_x = 0.

    The Hankel system of n_x = 0 is empty (p = 1), which every other
    entry point answers from; there is no block to certify.
    """


class FamilyOverflow(MomentProblemError):
    """More matched pairs requested than the solution family admits."""


class RepeatedRoots(MomentProblemError):
    """Weight evaluation requires simple (pairwise separated) x-values."""


class RankDeficientSignal(MomentProblemError):
    """The trigonometric moment matrix has rank below the requested mode count."""


class IllConditionedNodes(MomentProblemError):
    """Two recovered frequencies coincide within the separation tolerance."""

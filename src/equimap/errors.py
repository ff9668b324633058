"""Exception taxonomy shared by all modules.

ValueError subclasses signal bad input or violated preconditions; the
Infeasible subclasses signal mathematically honest "no result" outcomes that
the CLI maps to its own exit code; CheckFailed subclasses signal a proof
check that came back false. They are raised explicitly, never by `assert`,
so they survive `python -O`.
"""


class ConductorMismatch(ValueError):
    """Arithmetic between cyclotomic numbers over different conductors."""


class NotADivisor(ValueError):
    """Embedding target conductor is not a multiple of the source."""


class ClosureExplosion(ValueError):
    """Group closure exceeded the safety cap; generators are suspect."""


class RankExceedsDimension(ValueError):
    """More invariant factors than matrix dimensions."""


class NotDividing(ValueError):
    """Invariant factors must form a divisibility chain."""


class NonAbelianQuotient(ValueError):
    """Character construction requires an abelian quotient."""


class ReducibleChi(ValueError):
    """The 2-dimensional trace character is reducible (cyclic group)."""


class BothZero(ValueError):
    """gcd of two zero forms is undefined."""


class DegreeMismatch(ValueError):
    """Operation requires forms of equal degree."""


class ZeroForm(ValueError):
    """A nonzero form is required."""


class ZeroDenominator(ValueError):
    """Rational function with zero denominator."""


class NotPrime(ValueError):
    """p-rank needs a prime p."""


class SingularJacobian(ValueError):
    """Factorization point has a singular differential."""


class ConditionsFail(ValueError):
    """Origin conditions (fixed point, identity differential) do not hold."""


class CheckFailed(AssertionError):
    """A check on a computed result failed; indicates a bug."""


class Mismatch(CheckFailed):
    """Series consistency failed at some degree; indicates a bug."""

    def __init__(self, d, detail=""):
        self.d = d
        super().__init__(f"series mismatch at degree {d}: {detail}")


class UnknownKind(ValueError):
    """Unrecognized group or series kind tag."""


class Infeasible(Exception):
    """Base for honest no-result outcomes (CLI exit code 3)."""


class InfeasibleDegree(Infeasible):
    """No self-compression of degree d exists: mult <= k = dim A(gamma)_(d-1)
    for some linear character gamma with gamma*chi = chi, mult the dimension
    of the equivariant maps phi: A_1 -> A_d and A(gamma) the forms f with
    f o g = gamma(g) f. A self-compression is such a phi with
    deg gcd(phi1, phi2) <= d - 2.

    If deg gcd = d, phi = f c with c a common eigenvector of G, which an
    irreducible chi has not. If deg gcd = d - 1, phi = f l with l1, l2
    independent linear forms; phi o g = g phi makes f o g = gamma(g) f, so
    phi lies in W_gamma, the equivariant maps with components in
    U = A(gamma)_(d-1) * A_1. And dim W_gamma = k: f -> f M v embeds
    A(gamma)_(d-1) in W_gamma, for M != 0 with gamma(g) M g = g M, which
    exists by Schur as gamma*chi = chi; and U, the image of
    A(gamma)_(d-1) (x) A_1, a sum of k copies of the irreducible
    gamma (x) A_1, holds the module of the maps at most k times (none
    unless gamma*chi = chi). So if mult <= k, W_gamma holds every map and
    none has nontrivial descent; if mult > k for every gamma, the W_gamma
    are proper subspaces, and a vector space over an infinite field is no
    finite union of them.
    """


class SearchExhausted(Infeasible):
    """No coefficient vector within the norm bound passed the tests."""


class OrderCapExceeded(Infeasible):
    """Group table too large for exhaustive subgroup enumeration."""


class DegreeCapExceeded(Infeasible):
    """A degree past the configured `degree_cap`, refused before any work."""


class NotFound(Infeasible):
    """No invariant form of the requested degree exists."""


class NotInvariant(ValueError):
    """Supplied form is not invariant under the group."""

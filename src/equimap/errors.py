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
    """s_d = 0: no equivariant map of this degree exists."""


class SearchExhausted(Infeasible):
    """No coefficient vector within the norm bound passed the tests."""


class OrderCapExceeded(Infeasible):
    """Group table too large for exhaustive subgroup enumeration."""


class NotFound(Infeasible):
    """No invariant form of the requested degree exists."""


class NotInvariant(ValueError):
    """Supplied form is not invariant under the group."""

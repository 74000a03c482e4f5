"""Exception types shared across the package.

Verification failures carry a ``witness`` attribute (the lexicographically
first failing basis tuple together with both evaluated sides) whenever a
sweep produced one.
"""

from __future__ import annotations


class HopfkitError(Exception):
    """Base class for all errors raised by this package."""


class FieldMismatch(HopfkitError):
    """Two objects over different ground fields were combined."""


class DimensionMismatch(HopfkitError):
    """Shapes of spaces, maps or tables are inconsistent."""


class SingularMap(HopfkitError):
    """A map that must be invertible is rank-deficient."""


class NoSolution(HopfkitError):
    """An exact linear system is inconsistent."""


class NonUniqueSolution(HopfkitError):
    """An exact linear system is underdetermined."""

    def __init__(self, message: str, nullity: int):
        super().__init__(f"{message} (nullity {nullity})")
        self.nullity = nullity


class UnvalidatedInput(HopfkitError):
    """An operation received structure data that was never verified."""


class NotCocommutative(HopfkitError):
    """A carrier required to be cocommutative is not."""


class VerificationFailed(HopfkitError):
    """Base for identity sweeps that failed; carries the witness."""

    def __init__(self, message: str, witness=None):
        if witness is not None:
            message = f"{message}; witness {witness}"
        super().__init__(message)
        self.witness = witness


class NotCoalgebraMap(VerificationFailed):
    """A map fails the coalgebra-morphism conditions."""


class RBIdentityFails(VerificationFailed):
    """The Rota-Baxter identity fails on some basis pair."""


class NotAutomorphism(HopfkitError):
    """A map fails the bialgebra-automorphism conditions."""


class HopfAxiomFails(VerificationFailed):
    """One of the Hopf algebra axioms fails."""

    def __init__(self, axiom: str, witness=None, structure: str = ""):
        where = f" on {structure}" if structure else ""
        super().__init__(f"Hopf axiom '{axiom}' fails{where}", witness)
        self.axiom = axiom


class CompatibilityFails(VerificationFailed):
    """The Hopf brace compatibility identity fails on a basis triple."""


class HypothesisFails(VerificationFailed):
    """A construction's stated hypothesis fails on the given input."""

    def __init__(self, hypothesis: str, witness=None):
        super().__init__(f"hypothesis '{hypothesis}' fails", witness)
        self.hypothesis = hypothesis


class IdentityFails(VerificationFailed):
    """A defining identity fails; ``which`` names the identity."""

    def __init__(self, which: str, witness=None):
        super().__init__(f"identity '{which}' fails", witness)
        self.which = which


class AxiomFails(VerificationFailed):
    """A named axiom of a structure fails."""

    def __init__(self, axiom: str, witness=None):
        super().__init__(f"axiom '{axiom}' fails", witness)
        self.axiom = axiom


class BraidFails(VerificationFailed):
    """The braid relation fails on a basis triple."""


class NotExactFactorization(HopfkitError):
    """The requested multiplicative decomposition is not bijective."""


class NotConvolutionInvertible(HopfkitError):
    """A map has no convolution inverse."""


class ConstructionInvalid(HopfkitError):
    """A construction failed its advertised re-verification."""

    def __init__(self, stage: str, message: str = ""):
        super().__init__(f"construction invalid at stage '{stage}'"
                         + (f": {message}" if message else ""))
        self.stage = stage


class InternalTheoremViolation(HopfkitError):
    """A theorem re-check failed on valid inputs: an implementation bug."""


class BudgetExceeded(HopfkitError):
    """A bounded search ran out of budget; partial results attached."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial if partial is not None else []


class DefinitionError(HopfkitError):
    """Base for definition-file problems; carries a JSON-ish path."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{message}" + (f" at {path}" if path else ""))
        self.path = path


class DefinitionSyntaxError(DefinitionError):
    """The definition file is not valid JSON or violates the schema."""


class UnknownReference(DefinitionError):
    """A declaration references a name that is not (yet) defined."""


class CyclicReference(DefinitionError):
    """Declarations reference each other cyclically."""

"""Exception hierarchy shared by all pqk modules."""

from __future__ import annotations


class PqkError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# Lifting-tree algebra


class TreeError(PqkError):
    pass


class InvalidBranch(TreeError):
    """An assignment is not consistent with (or not a path of) a lifting tree."""


class VariableClash(TreeError):
    """A lifted variable would occur twice on one root-to-leaf path."""


class AssignmentClash(TreeError):
    """Union of two assignments with overlapping domains."""


# ---------------------------------------------------------------------------
# Circuits


class CircuitError(PqkError):
    pass


class UnboundLabel(CircuitError):
    pass


class DuplicateLabel(CircuitError):
    pass


class LeftoverLabel(CircuitError):
    pass


class WrongWireType(CircuitError):
    pass


class StaleLiftedVar(CircuitError):
    """lift introduces a variable already live on the current branch."""


class NonFreshOutput(CircuitError):
    """Gate output label already occurs somewhere in the circuit."""


class UnknownGate(CircuitError):
    pass


class GateArityMismatch(CircuitError):
    """Gate operand tuple does not match the gate's declared shape."""


class PreconditionViolated(CircuitError):
    """An append precondition failed (bad branch, bad target, bad fresh vars)."""


# ---------------------------------------------------------------------------
# Surface syntax


class PqkSyntaxError(PqkError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# Typing


class TypeCheckError(PqkError):
    """Typing rejection; carries the rule name, an error kind and a branch path.

    ``kind`` is one of the KIND_* constants below, ``rule`` names the typing
    rule under which the rejection happened, and ``branch`` is the assignment
    of the lifted-judgment branch that failed (None outside lifted judgments).
    ``name`` is the variable an UnboundVar rejection is about (None otherwise).
    """

    def __init__(self, kind: str, message: str, *, rule: str = "", branch=None, span=None,
                 name: str | None = None):
        loc = f" at {span}" if span is not None else ""
        br = f" [branch {branch}]" if branch is not None else ""
        rl = f" (rule {rule})" if rule else ""
        super().__init__(f"{kind}: {message}{rl}{br}{loc}")
        self.kind = kind
        self.message = message
        self.rule = rule
        self.branch = branch
        self.span = span
        self.name = name


KIND_UNBOUND_VAR = "UnboundVar"
KIND_LINEARITY = "LinearityViolation"
KIND_LEFTOVER_LINEAR = "LeftoverLinear"
KIND_BRANCH_ARITY = "BranchArityMismatch"
KIND_LIFTED_VAR_NOT_FRESH = "LiftedVarNotFresh"
KIND_NON_PARAMETER_UNDER_LIFT = "NonParameterUnderLift"
KIND_FLATTEN_CLASH = "FlattenClash"
KIND_TYPE_MISMATCH = "TypeMismatch"
KIND_UNBOUND_LABEL = "UnboundLabel"
KIND_SIGNATURE = "SignatureError"


# ---------------------------------------------------------------------------
# Simulation


class SimulationError(PqkError):
    pass


class UnsupportedGate(SimulationError):
    pass

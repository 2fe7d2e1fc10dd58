"""pqk: a circuit description calculus with dynamic lifting.

The package implements, end to end: the lifting-tree algebra (trees.py), the
circuit representation language with signature checking (circuit.py), the
surface language with a linear type-and-effect checker (syntax.py, parser.py,
typecheck.py), a big-step evaluator that builds circuits as a side effect
(interp.py), a shot-splitting state-vector simulator (simulator.py) and a
metatheory fuzzer for subject reduction and progress (fuzz.py).
"""

from .circuit import (
    BoxedCircuit,
    Circuit,
    CircuitSignature,
    DEFAULT_GATES,
    Gate,
    GateSet,
    LabelContext,
    append,
    check_signature,
    insert,
)
from .errors import PqkError, PqkSyntaxError, TypeCheckError
from .fuzz import GenConfig, check_progress, check_sr, gen_corpus, run_fuzz
from .interp import Done, EvalEnv, FuelExhausted, LeftConfig, RightConfig, Stuck, run_closed
from .parser import (
    boxed_from_circuit,
    parse_circuit_text,
    parse_program,
    parse_term,
    parse_type_text,
    parse_value,
)
from .simulator import QuantumState, branch_distribution, branch_states, fidelity, simulate
from .syntax import BIT, QUBIT
from .trees import (
    Assignment,
    EMPTY_TREE,
    Lifted,
    LiftedLeaf,
    LiftedNode,
    Renaming,
    TreeLeaf,
    TreeNode,
    compose,
    flatten,
    graft,
    path_set,
    update_under,
    var_set,
)
from .typecheck import (
    ComputationTyping,
    TypingContext,
    check_closed_term,
    check_closed_value,
    type_term,
    type_value,
)

__version__ = "0.1.0"

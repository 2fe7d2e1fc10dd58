"""Deliberately broken evaluators, installed by monkeypatching, that the
subject-reduction and progress checks must catch."""

from __future__ import annotations

import pqk.interp
from pqk.errors import PreconditionViolated
from pqk.trees import compose, lookup, path_set


def _first_leaf_compose(obj, family):
    """The let rule without flattening: each branch keeps only its result's first leaf."""
    first = {p: lookup(r, path_set(r)[0]) for p, r in family.items()}
    return compose(obj, first, first.keys())


def skip_let_flatten(monkeypatch) -> None:
    """Make the evaluator's let rule drop every lifted result below a branch."""
    monkeypatch.setattr(pqk.interp, "flatten_family", _first_leaf_compose)


def _refuse_lifting_append(original):
    def append(c, a, target, boxed, fresh_vars, *args, **kwargs):
        if fresh_vars:
            raise PreconditionViolated("mutant: no lifting apply")
        return original(c, a, target, boxed, fresh_vars, *args, **kwargs)

    return append


def stuck_lifting_apply(monkeypatch) -> None:
    """Make every apply that names a lifted variable get stuck (a progress violation)."""
    monkeypatch.setattr(pqk.interp, "append", _refuse_lifting_append(pqk.interp.append))

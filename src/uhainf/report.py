"""The outcome record shared by every verification suite and the fuzzer."""

from __future__ import annotations

from typing import Optional

from .qnum import _Value

__all__ = ["CheckReport"]


class CheckReport(_Value):
    """Outcome of one verification run: counts plus failure witnesses.

    A witness pattern is stored through its ``to_json()``; a residual is
    stored as given when it is a plain dict, and otherwise (a pattern
    vector) through its ``to_json()``.  A params dict or failures list left
    out is a new empty one.
    """

    __slots__ = ("relation", "params", "checked", "failures")

    def __init__(self, relation: str, params: Optional[dict] = None,
                 checked: int = 0, failures: Optional[list] = None):
        self.relation = relation
        self.params = {} if params is None else params
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        """No failure witness, and at least one instance checked: a report
        that checked nothing does not count as a pass."""
        return self.checked > 0 and not self.failures

    def record(self, pattern, residual, note: str = "") -> None:
        entry = {}
        if pattern is not None:
            entry["pattern"] = pattern.to_json()
        if isinstance(residual, dict):
            entry["residual"] = residual
        elif residual is not None:
            entry["residual"] = residual.to_json()
        if note:
            entry["note"] = note
        self.failures.append(entry)

    def to_json(self) -> dict:
        return {
            "relation": self.relation,
            "params": self.params,
            "checked": self.checked,
            "failures": self.failures,
        }

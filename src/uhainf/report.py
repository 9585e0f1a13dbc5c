"""The outcome record shared by every verification suite and the fuzzer."""

from __future__ import annotations

from typing import Optional

__all__ = ["CheckReport"]


class CheckReport:
    """Outcome of one verification run: counts plus failure witnesses.

    A witness pattern is stored through its ``to_json()``; a residual is
    stored as given when it is a plain dict, and otherwise (a pattern
    vector) through its ``to_json()``.  A params dict or failures list left
    out is a new empty one.
    """

    __slots__ = ("relation", "params", "checked", "failures")
    __hash__ = None

    def __init__(self, relation: str, params: Optional[dict] = None,
                 checked: int = 0, failures: Optional[list] = None):
        self.relation = relation
        self.params = {} if params is None else params
        self.checked = checked
        self.failures = [] if failures is None else failures

    def __eq__(self, other):
        if not isinstance(other, CheckReport):
            return NotImplemented
        return ((self.relation, self.params, self.checked, self.failures)
                == (other.relation, other.params, other.checked, other.failures))

    def __repr__(self) -> str:
        return (f"CheckReport(relation={self.relation!r}, params={self.params!r}, "
                f"checked={self.checked!r}, failures={self.failures!r})")

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

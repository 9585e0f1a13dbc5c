"""The outcome record shared by every verification suite and the fuzzer."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CheckReport"]


@dataclass
class CheckReport:
    """Outcome of one verification run: counts plus failure witnesses.

    A witness pattern is stored through its ``to_json()``; a residual is
    stored as given when it is a plain dict, and otherwise (a pattern
    vector) through its ``to_json()``.
    """

    relation: str
    params: dict = field(default_factory=dict)
    checked: int = 0
    failures: list = field(default_factory=list)

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

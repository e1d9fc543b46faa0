"""Pass/fail verdicts with tight constants and worst-case witnesses."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, eq=False)
class Certificate:
    """Verdict of a verification run.

    ``constant`` is the tight estimate the check produced (when meaningful),
    ``witness`` the worst case found on failure, ``details`` the raw numbers,
    ``flags`` qualifiers such as "approximate" or "degenerate".
    """

    name: str
    passed: bool
    constant: float | None = None
    witness: Any = None
    details: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "constant": self.constant,
            "witness": _jsonable(self.witness),
            "details": {k: _jsonable(v) for k, v in self.details.items()},
            "flags": list(self.flags),
        }


def _jsonable(value):
    import numpy as np

    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (frozenset, set)):
        return sorted(_jsonable(v) for v in value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, list):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return repr(value)
    return value

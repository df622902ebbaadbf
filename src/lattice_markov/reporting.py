"""Named residual reports shared by the certification routines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


REL_TOL = 1e-9  # relative threshold of the checks that scale with a matrix's norm


@dataclass(frozen=True)
class Tolerance:
    """Absolute comparison threshold for residual checks."""

    abs_tol: float = 1e-10

    def __post_init__(self) -> None:
        if math.isinf(self.abs_tol):
            raise ValueError("tolerances must be finite")
        if not self.abs_tol >= 0:  # NaN is refused too
            raise ValueError("tolerances must be non-negative")


DEFAULT_TOL = Tolerance()


@dataclass
class VerificationReport:
    """Outcome of one certification run: named residuals plus a pass flag."""

    name: str
    residuals: dict[str, float]
    tol: float
    passed: bool
    info: dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_residuals(cls, name: str, residuals: dict[str, float], tol: float,
                       **info: object) -> "VerificationReport":
        passed = all(abs(v) <= tol for v in residuals.values())  # NaN fails
        return cls(name=name, residuals=dict(residuals), tol=tol, passed=passed,
                   info=dict(info))

    def as_dict(self) -> dict:
        out: dict[str, object] = {
            "name": self.name,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tol": float(self.tol),
            "pass": bool(self.passed),
        }
        if self.info:
            out["info"] = self.info
        return out

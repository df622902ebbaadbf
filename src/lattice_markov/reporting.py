"""Named residual reports shared by the certification routines."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Tolerance:
    """Absolute and relative comparison thresholds for residual checks."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-9

    def __post_init__(self) -> None:
        if not (self.abs_tol >= 0 and self.rel_tol >= 0):  # NaN is refused too
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
        passed = all(abs(v) < tol for v in residuals.values())
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

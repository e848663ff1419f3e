"""Pass/fail reports produced by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field

# Most violations CheckReport.lines prints; the rest are counted.
VIOLATION_LINES = 10


@dataclass
class CheckReport:
    """Outcome of one verification suite: a count and the violations found."""

    suite: str
    checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def add(self, message: str) -> None:
        self.violations.append(message)

    def summary(self) -> str:
        if self.passed:
            return f"{self.suite}: PASS ({self.checked} checks)"
        return (f"{self.suite}: FAIL ({self.checked} checks, "
                f"{len(self.violations)} violations)")

    def lines(self) -> list[str]:
        out = [self.summary()]
        for message in self.violations[:VIOLATION_LINES]:
            out.append(f"  violation: {message}")
        if len(self.violations) > VIOLATION_LINES:
            out.append(f"  ... and {len(self.violations) - VIOLATION_LINES} more")
        return out

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "checked": self.checked,
            "violations": list(self.violations),
        }

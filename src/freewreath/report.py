"""Verification reports: named lists of exact pass/fail checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CheckResult:
    description: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    name: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, description: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(description, bool(passed), detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"verify {self.name}: {'PASS' if self.passed else 'FAIL'}"]
        for c in self.checks:
            mark = "ok" if c.passed else "FAIL"
            tail = f" [{c.detail}]" if c.detail else ""
            lines.append(f"  {mark}: {c.description}{tail}")
        return "\n".join(lines)

    __str__ = render

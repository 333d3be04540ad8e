"""Verification reports: named lists of exact pass/fail checks."""

from __future__ import annotations

from typing import Iterable

from .config import Value


class CheckResult(Value):
    __slots__ = _fields = ("description", "passed", "detail")

    def __init__(self, description: str, passed: bool, detail: str = ""):
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


class VerificationReport(Value):
    __slots__ = _fields = ("name", "checks")
    _frozen = False
    __hash__ = None  # mutable

    def __init__(self, name: str, checks: list[CheckResult] | None = None):
        self.name = name
        self.checks = [] if checks is None else checks

    def add(self, description: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(description, bool(passed), detail))

    def tally(self, description: str, outcomes: Iterable[bool]) -> None:
        """One check over many cases, from one outcome per case: the case
        count fills the description's ``{}``, the detail counts failures."""
        cases = failures = 0
        for ok in outcomes:
            cases += 1
            failures += not ok
        self.add(description.format(cases), not failures, f"{failures} failures")

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

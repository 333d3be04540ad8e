"""Verification reports: named lists of exact pass/fail checks."""

from __future__ import annotations

from typing import Iterable, NamedTuple


class CheckResult(NamedTuple):
    description: str
    passed: bool
    detail: str = ""


class VerificationReport:
    """A named, growing list of checks; equal to a report of the same name
    and checks, and unhashable, since it is mutable."""

    def __init__(self, name: str):
        self.name = name
        self.checks: list[CheckResult] = []

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks) == (other.name, other.checks)

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

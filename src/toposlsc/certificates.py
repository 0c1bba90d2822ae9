"""Pass/fail certificates produced by the verification routines.

A certificate is a flat list of named checks.  Failed checks always carry a
witness (the concrete counterexample found); passed checks may carry one too
(e.g. the witness that realises an existence claim).

Every "no counterexample exists" claim is certified the same way: the search
is written as an iterable of counterexamples (usually a generator) and handed
to `Certificate.check`, which passes the check iff the iterable is empty and
keeps its first item as the witness.  Generators are lazy, so the search
stops at the first counterexample.
"""

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Any = None


class Certificate:
    def __init__(self, kind):
        self.kind = kind
        self.checks = []

    def record(self, name, passed, witness=None):
        self.checks.append(CheckResult(name, bool(passed), witness))
        return passed

    def check(self, name, counterexamples, on_pass=None):
        """Record `name` as passed iff `counterexamples` yields nothing.

        The first counterexample is the witness and nothing after it is
        consumed.  On a pass, `on_pass()` (if given) supplies the witness.
        """
        first = next(iter(counterexamples), None)
        if first is not None:
            return self.record(name, False, first)
        return self.record(name, True, on_pass() if on_pass else None)

    def merge(self, other):
        """Append another certificate's checks, prefixed with its kind."""
        for c in other.checks:
            self.checks.append(CheckResult(f"{other.kind}.{c.name}", c.passed, c.witness))
        return self

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]

    def as_verdicts(self):
        """JSON-ready verdict list: witnesses are stringified."""
        return [
            {"check": c.name, "pass": c.passed,
             "witness": None if c.witness is None else str(c.witness)}
            for c in self.checks
        ]

    def __repr__(self):
        bad = len(self.failures())
        status = "ok" if bad == 0 else f"{bad} failing"
        return f"Certificate({self.kind}: {len(self.checks)} checks, {status})"

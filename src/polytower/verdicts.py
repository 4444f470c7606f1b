"""Three-valued verdicts and the budget knobs shared by every checker.

A Verdict is the uniform return type for checks that are undecidable in
general: ``holds``, ``fails`` (always with a finite witness), or
``inconclusive`` (always with a reason, typically budget exhaustion).
"""
from __future__ import annotations

from .records import Record

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


class Verdict(Record, frozen=True):
    status: str
    witness: object = None
    reason: str | None = None

    @classmethod
    def holds(cls, witness=None, reason: str | None = None) -> "Verdict":
        return cls(HOLDS, witness, reason)

    @classmethod
    def fails(cls, witness, reason: str | None = None) -> "Verdict":
        return cls(FAILS, witness, reason)

    @classmethod
    def inconclusive(cls, reason: str) -> "Verdict":
        return cls(INCONCLUSIVE, None, reason)

    @property
    def is_holds(self) -> bool:
        return self.status == HOLDS

    @property
    def is_fails(self) -> bool:
        return self.status == FAILS

    @property
    def is_inconclusive(self) -> bool:
        return self.status == INCONCLUSIVE


def conjoin(verdicts) -> Verdict:
    """Monotone conjunction: fails dominates inconclusive dominates holds.

    The witness/reason of the first dominating verdict (in the order given)
    is preserved, so callers control witness priority by iteration order.
    """
    first_inconclusive = None
    for v in verdicts:
        if v.is_fails:
            return v
        if v.is_inconclusive and first_inconclusive is None:
            first_inconclusive = v
    if first_inconclusive is not None:
        return first_inconclusive
    return Verdict.holds()


class Budgets(Record, frozen=True):
    """Step limits for the searches that can blow up combinatorially."""

    pi1_steps: int = 10_000
    filler_steps: int = 2_000
    nerve_subsets: int = 100_000

    def with_overrides(self, **kw) -> "Budgets":
        fields = {name: getattr(self, name) for name in self._fields}
        for key, value in kw.items():
            if value is not None:
                if value <= 0:
                    raise ValueError("budget must be positive: %s" % key)
                fields[key] = value
        return Budgets(**fields)


DEFAULT_BUDGETS = Budgets()

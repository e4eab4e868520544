"""Deterministic pass/fail reports shared by the verification harnesses."""

from __future__ import annotations

from typing import Iterable

# values that pass besides True: the kept status of a subsystem, a
# check that could not be enumerated
PASSING = ("normal", "subnormal", "not_enumerable")


def fold(values: Iterable) -> bool | str:
    """The verdict of several checks: False beats "unknown", which beats
    True.  None is a check that does not apply, in every suite; True and
    ``PASSING`` pass; any other value ("fail" among them) fails."""
    verdict = True
    for v in values:
        if v is None or v is True or v in PASSING:
            continue
        if v != "unknown":
            return False
        verdict = "unknown"
    return verdict


class Report:
    def __init__(self, suite: str, instance: str = ""):
        self.suite = suite
        self.instance = instance
        self.clauses = {}  # name -> bool | str
        self.witnesses = {}
        self.flags = []
        self.extra = {}

    @property
    def ok(self) -> bool:
        """Every clause passes or does not apply (None): ``fold``."""
        return fold(self.clauses.values()) is True

    def set(self, name: str, value, witness=None):
        self.clauses[name] = value
        if witness is not None:
            self.witnesses[name] = witness

    def to_json(self) -> dict:
        out = {"suite": self.suite, "instance": self.instance,
               "ok": self.ok, "clauses": dict(sorted(self.clauses.items()))}
        if self.witnesses:
            out["witnesses"] = dict(sorted(self.witnesses.items()))
        if self.flags:
            out["flags"] = sorted(self.flags)
        if self.extra:
            out["extra"] = dict(sorted(self.extra.items()))
        return out


class PreconditionError(ValueError):
    """A verification harness was called on inputs violating its hypotheses."""

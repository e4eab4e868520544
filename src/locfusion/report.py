"""Deterministic pass/fail reports shared by the verification harnesses."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass
class Report:
    suite: str
    instance: str = ""
    clauses: dict[str, Any] = field(default_factory=dict)  # name -> bool | str
    witnesses: dict[str, Any] = field(default_factory=dict)
    flags: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v is True for v in self.clauses.values())

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

"""Surveillance specification parsing.

Supported fragment: a conjunction of ``G atom`` and ``GF atom`` terms,
where an atom is a surveillance predicate ``p<=k`` or a task predicate
identifier.  Anything else (U, R, X, disjunction, nesting) is rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class SpecError(ValueError):
    """Syntax error or out-of-fragment construct, with position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


@dataclass(frozen=True, order=True)
class SurvAtom:
    """Surveillance predicate: belief's invisible part has size <= k."""

    k: int

    def __str__(self) -> str:
        return f"p<={self.k}"


@dataclass(frozen=True, order=True)
class TaskAtom:
    name: str

    def __str__(self) -> str:
        return self.name


Atom = SurvAtom | TaskAtom


@dataclass(frozen=True)
class Objective:
    safety_terms: frozenset[Atom]
    recurrence_terms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.safety_terms and not self.recurrence_terms:
            raise ValueError("objective needs at least one term")

    @property
    def atoms(self) -> frozenset[Atom]:
        return self.safety_terms | frozenset(self.recurrence_terms)

    def __str__(self) -> str:
        parts = [f"G {a}" for a in sorted(self.safety_terms, key=str)]
        parts += [f"GF {a}" for a in self.recurrence_terms]
        return " & ".join(parts)


_TOKEN = re.compile(
    r"\s*(?:(?P<and>&)|(?P<surv>p<=\s*\d+)|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<bad>\S))"
)
_UNSUPPORTED = {
    "U": "until (U)",
    "R": "release (R)",
    "X": "next (X)",
    "F": "bare finally (F)",
    "|": "disjunction (|)",
}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == m.start():
            break
        if m.lastgroup == "bad":
            ch = m.group("bad")
            if ch in _UNSUPPORTED:
                raise SpecError(
                    f"unsupported fragment: operator {_UNSUPPORTED[ch]}", m.start("bad")
                )
            raise SpecError(f"unexpected character {ch!r}", m.start("bad"))
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


def parse_spec(text: str) -> Objective:
    """Parse ``spec := term ('&' term)* ; term := ('G'|'GF') atom``."""
    tokens = _tokenize(text)
    if not tokens:
        raise SpecError("empty specification", 0)
    # report out-of-fragment operators before any plain syntax error
    for kind, val, pos in tokens:
        if kind == "ident" and val in _UNSUPPORTED:
            raise SpecError(
                f"unsupported fragment: operator {_UNSUPPORTED[val]}", pos
            )
    safety: list = []
    recurrence: list = []
    i = 0
    while True:
        kind, val, pos = tokens[i] if i < len(tokens) else ("end", "", len(text))
        if kind != "ident" or val not in ("G", "GF"):
            raise SpecError("expected temporal operator 'G' or 'GF'", pos)
        op = val
        i += 1
        if i >= len(tokens):
            raise SpecError("expected atom after temporal operator", len(text))
        kind, val, pos = tokens[i]
        if kind == "surv":
            atom: Atom = SurvAtom(int(val.split("=")[1]))
            if atom.k < 1:
                raise SpecError("surveillance threshold must be >= 1", pos)
        elif kind == "ident":
            if val in ("G", "GF"):
                raise SpecError(f"expected atom, got {val!r}", pos)
            atom = TaskAtom(val)
        else:
            raise SpecError("expected atom", pos)
        i += 1
        if op == "G":
            if atom not in safety:
                safety.append(atom)
        else:
            if atom not in recurrence:
                recurrence.append(atom)
        if i >= len(tokens):
            break
        kind, val, pos = tokens[i]
        if kind != "and":
            raise SpecError("expected '&' between terms", pos)
        i += 1
    return Objective(frozenset(safety), tuple(recurrence))

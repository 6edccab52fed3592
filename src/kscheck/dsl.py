"""Line-oriented scenario and state file formats.

Scenario files::

    # comment
    dim 4
    ray r1 0 0 0 1
    ray r2 1 -1/2 0 0
    context r1 r2 r3 r4

Exactly one ``dim`` line, before any declaration. Each ``ray`` line gives
an id and dim coordinates, each an integer or a rational ``p/q``; the
coordinates are read as integers, with the line's denominators cleared.
Each ``context`` line lists dim previously declared ray ids. Blank lines
and lines starting with ``#`` are ignored. Errors carry the 1-based line
and column of the offending token.

State files describe a density operator in one of three forms::

    pure 1 1 0 0

    mixed
    w 1/2 pure 1 0 0 0
    w 1/2 pure 0 1 0 0

    matrix
    1/4 0 0 0
    0 1/4 0 0
    0 0 1/4 0
    0 0 0 1/4
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactlin import RMatrix
from .ksengine import KSScenario, _assemble
from .probability import DensityOperator
from .qlogic import Context, Ray, validate_context

_TOKEN_RE = re.compile(r"\S+")
_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
_DIM_RE = re.compile(r"^[0-9]+$")
_ID_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_@.\-]*$")
_KEYWORDS = {"dim", "ray", "context"}


class ParseError(ValueError):
    """Positioned parse failure: 1-based line and column plus a message."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


def _tokenize(raw: str) -> list[tuple[int, str]]:
    """Split a line into (column, token) pairs; comment lines are empty."""
    if raw.lstrip().startswith("#"):
        return []
    return [(m.start() + 1, m.group()) for m in _TOKEN_RE.finditer(raw)]


def _rational_parts(token: str) -> tuple[int, int]:
    """``(numerator, denominator)`` of an integer or ``p/q`` token, as
    written: not reduced, the denominator positive.

    Raises ``ValueError`` on anything else, on a zero denominator, and,
    from ``int``, on more digits than the interpreter converts.
    """
    if not _RATIONAL_RE.match(token):
        raise ValueError(f"invalid rational {token!r}")
    num, _, den = token.partition("/")
    d = int(den) if den else 1
    if d == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return int(num), d


def parse_rational(token: str) -> Fraction:
    """Parse an integer or ``p/q`` token. Decimal notation is rejected."""
    return Fraction(*_rational_parts(token))


def _parts_from_tokens(tokens: Sequence[tuple[int, str]], line: int) -> list[tuple[int, int]]:
    parts = []
    for col, tok in tokens:
        try:
            parts.append(_rational_parts(tok))
        except ValueError as exc:
            raise ParseError(line, col, str(exc)) from None
    return parts


def _ints_from_tokens(tokens: Sequence[tuple[int, str]], line: int) -> tuple[int, ...]:
    """Integer coordinates proportional to the tokens' rationals: each is
    multiplied by the lcm of the denominators."""
    parts = _parts_from_tokens(tokens, line)
    scale = lcm(*[d for _, d in parts])
    return tuple([n * (scale // d) for n, d in parts])


def _coords_from_tokens(tokens: Sequence[tuple[int, str]], line: int) -> tuple[Fraction, ...]:
    return tuple([Fraction(n, d) for n, d in _parts_from_tokens(tokens, line)])


def parse_scenario(text: str, *, merge: bool = True) -> KSScenario:
    """Parse a scenario document into a validated :class:`KSScenario`.

    Each context is validated once, as its line is read, so errors keep
    their line and column. ``merge`` has the meaning it has in
    :func:`kscheck.ksengine.build_scenario`: merged scenarios identify
    proportional rays across contexts, unmerged ones mint a distinct ray
    per context occurrence.
    """
    dim: int | None = None
    ray_pos: dict[str, tuple[int, int]] = {}
    rays: dict[str, Ray] = {}
    contexts: list[Context] = []

    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        key_col, key = tokens[0]
        rest = tokens[1:]

        if key == "dim":
            if dim is not None:
                raise ParseError(line, key_col, "duplicate dim declaration")
            if rays or contexts:
                raise ParseError(line, key_col, "dim must come before any declaration")
            if len(rest) != 1:
                raise ParseError(line, key_col, "dim takes exactly one argument")
            col, tok = rest[0]
            try:
                dim = int(tok) if _DIM_RE.match(tok) else 0
            except ValueError:  # more digits than int() converts
                dim = 0
            if dim < 1:
                raise ParseError(line, col, f"invalid dimension {tok!r}")

        elif key == "ray":
            if dim is None:
                raise ParseError(line, key_col, "dim must be declared before rays")
            if len(rest) != dim + 1:
                raise ParseError(line, key_col, f"ray needs an id and {dim} coordinates")
            id_col, rid = rest[0]
            if rid in _KEYWORDS:
                raise ParseError(line, id_col, f"{rid!r} is a reserved word")
            if not _ID_RE.match(rid):
                raise ParseError(line, id_col, f"invalid ray id {rid!r}")
            if rid in ray_pos:
                raise ParseError(line, id_col, f"duplicate ray id {rid!r}")
            ints = _ints_from_tokens(rest[1:], line)
            if not any(ints):
                raise ParseError(line, rest[1][0], f"ray {rid!r} is the zero vector")
            ray_pos[rid] = (line, id_col)
            rays[rid] = Ray(rid, ints)

        elif key == "context":
            if dim is None:
                raise ParseError(line, key_col, "dim must be declared before contexts")
            if len(rest) != dim:
                raise ParseError(line, key_col, f"context has {len(rest)} rays, needs {dim}")
            ids = []
            for col, rid in rest:
                if rid not in ray_pos:
                    raise ParseError(line, col, f"undeclared ray id {rid!r}")
                if rid in ids:
                    raise ParseError(line, col, f"ray {rid!r} repeated in context")
                ids.append(rid)
            try:
                contexts.append(validate_context([rays[rid] for rid in ids], dim))
            except ValueError as exc:  # a ContextError, or a violation too long to print
                raise ParseError(line, key_col, str(exc)) from None

        else:
            raise ParseError(line, key_col, f"unknown keyword {key!r}")

    if dim is None:
        raise ParseError(1, 1, "missing dim declaration")
    if not rays:
        raise ParseError(1, 1, "no ray declarations")
    if not contexts:
        raise ParseError(1, 1, "no context declarations")

    referenced = {r.id for ctx in contexts for r in ctx.rays}
    for rid in rays:
        if rid not in referenced:
            rline, rcol = ray_pos[rid]
            raise ParseError(rline, rcol, f"ray {rid!r} is not used in any context")

    return _assemble(list(rays.values()), contexts, merge=merge, dim=dim)


def serialize_scenario(s: KSScenario) -> str:
    """Render a scenario back into the line format.

    Coordinates are emitted in canonical integer form, so for a scenario
    parsed with default options, parsing the output again reproduces an
    identical scenario.
    """
    lines = [f"dim {s.dim}"]
    for r in s.rays:
        lines.append("ray " + r.id + " " + " ".join(map(str, r.ints)))
    for c in s.contexts:
        lines.append("context " + " ".join(c.ray_ids))
    return "\n".join(lines) + "\n"


def parse_state(text: str, dim: int) -> DensityOperator:
    """Parse a state file into a :class:`DensityOperator` of the given
    ambient dimension."""
    lines = []
    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if tokens:
            lines.append((line, tokens))
    if not lines:
        raise ParseError(1, 1, "empty state file")

    line, tokens = lines[0]
    key_col, kind = tokens[0]

    if kind == "pure":
        if len(tokens) != dim + 1:
            raise ParseError(line, key_col, f"pure state needs {dim} coordinates")
        if len(lines) > 1:
            raise ParseError(lines[1][0], lines[1][1][0][0], "unexpected content after pure state")
        ints = _ints_from_tokens(tokens[1:], line)
        try:
            return DensityOperator.pure(ints)
        except ValueError as exc:
            raise ParseError(line, tokens[1][0], str(exc)) from None

    if kind == "mixed":
        if len(tokens) != 1:
            raise ParseError(line, tokens[1][0], "mixed takes no arguments on its own line")
        if len(lines) == 1:
            raise ParseError(line, key_col, "mixed state needs at least one component line")
        parts: list[tuple[Fraction, tuple[int, ...]]] = []
        total = Fraction(0)
        for cline, ctokens in lines[1:]:
            if len(ctokens) != dim + 3 or ctokens[0][1] != "w" or ctokens[2][1] != "pure":
                raise ParseError(
                    cline, ctokens[0][0], f"expected 'w <weight> pure <{dim} coordinates>'"
                )
            wcol, wtok = ctokens[1]
            try:
                weight = parse_rational(wtok)
            except ValueError as exc:
                raise ParseError(cline, wcol, str(exc)) from None
            if weight < 0:
                raise ParseError(cline, wcol, f"negative mixture weight {weight}")
            ints = _ints_from_tokens(ctokens[3:], cline)
            if not any(ints):
                raise ParseError(cline, ctokens[3][0], "zero vector in mixture component")
            parts.append((weight, ints))
            total += weight
        if total != 1:
            raise ParseError(lines[-1][0], 1, f"mixture weights sum to {total}, expected 1")
        return DensityOperator.mixture(parts)

    if kind == "matrix":
        if len(tokens) != 1:
            raise ParseError(line, tokens[1][0], "matrix takes no arguments on its own line")
        if len(lines) != dim + 1:
            raise ParseError(line, key_col, f"matrix form needs exactly {dim} rows")
        rows = []
        for rline, rtokens in lines[1:]:
            if len(rtokens) != dim:
                raise ParseError(rline, rtokens[0][0], f"matrix row needs {dim} entries")
            rows.append(_coords_from_tokens(rtokens, rline))
        try:
            return DensityOperator(RMatrix(tuple(rows)))
        except ValueError as exc:
            raise ParseError(line, key_col, str(exc)) from None

    raise ParseError(line, key_col, f"state must start with 'pure', 'mixed' or 'matrix', got {kind!r}")

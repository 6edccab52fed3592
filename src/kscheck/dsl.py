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

Each line is read as its list of whitespace-separated words. A word's
column is computed only when an error is raised, from the line itself.

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

Scenario parsing works on ints alone. Only :func:`parse_state`, with
the :func:`~kscheck.rational.parse_rational` it calls, imports
:mod:`fractions`, :mod:`kscheck.exactlin` and :mod:`kscheck.probability`,
when it runs. The token grammar of a rational is
:mod:`kscheck.rational`'s.
"""

from __future__ import annotations

import re
from itertools import islice
from math import lcm
from typing import TYPE_CHECKING

from .ksengine import KSScenario, _assemble
from .qlogic import Context, Ray
from .rational import _rational_parts, parse_rational

if TYPE_CHECKING:
    from fractions import Fraction

    from .probability import DensityOperator

_WORD_RE = re.compile(r"\S+")  # the words of str.split(), which splits on the same whitespace
# Words that rational._RATIONAL_RE accepts with no "/", joined by single spaces.
_INTEGERS_RE = re.compile(r"[+-]?[0-9]+(?: [+-]?[0-9]+)*")
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


def _words(raw: str) -> list[str]:
    """The words of a line; a comment line has none."""
    words = raw.split()
    return [] if words and words[0].startswith("#") else words


def _column(raw: str, k: int) -> int:
    """1-based column of word ``k`` (0-based) of ``raw``."""
    return next(islice(_WORD_RE.finditer(raw), k, None)).start() + 1


def _parts(line: int, raw: str, words: list[str], first: int) -> list[tuple[int, int]]:
    """:func:`_rational_parts` of each of ``words[first:]``, raising a
    ParseError at the first word that is not a rational."""
    parts = []
    for k in range(first, len(words)):
        try:
            parts.append(_rational_parts(words[k]))
        except ValueError as exc:
            raise ParseError(line, _column(raw, k), str(exc)) from None
    return parts


def _ints(line: int, raw: str, words: list[str], first: int) -> tuple[int, ...]:
    """Integer coordinates proportional to the rationals ``words[first:]``:
    each is multiplied by the lcm of the denominators.

    Integers alone, the usual case, are checked by one match over the
    joined words and read by ``int``. The match keeps out what ``int``
    would accept beyond ``rational._RATIONAL_RE``: ``1_0``, non-ASCII digits,
    surrounding spaces. Every other case, errors included, goes word by
    word through :func:`_parts`.
    """
    coords = words[first:]
    if _INTEGERS_RE.fullmatch(" ".join(coords)):
        try:
            return tuple(map(int, coords))
        except ValueError:  # more digits than int() converts; _parts raises
            pass
    parts = _parts(line, raw, words, first)
    scale = lcm(*[d for _, d in parts])
    return tuple([n * (scale // d) for n, d in parts])


def parse_scenario(text: str, *, merge: bool = True) -> KSScenario:
    """Parse a scenario document into a validated :class:`KSScenario`.

    Each context is validated once, as its line is read, so errors keep
    their line and column. ``merge`` has the meaning it has in
    :func:`kscheck.ksengine.build_scenario`: merged scenarios identify
    proportional rays across contexts, unmerged ones mint a distinct ray
    per context occurrence.
    """
    dim: int | None = None
    ray_line: dict[str, int] = {}
    rays: dict[str, Ray] = {}
    contexts: list[Context] = []
    used: set[str] = set()

    lines = text.splitlines()
    for line, raw in enumerate(lines, start=1):
        words = _words(raw)
        if not words:
            continue
        key = words[0]

        if key == "dim":
            if dim is not None:
                raise ParseError(line, _column(raw, 0), "duplicate dim declaration")
            if len(words) != 2:
                raise ParseError(line, _column(raw, 0), "dim takes exactly one argument")
            tok = words[1]
            try:
                dim = int(tok) if _DIM_RE.match(tok) else 0
            except ValueError:  # more digits than int() converts
                dim = 0
            if dim < 1:
                raise ParseError(line, _column(raw, 1), f"invalid dimension {tok!r}")

        elif key == "ray":
            if dim is None:
                raise ParseError(line, _column(raw, 0), "dim must be declared before rays")
            if len(words) != dim + 2:
                raise ParseError(line, _column(raw, 0), f"ray needs an id and {dim} coordinates")
            rid = words[1]
            if rid in _KEYWORDS:
                raise ParseError(line, _column(raw, 1), f"{rid!r} is a reserved word")
            if not _ID_RE.match(rid):
                raise ParseError(line, _column(raw, 1), f"invalid ray id {rid!r}")
            if rid in rays:
                raise ParseError(line, _column(raw, 1), f"duplicate ray id {rid!r}")
            ints = _ints(line, raw, words, 2)
            if not any(ints):
                raise ParseError(line, _column(raw, 2), f"ray {rid!r} is the zero vector")
            ray_line[rid] = line
            rays[rid] = Ray(rid, ints)

        elif key == "context":
            if dim is None:
                raise ParseError(line, _column(raw, 0), "dim must be declared before contexts")
            if len(words) != dim + 1:
                raise ParseError(
                    line, _column(raw, 0), f"context has {len(words) - 1} rays, needs {dim}"
                )
            ids = words[1:]
            for k, rid in enumerate(ids):
                if rid not in rays:
                    raise ParseError(line, _column(raw, k + 1), f"undeclared ray id {rid!r}")
                if ids.index(rid) != k:
                    raise ParseError(line, _column(raw, k + 1), f"ray {rid!r} repeated in context")
            try:
                # Each ray line holds exactly dim coordinates, so only the
                # Context checks can fail here.
                contexts.append(Context([rays[rid] for rid in ids]))
            except ValueError as exc:  # a ContextError, or a violation too long to print
                raise ParseError(line, _column(raw, 0), str(exc)) from None
            used.update(ids)

        else:
            raise ParseError(line, _column(raw, 0), f"unknown keyword {key!r}")

    if dim is None:
        raise ParseError(1, 1, "missing dim declaration")
    if not rays:
        raise ParseError(1, 1, "no ray declarations")
    if not contexts:
        raise ParseError(1, 1, "no context declarations")

    if len(used) != len(rays):
        rid = next(rid for rid in rays if rid not in used)
        rline = ray_line[rid]
        raise ParseError(rline, _column(lines[rline - 1], 1), f"ray {rid!r} is not used in any context")

    return _assemble(list(rays.values()), contexts, merge=merge)


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
    # Imported here, so that commands reading no state file never load it.
    # Of the import forms, this absolute one costs least per call.
    import kscheck.probability as probability

    lines = []
    for line, raw in enumerate(text.splitlines(), start=1):
        words = _words(raw)
        if words:
            lines.append((line, raw, words))
    if not lines:
        raise ParseError(1, 1, "empty state file")

    line, raw, words = lines[0]
    kind = words[0]

    if kind == "pure":
        if len(words) != dim + 1:
            raise ParseError(line, _column(raw, 0), f"pure state needs {dim} coordinates")
        if len(lines) > 1:
            raise ParseError(
                lines[1][0], _column(lines[1][1], 0), "unexpected content after pure state"
            )
        ints = _ints(line, raw, words, 1)
        try:
            return probability.DensityOperator.pure(ints)
        except ValueError as exc:
            raise ParseError(line, _column(raw, 1), str(exc)) from None

    if kind == "mixed":
        if len(words) != 1:
            raise ParseError(line, _column(raw, 1), "mixed takes no arguments on its own line")
        if len(lines) == 1:
            raise ParseError(line, _column(raw, 0), "mixed state needs at least one component line")
        parts: list[tuple[Fraction, tuple[int, ...]]] = []
        for cline, craw, cwords in lines[1:]:
            if len(cwords) != dim + 3 or cwords[0] != "w" or cwords[2] != "pure":
                raise ParseError(
                    cline, _column(craw, 0), f"expected 'w <weight> pure <{dim} coordinates>'"
                )
            try:
                weight = parse_rational(cwords[1])
            except ValueError as exc:
                raise ParseError(cline, _column(craw, 1), str(exc)) from None
            if weight < 0:
                raise ParseError(cline, _column(craw, 1), f"negative mixture weight {weight}")
            ints = _ints(cline, craw, cwords, 3)
            if not any(ints):
                raise ParseError(cline, _column(craw, 3), "zero vector in mixture component")
            parts.append((weight, ints))
        # The weights sum to 1 iff their numerators over the lcm of their
        # denominators sum to that lcm.
        common = lcm(*[w.denominator for w, _ in parts])
        total = sum([w.numerator * (common // w.denominator) for w, _ in parts])
        if total != common:
            from fractions import Fraction

            raise ParseError(
                lines[-1][0], 1, f"mixture weights sum to {Fraction(total, common)}, expected 1"
            )
        # Weights, vectors and their dimension are checked above: all that
        # DensityOperator.mixture would check again.
        return probability._mixture(parts)

    if kind == "matrix":
        if len(words) != 1:
            raise ParseError(line, _column(raw, 1), "matrix takes no arguments on its own line")
        if len(lines) != dim + 1:
            raise ParseError(line, _column(raw, 0), f"matrix form needs exactly {dim} rows")
        from fractions import Fraction

        from .exactlin import RMatrix

        rows = []
        for rline, rraw, rwords in lines[1:]:
            if len(rwords) != dim:
                raise ParseError(rline, _column(rraw, 0), f"matrix row needs {dim} entries")
            rows.append(tuple([Fraction(n, d) for n, d in _parts(rline, rraw, rwords, 0)]))
        try:
            return probability.DensityOperator(RMatrix(tuple(rows)))
        except ValueError as exc:
            raise ParseError(line, _column(raw, 0), str(exc)) from None

    raise ParseError(
        line, _column(raw, 0), f"state must start with 'pure', 'mixed' or 'matrix', got {kind!r}"
    )

"""The grammar of a rational token: an integer or ``p/q``.

Scenario files, state files and ``kscheck symm``'s coordinates share it.
It lives on its own so that ``symm`` reads its coordinates without
loading the scenario code (:mod:`kscheck.dsl`, :mod:`kscheck.ksengine`,
:mod:`kscheck.qlogic`). Only :func:`parse_rational` imports
:mod:`fractions`, when it runs, so scenario parsing stays on ints.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational_parts(token: str) -> tuple[int, int]:
    """``(numerator, denominator)`` of an integer or ``p/q`` token, as
    written: not reduced, the denominator positive.

    Raises ``ValueError`` on anything else, on a zero denominator, and,
    from ``int``, on more digits than the interpreter converts.
    """
    # fullmatch, as a $ anchor would also match before a trailing newline.
    if not _RATIONAL_RE.fullmatch(token):
        raise ValueError(f"invalid rational {token!r}")
    num, _, den = token.partition("/")
    d = int(den) if den else 1
    if d == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return int(num), d


def parse_rational(token: str) -> Fraction:
    """Parse an integer or ``p/q`` token. Decimal notation is rejected."""
    # Of the import forms, this one costs least per call.
    import fractions

    return fractions.Fraction(*_rational_parts(token))

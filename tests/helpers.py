"""Shared generators and independent oracles for the test suite.

Everything takes an explicit ``random.Random`` so failures reproduce.
The brute-force counters here are deliberately dumb: they enumerate raw
assignments with no pruning and no shared code with the package's search,
so they can serve as oracles for it.
"""

import itertools
import math
import random
import re
import sys
from fractions import Fraction

from kscheck import (
    DensityOperator,
    KSScenario,
    RMatrix,
    RVector,
    Ray,
    Subspace,
    build_scenario,
    validate_context,
)


def int_digit_limit() -> int:
    """The interpreter's limit on digits in int/str conversion, 0 if none."""
    get = getattr(sys, "get_int_max_str_digits", None)
    return get() if get else 0


def rand_fraction(rng: random.Random, lo: int = -8, hi: int = 8, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_vector(rng: random.Random, dim: int, lo: int = -4, hi: int = 4) -> RVector:
    return RVector(tuple(rng.randint(lo, hi) for _ in range(dim)))


def rand_nonzero_vector(rng: random.Random, dim: int, lo: int = -4, hi: int = 4) -> RVector:
    while True:
        v = rand_vector(rng, dim, lo, hi)
        if not v.is_zero():
            return v


def rand_matrix(rng: random.Random, nrows: int, ncols: int, lo: int = -4, hi: int = 4) -> RMatrix:
    return RMatrix(tuple(tuple(rng.randint(lo, hi) for _ in range(ncols)) for _ in range(nrows)))


def rand_subspace(rng: random.Random, dim: int) -> Subspace:
    nvecs = rng.randint(0, dim)
    return Subspace.span([rand_vector(rng, dim) for _ in range(nvecs)], dim)


def rand_subspace_of(rng: random.Random, t: Subspace) -> Subspace:
    """Random subspace of t: span of random combinations of t's basis."""
    nvecs = rng.randint(0, t.dim)
    vectors = []
    for _ in range(nvecs):
        combo = RVector((Fraction(0),) * t.ambient_dim)
        for row in t.basis:
            combo = combo + row.scale(rng.randint(-3, 3))
        vectors.append(combo)
    return Subspace.span([v for v in vectors if not v.is_zero()], t.ambient_dim)


def rand_mixed_state(rng: random.Random, dim: int, max_parts: int = 4) -> DensityOperator:
    """Convex mixture of random rational rays with rational weights."""
    nparts = rng.randint(1, max_parts)
    raw = [rng.randint(1, 9) for _ in range(nparts)]
    total = sum(raw)
    parts = [
        (Fraction(w, total), rand_nonzero_vector(rng, dim))
        for w in raw
    ]
    return DensityOperator.mixture(parts)


def brute_force_count(s: KSScenario) -> int:
    """Count valuations by enumerating all 2^n raw assignments."""
    n = len(s.rays)
    assert n <= 20, "oracle is for small scenarios only"
    index = {r.id: i for i, r in enumerate(s.rays)}
    contexts = [tuple(index[rid] for rid in c.ray_ids) for c in s.contexts]
    count = 0
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(bits[i] for i in ctx) == 1 for ctx in contexts):
            count += 1
    return count


def has_parity_subset(s: KSScenario) -> bool:
    """Whether some odd set of contexts covers every ray an even number of
    times, by trying every odd set of contexts."""
    k = len(s.contexts)
    assert k <= 12, "oracle is for small scenarios only"
    for size in range(1, k + 1, 2):
        for chosen in itertools.combinations(s.contexts, size):
            cover: dict[str, int] = {}
            for c in chosen:
                for rid in c.ray_ids:
                    cover[rid] = cover.get(rid, 0) + 1
            if all(n % 2 == 0 for n in cover.values()):
                return True
    return False


def reference_valuations(s: KSScenario) -> list[tuple[str, ...]]:
    """Every valuation, as the sorted ids of its rays set to 1, in the
    order a depth-first search settling contexts by index and trying rays
    in context order finds them.

    Brute force over all 2^n raw assignments. The order is lexicographic
    in the key: for each context in index order, the position within the
    context of the ray it sets to 1.
    """
    n = len(s.rays)
    assert n <= 20, "oracle is for small scenarios only"
    index = {r.id: i for i, r in enumerate(s.rays)}
    contexts = [tuple(index[rid] for rid in c.ray_ids) for c in s.contexts]
    found = []
    for bits in itertools.product((0, 1), repeat=n):
        if all(sum(bits[i] for i in ctx) == 1 for ctx in contexts):
            key = tuple(next(pos for pos, i in enumerate(ctx) if bits[i]) for ctx in contexts)
            ones = tuple(sorted(r.id for r in s.rays if bits[index[r.id]]))
            found.append((key, ones))
    return [ones for _, ones in sorted(found)]


def subscenario(s: KSScenario, context_indices) -> KSScenario:
    """Scenario restricted to a subset of contexts (rays re-collected)."""
    chosen = [s.contexts[i] for i in context_indices]
    referenced = {r.id for c in chosen for r in c.rays}
    rays = [(r.id, r.coords) for r in s.rays if r.id in referenced]
    return build_scenario(rays, [c.ray_ids for c in chosen])


def single_context_scenario() -> KSScenario:
    return build_scenario(
        [("a", (1, 0, 0, 0)), ("b", (0, 1, 0, 0)), ("c", (0, 0, 1, 0)), ("d", (0, 0, 0, 1))],
        [["a", "b", "c", "d"]],
    )


def two_disjoint_contexts_scenario() -> KSScenario:
    rays = [
        ("a", (1, 0, 0, 0)), ("b", (0, 1, 0, 0)), ("c", (0, 0, 1, 0)), ("d", (0, 0, 0, 1)),
        ("e", (1, 1, 0, 0)), ("f", (1, -1, 0, 0)), ("g", (0, 0, 1, 1)), ("h", (0, 0, 1, -1)),
    ]
    return build_scenario(rays, [["a", "b", "c", "d"], ["e", "f", "g", "h"]])


def gram_schmidt(vectors):
    """Pairwise orthogonal vectors obtained from ``vectors`` in order, or
    None when they are linearly dependent. Plain Fraction arithmetic on
    tuples, sharing no code with the package."""
    basis = []
    for v in vectors:
        w = [Fraction(x) for x in v]
        for b in basis:
            f = sum(x * y for x, y in zip(w, b)) / sum(y * y for y in b)
            w = [x - f * y for x, y in zip(w, b)]
        if all(x == 0 for x in w):
            return None
        basis.append(w)
    return [tuple(b) for b in basis]


def reference_is_rref(rows):
    """Whether ``rows`` are the nonzero rows of a reduced row echelon form,
    by the pivot rules alone, with no elimination: every row has a leading
    entry 1, the leading columns strictly increase, and each leading
    column is zero in every other row."""
    pivots = []
    for row in rows:
        p = next((j for j, x in enumerate(row) if x != 0), None)
        if p is None or row[p] != 1 or (pivots and p <= pivots[-1]):
            return False
        pivots.append(p)
    return all(row[p] == 0 for k, p in enumerate(pivots) for i, row in enumerate(rows) if i != k)


def reference_boolean_algebra(rays):
    """The sums of every subset of the rank-1 projectors onto ``rays``,
    each summed from zero, as tuples of Fraction rows. Plain Fraction
    arithmetic on the rays' coordinates, sharing no code with the
    package."""
    atoms = []
    for v in rays:
        n = sum(x * x for x in v)
        atoms.append([[Fraction(a * b, n) for b in v] for a in v])
    dim = len(rays[0])
    elements = set()
    for size in range(len(atoms) + 1):
        for subset in itertools.combinations(atoms, size):
            total = [[Fraction(0)] * dim for _ in range(dim)]
            for atom in subset:
                total = [[x + y for x, y in zip(r, q)] for r, q in zip(total, atom)]
            elements.add(tuple(map(tuple, total)))
    return elements


def reference_nonneg_solve(a_rows, b, pivots=None):
    """Vertex x >= 0 with a @ x = b, or None: the phase-one simplex with
    Bland's rule over plain Fractions, on lists of rows.

    This is the ``Fraction`` tableau ``exactlin.nonneg_solve`` used
    before it pivoted in integers, kept here so tests can pin the vertex
    it returns. Same pivot rule, same tie-break, no shared code. It keeps
    the artificial columns, so an artificial may enter the basis again.
    If ``pivots`` is a list, each pivot appends ``(row, entering
    column)`` to it; column ``n + i`` is the artificial of row ``i``.
    """
    m, n = len(b), len(a_rows[0])
    tableau = []
    for i in range(m):
        row = [Fraction(x) for x in a_rows[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            row = [-x for x in row]
            rhs = -rhs
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(row + art + [rhs])
    width = n + m
    basis = [n + i for i in range(m)]
    z = [Fraction(0)] * (width + 1)
    for j in range(n):
        z[j] = -sum((tableau[i][j] for i in range(m)), Fraction(0))
    z[width] = -sum((tableau[i][width] for i in range(m)), Fraction(0))

    while True:
        enter = next((j for j in range(width) if z[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coef = tableau[i][enter]
            if coef > 0:
                ratio = tableau[i][width] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        pivot = tableau[leave][enter]
        tableau[leave] = [x / pivot for x in tableau[leave]]
        # Where the pivot row holds 0, x - f * y is x: skip the update.
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [x - f * y if y else x for x, y in zip(tableau[i], tableau[leave])]
        if z[enter] != 0:
            f = z[enter]
            z = [x - f * y if y else x for x, y in zip(z, tableau[leave])]
        basis[leave] = enter
        if pivots is not None:
            pivots.append((leave, enter))

    if z[width] != 0:
        return None
    x = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i][width]
    return x


def reference_peeled_rays(contexts):
    """The rays whose rows the model LP drops, as ``(ray id, context
    index)`` pairs in peel order, for contexts given as id lists.

    Repeats until no context qualifies: the lowest-indexed unpeeled
    context holding a ray that lies in no other unpeeled context drops its
    first such ray, in context order, and is peeled. Every context is
    rescanned after each peel.
    """
    peeled, dropped = set(), []
    while True:
        for k, c in enumerate(contexts):
            if k in peeled:
                continue
            others = [contexts[j] for j in range(len(contexts)) if j != k and j not in peeled]
            lone = [rid for rid in c if not any(rid in o for o in others)]
            if lone:
                dropped.append((lone[0], k))
                peeled.add(k)
                break
        else:
            return dropped


def reference_components(contexts):
    """Connected components of contexts given as id lists, two contexts
    being connected when they share a ray: per component its context
    indices in increasing order, the components ordered by their first
    context."""
    components = []
    for k, c in enumerate(contexts):
        joined = [comp for comp in components if any(set(c) & set(contexts[j]) for j in comp)]
        merged = sorted([k] + [j for comp in joined for j in comp])
        components = [comp for comp in components if comp not in joined] + [merged]
    return sorted(components)


def reference_rank(rows):
    """Rank of a matrix given as rows, by plain Fraction elimination."""
    rows = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        src = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if src is None:
            continue
        rows[rank], rows[src] = rows[src], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] / rows[rank][c]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _solve_square_or_none(columns, b):
    """The unique y with sum_k y_k columns[k] = b, or None when the
    columns are dependent or the system is inconsistent. Plain Fraction
    Gauss-Jordan elimination on the augmented matrix."""
    m, k = len(b), len(columns)
    rows = [[Fraction(col[i]) for col in columns] + [Fraction(b[i])] for i in range(m)]
    pivot_row = 0
    for c in range(k):
        src = next((r for r in range(pivot_row, m) if rows[r][c] != 0), None)
        if src is None:
            return None  # dependent columns
        rows[pivot_row], rows[src] = rows[src], rows[pivot_row]
        pv = rows[pivot_row][c]
        rows[pivot_row] = [x / pv for x in rows[pivot_row]]
        for r in range(m):
            if r != pivot_row and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
    if any(rows[r][k] != 0 for r in range(pivot_row, m)):
        return None  # inconsistent
    return [rows[r][k] for r in range(k)]


def brute_force_feasible(a_rows, b):
    """Whether some x >= 0 solves a @ x = b, by trying every column subset.

    If the system has a nonnegative solution it has one supported on
    linearly independent columns (a basic feasible solution), and such a
    support has at most m columns. So it suffices to solve every subset of
    size <= m that has independent columns and keep a solution with all
    entries >= 0.
    """
    m, n = len(b), len(a_rows[0])
    columns = [[a_rows[i][j] for i in range(m)] for j in range(n)]
    if all(x == 0 for x in b):
        return True
    for size in range(1, min(m, n) + 1):
        for subset in itertools.combinations(range(n), size):
            y = _solve_square_or_none([columns[j] for j in subset], b)
            if y is not None and all(v >= 0 for v in y):
                return True
    return False


# --- reference text reader ---------------------------------------------------
#
# The scenario and state readers as they were when every token carried its
# column: ``\S+`` matches with their start, and each coordinate checked on
# its own. Shares no code with ``kscheck.dsl``; the package is used only for
# what the text turns into (rays, contexts, density operators), so that
# messages coming from those match.

_REF_TOKEN = re.compile(r"\S+")
_REF_RATIONAL = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")
_REF_DIM = re.compile(r"^[0-9]+$")
_REF_ID = re.compile(r"^[A-Za-z_][A-Za-z0-9_@.\-]*$")


class ReferenceParseError(Exception):
    def __init__(self, line, column, message):
        super().__init__(line, column, message)
        self.line, self.column, self.message = line, column, message


def _ref_tokens(raw):
    if raw.lstrip().startswith("#"):
        return []
    return [(m.start() + 1, m.group()) for m in _REF_TOKEN.finditer(raw)]


def _ref_parts(token):
    if not _REF_RATIONAL.match(token):
        raise ValueError(f"invalid rational {token!r}")
    num, _, den = token.partition("/")
    d = int(den) if den else 1
    if d == 0:
        raise ValueError(f"zero denominator in {token!r}")
    return int(num), d


def _ref_parts_at(tokens, line):
    parts = []
    for col, tok in tokens:
        try:
            parts.append(_ref_parts(tok))
        except ValueError as exc:
            raise ReferenceParseError(line, col, str(exc)) from None
    return parts


def _ref_ints(tokens, line):
    parts = _ref_parts_at(tokens, line)
    scale = math.lcm(*[d for _, d in parts])
    return tuple(n * (scale // d) for n, d in parts)


def reference_parse_scenario(text):
    """``(dim, [(id, ints)], [context ids])`` as declared, before merging,
    or ReferenceParseError with the line, column and message."""
    dim = None
    pos, rays, contexts = {}, {}, []
    for line, raw in enumerate(text.splitlines(), start=1):
        tokens = _ref_tokens(raw)
        if not tokens:
            continue
        (key_col, key), rest = tokens[0], tokens[1:]
        if key == "dim":
            if dim is not None:
                raise ReferenceParseError(line, key_col, "duplicate dim declaration")
            if rays or contexts:
                raise ReferenceParseError(line, key_col, "dim must come before any declaration")
            if len(rest) != 1:
                raise ReferenceParseError(line, key_col, "dim takes exactly one argument")
            col, tok = rest[0]
            try:
                dim = int(tok) if _REF_DIM.match(tok) else 0
            except ValueError:
                dim = 0
            if dim < 1:
                raise ReferenceParseError(line, col, f"invalid dimension {tok!r}")
        elif key == "ray":
            if dim is None:
                raise ReferenceParseError(line, key_col, "dim must be declared before rays")
            if len(rest) != dim + 1:
                raise ReferenceParseError(line, key_col, f"ray needs an id and {dim} coordinates")
            id_col, rid = rest[0]
            if rid in ("dim", "ray", "context"):
                raise ReferenceParseError(line, id_col, f"{rid!r} is a reserved word")
            if not _REF_ID.match(rid):
                raise ReferenceParseError(line, id_col, f"invalid ray id {rid!r}")
            if rid in pos:
                raise ReferenceParseError(line, id_col, f"duplicate ray id {rid!r}")
            ints = _ref_ints(rest[1:], line)
            if not any(ints):
                raise ReferenceParseError(line, rest[1][0], f"ray {rid!r} is the zero vector")
            pos[rid] = (line, id_col)
            rays[rid] = ints
        elif key == "context":
            if dim is None:
                raise ReferenceParseError(line, key_col, "dim must be declared before contexts")
            if len(rest) != dim:
                raise ReferenceParseError(line, key_col, f"context has {len(rest)} rays, needs {dim}")
            ids = []
            for col, rid in rest:
                if rid not in pos:
                    raise ReferenceParseError(line, col, f"undeclared ray id {rid!r}")
                if rid in ids:
                    raise ReferenceParseError(line, col, f"ray {rid!r} repeated in context")
                ids.append(rid)
            try:
                validate_context([Ray(rid, rays[rid]) for rid in ids], dim)
            except ValueError as exc:
                raise ReferenceParseError(line, key_col, str(exc)) from None
            contexts.append(ids)
        else:
            raise ReferenceParseError(line, key_col, f"unknown keyword {key!r}")
    if dim is None:
        raise ReferenceParseError(1, 1, "missing dim declaration")
    if not rays:
        raise ReferenceParseError(1, 1, "no ray declarations")
    if not contexts:
        raise ReferenceParseError(1, 1, "no context declarations")
    referenced = {rid for c in contexts for rid in c}
    for rid in rays:
        if rid not in referenced:
            raise ReferenceParseError(*pos[rid], f"ray {rid!r} is not used in any context")
    return dim, list(rays.items()), contexts


def reference_parse_state(text, dim):
    """The :class:`DensityOperator` a state file describes, or
    ReferenceParseError with the line, column and message."""
    lines = [(n, t) for n, t in ((n, _ref_tokens(raw)) for n, raw in enumerate(text.splitlines(), 1)) if t]
    if not lines:
        raise ReferenceParseError(1, 1, "empty state file")
    line, tokens = lines[0]
    key_col, kind = tokens[0]
    if kind == "pure":
        if len(tokens) != dim + 1:
            raise ReferenceParseError(line, key_col, f"pure state needs {dim} coordinates")
        if len(lines) > 1:
            raise ReferenceParseError(lines[1][0], lines[1][1][0][0], "unexpected content after pure state")
        ints = _ref_ints(tokens[1:], line)
        try:
            return DensityOperator.pure(ints)
        except ValueError as exc:
            raise ReferenceParseError(line, tokens[1][0], str(exc)) from None
    if kind == "mixed":
        if len(tokens) != 1:
            raise ReferenceParseError(line, tokens[1][0], "mixed takes no arguments on its own line")
        if len(lines) == 1:
            raise ReferenceParseError(line, key_col, "mixed state needs at least one component line")
        parts, total = [], Fraction(0)
        for cline, ctokens in lines[1:]:
            if len(ctokens) != dim + 3 or ctokens[0][1] != "w" or ctokens[2][1] != "pure":
                raise ReferenceParseError(
                    cline, ctokens[0][0], f"expected 'w <weight> pure <{dim} coordinates>'"
                )
            weight = Fraction(*_ref_parts_at([ctokens[1]], cline)[0])
            if weight < 0:
                raise ReferenceParseError(cline, ctokens[1][0], f"negative mixture weight {weight}")
            ints = _ref_ints(ctokens[3:], cline)
            if not any(ints):
                raise ReferenceParseError(cline, ctokens[3][0], "zero vector in mixture component")
            parts.append((weight, ints))
            total += weight
        if total != 1:
            raise ReferenceParseError(lines[-1][0], 1, f"mixture weights sum to {total}, expected 1")
        return DensityOperator.mixture(parts)
    if kind == "matrix":
        if len(tokens) != 1:
            raise ReferenceParseError(line, tokens[1][0], "matrix takes no arguments on its own line")
        if len(lines) != dim + 1:
            raise ReferenceParseError(line, key_col, f"matrix form needs exactly {dim} rows")
        rows = []
        for rline, rtokens in lines[1:]:
            if len(rtokens) != dim:
                raise ReferenceParseError(rline, rtokens[0][0], f"matrix row needs {dim} entries")
            rows.append(tuple(Fraction(n, d) for n, d in _ref_parts_at(rtokens, rline)))
        try:
            return DensityOperator(RMatrix(tuple(rows)))
        except ValueError as exc:
            raise ReferenceParseError(line, key_col, str(exc)) from None
    raise ReferenceParseError(
        line, key_col, f"state must start with 'pure', 'mixed' or 'matrix', got {kind!r}"
    )

import io
import itertools
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from kscheck import Context, DensityOperator, KSScenario, Ray, build_scenario, cabello18_text
from kscheck.cli import run
from kscheck.dsl import ParseError, parse_scenario, parse_state, serialize_scenario
from kscheck.rational import parse_rational

from helpers import (
    ReferenceParseError,
    int_digit_limit,
    reference_parse_scenario,
    reference_parse_state,
)

GOOD = """\
# a single complete context in dimension 2
dim 2
ray up 0 1
ray down 1 0
context up down
"""


def err(text, **kwargs):
    with pytest.raises(ParseError) as excinfo:
        parse_scenario(text, **kwargs)
    return excinfo.value


class TestParseRational:
    def test_integers_and_fractions(self):
        assert parse_rational("3") == 3
        assert parse_rational("-3") == -3
        assert parse_rational("1/2") == Fraction(1, 2)
        assert parse_rational("-7/21") == Fraction(-1, 3)

    def test_rejects_decimals_and_junk(self):
        for bad in ("1.5", "1e3", "a", "1/", "/2", "--1", "1/-2", "1\n", "3/4\n"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")

    @pytest.mark.parametrize(
        "token",
        [
            "\u0663",  # ARABIC-INDIC DIGIT THREE
            "\uff11/\uff12",  # FULLWIDTH DIGIT ONE / FULLWIDTH DIGIT TWO
            "1/\u0662",
            "-\u096a",  # DEVANAGARI DIGIT FOUR
            "\U0001d7d9",  # MATHEMATICAL DOUBLE-STRUCK DIGIT ONE
        ],
    )
    def test_rejects_non_ascii_digits(self, token):
        with pytest.raises(ValueError, match="invalid rational"):
            parse_rational(token)


class TestParseScenario:
    def test_minimal_document(self):
        s = parse_scenario(GOOD)
        assert s.dim == 2
        assert [r.id for r in s.rays] == ["up", "down"]
        assert len(s.contexts) == 1

    def test_bundled_fixture(self):
        s = parse_scenario(cabello18_text())
        assert len(s.rays) == 18 and len(s.contexts) == 9

    def test_comments_and_blank_lines_ignored(self):
        s = parse_scenario("\n# hi\n\n" + GOOD + "\n# bye\n")
        assert len(s.rays) == 2

    def test_rational_coordinates(self):
        s = parse_scenario("dim 2\nray a 1/2 1/2\nray b 1 -1\ncontext a b\n")
        assert s.rays[0].coords.entries == (1, 1)

    def test_missing_dim(self):
        e = err("ray a 1 0\n")
        assert e.line == 1 and "dim" in e.message

    def test_duplicate_dim(self):
        e = err("dim 2\ndim 3\n" + "ray a 0 1\nray b 1 0\ncontext a b\n")
        assert e.line == 2 and "duplicate dim" in e.message

    def test_dim_after_declarations(self):
        e = err("dim 2\nray a 0 1\ndim 2\nray b 1 0\ncontext a b\n")
        assert e.line == 3

    @pytest.mark.parametrize(
        "text, position",
        [
            # A ray or a context needs dim first, so a later dim is a duplicate.
            ("dim 2\nray a 0 1\n  dim 2\n", (3, 3, "duplicate dim declaration")),
            ("dim 2\n", (1, 1, "no ray declarations")),
            ("dim 2\n  ray a 1 0\n", (1, 1, "no context declarations")),
            ("dim 2\nray  1a 1 0\n", (2, 6, "invalid ray id '1a'")),
            # An unused ray's line is looked up only when the error is
            # raised, so blank and comment lines must count as on the way in.
            (
                "dim 2\n\n# a comment\nray a 1 0\nray c 1 1\nray b 0 1\ncontext a b\n",
                (5, 5, "ray 'c' is not used in any context"),
            ),
        ],
    )
    def test_document_errors_with_position(self, text, position):
        e = err(text)
        assert (e.line, e.column, e.message) == position

    def test_unknown_keyword(self):
        e = err("dim 2\nrays a 0 1\n")
        assert (e.line, e.column) == (2, 1) and "unknown keyword" in e.message

    def test_context_arity(self):
        e = err("dim 4\nray a 1 0 0 0\ncontext a\n")
        assert e.line == 3 and "has 1 rays, needs 4" in e.message

    def test_zero_ray(self):
        e = err("dim 4\nray a 0 0 0 0\n")
        assert e.line == 2 and "zero vector" in e.message

    def test_invalid_rational_with_column(self):
        e = err("dim 2\nray a 1 x\n")
        assert (e.line, e.column) == (2, 9)
        assert "invalid rational" in e.message

    def test_non_ascii_digit_in_ray_with_column(self):
        e = err("dim 2\nray a \u0663 0\nray b 0 1\ncontext a b\n")
        assert (e.line, e.column) == (2, 7)
        assert "invalid rational" in e.message

    @pytest.mark.parametrize("token", ["1_0", "\u0661\u0662", "+-1", "1/-2", "0x1"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_coordinates_int_reads_are_rejected_with_column(self, token, position):
        # int() reads the first two tokens; only _RATIONAL_RE's language is
        # accepted, in every coordinate position, for scenarios and states.
        coords = ["0", "0", "1"]
        coords[position] = token
        e = err(f"dim 3\nray a {' '.join(coords)}\n")
        assert (e.line, e.column, e.message) == (2, 7 + 2 * position, f"invalid rational {token!r}")
        with pytest.raises(ParseError) as excinfo:
            parse_state(f"pure {' '.join(coords)}\n", 3)
        e = excinfo.value
        assert (e.line, e.column, e.message) == (1, 6 + 2 * position, f"invalid rational {token!r}")

    def test_undeclared_ray_id(self):
        e = err("dim 2\nray a 0 1\ncontext a b\n")
        assert e.line == 3 and "undeclared" in e.message

    def test_duplicate_ray_id(self):
        e = err("dim 2\nray a 0 1\nray a 1 0\ncontext a a\n")
        assert e.line == 3 and "duplicate" in e.message

    def test_repeated_ray_in_context(self):
        e = err("dim 2\nray a 0 1\nray b 1 0\ncontext a a\n")
        assert e.line == 4 and "repeated" in e.message

    def test_non_orthogonal_context_positions_the_line(self):
        e = err("dim 2\nray a 1 0\nray b 1 1\ncontext a b\n")
        assert e.line == 4 and "not orthogonal" in e.message

    def test_unused_ray_points_at_declaration(self):
        e = err("dim 2\nray a 0 1\nray b 1 0\nray c 1 1\ncontext a b\n")
        assert e.line == 4 and "not used" in e.message

    def test_reserved_word_as_id(self):
        e = err("dim 2\nray context 0 1\n")
        assert e.line == 2 and "reserved" in e.message

    def test_bad_dimension_value(self):
        e = err("dim zero\n")
        assert e.line == 1 and "invalid dimension" in e.message

    def test_unicode_digit_dimension_is_a_parse_error(self):
        e = err("dim \u00b2\n")
        assert (e.line, e.column) == (1, 5) and "invalid dimension" in e.message

    def test_each_context_is_validated_once(self, monkeypatch):
        # The Context constructor is the one place that checks a context,
        # whichever path reaches it.
        real = Context.__init__
        calls = []

        def spy(self, rays):
            calls.append(tuple(r.id for r in rays))
            real(self, rays)

        monkeypatch.setattr(Context, "__init__", spy)
        parse_scenario(cabello18_text())
        assert len(calls) == 9
        calls.clear()
        parse_scenario("dim 2\nray a 1 0\nray b 0 1\nray c 0 2\ncontext a b\ncontext a c\n")
        assert calls == [("a", "b"), ("a", "c")]

    def test_no_merge_mints_per_occurrence_ids(self):
        s = parse_scenario(cabello18_text(), merge=False)
        assert len(s.rays) == 36
        assert all("@c" in r.id for r in s.rays)


class TestRoundTrip:
    def test_fixture_round_trips(self):
        s1 = parse_scenario(cabello18_text())
        s2 = parse_scenario(serialize_scenario(s1))
        assert s1 == s2

    def test_small_document_round_trips(self):
        s1 = parse_scenario(GOOD)
        assert parse_scenario(serialize_scenario(s1)) == s1

    def test_serialization_is_canonical(self):
        noisy = "dim 2\nray a 0 -2\nray b 7 0\ncontext a b\n"
        s = parse_scenario(noisy)
        assert "ray a 0 1" in serialize_scenario(s)
        assert "ray b 1 0" in serialize_scenario(s)


class TestParseState:
    def test_non_ascii_digit_in_pure_state_with_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_state("pure 1 \uff10\n", 2)
        assert (excinfo.value.line, excinfo.value.column) == (1, 8)

    def test_non_ascii_digit_in_mixture_weight_with_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_state("mixed\nw 1/\u0662 pure 1 0\nw 1/2 pure 0 1\n", 2)
        assert (excinfo.value.line, excinfo.value.column) == (2, 3)

    def test_non_ascii_digit_in_matrix_row_with_column(self):
        with pytest.raises(ParseError) as excinfo:
            parse_state("matrix\n1/2 0\n0 \u0661/2\n", 2)
        assert (excinfo.value.line, excinfo.value.column) == (3, 3)

    def test_pure(self):
        rho = parse_state("pure 1 1 0 0\n", 4)
        assert rho.matrix.trace() == 1
        assert rho.matrix.rows[0][1] == Fraction(1, 2)

    def test_mixed(self):
        rho = parse_state(
            "mixed\nw 1/2 pure 1 0 0 0\nw 1/2 pure 0 1 0 0\n", 4
        )
        assert rho.matrix.rows[0][0] == Fraction(1, 2)
        assert rho.matrix.rows[2][2] == 0

    def test_matrix(self):
        rho = parse_state(
            "matrix\n1/4 0 0 0\n0 1/4 0 0\n0 0 1/4 0\n0 0 0 1/4\n", 4
        )
        assert rho.matrix.trace() == 1

    def test_empty(self):
        with pytest.raises(ParseError, match="empty"):
            parse_state("# nothing here\n", 4)

    def test_pure_arity(self):
        with pytest.raises(ParseError, match="4 coordinates"):
            parse_state("pure 1 0\n", 4)

    def test_mixed_weights_must_sum_to_one(self):
        with pytest.raises(ParseError, match="sum to 3/4"):
            parse_state("mixed\nw 3/4 pure 1 0 0 0\n", 4)

    def test_matrix_must_be_a_state(self):
        bad = "matrix\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"
        with pytest.raises(ParseError, match="trace"):
            parse_state(bad, 4)

    def test_matrix_row_count(self):
        with pytest.raises(ParseError, match="4 rows"):
            parse_state("matrix\n1 0 0 0\n", 4)

    def test_unknown_header(self):
        with pytest.raises(ParseError, match="pure"):
            parse_state("density 1 0 0 0\n", 4)

    def test_component_line_shape(self):
        with pytest.raises(ParseError, match="expected 'w"):
            parse_state("mixed\npure 1 0 0 0\n", 4)

    @pytest.mark.parametrize(
        "text, position",
        [
            ("  pure 0  0\n", (1, 8, "the zero vector does not span a ray")),
            ("mixed  now\nw 1 pure 1 0\n", (1, 8, "mixed takes no arguments on its own line")),
            ("mixed\nw 1 pure 1 0\n  w  -1/2 pure 1 0\n", (3, 6, "negative mixture weight -1/2")),
        ],
    )
    def test_errors_with_position(self, text, position):
        with pytest.raises(ParseError) as excinfo:
            parse_state(text, 2)
        e = excinfo.value
        assert (e.line, e.column, e.message) == position

    @pytest.mark.parametrize(
        "text, position",
        [
            ("mixed\n", (1, 1, "mixed state needs at least one component line")),
            ("mixed\n# only a comment\n", (1, 1, "mixed state needs at least one component line")),
            ("mixed\nw 1 pure 0 0 0 0\n", (2, 10, "zero vector in mixture component")),
            (
                "matrix 4\n1 0 0 0\n0 0 0 0\n0 0 0 0\n0 0 0 0\n",
                (1, 8, "matrix takes no arguments on its own line"),
            ),
        ],
    )
    def test_header_and_component_errors_with_position(self, text, position):
        # Dimension 4, as for the states of Cabello's set read by the CLI.
        with pytest.raises(ParseError) as excinfo:
            parse_state(text, 4)
        e = excinfo.value
        assert (e.line, e.column, e.message) == position


# Three contexts in dimension 3; ``a`` and ``c`` each lie in two of them.
BASE_RAYS = {
    "a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1), "d": (0, 1, 1),
    "e": (0, 1, -1), "f": (1, 2, 0), "g": (2, -1, 0),
}
BASE_CONTEXTS = [["a", "b", "c"], ["a", "d", "e"], ["c", "f", "g"]]

token_styles = st.tuples(
    st.integers(1, 3),  # factor by which p/q is left unreduced
    st.sampled_from(["", "+", "-"]),  # sign shown on a nonnegative value; "-" only on zero
    st.sampled_from(["", "0", "00"]),  # leading zeros
    st.booleans(),  # write "/1" on integers
)


rationals = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


def rational_token(value: Fraction, style) -> str:
    """``value`` as a reader might write it: an optional ``+``, leading
    zeros, an unreduced ``p/q``, ``-0`` for zero."""
    k, sign, zeros, slash_one = style
    num, den = value.numerator * k, value.denominator * k
    if num < 0:
        sign = "-"
    elif num > 0 and sign == "-":
        sign = ""
    token = f"{sign}{zeros}{abs(num)}"
    if den != 1 or slash_one:
        token += f"/{zeros}{den}"
    return token


@st.composite
def rescaled_documents(draw):
    """The base scenario with every ray rescaled by a random rational and
    written with random tokens. Some rays get a second, proportional
    declaration under the id ``<id>_dup``, used in a copy of one of the
    ray's contexts; the declarations come in random order.

    Returns the text, every declaration as ``(id, tokens, base id)``, and
    the contexts as id lists.
    """
    scales = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1), st.integers(1, 6))
    declared = []
    contexts = [list(c) for c in BASE_CONTEXTS]
    for rid, v in BASE_RAYS.items():
        copies = [rid, rid + "_dup"] if draw(st.booleans()) else [rid]
        for copy in copies:
            c = draw(scales)
            styles = draw(st.lists(token_styles, min_size=3, max_size=3))
            declared.append((copy, [rational_token(c * x, t) for x, t in zip(v, styles)], rid))
        if len(copies) == 2:
            context = next(ctx for ctx in BASE_CONTEXTS if rid in ctx)
            contexts.append([copies[1] if x == rid else x for x in context])
    declared = draw(st.permutations(declared))
    lines = ["dim 3"]
    lines += [f"ray {rid} " + " ".join(tokens) for rid, tokens, _ in declared]
    lines += ["context " + " ".join(c) for c in contexts]
    return "\n".join(lines) + "\n", declared, contexts


class TestIntegerParse:
    @given(rescaled_documents())
    @settings(max_examples=60, deadline=None)
    def test_rays_match_the_fraction_route(self, doc):
        text, declared, contexts = doc
        unmerged = parse_scenario(text, merge=False)
        minted = {r.id: r.ints for r in unmerged.rays}
        first = {}
        for rid, tokens, base in declared:
            want = Ray(rid, [Fraction(t) for t in tokens]).ints
            for k, c in enumerate(contexts, start=1):
                if rid in c:
                    assert minted[f"{rid}@c{k}"] == want
            first.setdefault(base, rid)
        merged = parse_scenario(text)
        assert [r.id for r in merged.rays] == list(first.values())
        assert [r.ints for r in merged.rays] == [BASE_RAYS[base] for base in first]
        keeper = {rid: first[base] for rid, _, base in declared}
        assert [list(c.ray_ids) for c in merged.contexts] == [
            [keeper[rid] for rid in c] for c in contexts
        ]
        # Assembled without the constructor's checks, yet they pass.
        for s in (merged, unmerged):
            assert KSScenario(dim=3, rays=s.rays, contexts=s.contexts) == s

    @given(
        st.lists(
            st.lists(st.tuples(rationals, token_styles), min_size=3, max_size=3),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_states_match_the_fraction_route(self, components):
        lines, coords = [], []
        for component in components:
            tokens = [rational_token(x, style) for x, style in component]
            lines.append(" ".join(tokens))
            coords.append([Fraction(t) for t in tokens])
        assume(all(any(c) for c in coords))
        assert parse_state(f"pure {lines[0]}\n", 3) == DensityOperator.pure(coords[0])
        n = len(lines)
        text = "mixed\n" + "".join(f"w 1/{n} pure {line}\n" for line in lines)
        weights = [Fraction(1, n)] * n
        assert parse_state(text, 3) == DensityOperator.mixture(list(zip(weights, coords)))

    def test_scenario_parse_builds_no_fraction(self, monkeypatch):
        built = []
        real = Fraction.__new__

        def spy(cls, *args, **kwargs):
            built.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", spy)
        text = "dim 3\nray a 1/2 -1/2 0\nray b 2/6 1/3 +0\nray c 0 -0 007\ncontext a b c\n"
        for merge in (True, False):
            s = parse_scenario(text, merge=merge)
        assert built == []
        assert [r.ints for r in s.rays] == [(1, -1, 0), (1, 1, 0), (0, 0, 1)]
        Fraction(1, 2)
        assert built == [(1, 2)]


@pytest.mark.skipif(int_digit_limit() == 0, reason="the interpreter has no integer digit limit")
class TestOversizedIntegers:
    @pytest.fixture()
    def big(self):
        return "1" * (int_digit_limit() + 1)

    def test_ray_coordinate(self, big):
        for token in (big, f"1/{big}", f"-{big}/3"):
            e = err(f"dim 2\nray a 0 {token}\nray b 1 0\ncontext a b\n")
            assert (e.line, e.column) == (2, 9) and "limit" in e.message

    def test_dimension(self, big):
        e = err(f"dim {big}\n")
        assert (e.line, e.column) == (1, 5) and "invalid dimension" in e.message

    @pytest.mark.parametrize(
        "text, position",
        [
            ("pure 1 {big}\n", (1, 8)),
            ("mixed\nw 1/{big} pure 1 0\nw 1/2 pure 0 1\n", (2, 3)),
            ("mixed\nw 1/2 pure 1 0\nw 1/2 pure {big} 1\n", (3, 12)),
            ("matrix\n1/2 0\n0 {big}/2\n", (3, 3)),
        ],
    )
    def test_state(self, big, text, position):
        with pytest.raises(ParseError) as excinfo:
            parse_state(text.format(big=big), 2)
        e = excinfo.value
        assert (e.line, e.column) == position and "limit" in e.message

    def unprintable_context(self):
        # Every token is within the limit, but the cleared coordinates of a
        # are not, so the context's violation message cannot be printed.
        n = int_digit_limit()
        a = f"{'9' * n}/1{'0' * (n - 1)} {'1' * n}/{'1' * (n - 1)}3"
        return f"dim 2\nray a {a}\nray b 1 1\ncontext a b\n"

    def test_unprintable_context(self):
        e = err(self.unprintable_context())
        assert (e.line, e.column) == (4, 1) and "limit" in e.message

    def test_cli_check_unprintable_context(self, tmp_path, capsys):
        path = tmp_path / "unprintable.ks"
        path.write_text(self.unprintable_context(), encoding="utf-8")
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: line 4, column 1: ")

    def test_cli_check_exits_two_with_one_error_line(self, big, tmp_path, capsys):
        path = tmp_path / "big.ks"
        path.write_text(f"dim 2\nray a 0 {big}\nray b 1 0\ncontext a b\n", encoding="utf-8")
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("error: line 2, column 9: ")


FUZZ_TOKENS = [
    "dim", "ray", "context", "pure", "mixed", "matrix", "w",
    "a", "b", "c", "a@c1", "_x.y-z",
    "0", "1", "-1", "2", "+3", "007", "-0",
    "1/2", "-3/4", "2/4", "1/0", "0/0",
    "\u0663", "\uff11/\uff12", "\u00b2", "1.5", "#", "#x", "x#",
    # int() accepts the first two, and the last has one digit more than
    # int() converts by default.
    "1_0", "\u0661\u0662", "+-1", "1/-2", "9" * 4301,
]

# Whitespace that splits words, and for the last two lines too:
# str.split(), str.splitlines() and \S+ must agree on every one.
FUZZ_GAPS = (" ", "\t", "\n", "\r\n", "  ", "\u00a0", "\u2003", "\x1c", "\x85")

# Each piece is a token and the whitespace after it, so one draw per piece.
FUZZ_PIECES = [t + gap for t in FUZZ_TOKENS for gap in FUZZ_GAPS]


def fuzz_documents():
    return st.lists(st.sampled_from(FUZZ_PIECES), max_size=40).map("".join)


# Valid state files in dimension 2, to corrupt.
STATES_2 = [
    "pure 1 -1/2\n",
    "mixed\nw 1/3 pure 1 0\nw 2/3 pure 1 1\n",
    "matrix\n1/2 0\n0 1/2\n",
]


@st.composite
def corrupted_documents(draw, documents):
    """A valid document with a few words swapped for fuzz tokens or for
    other words of the document, and a few gaps for fuzz whitespace, so
    errors arise deep in lines too."""
    text = draw(documents)
    pieces = re.split(r"(\s+)", text)  # words at even indices, gaps at odd
    words = st.sampled_from(FUZZ_TOKENS) | st.sampled_from([w for w in pieces[::2] if w])
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(pieces) - 1))
        pieces[k] = draw(st.sampled_from(FUZZ_GAPS) if k % 2 else words)
    return "".join(pieces)


def outcome(parse, *args, **kwargs):
    """What a reader returns, or its error's (line, column, message)."""
    try:
        return parse(*args, **kwargs)
    except (ParseError, ReferenceParseError) as e:
        return (e.line, e.column, e.message)


class TestFuzz:
    @given(fuzz_documents(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_scenario_text_parses_or_raises_a_positioned_error(self, text, merge):
        try:
            parse_scenario(text, merge=merge)
        except ParseError as e:
            assert e.line >= 1 and e.column >= 1

    @given(fuzz_documents(), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_state_text_parses_or_raises_a_positioned_error(self, text, dim):
        try:
            parse_state(text, dim)
        except ParseError as e:
            assert e.line >= 1 and e.column >= 1

    @given(
        fuzz_documents() | corrupted_documents(rescaled_documents().map(lambda doc: doc[0])),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_scenario_matches_the_positioned_reference(self, text, merge):
        try:
            _, rays, contexts = reference_parse_scenario(text)
        except ReferenceParseError as e:
            expected = (e.line, e.column, e.message)
        else:
            expected = build_scenario(rays, contexts, merge=merge)
        assert outcome(parse_scenario, text, merge=merge) == expected

    @given(fuzz_documents() | corrupted_documents(st.sampled_from(STATES_2)), st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_state_matches_the_positioned_reference(self, text, dim):
        assert outcome(parse_state, text, dim) == outcome(reference_parse_state, text, dim)

    @given(fuzz_documents())
    @settings(max_examples=100, deadline=None)
    def test_cli_check_exits_zero_or_two_with_one_positioned_error_line(
        self, tmp_path_factory, text
    ):
        path = tmp_path_factory.mktemp("fuzz") / "doc.ks"
        path.write_text(text, encoding="utf-8")
        out, errs = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(errs):
            code = run(["check", str(path)])
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert re.fullmatch(r"error: line \d+, column \d+: [^\n]*\n", errs.getvalue())

    @given(
        fuzz_documents()
        | corrupted_documents(rescaled_documents().map(lambda doc: doc[0]))
        | corrupted_documents(st.sampled_from([GOOD, cabello18_text()]))
        | st.sampled_from([GOOD, cabello18_text()]),
        st.sampled_from(["color", "parity", "graph"]),
    )
    @settings(max_examples=200, deadline=None)
    def test_cli_scenario_files_exit_cleanly(self, tmp_path_factory, text, command):
        folder = tmp_path_factory.mktemp("fuzz")
        path, dot = folder / "doc.ks", folder / "doc.dot"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)] + (["--dot", str(dot)] if command == "graph" else [])
        out, errs = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(errs):
            code = run(argv)
        try:
            s = parse_scenario(text)
        except ParseError:
            assert code == 2
            assert out.getvalue() == ""
            assert re.fullmatch(r"error: line \d+, column \d+: [^\n]*\n", errs.getvalue())
            return
        assert errs.getvalue() == ""
        lines = out.getvalue().splitlines()
        ids = [r.id for r in s.rays]
        if command == "color":
            if code == 1:
                assert lines == ["NO VALUATION"]
                return
            assert code == 0
            assert [line.split()[0] for line in lines] == ids
            values = {rid: int(b) for rid, b in (line.split() for line in lines)}
            assert set(values.values()) <= {0, 1}
            assert all(sum(values[rid] for rid in c.ray_ids) == 1 for c in s.contexts)
        elif command == "parity":
            if code == 1:
                assert lines == ["NO PARITY CERTIFICATE"]
                return
            assert code == 0
            assert lines[0] == "PARITY CERTIFICATE"
            key, count = lines[1].split()
            assert key == "context_count" and int(count) % 2 == 1
            multiplicities = [line.split() for line in lines[2:]]
            assert [rid for rid, _ in multiplicities] == sorted(rid for rid, _ in multiplicities)
            assert {rid for rid, _ in multiplicities} <= set(ids)
            assert all(int(m) > 0 and int(m) % 2 == 0 for _, m in multiplicities)
        else:
            assert code == 0
            edges = sum(a.is_orthogonal_to(b) for a, b in itertools.combinations(s.rays, 2))
            assert lines == [f"wrote {dot} ({len(ids)} vertices, {edges} edges)"]
            graph = dot.read_text(encoding="utf-8").splitlines()
            assert graph[0] == "graph orthogonality {" and graph[-1] == "}"
            assert len(graph) == 2 + len(ids) + edges

    # Two contexts in dimension 2, so `prob` prints two distributions.
    TWO_BASES = "dim 2\nray a 1 0\nray b 0 1\nray c 1 1\nray d 1 -1\ncontext a b\ncontext c d\n"

    @given(
        fuzz_documents() | corrupted_documents(st.sampled_from(STATES_2)),
        st.sampled_from(["prob", "model"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cli_state_files_exit_cleanly(self, tmp_path_factory, text, command):
        folder = tmp_path_factory.mktemp("fuzz")
        scenario, state = folder / "two.ks", folder / "doc.state"
        scenario.write_text(self.TWO_BASES, encoding="utf-8")
        state.write_text(text, encoding="utf-8")
        out, errs = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(errs):
            code = run([command, str(scenario), "--state", str(state)])
        try:
            parse_state(text, 2)
        except ParseError:
            assert code == 2
            assert out.getvalue() == ""
            assert re.fullmatch(r"error: line \d+, column \d+: [^\n]*\n", errs.getvalue())
            return
        assert errs.getvalue() == ""
        lines = out.getvalue().splitlines()
        if command == "prob":
            assert code == 0
            blocks = out.getvalue().split("\n\n")
            assert [b.splitlines()[0] for b in blocks] == ["context 1", "context 2"]
            for block in blocks:
                weights = [Fraction(line.split()[1]) for line in block.splitlines()[1:]]
                assert len(weights) == 2 and min(weights) >= 0 and sum(weights) == 1
        elif code == 0:
            assert lines[0] == "FEASIBLE"
            assert sum(Fraction(line.split()[1]) for line in lines[1:]) == 1
        else:
            assert (code, lines) == (1, ["INFEASIBLE"])

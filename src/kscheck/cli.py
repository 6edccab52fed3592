"""Command-line interface.

Subcommands:

* ``check <file>``: validate a scenario file.
* ``color <file> [--count] [--no-merge]``: find (or count) valuations.
* ``parity <file>``: look for a parity certificate of non-colorability:
  an odd set of contexts covering every ray an even number of times,
  printed as its size and each ray's multiplicity over it.
* ``graph <file> --dot <out>``: write the orthogonality graph in DOT form.
* ``model <file> --state <statefile>``: noncontextual-model feasibility.
* ``prob <file> --state <statefile> [--context <k>]``: Born distributions.
* ``symm --a <coords> --b <coords> --sign <+|->``: two-particle
  (anti)symmetrization.

Exit codes: 0 on success (and when the asked-for object exists), 1 when a
search comes back empty (no valuation, no certificate, no model), 2 on
any input or usage error and on any unexpected failure, which prints a
single ``error:`` line and nothing on stdout: a subcommand's output is
written only when it returns. All numbers printed are exact rationals.

Each start loads only what its subcommand runs. ``check``, ``color``,
``parity`` and ``graph`` work on ints and load neither
:mod:`kscheck.exactlin` nor :mod:`fractions`; ``prob`` loads them with
:mod:`kscheck.probability`, ``model`` with :mod:`kscheck.model` and
``probability``, and ``symm`` with :mod:`kscheck.symmetry`, which
loads no lattice. Only the commands that read a scenario file load
:mod:`kscheck.dsl`, :mod:`kscheck.ksengine` and :mod:`kscheck.qlogic`,
so ``symm`` loads none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .rational import parse_rational

if TYPE_CHECKING:
    from .exactlin import RVector
    from .ksengine import KSScenario

# The scenario code, model, probability, symmetry and exactlin are imported
# by the subcommands that use them, so that every other start skips loading
# them. Each import runs when its command does, so it reads the name the
# module holds then.


def _load_scenario(path: str, *, merge: bool = True) -> KSScenario:
    from .dsl import parse_scenario

    return parse_scenario(Path(path).read_text(encoding="utf-8"), merge=merge)


def _load_state(path: str, dim: int):
    from .dsl import parse_state

    return parse_state(Path(path).read_text(encoding="utf-8"), dim)


def _cmd_check(args: argparse.Namespace) -> int:
    s = _load_scenario(args.file)
    print(f"OK dim={s.dim} rays={len(s.rays)} contexts={len(s.contexts)}")
    return 0


def _cmd_color(args: argparse.Namespace) -> int:
    from .ksengine import count_valuations, find_valuation

    s = _load_scenario(args.file, merge=not args.no_merge)
    if args.count:
        n = count_valuations(s)
        print(n)
        return 0 if n > 0 else 1
    valuation = find_valuation(s)
    if valuation is None:
        print("NO VALUATION")
        return 1
    for ray in s.rays:
        print(f"{ray.id} {valuation[ray.id]}")
    return 0


def _cmd_parity(args: argparse.Namespace) -> int:
    from .ksengine import parity_certificate

    s = _load_scenario(args.file)
    cert = parity_certificate(s)
    if cert is None:
        print("NO PARITY CERTIFICATE")
        return 1
    print("PARITY CERTIFICATE")
    print(f"context_count {cert.context_count}")
    for rid in sorted(cert.ray_multiplicities):
        print(f"{rid} {cert.ray_multiplicities[rid]}")
    return 0


def _dot_text(s: KSScenario, edges: Sequence[tuple[str, str]]) -> str:
    lines = ["graph orthogonality {"]
    for ray in sorted(s.rays, key=lambda r: r.id):
        lines.append(f'  "{ray.id}";')
    for a, b in edges:
        lines.append(f'  "{a}" -- "{b}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_graph(args: argparse.Namespace) -> int:
    from .ksengine import orthogonality_graph

    s = _load_scenario(args.file)
    edges = orthogonality_graph(s)
    Path(args.dot).write_text(_dot_text(s, edges), encoding="utf-8")
    print(f"wrote {args.dot} ({len(s.rays)} vertices, {len(edges)} edges)")
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from .model import noncontextual_model

    s = _load_scenario(args.file)
    rho = _load_state(args.state, s.dim)
    model = noncontextual_model(s, rho)
    if model is None:
        print("INFEASIBLE")
        return 1
    print("FEASIBLE")
    for index in sorted(model.weights):
        ones = " ".join(model.valuations[index].ones())
        print(f"weight {model.weights[index]} ones {ones}")
    return 0


def _cmd_prob(args: argparse.Namespace) -> int:
    from .probability import context_distribution

    s = _load_scenario(args.file)
    rho = _load_state(args.state, s.dim)
    if args.context is not None:
        if not 1 <= args.context <= len(s.contexts):
            raise ValueError(
                f"context index {args.context} out of range 1..{len(s.contexts)}"
            )
        chosen = [(args.context, s.contexts[args.context - 1])]
        with_headers = False
    else:
        chosen = list(enumerate(s.contexts, start=1))
        with_headers = True
    for pos, (k, context) in enumerate(chosen):
        if with_headers:
            if pos:
                print()
            print(f"context {k}")
        space = context_distribution(rho, context)
        for rid in space.outcomes:
            print(f"{rid} {space.weights[rid]}")
    return 0


def _parse_coords_arg(text: str, flag: str) -> RVector:
    from .exactlin import RVector

    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if not tokens:
        raise ValueError(f"{flag} needs at least one coordinate")
    return RVector(tuple(parse_rational(t) for t in tokens))


def _cmd_symm(args: argparse.Namespace) -> int:
    from .symmetry import exchange_parity, symmetrize

    a = _parse_coords_arg(args.a, "--a")
    b = _parse_coords_arg(args.b, "--b")
    state = symmetrize(a, b, 1 if args.sign == "+" else -1)
    amp = state.amplitudes
    for i in range(amp.nrows):
        for j in range(amp.ncols):
            if amp.rows[i][j] != 0:
                print(f"amplitude {i} {j} {amp.rows[i][j]}")
    print(f"norm_squared {state.norm_squared}")
    parity = exchange_parity(state)
    print(f"parity {'+1' if parity == 1 else '-1' if parity == -1 else 'none'}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kscheck",
        description="Exact-rational checks on ray/context scenarios: "
        "valuations, parity certificates, Born probabilities, "
        "noncontextual-model feasibility, two-particle symmetrization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a scenario file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("color", help="find or count two-valued valuations")
    p.add_argument("file")
    p.add_argument("--count", action="store_true", help="count valuations instead of printing one")
    p.add_argument(
        "--no-merge",
        action="store_true",
        help="do not identify proportional rays across contexts",
    )
    p.set_defaults(func=_cmd_color)

    p = sub.add_parser("parity", help="look for a parity certificate of non-colorability")
    p.add_argument("file")
    p.set_defaults(func=_cmd_parity)

    p = sub.add_parser("graph", help="write the orthogonality graph in DOT format")
    p.add_argument("file")
    p.add_argument("--dot", required=True, metavar="OUT", help="output path for the DOT file")
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("model", help="noncontextual-model feasibility for a state")
    p.add_argument("file")
    p.add_argument("--state", required=True, help="state file (pure / mixed / matrix form)")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("prob", help="Born distribution of a state over contexts")
    p.add_argument("file")
    p.add_argument("--state", required=True, help="state file (pure / mixed / matrix form)")
    p.add_argument("--context", type=int, help="1-based context index; default: all contexts")
    p.set_defaults(func=_cmd_prob)

    p = sub.add_parser("symm", help="two-particle (anti)symmetrization")
    p.add_argument("--a", required=True, help="first factor, e.g. '1,0'")
    p.add_argument("--b", required=True, help="second factor, e.g. '0,1'")
    p.add_argument("--sign", required=True, choices=["+", "-"], help="+ bosonic, - fermionic")
    p.set_defaults(func=_cmd_symm)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map every failure to an exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except (ValueError, OSError) as exc:
        # ParseError, ScenarioError and ContextError are ValueErrors too.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Exit code 1 means "searched, found nothing", so a crash must not
        # fall through to the interpreter's traceback and exit status.
        detail = " ".join(str(exc).split())
        print(f"error: internal failure: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    return code


def main() -> None:
    sys.exit(run())

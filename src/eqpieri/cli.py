"""Command-line interface for the equivariant Pieri calculator.

Subcommands
-----------
pieri      one structure coefficient N^mu_{lambda,p}
expand     every nonzero coefficient of a special-class product
restrict   the special class restricted to one fixed point
oracle     the same coefficient recomputed by torus localization
verify     sweep small spaces comparing the rule against the oracle
diagram    the cut diagram and reduction branch for a pair of symbols
enumerate  all Schubert symbols of a space

Output is deterministic byte for byte: polynomials render in descending
graded lexicographic order with explicit ``*`` and ``^``, symbols print in
increasing order.  Exit status is 0 on success, 1 for invalid input, and 2
when an internal consistency check fails (which would indicate a genuine
defect, never bad user input).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from .audit import SMALL_SUITE, audit
from .diagram import build
from .errors import ConsistencyError, InputError
from .gkm import GkmEngine, fixed_point_restriction
from .pieri import (
    compute_pieri,
    pieri_expansion,
    positivity_certificate,
)
from .polyring import Polynomial
from .schubert import Space, enumerate_symbols, own_special_class, validate_symbol


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures exit with status 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _symbol_argument(text: str) -> tuple:
    """Comma-separated integers; a blank text is the empty symbol of m = 0."""
    try:
        return tuple(int(piece) for piece in text.split(",")) if text.strip() else ()
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated symbol")


def _space_from(args) -> Space:
    return Space(args.lie_type, args.m, args.n)


def _add_space_flags(parser, with_mu=True, with_lambda=True):
    parser.add_argument("--type", dest="lie_type", required=True,
                        choices=("A", "B", "C", "D"), help="Lie type of the space")
    parser.add_argument("--n", type=int, required=True,
                        help="rank (ambient dimension in type A is n itself)")
    parser.add_argument("--m", type=int, required=True,
                        help="dimension of the subspaces")
    if with_lambda:
        parser.add_argument("--lambda", dest="lam", type=_symbol_argument,
                            required=True, help="symbol, e.g. 2,4,8")
    if with_mu:
        parser.add_argument("--mu", type=_symbol_argument, required=True,
                            help="symbol, e.g. 1,3,5")


def _add_choice_flags(parser):
    parser.add_argument("--chat", type=int, default=None,
                        help="column dropped from Q (types B and D)")
    parser.add_argument("--pivot", type=_symbol_argument, default=None,
                        help="replacement pivot columns (type C)")


def build_parser() -> _Parser:
    """The top-level parser; its ``commands`` maps each sub-command to its
    parser, and each sub-command's ``run`` default is its handler."""
    parser = _Parser(prog="eqpieri",
                     description="equivariant Pieri coefficients for "
                                 "classical Grassmannians")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_pieri = sub.add_parser("pieri", parents=[], help="one structure coefficient")
    _add_space_flags(p_pieri)
    p_pieri.add_argument("--p", type=int, required=True, help="special-class degree")
    p_pieri.add_argument("--tilde", action="store_true",
                         help="use the second family at p = n-m (type D)")
    _add_choice_flags(p_pieri)
    p_pieri.add_argument("--json", action="store_true", help="emit JSON")
    p_pieri.add_argument("--certify", action="store_true",
                         help="attach a Graham-positivity certificate")
    p_pieri.set_defaults(run=_cmd_pieri)

    p_expand = sub.add_parser("expand", help="full special-class product")
    _add_space_flags(p_expand, with_mu=False)
    p_expand.add_argument("--p", type=int, required=True)
    p_expand.add_argument("--tilde", action="store_true")
    p_expand.add_argument("--json", action="store_true")
    p_expand.add_argument("--certify", action="store_true")
    p_expand.set_defaults(run=_cmd_expand)

    p_restrict = sub.add_parser(
        "restrict", help="special class restricted to the fixed point of a symbol"
    )
    _add_space_flags(p_restrict, with_mu=False)
    p_restrict.add_argument("--p", type=int, required=True)
    p_restrict.add_argument("--json", action="store_true")
    p_restrict.set_defaults(run=_cmd_restrict)

    p_oracle = sub.add_parser(
        "oracle", help="the coefficient recomputed by localization"
    )
    _add_space_flags(p_oracle)
    p_oracle.add_argument("--p", type=int, required=True)
    p_oracle.add_argument("--tilde", action="store_true")
    p_oracle.add_argument("--json", action="store_true")
    p_oracle.set_defaults(run=_cmd_oracle)

    p_verify = sub.add_parser("verify", help="rule-versus-oracle sweeps")
    p_verify.set_defaults(run=_cmd_verify)

    p_diagram = sub.add_parser("diagram", help="cut diagram and branch data")
    _add_space_flags(p_diagram)
    p_diagram.add_argument("--p", type=int, required=True)
    _add_choice_flags(p_diagram)
    p_diagram.set_defaults(run=_cmd_diagram)

    p_enum = sub.add_parser("enumerate", help="all symbols of a space")
    _add_space_flags(p_enum, with_mu=False, with_lambda=False)
    p_enum.add_argument("--json", action="store_true")
    p_enum.set_defaults(run=_cmd_enumerate)

    return parser


def _sym_text(sym: Sequence[int]) -> str:
    return "{" + ",".join(str(c) for c in sym) + "}"


def _json_print(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=False))


def _certificate_payload(space, value, wanted):
    if not wanted:
        return None
    certificate = positivity_certificate(space, value)
    if not certificate.ok:
        raise ConsistencyError(
            f"positivity certification failed: {certificate.failure}"
        )
    return certificate


def _cmd_pieri(args) -> int:
    space = _space_from(args)
    result = compute_pieri(
        space, args.lam, args.mu, args.p,
        chat=args.chat, pivot=args.pivot, tilde=args.tilde,
    )
    certificate = _certificate_payload(space, result.value, args.certify)
    if args.json:
        _json_print({
            "coefficient": result.value.to_json_dict(),
            "terms": [term.to_json_dict() for term in result.terms],
            "certificate": certificate.to_json_dict() if certificate else None,
        })
        return 0
    print(result.value.render())
    if certificate is not None:
        print(f"certificate: scale={certificate.scale} "
              f"expansion={certificate.expansion.render(prefix='v')}")
    return 0


def _cmd_expand(args) -> int:
    space = _space_from(args)
    expansion = pieri_expansion(space, args.lam, args.p, tilde=args.tilde)
    if args.json:
        entries = []
        for mu, value in expansion.items():
            certificate = _certificate_payload(space, value, args.certify)
            entries.append({
                "mu": list(mu),
                "coefficient": value.to_json_dict(),
                "certificate": certificate.to_json_dict() if certificate else None,
            })
        _json_print({"expansion": entries})
        return 0
    for mu, value in expansion.items():
        _certificate_payload(space, value, args.certify)
        print(f"{_sym_text(mu)}: {value.render()}")
    return 0


def _cmd_restrict(args) -> int:
    space = _space_from(args)
    nu = validate_symbol(space, args.lam)
    value = fixed_point_restriction(space, own_special_class(space, nu, args.p, False), nu)
    if args.json:
        _json_print({"restriction": value.to_json_dict()})
    else:
        print(value.render())
    return 0


def _cmd_oracle(args) -> int:
    space = _space_from(args)
    lam = validate_symbol(space, args.lam)
    mu = validate_symbol(space, args.mu)
    sigma = own_special_class(space, lam, args.p, args.tilde)
    expansion = GkmEngine(space).product_expansion(lam, sigma, mu)
    value = expansion.get(mu, Polynomial.zero(space.torus_rank))
    if args.json:
        _json_print({"coefficient": value.to_json_dict()})
    else:
        print(value.render())
    return 0


def _cmd_diagram(args) -> int:
    space = _space_from(args)
    print(build(space, args.lam, args.mu, args.p,
                chat=args.chat, pivot=args.pivot).describe())
    return 0


def _cmd_enumerate(args) -> int:
    space = _space_from(args)
    symbols = enumerate_symbols(space)
    if args.json:
        _json_print({"space": space.name(), "symbols": [list(s) for s in symbols]})
        return 0
    for sym in symbols:
        print(_sym_text(sym))
    return 0


def _cmd_verify(args) -> int:
    failures = 0
    for space in SMALL_SUITE:
        checked = nonzero = 0
        for r in audit(space):
            checked += r.arrow
            nonzero += r.rule == r.oracle and not r.rule.is_zero
            if r.rule != r.oracle:
                failure = "MISMATCH"
            elif not (r.rule.is_zero or positivity_certificate(space, r.rule).ok):
                failure = "UNCERTIFIED"
            else:
                continue
            failures += 1
            print(f"{failure} {space.name()} lambda={list(r.lam)} mu={list(r.mu)} p={r.p}")
        print(f"{space.name()}: {checked} coefficients checked, "
              f"{nonzero} nonzero, all against localization")
    if failures:
        print(f"verify: FAIL ({failures} failures)")
        raise ConsistencyError(f"{failures} verification failures")
    print("verify: PASS")
    return 0


# built on the first call and reused: parsing keeps no state in the parser,
# and building it costs more than many coefficients
_parser: Optional[_Parser] = None


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """What ``_parser.parse_args(argv)`` returns, or the same exit.

    When argv[0] names a sub-command, the top-level pass would only hand
    the rest to that sub-command's parser, so that parser reads it
    directly; what it leaves over is refused with the top-level message.
    """
    global _parser
    if _parser is None:
        _parser = build_parser()
    sub = _parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return _parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        _parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.run(args)
    except InputError as exc:
        print(f"eqpieri: error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"eqpieri: consistency failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

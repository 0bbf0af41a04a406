"""Command-line front end.

Subcommands: census, equiv, polytope, recognize, moves, hirzebruch, family.
Vectors are comma-separated non-negative integers (auto-sorted with a notice
on stderr), kappa is an exact rational like 8 or 15/2, and --json switches
every command from the human-readable report to machine output.

Each cmd_* function returns (obj, lines): the object that --json prints and
the lines of the text report.  main prints one of them, so exact values
follow one rule: a Fraction or the INFINITE marker prints as its str, in the
text lines and in JSON alike (as a string there, like "15/2" or "infinite").

Exit codes: 0 success, 1 domain error (printed as "Name: message" on
stderr), 2 usage or file problems.  All output is deterministic byte for
byte.
"""

import argparse
import json
import sys
from fractions import Fraction

from .census import census, check_count_cap, is_fano, is_monotone, verify_step_structure
from .equiv import find_shift, k_min
from .errors import ToricError


def _vec_type(text: str) -> tuple[int, ...]:
    try:
        entries = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        )
    if not entries:
        raise argparse.ArgumentTypeError("the vector must not be empty")
    if any(x < 0 for x in entries):
        raise argparse.ArgumentTypeError(f"entries must be non-negative: {text!r}")
    return entries


def _rat_type(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational like 8 or 15/2, got {text!r}")


def _nonneg_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def _canonical(vec: tuple[int, ...]) -> tuple[int, ...]:
    ordered = tuple(sorted(vec))
    if ordered != vec:
        print(f"note: vector {vec} sorted to {ordered}", file=sys.stderr)
    return ordered


def _fmt_vec(vec) -> str:
    return "(" + ", ".join(str(x) for x in vec) + ")"


def cmd_census(args) -> tuple[dict, list[str]]:
    a = _canonical(args.a)
    if args.kappa is not None:
        check_count_cap(a, args.s, args.kappa, args.cap)
    res = census(a, args.s, sigma1_cap=args.cap)
    fano = is_fano(a, args.s)
    report = None if args.s == 1 else verify_step_structure(res)
    obj = {
        "a": a,
        "r": len(a),
        "s": args.s,
        "k_min": k_min(a, args.s),
        "fano": fano,
        "complete": res.complete,
        "breakpoints": [
            {"kappa": bp.kappa, "new_members": bp.new_members} for bp in res.breakpoints
        ],
        "stable_count": res.stable_count,
        "stabilization_threshold": res.stabilization_threshold,
        "step_structure": (
            None if report is None else {"ok": report.ok, "reason": report.reason}
        ),
    }
    lines = [
        f"a = {_fmt_vec(a)}  r = {len(a)}  s = {args.s}",
        f"k_min = {obj['k_min']}  fano: {'yes' if fano else 'no'}",
        f"class listing complete: {'yes' if res.complete else 'no (capped)'}",
        "breakpoints:",
    ]
    for bp in res.breakpoints:
        mems = ", ".join(_fmt_vec(b) for b in bp.new_members)
        lines.append(f"  kappa > {bp.kappa}: +{len(bp.new_members)}: {mems}")
    stable = f"stable count: {res.stable_count}"
    if res.stabilization_threshold is not None:
        stable += f" (reached for kappa > {res.stabilization_threshold})"
    lines.append(stable)
    if report is not None:
        lines.append(f"step structure: {'ok' if report.ok else 'FAIL: ' + report.reason}")
    if args.kappa is not None:
        count, monotone = res.count(args.kappa), is_monotone(args.kappa)
        obj["count"] = {"kappa": args.kappa, "value": count}
        obj["monotone"] = monotone
        lines.append(f"N({args.kappa}) = {count}")
        lines.append(f"monotone at kappa = {args.kappa}: {'yes' if monotone else 'no'}")
    if args.infinity:
        obj["count_at_infinity"] = res.stable_count
        lines.append(f"count at infinity: {res.stable_count}")
    return obj, lines


def cmd_equiv(args) -> tuple[dict, list[str]]:
    a = _canonical(args.a)
    b = _canonical(args.b)
    c = find_shift(a, b, args.s)
    obj = {"a": a, "b": b, "s": args.s, "equivalent": c is not None, "C": c}
    return obj, ["inequivalent" if c is None else f"equivalent: C = {c}"]


def cmd_polytope(args) -> tuple[dict, list[str]]:
    from . import polytope
    a = _canonical(args.a)
    t = polytope.BundleTuple(len(a), args.s, a, args.kappa)
    P = polytope.build(t)
    verts = polytope.vertices(P)
    rep = polytope.is_delzant(P)
    ev = polytope.exact_volume(t)
    nv = polytope.nominal_volume(t.r, t.s, t.kappa)
    fp = polytope.fiber_fingerprint(t)
    stored = P.to_json_obj()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(stored, fh, indent=2)
            fh.write("\n")
    obj = {
        "polytope": stored,
        "vertices": [v.point for v in verts],
        "delzant": {"ok": rep.ok, "reason": rep.reason},
        "exact_volume": ev,
        "nominal_volume": nv,
        "fiber_fingerprint": fp,
    }
    lines = [
        f"bundle a = {_fmt_vec(a)}, s = {args.s}, kappa = {t.kappa}: "
        f"dim {P.dim}, {len(P.facets)} facets",
        "facets:",
        *(f"  {_fmt_vec(f.conormal)} . x <= {f.constant}" for f in P.facets),
        f"vertices ({len(verts)}):",
        *(f"  {_fmt_vec(v.point)}" for v in verts),
        f"delzant: {'yes' if rep.ok else 'NO: ' + rep.reason}",
        f"exact volume: {ev}",
        f"nominal volume: {nv}",
        f"fiber fingerprint: {', '.join(str(x) for x in fp)}",
    ]
    if args.out is not None:
        lines.append(f"wrote {args.out}")
    return obj, lines


def cmd_recognize(args) -> tuple[dict, list[str]]:
    from . import polytope
    with open(args.infile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    forms = polytope.recognize(polytope.DelzantPolytope.from_json_obj(data))
    obj = {
        "presentations": [
            {
                "r": f.bundle.r,
                "s": f.bundle.s,
                "a": f.bundle.a,
                "kappa": f.bundle.kappa,
                "scale": f.scale,
                "matrix": f.matrix,
                "translation": f.translation,
            }
            for f in forms
        ]
    }
    lines = [f"{len(forms)} presentation{'s' if len(forms) != 1 else ''}:"]
    for f in forms:
        lines.append(
            f"  r = {f.bundle.r}, s = {f.bundle.s}, a = {_fmt_vec(f.bundle.a)}, "
            f"kappa = {f.bundle.kappa} (scale {f.scale})"
        )
    return obj, lines


def _fmt_step(step) -> str:
    kind = step[0]
    text = "e1" if kind.startswith("e1") else f"e({step[1]},{step[2]})"
    return text + "'" if kind.endswith("_inv") else text


def cmd_moves(args) -> tuple[dict, list[str]]:
    from . import moves
    path = moves.move_path(_canonical(args.a), _canonical(args.b))
    lines = [
        f"path from {_fmt_vec(path.start)} to {_fmt_vec(path.end)}: "
        f"{len(path.steps)} steps"
    ]
    if path.steps:
        lines.append("  " + " ".join(_fmt_step(st) for st in path.steps))
    lines.append(
        f"kappa floor: {path.kappa_floor} (every stage valid for kappa above it)"
    )
    return path._asdict(), lines


def cmd_hirzebruch(args) -> tuple[dict, list[str]]:
    from . import moves
    verdict = moves.hirzebruch_equiv(args.a, args.b)
    diff = abs(args.b - args.a)
    word = "even" if verdict else "odd"
    line = f"{'equivalent' if verdict else 'inequivalent'} (difference {diff} is {word})"
    return {"a": args.a, "b": args.b, "equivalent": verdict}, [line]


def cmd_family(args) -> tuple[dict, list[str]]:
    from . import families
    cert = families.generate_family(args.k, args.c, args.strategy)
    obj = cert._asdict()
    obj["witnesses"] = [w._asdict() for w in cert.witnesses]
    mods = ", ".join(f"n={n} -> {m}" for n, m in zip(cert.n_seq, cert.moduli))
    lines = [
        f"family k = {cert.k}, c = {cert.c}, strategy = {cert.strategy}",
        f"moduli: {mods}",
        f"K = {cert.K}, a = {_fmt_vec(cert.a)}",
        "witnesses:",
        *(
            f"  n = {w.n}: x = {w.x}, C = {w.C}, b = {_fmt_vec(w.b)}"
            for w in cert.witnesses
        ),
    ]
    if args.lift is not None:
        lifted = families.lift_class(cert, args.lift)
        obj["lift"] = {"l": args.lift, "vectors": lifted}
        lines.append(f"lift to r = {2 + args.lift}:")
        lines.append("  " + ", ".join(_fmt_vec(v) for v in lifted))
    return obj, lines


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricbundles",
        description=(
            "Exact classification of toric projective-space bundles with "
            "second Betti number two."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("census", help="step function of toric-structure counts")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--s", type=int, required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--kappa", type=_rat_type)
    group.add_argument("--infinity", action="store_true")
    p.add_argument("--cap", type=int, help="sigma_1 cap for the infinite s = 1 classes")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("equiv", help="decide deformation equivalence of two vectors")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--b", type=_vec_type, required=True, metavar="B1,B2,...")
    p.add_argument("--s", type=int, required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("polytope", help="build and measure the bundle polytope")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--kappa", type=_rat_type, required=True)
    p.add_argument("--out", help="write the polytope as JSON to this file")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("recognize", help="find bundle presentations of a polytope")
    p.add_argument("--in", dest="infile", required=True, help="polytope JSON file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("moves", help="explicit move sequence between s = 1 vectors")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--b", type=_vec_type, required=True, metavar="B1,B2,...")
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("hirzebruch", help="parity test for r = s = 1 twists")
    p.add_argument("--a", type=_nonneg_type, required=True)
    p.add_argument("--b", type=_nonneg_type, required=True)
    p.set_defaults(func=cmd_hirzebruch)

    p = sub.add_parser("family", help="certified family with many toric structures")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--strategy", choices=("greedy", "factorial"), default="greedy")
    p.add_argument("--lift", type=int, help="also lift the family to r = 2 + L")
    p.set_defaults(func=cmd_family)

    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def _bind_kappa(argv: list[str]) -> list[str]:
    """Join "--kappa -3/2" into "--kappa=-3/2": argparse reads a negative
    fraction as an option string, not as the value of --kappa."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--kappa" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] = f"--kappa={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_bind_kappa(list(argv)))
    try:
        obj, lines = args.func(args)
        print(json.dumps(obj, indent=2, default=str) if args.json else "\n".join(lines))
        return 0
    except ToricError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

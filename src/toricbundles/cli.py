"""Command-line front end.

Subcommands: census, equiv, polytope, recognize, moves, hirzebruch, family.
Vectors are comma-separated non-negative integers (auto-sorted with a notice
on stderr), kappa is an exact rational like 8 or 15/2, and --json switches
every command from the human-readable report to machine output.  Exit codes:
0 success, 1 domain error (printed as "Name: message" on stderr), 2 usage or
file problems.  All output is deterministic byte for byte.
"""

import argparse
import json
import sys
from fractions import Fraction

from . import families, moves, polytope
from .census import (
    InfiniteMarker,
    census,
    check_count_cap,
    is_fano,
    is_monotone,
    verify_step_structure,
)
from .equiv import find_shift, k_min, shift_window
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


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_census(args) -> int:
    a = _canonical(args.a)
    if args.kappa is not None:
        shift_window(a, args.s, args.cap)  # the class's own errors come first
        check_count_cap(args.s, args.kappa, args.cap)
    res = census(a, args.s, sigma1_cap=args.cap)
    fano = is_fano(a, args.s)
    report = None if args.s == 1 else verify_step_structure(res)
    count = None if args.kappa is None else res.count(args.kappa)
    infinity = res.stable_count if args.infinity else None
    if args.json:
        obj = {
            "a": list(a),
            "r": len(a),
            "s": args.s,
            "k_min": k_min(a, args.s),
            "fano": fano,
            "complete": res.complete,
            "breakpoints": [
                {"kappa": bp.kappa, "new_members": [list(b) for b in bp.new_members]}
                for bp in res.breakpoints
            ],
            "stable_count": (
                str(res.stable_count)
                if isinstance(res.stable_count, InfiniteMarker)
                else res.stable_count
            ),
            "stabilization_threshold": (
                None
                if res.stabilization_threshold is None
                else str(res.stabilization_threshold)
            ),
            "step_structure": (
                None if report is None else {"ok": report.ok, "reason": report.reason}
            ),
        }
        if count is not None:
            obj["count"] = {"kappa": str(args.kappa), "value": count}
            obj["monotone"] = is_monotone(args.kappa)
        if args.infinity:
            obj["count_at_infinity"] = (
                str(infinity)
                if isinstance(infinity, InfiniteMarker)
                else infinity
            )
        _emit_json(obj)
        return 0
    print(f"a = {_fmt_vec(a)}  r = {len(a)}  s = {args.s}")
    print(f"k_min = {k_min(a, args.s)}  fano: {'yes' if fano else 'no'}")
    print(f"class listing complete: {'yes' if res.complete else 'no (capped)'}")
    print("breakpoints:")
    for bp in res.breakpoints:
        mems = ", ".join(_fmt_vec(b) for b in bp.new_members)
        print(f"  kappa > {bp.kappa}: +{len(bp.new_members)}: {mems}")
    if isinstance(res.stable_count, InfiniteMarker):
        print("stable count: infinite")
    else:
        print(
            f"stable count: {res.stable_count} "
            f"(reached for kappa > {res.stabilization_threshold})"
        )
    if report is not None:
        print(f"step structure: {'ok' if report.ok else 'FAIL: ' + report.reason}")
    if count is not None:
        print(f"N({args.kappa}) = {count}")
        print(
            f"monotone at kappa = {args.kappa}: "
            f"{'yes' if is_monotone(args.kappa) else 'no'}"
        )
    if args.infinity:
        print(f"count at infinity: {infinity}")
    return 0


def cmd_equiv(args) -> int:
    a = _canonical(args.a)
    b = _canonical(args.b)
    c = find_shift(a, b, args.s)
    if args.json:
        _emit_json(
            {
                "a": list(a),
                "b": list(b),
                "s": args.s,
                "equivalent": c is not None,
                "C": c,
            }
        )
        return 0
    if c is None:
        print("inequivalent")
    else:
        print(f"equivalent: C = {c}")
    return 0


def cmd_polytope(args) -> int:
    a = _canonical(args.a)
    t = polytope.BundleTuple(len(a), args.s, a, args.kappa)
    P = polytope.build(t)
    verts = polytope.vertices(P)
    rep = polytope.is_delzant(P)
    ev = polytope.exact_volume(t)
    nv = polytope.nominal_volume(t.r, t.s, t.kappa)
    fp = polytope.fiber_fingerprint(t)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(P.to_json_obj(), fh, indent=2)
            fh.write("\n")
    if args.json:
        _emit_json(
            {
                "polytope": P.to_json_obj(),
                "vertices": [[str(x) for x in v.point] for v in verts],
                "delzant": {"ok": rep.ok, "reason": rep.reason},
                "exact_volume": str(ev),
                "nominal_volume": str(nv),
                "fiber_fingerprint": [str(x) for x in fp],
            }
        )
        return 0
    print(
        f"bundle a = {_fmt_vec(a)}, s = {args.s}, kappa = {t.kappa}: "
        f"dim {P.dim}, {len(P.facets)} facets"
    )
    print("facets:")
    for f in P.facets:
        print(f"  {_fmt_vec(f.conormal)} . x <= {f.constant}")
    print(f"vertices ({len(verts)}):")
    for v in verts:
        print(f"  {_fmt_vec(v.point)}")
    print(f"delzant: {'yes' if rep.ok else 'NO: ' + rep.reason}")
    print(f"exact volume: {ev}")
    print(f"nominal volume: {nv}")
    print(f"fiber fingerprint: {', '.join(str(x) for x in fp)}")
    if args.out is not None:
        print(f"wrote {args.out}")
    return 0


def cmd_recognize(args) -> int:
    with open(args.infile, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    P = polytope.DelzantPolytope.from_json_obj(data)
    forms = polytope.recognize(P)
    if args.json:
        _emit_json(
            {
                "presentations": [
                    {
                        "r": f.bundle.r,
                        "s": f.bundle.s,
                        "a": list(f.bundle.a),
                        "kappa": str(f.bundle.kappa),
                        "scale": str(f.scale),
                        "matrix": [list(row) for row in f.matrix],
                        "translation": [str(x) for x in f.translation],
                    }
                    for f in forms
                ]
            }
        )
        return 0
    print(f"{len(forms)} presentation{'s' if len(forms) != 1 else ''}:")
    for f in forms:
        print(
            f"  r = {f.bundle.r}, s = {f.bundle.s}, a = {_fmt_vec(f.bundle.a)}, "
            f"kappa = {f.bundle.kappa} (scale {f.scale})"
        )
    return 0


def _fmt_step(step) -> str:
    kind = step[0]
    if kind == "e1":
        return "e1"
    if kind == "e1_inv":
        return "e1'"
    if kind == "eij":
        return f"e({step[1]},{step[2]})"
    return f"e({step[1]},{step[2]})'"


def cmd_moves(args) -> int:
    a = _canonical(args.a)
    b = _canonical(args.b)
    path = moves.move_path(a, b)
    if args.json:
        _emit_json(
            {
                "start": list(path.start),
                "steps": [list(st) for st in path.steps],
                "end": list(path.end),
                "kappa_floor": path.kappa_floor,
            }
        )
        return 0
    print(f"path from {_fmt_vec(path.start)} to {_fmt_vec(path.end)}: "
          f"{len(path.steps)} steps")
    if path.steps:
        print("  " + " ".join(_fmt_step(st) for st in path.steps))
    print(f"kappa floor: {path.kappa_floor} (every stage valid for kappa above it)")
    return 0


def cmd_hirzebruch(args) -> int:
    verdict = moves.hirzebruch_equiv(args.a, args.b)
    if args.json:
        _emit_json({"a": args.a, "b": args.b, "equivalent": verdict})
        return 0
    diff = abs(args.b - args.a)
    word = "even" if verdict else "odd"
    print(f"{'equivalent' if verdict else 'inequivalent'} (difference {diff} is {word})")
    return 0


def cmd_family(args) -> int:
    cert = families.generate_family(args.k, args.c, args.strategy)
    lifted = families.lift_class(cert, args.lift) if args.lift is not None else None
    if args.json:
        obj = {
            "k": cert.k,
            "c": cert.c,
            "strategy": cert.strategy,
            "n_seq": list(cert.n_seq),
            "moduli": list(cert.moduli),
            "K": cert.K,
            "a": list(cert.a),
            "witnesses": [
                {"n": w.n, "x": w.x, "C": w.C, "b": list(w.b)}
                for w in cert.witnesses
            ],
        }
        if lifted is not None:
            obj["lift"] = {"l": args.lift, "vectors": [list(v) for v in lifted]}
        _emit_json(obj)
        return 0
    print(f"family k = {cert.k}, c = {cert.c}, strategy = {cert.strategy}")
    mods = ", ".join(f"n={n} -> {m}" for n, m in zip(cert.n_seq, cert.moduli))
    print(f"moduli: {mods}")
    print(f"K = {cert.K}, a = {_fmt_vec(cert.a)}")
    print("witnesses:")
    for w in cert.witnesses:
        print(f"  n = {w.n}: x = {w.x}, C = {w.C}, b = {_fmt_vec(w.b)}")
    if lifted is not None:
        print(f"lift to r = {2 + args.lift}:")
        print("  " + ", ".join(_fmt_vec(v) for v in lifted))
    return 0


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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("equiv", help="decide deformation equivalence of two vectors")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--b", type=_vec_type, required=True, metavar="B1,B2,...")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("polytope", help="build and measure the bundle polytope")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--kappa", type=_rat_type, required=True)
    p.add_argument("--out", help="write the polytope as JSON to this file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("recognize", help="find bundle presentations of a polytope")
    p.add_argument("--in", dest="infile", required=True, help="polytope JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("moves", help="explicit move sequence between s = 1 vectors")
    p.add_argument("--a", type=_vec_type, required=True, metavar="A1,A2,...")
    p.add_argument("--b", type=_vec_type, required=True, metavar="B1,B2,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_moves)

    p = sub.add_parser("hirzebruch", help="parity test for r = s = 1 twists")
    p.add_argument("--a", type=_nonneg_type, required=True)
    p.add_argument("--b", type=_nonneg_type, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_hirzebruch)

    p = sub.add_parser("family", help="certified family with many toric structures")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--strategy", choices=("greedy", "factorial"), default="greedy")
    p.add_argument("--lift", type=int, help="also lift the family to r = 2 + L")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_family)

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
        return args.func(args)
    except ToricError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()

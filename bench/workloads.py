"""Seeded workloads: input generation, the timed call, and the check.

Each workload is an endless stream of operations made from the seed alone;
the program sees only the generated inputs, and inputs do not repeat within
a run (see REDRAWS).  Op kinds are interleaved by smooth weighted round robin over fixed
strata, so any prefix of the stream has nearly the stated mix and two seeds
differ only in the inputs drawn inside each stratum.  The check of an op runs
after its timed call and uses only bench/oracle.py.
"""

import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction

import oracle
from oracle import OracleError, fail


@dataclass
class Op:
    id: int
    kind: str
    key: tuple  # the full input; repeats are refused on it
    args: dict
    mix: dict = field(default_factory=dict)  # labels recorded in the op-mix table


def smooth_round_robin(items, rng):
    """Endless sequence of labels, label k taking share w_k, evenly spread.

    The phases start at random so the stream has no start-up transient: every
    stretch of it has the same expected mix.
    """
    total = sum(w for _, w in items)
    current = {k: rng.uniform(0, total) for k, _ in items}
    weight = dict(items)
    while True:
        for k in current:
            current[k] += weight[k]
        k = max(current, key=current.get)
        current[k] -= total
        yield k


def shuffled_cycle(values, rng):
    """Endless walk through values, each pass in a fresh random order."""
    values = list(values)
    while True:
        rng.shuffle(values)
        yield from values


def random_composition(rng, total, parts):
    """A sorted random vector of `parts` non-negative ints summing to total."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return tuple(sorted(b - a for a, b in zip((0,) + tuple(cuts), tuple(cuts) + (total,))))


def spread_quantile_vector(rng, total, parts, q, used, s, draws=9):
    """A random vector whose spread (sum of squares) sits at quantile q/draws of
    the random-composition distribution, skipping (vector, s) pairs in used.

    Enumeration time grows steeply with the spread, so stratifying on it
    keeps the per-run work steady while the vectors stay random.
    """
    cands = sorted({random_composition(rng, total, parts) for _ in range(draws)},
                   key=lambda v: (sum(x * x for x in v), v))
    order = sorted(range(len(cands)), key=lambda i: abs(i - q * len(cands) / draws))
    for i in order:
        if (cands[i], s) not in used:
            return cands[i]
    return None


# A draw that repeats an earlier input is redrawn; after this many repeats in
# a row the input space is taken as used up and the repeat is kept (the
# report's repeat_share then shows it).
REDRAWS = 200


def _stream(seed, name):
    return random.Random(f"{name}:{seed}")


# ---------------------------------------------------------------- class_census
#
# sigma_1 bands per r, with op shares falling as the band's enumeration cost
# rises (r = 3 as 1/sigma_1, r = 4 as sigma_1^-1.5), so each size class takes a
# similar share of the time and no handful of huge ops decides a run.

CENSUS_BANDS = {
    2: [(10, 29), (30, 49), (50, 69), (70, 90)],
    3: [(6, 15), (16, 25), (26, 35), (36, 45), (46, 60)],
    4: [(8, 13), (14, 19), (20, 25), (26, 32), (33, 40)],
}
CENSUS_BAND_POWER = {2: 0.0, 3: 1.0, 4: 1.5}
SPREAD_STRATA = 9


def census_strata():
    items = []
    for r, bands in CENSUS_BANDS.items():
        ws = [((lo + hi) / 2) ** -CENSUS_BAND_POWER[r] for lo, hi in bands]
        for (lo, hi), w in zip(bands, ws):
            for s in (2, 3, 4):
                items.append(((r, s, lo, hi), w / sum(ws)))
    return items


def census_ops(seed):
    """Each stratum (r, s, band) walks its (sigma_1, spread quantile) pairs in
    shuffled passes; a band whose vectors are used up is widened by one."""
    rng = _stream(seed, "class_census")
    used = set()
    walks = {}
    for i, (r, s, lo, hi) in enumerate(smooth_round_robin(census_strata(), rng)):
        state = walks.setdefault((r, s, lo), [hi, None, 0])  # top, walk, misses
        a = None
        while a is None:
            top, walk, misses = state
            if walk is None or misses >= (top - lo + 1) * SPREAD_STRATA:
                if walk is not None:  # a whole pass found no unused vector
                    top += 1
                pairs = [(s1, q) for s1 in range(lo, top + 1) for q in range(SPREAD_STRATA)]
                walk, misses = shuffled_cycle(pairs, rng), 0
            s1, q = next(walk)
            a = spread_quantile_vector(rng, s1, r, q, used, s)
            state[:] = [top, walk, 0 if a is not None else misses + 1]
        used.add((a, s))
        k_min = s1 - s
        kappas = (Fraction(k_min + 1), Fraction(2 * k_min + 3, 2),
                  Fraction((r + 1) * s1 - s + 1))
        yield Op(i, "census", (a, s), {"a": a, "s": s, "kappas": kappas},
                 {"r,s,sigma_1": f"{r},{s},{lo}-{hi}"})


def census_run(tb, op, work):
    res = tb.census(op.args["a"], op.args["s"])
    return res, [res.count(k) for k in op.args["kappas"]]


def census_check(op, raw):
    res, counts = raw
    oracle.check_census(op.args["a"], op.args["s"], {
        "members": res.members,
        "breakpoints": [(bp.kappa, bp.new_members) for bp in res.breakpoints],
        "stable": res.stable_count,
        "complete": res.complete,
        "counts": list(zip(op.args["kappas"], counts)),
    })


def census_digest(raw):
    res, counts = raw
    return repr((res.members, res.breakpoints, res.stable_count, counts))


# ---------------------------------------------------------------- polytope_roundtrip
#
# Op shares per dim are set so that the p50 rank falls in the middle of the
# wide dim 3 block and the p90 rank in the middle of the dim 9 block, not on a
# boundary between two dims where a shift of a few ops would jump the
# percentile; every dim from 2 to 10 still appears several times in a run.
# r runs through 1..dim-1 in shuffled passes.  Every tenth op of each dim
# corrupts one facet into a non-primitive conormal, which must be rejected as
# NotABundle.

POLY_DIM_SHARES = [(2, 20), (3, 40), (4, 6), (5, 5), (6, 4), (7, 4), (8, 4), (9, 14), (10, 3)]
CORRUPT_EVERY = 10


def random_unimodular(rng, n):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        op = rng.randrange(3)
        if op == 0 and i != j:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        elif op == 1:
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [-x for x in m[i]]
    return tuple(tuple(row) for row in m)


def polytope_ops(seed):
    rng = _stream(seed, "polytope_roundtrip")
    used = set()
    splits = {n: shuffled_cycle(range(1, n), rng) for n, _ in POLY_DIM_SHARES}
    corrupt_phase = {n: rng.randrange(CORRUPT_EVERY) for n, _ in POLY_DIM_SHARES}
    seen = {n: 0 for n, _ in POLY_DIM_SHARES}
    for i, n in enumerate(smooth_round_robin(POLY_DIM_SHARES, rng)):
        seen[n] += 1
        r = next(splits[n])
        s = n - r
        for _ in range(REDRAWS):
            a = tuple(sorted(rng.randint(0, 9) for _ in range(r)))
            kappa = sum(a) - s + Fraction(rng.randint(1, 60), rng.randint(1, 6))
            if (r, s, a, kappa) not in used:
                break
        used.add((r, s, a, kappa))
        corrupt = (rng.randrange(n + 2) if (seen[n] + corrupt_phase[n]) % CORRUPT_EVERY == 0
                   else None)
        args = {"r": r, "s": s, "a": a, "kappa": kappa,
                "matrix": random_unimodular(rng, n),
                "translation": tuple(rng.randint(-3, 3) for _ in range(n)),
                "corrupt": corrupt}
        yield Op(i, "roundtrip" if corrupt is None else "roundtrip_non_delzant",
                 (r, s, a, kappa), args, {"dim": n})


def polytope_run(tb, op, work):
    g = op.args
    t = tb.BundleTuple(g["r"], g["s"], g["a"], g["kappa"])
    Q = tb.transform_polytope(tb.build(t), g["matrix"], g["translation"])
    if g["corrupt"] is not None:
        facets = list(Q.facets)
        f = facets[g["corrupt"]]
        facets[g["corrupt"]] = tb.Facet(tuple(2 * x for x in f.conormal), 2 * f.constant)
        Q = tb.DelzantPolytope(Q.dim, tuple(facets))
    report = tb.is_delzant(Q)
    verts = tb.vertices(Q)
    try:
        forms = tb.recognize(Q)
    except tb.NotABundle as exc:
        forms = exc
    return (Q, report.ok, verts, forms, tb.exact_volume(t),
            tb.nominal_volume(t.r, t.s, t.kappa), tb.fiber_fingerprint(t))


def polytope_check(op, raw):
    g = op.args
    r, s, a, kappa = g["r"], g["s"], g["a"], g["kappa"]
    Q, delzant, verts, forms, ev, nv, fp = raw
    want = oracle.image_facets(oracle.normal_form(r, s, a, kappa), g["matrix"], g["translation"])
    facets = [(f.conormal, f.constant) for f in Q.facets]
    if g["corrupt"] is not None:
        scaled = facets[g["corrupt"]]
        facets_check = sorted(facets[:g["corrupt"]] + facets[g["corrupt"] + 1:]
                              + [(tuple(x // 2 for x in scaled[0]), scaled[1] / 2)])
    else:
        facets_check = sorted(facets)
    if facets_check != want:
        fail("transformed polytope does not match the scrambled normal form")
    oracle.check_vertices(facets, [v.point for v in verts], [v.active for v in verts])
    if len(verts) != (r + 1) * (s + 1):
        fail(f"{len(verts)} vertices, expected {(r + 1) * (s + 1)}")
    if delzant != (g["corrupt"] is None):
        fail(f"is_delzant says {delzant}")
    if g["corrupt"] is not None:
        if type(forms).__name__ != "NotABundle":
            fail(f"non-Delzant input recognized as {forms!r}")
    else:
        if isinstance(forms, Exception):
            fail(f"recognize raised {forms!r}")
        bundles = []
        for f in forms:
            b = (f.bundle.r, f.bundle.s, f.bundle.a, f.bundle.kappa)
            oracle.check_form(facets, b, f.matrix, f.translation, f.scale)
            bundles.append(b)
        if (r, s, a, kappa) not in bundles:
            fail(f"recognized {bundles}, expected {(r, s, a, kappa)} among them")
    oracle.check_volumes(r, s, a, kappa, ev, nv, fp)


def polytope_digest(raw):
    Q, delzant, verts, forms, ev, nv, fp = raw
    return repr((Q, delzant, verts, forms if not isinstance(forms, Exception)
                 else type(forms).__name__, ev, nv, fp))


# ---------------------------------------------------------------- cli_mixed
#
# What CLI users run: every subcommand in text and --json mode with small
# inputs (census sigma_1 <= 20, polytope dim <= 6).  polytope --out writes the
# file the following recognize --in reads back; moves with a sigma_1 gap that
# is not a multiple of r+1 and polytope with kappa at the threshold must exit
# 1, and malformed command lines must exit 2.  Polytope ops take up most of
# the slowest tenth of the ops and their cost climbs steeply with the dim, so
# the dim and the split r + s walk shuffled passes: every run has the same dim
# shares, and p90 does not move with the seed's draws.

CLI_POLY_DIMS = range(2, 7)
CLI_KINDS = [
    ("census", 3), ("census_kappa", 2), ("census_infinity", 2), ("census_cap", 1),
    ("equiv", 3), ("polytope_out", 2), ("moves", 2), ("moves_parity", 1),
    ("hirzebruch", 1), ("family", 1), ("polytope_bad_kappa", 1), ("usage", 1),
]


def _kappa_arg(kappa):
    """--kappa=X: a negative fraction after a separate --kappa reads as an option."""
    return f"--kappa={kappa}"


def _vec_text(rng, v):
    """Comma list of v, shuffled a third of the time (the CLI sorts it)."""
    v = list(v)
    if rng.random() < 1 / 3:
        rng.shuffle(v)
    return ",".join(map(str, v))


def _cli_op(rng, kind, work, i, walks):
    """(argv, expected exit code, expectation dict) for one op of this kind;
    walks holds the shuffled passes over polytope dims and splits."""
    js = rng.random() < 0.5
    tail = ["--json"] if js else []
    if kind.startswith("census"):
        r = rng.choice((2, 3))
        if kind == "census_cap":
            a = random_composition(rng, rng.randint(1, 12), r)
            cap = sum(a) + rng.randint(0, 16)
            return (["census", "--a", _vec_text(rng, a), "--s", "1", "--cap", str(cap)] + tail,
                    0, {"a": a, "s": 1, "cap": cap})
        s = rng.choice((2, 3, 4))
        a = random_composition(rng, rng.randint(1, 20), r)
        argv = ["census", "--a", _vec_text(rng, a), "--s", str(s)]
        exp = {"a": a, "s": s}
        if kind == "census_kappa":
            kappa = Fraction(rng.randint(max(2, 2 * (sum(a) - s)), 2 * (r + 1) * sum(a)), 2)
            argv.append(_kappa_arg(kappa))
            exp["kappa"] = kappa
        elif kind == "census_infinity":
            argv += ["--infinity"]
            exp["infinity"] = True
        return argv + tail, 0, exp
    if kind == "equiv":
        r = rng.choice((2, 3, 4))
        s = rng.choice((1, 2, 3))
        a = random_composition(rng, rng.randint(1, 30), r)
        b = random_composition(rng, rng.randint(0, 30), r)
        if rng.random() < 0.5:  # same sigma_1 class mod r+1: equivalent over s = 1
            b = random_composition(rng, sum(a) + (r + 1) * rng.randint(0, 3), r)
        return (["equiv", "--a", _vec_text(rng, a), "--b", _vec_text(rng, b), "--s", str(s)] + tail,
                0, {"a": a, "b": b, "s": s})
    if kind in ("polytope_out", "polytope_bad_kappa"):
        n = next(walks[kind])
        r = next(walks[n])
        s = n - r
        a = tuple(sorted(rng.randint(0, 5) for _ in range(r)))
        if kind == "polytope_bad_kappa":
            kappa = Fraction(sum(a) - s - rng.randint(0, 3))
            return (["polytope", "--a", _vec_text(rng, a), "--s", str(s), _kappa_arg(kappa)]
                    + tail, 1, {"error": "InvalidKappa"})
        kappa = sum(a) - s + Fraction(rng.randint(1, 12), rng.choice((1, 2)))
        path = os.path.join(work, f"polytope-{i}.json")
        return (["polytope", "--a", _vec_text(rng, a), "--s", str(s), _kappa_arg(kappa),
                 "--out", path] + tail, 0, {"r": r, "s": s, "a": a, "kappa": kappa, "path": path})
    if kind in ("moves", "moves_parity"):
        r = rng.choice((1, 2, 3, 4))
        a = random_composition(rng, rng.randint(0, 25), r)
        gap = (r + 1) * rng.randint(-2, 3)
        if kind == "moves_parity":
            gap += rng.randint(1, r)
        target = max(sum(a) + gap, 0)
        if kind == "moves" and target != sum(a) + gap:
            target = sum(a)
        if kind == "moves_parity" and (target - sum(a)) % (r + 1) == 0:
            target += 1
        b = random_composition(rng, target, r)
        exp = {"a": a, "b": b} if kind == "moves" else {"error": "ParityError"}
        return (["moves", "--a", _vec_text(rng, a), "--b", _vec_text(rng, b)] + tail,
                0 if kind == "moves" else 1, exp)
    if kind == "hirzebruch":
        a, b = rng.randint(0, 10**6), rng.randint(0, 10**6)
        return ["hirzebruch", "--a", str(a), "--b", str(b)] + tail, 0, {"a": a, "b": b}
    if kind == "family":
        k, c = rng.randint(2, 6), rng.randint(2, 500)
        argv = ["family", "--k", str(k), "--c", str(c)]
        lift = rng.choice((None, 1, 2, 3))
        if lift is not None:
            argv += ["--lift", str(lift)]
        return argv + tail, 0, {"k": k, "c": c, "lift": lift}
    bad = rng.randint(0, 10**6)
    argv = rng.choice([
        ["census", "--a", f"1,x{bad}", "--s", "2"],
        ["census", "--a", f"{bad},1"],
        ["equiv", "--a", f"-{bad + 1},2", "--b", "1,1", "--s", "2"],
        ["recognize", "--in", os.path.join(work, f"missing-{bad}.json")],
        ["family", "--k", str(bad % 5 + 2), "--strategy", f"bogus{bad}"],
        ["hirzebruch", "--a", f"-{bad + 1}", "--b", "1"],
    ])
    return argv + tail, 2, {"error": "usage"}


def _input_key(kind, argv, work):
    """The input as the program reads it: vectors sorted, --out file dropped."""
    key = [kind]
    for arg in argv:
        if arg.startswith(os.path.join(work, "polytope-")):
            continue
        if re.fullmatch(r"\d+(,\d+)+", arg):
            arg = ",".join(sorted(arg.split(","), key=int))
        key.append(arg)
    return tuple(key)


def cli_ops(seed, work):
    rng = _stream(seed, "cli_mixed")
    used = set()
    walks = {kind: shuffled_cycle(CLI_POLY_DIMS, rng) for kind in ("polytope_out", "polytope_bad_kappa")}
    walks.update({n: shuffled_cycle(range(1, n), rng) for n in CLI_POLY_DIMS})
    i = 0
    for kind in smooth_round_robin(CLI_KINDS, rng):
        for _ in range(REDRAWS):
            argv, code, exp = _cli_op(rng, kind, work, i, walks)
            key = _input_key(kind, argv, work)
            if key not in used:
                break
        used.add(key)
        yield Op(i, kind, key, {"argv": argv, "code": code, "exp": exp},
                 {"command": argv[0], "json": "--json" in argv, "exit": code})
        i += 1
        if kind == "polytope_out":
            argv = ["recognize", "--in", exp["path"]] + (["--json"] if rng.random() < 0.5 else [])
            yield Op(i, "recognize_in", ("recognize", i), {"argv": argv, "code": 0, "exp": exp},
                     {"command": "recognize", "json": "--json" in argv, "exit": 0})
            i += 1


def cli_run(tb, op, work):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tb.cli.main(op.args["argv"])
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


_VEC = re.compile(r"\(([^()]*)\)")


def _vecs(text):
    return [tuple(int(x) for x in m.split(",")) if m.strip() else () for m in _VEC.findall(text)]


def _line(text, prefix):
    for ln in text.splitlines():
        if ln.startswith(prefix):
            return ln[len(prefix):]
    fail(f"output has no line starting with {prefix!r}")


def _with_shifts(a, bs):
    r = len(a)
    out = []
    for b in bs:
        c, rem = divmod(sum(b) - sum(a), r + 1)
        if rem:
            fail(f"listed member {b} has sigma_1 incongruent to {a}")
        out.append((tuple(b), c))
    return out


def _census_answer(js, out, exp):
    a, s = exp["a"], exp["s"]
    if js:
        obj = json.loads(out)
        if obj["a"] != list(a) or obj["s"] != s or obj["r"] != len(a):
            fail(f"census echoed {obj['a']}, s = {obj['s']}")
        bps = [(bp["kappa"], [tuple(b) for b in bp["new_members"]]) for bp in obj["breakpoints"]]
        stable, complete = obj["stable_count"], obj["complete"]
        count = obj["count"]["value"] if "count" in obj else None
        infinity = obj.get("count_at_infinity")
    else:
        bps = []
        for ln in out.splitlines():
            m = re.match(r"  kappa > (-?\d+): \+(\d+): (.*)$", ln)
            if m:
                bps.append((int(m.group(1)), _vecs(m.group(3))))
        text = _line(out, "stable count: ")
        stable = "infinite" if text == "infinite" else int(text.split()[0])
        complete = _line(out, "class listing complete: ") == "yes"
        count = int(_line(out, f"N({exp['kappa']}) = ")) if "kappa" in exp else None
        infinity = _line(out, "count at infinity: ") if "infinity" in exp else None
        if infinity is not None and infinity != "infinite":
            infinity = int(infinity)
    members = _with_shifts(a, [b for _, bs in bps for b in bs])
    result = {"members": members, "breakpoints": bps, "stable": stable,
              "complete": complete, "cap": exp.get("cap"),
              "counts": [(exp["kappa"], count)] if "kappa" in exp else []}
    oracle.check_census(a, s, result)
    if "infinity" in exp and infinity != len(members):
        fail(f"count at infinity {infinity}, expected {len(members)}")


def _polytope_answer(js, out, exp):
    r, s, a, kappa = exp["r"], exp["s"], exp["a"], exp["kappa"]
    want = oracle.normal_form(r, s, a, kappa)
    with open(exp["path"], encoding="utf-8") as fh:
        saved = json.load(fh)
    written = [(tuple(f["conormal"]), Fraction(f["constant"])) for f in saved["facets"]]
    if written != want or saved["dim"] != r + s:
        fail("the --out file does not hold the normal-form facets")
    if js:
        obj = json.loads(out)
        points = [tuple(Fraction(x) for x in v) for v in obj["vertices"]]
        ok = obj["delzant"]["ok"]
        ev, nv = Fraction(obj["exact_volume"]), Fraction(obj["nominal_volume"])
        fp = [Fraction(x) for x in obj["fiber_fingerprint"]]
        listed = [(tuple(f["conormal"]), Fraction(f["constant"])) for f in obj["polytope"]["facets"]]
        if listed != want:
            fail("printed facets are not the normal form")
    else:
        body = out.split("vertices (", 1)[1].split("delzant:", 1)[0]
        points = [tuple(Fraction(x) for x in m.split(",")) for m in _VEC.findall(body)]
        ok = _line(out, "delzant: ") == "yes"
        ev = Fraction(_line(out, "exact volume: "))
        nv = Fraction(_line(out, "nominal volume: "))
        fp = [Fraction(x) for x in _line(out, "fiber fingerprint: ").split(", ")]
    oracle.check_vertices(want, points)
    if len(points) != (r + 1) * (s + 1) or ok is not True:
        fail(f"{len(points)} vertices, delzant {ok}")
    oracle.check_volumes(r, s, a, kappa, ev, nv, fp)


def _recognize_answer(js, out, exp):
    target = (exp["r"], exp["s"], exp["a"], Fraction(exp["kappa"]))
    facets = oracle.normal_form(*target)
    found = []
    if js:
        for p in json.loads(out)["presentations"]:
            bundle = (p["r"], p["s"], tuple(p["a"]), Fraction(p["kappa"]))
            oracle.check_form(facets, bundle, p["matrix"],
                              [Fraction(x) for x in p["translation"]], Fraction(p["scale"]))
            found.append((bundle, Fraction(p["scale"])))
    else:
        pat = r"  r = (\d+), s = (\d+), a = (\([^)]*\)), kappa = (\S+) \(scale (\S+)\)$"
        for ln in out.splitlines():
            m = re.match(pat, ln)
            if m:
                bundle = (int(m.group(1)), int(m.group(2)), _vecs(m.group(3))[0], Fraction(m.group(4)))
                if oracle.volume(*bundle) != oracle.volume(*target) * Fraction(m.group(5)) ** len(facets[0][0]):
                    fail(f"presentation {bundle} has the wrong volume")
                found.append((bundle, Fraction(m.group(5))))
    if (target, 1) not in found:
        fail(f"recognized {found}, expected {target} at scale 1")


def _moves_answer(js, out, exp):
    a, b = exp["a"], exp["b"]
    if js:
        obj = json.loads(out)
        oracle.check_move_path(a, b, obj["start"], obj["steps"], obj["end"], obj["kappa_floor"])
        return
    head = _line(out, "path from ")
    start, end = _vecs(head)[:2]
    steps = []
    if int(head.rsplit(": ", 1)[1].split()[0]):
        for tok in out.splitlines()[1].split():
            m = re.fullmatch(r"e\((\d+),(\d+)\)('?)", tok)
            if tok in ("e1", "e1'"):
                steps.append(("e1_inv",) if tok.endswith("'") else ("e1",))
            elif m:
                steps.append(("eij_inv" if m.group(3) else "eij", int(m.group(1)), int(m.group(2))))
            else:
                fail(f"unknown step token {tok!r}")
    floor = int(_line(out, "kappa floor: ").split()[0])
    oracle.check_move_path(a, b, start, steps, end, floor)


def _family_answer(js, out, exp):
    if js:
        obj = json.loads(out)
        wit = [(w["n"], w["x"], w["C"], w["b"]) for w in obj["witnesses"]]
        K, a = obj["K"], obj["a"]
        lifted = obj["lift"]["vectors"] if "lift" in obj else None
    else:
        m = re.match(r"(\d+), a = (\(.*\))$", _line(out, "K = "))
        K, a = int(m.group(1)), _vecs(m.group(2))[0]
        wit = []
        for ln in out.splitlines():
            w = re.match(r"  n = (\d+): x = (-?\d+), C = (-?\d+), b = (\(.*\))$", ln)
            if w:
                wit.append((int(w.group(1)), int(w.group(2)), int(w.group(3)), _vecs(w.group(4))[0]))
        lifted = _vecs(out.split("lift to r = ", 1)[1].split("\n", 1)[1]) if exp["lift"] else None
    if exp["lift"] is not None and lifted is None:
        fail("the requested lift is missing")
    oracle.check_family(exp["k"], exp["c"], K, a, wit, lifted, exp["lift"])


def cli_check(op, raw):
    code, out, err = raw
    argv, exp = op.args["argv"], op.args["exp"]
    if code != op.args["code"]:
        fail(f"{argv[0]} exited {code}, expected {op.args['code']}: {err.strip()[:200]}")
    if "Traceback" in err:
        fail("a traceback reached stderr")
    if code == 1:
        if not err.splitlines()[-1].startswith(exp["error"] + ":"):
            fail(f"expected a {exp['error']} diagnostic, got {err.strip()[:200]!r}")
        return
    if code == 2:
        if not err.strip() or out:
            fail("a usage error must print a diagnostic and no result")
        return
    js = "--json" in argv
    kind = op.kind
    if kind.startswith("census"):
        _census_answer(js, out, exp)
    elif kind == "equiv":
        if js:
            obj = json.loads(out)
            c = obj["C"]
            if obj["equivalent"] != (c is not None):
                fail("equivalent flag disagrees with C")
        else:
            text = out.strip()
            c = None if text == "inequivalent" else int(text.split("C = ")[1])
        oracle.check_shift(exp["a"], exp["b"], exp["s"], c)
    elif kind == "polytope_out":
        _polytope_answer(js, out, exp)
    elif kind == "recognize_in":
        _recognize_answer(js, out, exp)
    elif kind == "moves":
        _moves_answer(js, out, exp)
    elif kind == "hirzebruch":
        even = (exp["b"] - exp["a"]) % 2 == 0
        got = json.loads(out)["equivalent"] if js else out.startswith("equivalent")
        if got != even:
            fail(f"hirzebruch {exp['a']}, {exp['b']} answered {got}")
    elif kind == "family":
        _family_answer(js, out, exp)
    else:
        fail(f"no check for op kind {kind}")


def cli_digest(raw):
    return repr(raw)


WORKLOADS = {
    "class_census": (census_ops, census_run, census_check, census_digest),
    "polytope_roundtrip": (polytope_ops, polytope_run, polytope_check, polytope_digest),
    "cli_mixed": (cli_ops, cli_run, cli_check, cli_digest),
}


def make_ops(workload, seed, work):
    gen = WORKLOADS[workload][0]
    return gen(seed, work) if workload == "cli_mixed" else gen(seed)


def check(workload, op, raw):
    """None when the answer is right, else the reason it is wrong."""
    try:
        WORKLOADS[workload][2](op, raw)
    except OracleError as exc:
        return str(exc)
    except (KeyError, IndexError, ValueError, TypeError, AttributeError) as exc:
        return f"malformed answer: {type(exc).__name__}: {exc}"
    return None

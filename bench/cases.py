"""The benchmark's three workloads: their cases, inputs and answer checks.

Each workload's set-up builds every input a case needs (imports, rings,
quandles, cocycles, parsed diagrams, input files); a case's `run` is the
timed call and returns the raw answer.  `checks` compare the answer with
references from bench/ref.py or the bundled catalog; a case marked `pin`
is also compared with the digest of its answer at the commit that
defined the benchmark (bench/pinned.json).  The reason for each group of
cases is in bench/DESIGN.md.
"""

import contextlib
import io
import json
import os

import gen
import ref
import runner

CASE_LIMIT_S = 30.0


class Case:
    def __init__(self, name, run, canon, checks=(), pin=False,
                 limit=CASE_LIMIT_S):
        self.name = name
        self.run = run
        self.canon = canon
        self.checks = list(checks)
        self.pin = pin
        self.limit = limit


class Context:
    """What a workload's set-up leaves for its cases."""

    def __init__(self, cases, workdir=None):
        self.cases = cases
        self.workdir = workdir
        self.tracer = None
        # speed.Meter of the timed passes, and every timed run of a case
        # there: {name: [(start, seconds, status)]}
        self.meter = None
        self.samples = {}


def _once(fn):
    """Compute a reference on first use and keep it."""
    memo = []

    def get():
        if not memo:
            memo.append(fn())
        return memo[0]
    return get


def _expect(label, got, want):
    return None if got == want else "%s: got %r, expected %r" % (label, got,
                                                                  want)


# -- references shared by the workloads -------------------------------------

RINGS = {  # key: (descriptor, modulus, monic h ascending)
    "Z2": ("Z2[T]/(T+1)", 2, (1, 1)),
    "Z3": ("Z3[T]/(T+1)", 3, (1, 1)),
    "Z4": ("Z4[T]/(T+1)", 4, (1, 1)),
    "Z5": ("Z5[T]/(T+1)", 5, (1, 1)),
    "Z9": ("Z9[T]/(T+1)", 9, (1, 1)),
    "Z": ("Z[T]/(T+1)", 0, (1, 1)),
    "F4": ("Z2[T]/(T^2+T+1)", 2, (1, 1, 1)),
}
PRIMES = {2, 3, 5}

QUANDLES = {  # key: (twistq name, reference table)
    "R3": ("R(3)", lambda: ref.dihedral_table(3)),
    "R4": ("R(4)", lambda: ref.dihedral_table(4)),
    "R5": ("R(5)", lambda: ref.dihedral_table(5)),
    "A4": ("A(2;T^2+T+1)", lambda: ref.alexander_table(ref.Ring(2, (1, 1, 1)))),
    "X9": (None, lambda: ref.alexander_table(ref.Ring(9, (1, 1)))),
}


def _ref_ring(key):
    _desc, modulus, h = RINGS[key]
    return ref.Ring(modulus, h)


def _fp_dims_check(qkey, rkey, variant, degree):
    table = QUANDLES[qkey][1]()
    ring = _ref_ring(rkey)
    dim = _once(lambda: ref.homology_dimension(table, ring, variant, degree))

    def check(factors):
        return _expect("invariant factors over F_%d" % ring.modulus,
                       tuple(factors), (ring.modulus,) * dim())
    return check


def _cocycle_check(qkey, rkey, variant, degree):
    table = QUANDLES[qkey][1]()
    ring = _ref_ring(rkey)

    def check(generators):
        for values in generators:
            image = ref.coboundary(table, ring, variant, degree, values)
            if image:
                return "generator %r has a nonzero coboundary" % (
                    sorted(values.items())[:3],)
        return None
    return check


def _catalog():
    path = os.path.join(runner.SRC, "twistq", "data", "catalog.json")
    with open(path) as fh:
        return {e["id"]: e for e in json.load(fh)}


def _run_cli_in_process(ctx, argv):
    """twistq.cli.main in this process; returns (exit code, stdout)."""
    from twistq import cli
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if ctx.tracer is not None:
        ctx.tracer.count("cli.report_bytes", len(out.getvalue().encode()))
    return code, out.getvalue()


def _verify_suite_case(ctx):
    def run():
        code, out = _run_cli_in_process(ctx, ["verify-suite"])
        if code != 0:
            raise RuntimeError("verify-suite exited %d" % code)
        return json.loads(out)["result"]

    def canon(result):
        return {"passed": result["passed"], "failed": result["failed"]}

    def check(result):
        bad = [it["id"] for it in result["items"] if not it["pass"]]
        return "catalog entries failed: %s" % bad if bad else None
    return Case("catalog-verify-suite", run, canon, [("catalog", check)])


# -- homology -----------------------------------------------------------------

# (quandle, ring, variant, degree, oracle): the ladder runs every quandle,
# variant and ring named in the benchmark's design up to the sizes where
# the dense engine needs seconds; R(5) TQ 4 has not finished in minutes.
HOMOLOGY = [
    ("R3", "Z3", "TQ", 2, True), ("R3", "Z3", "TQ", 3, False),
    ("R3", "Z3", "TQ", 4, False), ("R3", "Z3", "TR", 3, False),
    ("R3", "Z2", "TD", 3, False), ("R3", "Z2", "TR", 2, True),
    ("R3", "Z4", "TD", 2, True), ("R3", "Z9", "TD", 2, True),
    ("R3", "Z9", "TQ", 3, False), ("R3", "Z", "TQ", 4, False),
    ("R3", "Z", "TQ", 5, False), ("R4", "Z2", "TQ", 2, False),
    ("R4", "Z4", "TD", 2, True), ("R4", "Z4", "TR", 2, False),
    ("R4", "Z4", "TQ", 3, False), ("R4", "Z", "TQ", 3, False),
    ("A4", "F4", "TQ", 2, False), ("A4", "F4", "TQ", 3, False),
    ("A4", "Z", "TQ", 2, False), ("R5", "Z5", "TQ", 2, False),
    ("R5", "Z5", "TQ", 3, False), ("R5", "Z5", "TQ", 4, False),
]
# the limit that R(5) TQ degree 4 must meet (the sparse-engine target)
R5_DEGREE4_LIMIT_S = 5.0

COHOMOLOGY = [
    ("R3", "Z3", "TQ", 2), ("R3", "Z", "TQ", 3), ("R4", "Z2", "TQ", 2),
    ("A4", "F4", "TQ", 2), ("R5", "Z5", "TQ", 2),
]

# (quandle, ring, degree, known cocycle added to a random coboundary):
# without one the solve must succeed, with one it must fail
SOLVES = [
    ("R3", "Z3", 3, None), ("R3", "Z3", 3, "lift3"), ("R3", "Z", 2, "dihedral"),
    ("R3", "Z", 3, None), ("R4", "Z2", 3, None), ("A4", "F4", 3, None),
    ("R5", "Z5", 3, None), ("R3", "Z9", 3, None), ("X9", "Z3", 2, "carry9"),
]


def setup_homology(seed, workdir=None):
    from twistq import chain, cocycles, coeff, quandle
    rings = {k: coeff.parse_ring(desc) for k, (desc, _m, _h) in RINGS.items()}
    xs = {k: quandle.quandle_standard(name)
          for k, (name, _t) in QUANDLES.items() if name}
    known = {}
    psi, _is_tq = cocycles.lift_h1(xs["R3"], rings["Z3"],
                                   {(0, 1, 0): rings["Z3"].one()})
    known["lift3"] = psi.values
    phi, _x, _r = cocycles.dihedral_integral_cocycle(3)
    known["dihedral"] = phi.values
    phi9, xs["X9"], _r = cocycles.modular_extension_cocycle(3, 3, [1, 1])
    known["carry9"] = phi9.values

    cases = []
    for qk, rk, variant, degree, oracle in HOMOLOGY:
        spec = chain.ComplexSpec(xs[qk], rings[rk], variant, degree)
        cases.append(_homology_case(qk, rk, spec, oracle))
    for qk, rk, variant, degree in COHOMOLOGY:
        spec = chain.ComplexSpec(xs[qk], rings[rk], variant, degree)
        cases.append(_cohomology_case(qk, rk, spec))
    for qk, rk, degree, base in SOLVES:
        spec = chain.ComplexSpec(xs[qk], rings[rk], "TQ", degree)
        cases.append(_solve_case(seed, qk, rk, spec, base and known[base]))
    ctx = Context(cases)
    cases.append(_verify_suite_case(ctx))
    return ctx


def _homology_case(qk, rk, spec, oracle):
    from twistq import chain
    name = "h-%s-%s%d-%s" % (qk, spec.variant, spec.degree, rk)

    def run():
        info = chain.homology(spec)
        alt = chain.brute_force_homology(spec) if oracle else None
        return info, alt

    def canon(raw):
        info, alt = raw
        out = {"factors": list(info.invariant_factors)}
        if alt is not None:
            out["oracle"] = list(alt.invariant_factors)
        return out

    checks = []
    if RINGS[rk][1] in PRIMES:
        fp = _fp_dims_check(qk, rk, spec.variant, spec.degree)
        checks.append(("F_p rank",
                       lambda raw: fp(raw[0].invariant_factors)))
    if oracle:
        checks.append(("brute-force oracle", lambda raw: _expect(
            "oracle factors", list(raw[1].invariant_factors),
            list(raw[0].invariant_factors))))
    limit = R5_DEGREE4_LIMIT_S if (qk, spec.degree) == ("R5", 4) else \
        CASE_LIMIT_S
    return Case(name, run, canon, checks, pin=not checks, limit=limit)


def _cohomology_case(qk, rk, spec):
    from twistq import chain
    name = "c-%s-%s%d-%s" % (qk, spec.variant, spec.degree, rk)

    def run():
        return chain.cohomology(spec)

    def canon(raw):
        return {"factors": list(raw[0].invariant_factors)}

    gens = _cocycle_check(qk, rk, spec.variant, spec.degree)
    checks = [("generators are cocycles",
               lambda raw: gens([g.values for g in raw[1]]))]
    prime = RINGS[rk][1] in PRIMES
    if prime:
        fp = _fp_dims_check(qk, rk, spec.variant, spec.degree)
        checks.append(("F_p rank",
                       lambda raw: fp(raw[0].invariant_factors)))
    return Case(name, run, canon, checks, pin=not prime)


def _solve_case(seed, qk, rk, spec, base):
    from twistq import chain
    name = "s-%s-%d-%s%s" % (qk, spec.degree, rk, "-noncoboundary" if base
                             else "")
    table = QUANDLES[qk][1]()
    ring = _ref_ring(rk)
    low = ref.basis(len(table), spec.degree - 1, "TQ")
    g = gen.random_cochain(gen.case_rng(seed, name), low, ring.modulus,
                           ring.degree)
    f = ref.coboundary(table, ring, "TQ", spec.degree - 1, g)
    for key, v in (base or {}).items():
        f[key] = ring.add(f.get(key, ring.zero()), v)
    f = {k: v for k, v in f.items() if any(v)}
    cochain = chain.parse_cochain(spec.ring, gen.render_cochain(f),
                                  degree=spec.degree)

    def run():
        return chain.is_coboundary(spec, cochain)

    def canon(raw):
        return {"solvable": raw is not None}

    def check_primitive(raw):
        if raw is None:
            return None if base else "no primitive found for a coboundary"
        image = ref.coboundary(table, ring, "TQ", spec.degree - 1,
                               dict(raw.values))
        return _expect("delta of the primitive", image, f)

    checks = [("delta of the primitive", check_primitive)]
    if base:
        p = ring.modulus or 3
        fp_ring = ref.Ring(p, ring.h)
        solvable = _once(lambda: ref.is_coboundary_mod_p(
            table, fp_ring, "TQ", spec.degree,
            {k: tuple(c % p for c in v) for k, v in f.items()}))
        checks.append(("obstruction mod %d" % p, lambda raw:
                       "the reference finds no obstruction mod %d" % p
                       if solvable() else None))
    return Case(name, run, canon, checks)


# -- statesum -----------------------------------------------------------------

# (family, reference size, crossing counts n of T(2, n)): n rises until
# the seed's coloring search takes a second or two per case
TORUS = [
    ("T2", [6, 11, 16, 21, 24]),
    ("R3", [4, 7, 10, 13, 15]),
    ("R5", [4, 6, 8, 10]),
    ("X9", [3, 4, 6, 7]),
    ("A4", [5, 8, 11]),
]
TORUS_FAMILY = {"T2": ("trivial", 2), "R3": ("dihedral", 3),
                "R5": ("dihedral", 5), "X9": ("dihedral", 9),
                "A4": ("f4", 4)}
# T(2, 601) over T(2): the seed's recursive search overflows the stack
LONG_KNOT = 601
HOPF_COCYCLE = "0,1 -> T\n1,0 -> 1\n"


def _weights(quandle_key):
    """(quandle, ring, 2-cocycle) used as the weight for a family."""
    from twistq import chain, cocycles, coeff, quandle
    if quandle_key == "T2":
        ring = coeff.parse_ring("Z[T]/(T^2-1)")
        return (quandle.trivial_quandle(2), ring,
                chain.parse_cochain(ring, HOPF_COCYCLE))
    if quandle_key in ("R3", "R5"):
        phi, x, ring = cocycles.dihedral_integral_cocycle(int(quandle_key[1]))
    elif quandle_key == "X9":
        phi, x, ring = cocycles.modular_extension_cocycle(3, 3, [1, 1])
    else:
        # carry cocycle with values T and T + 1: polynomial weights
        phi, x, ring = cocycles.modular_extension_cocycle(2, 2, [1, 1, 1])
    return x, ring, phi


def _state_sum_case(name, diagram, x, ring, phi, checks, pin, surface=False):
    from twistq import knot

    def run():
        fn = knot.state_sum_surface if surface else knot.state_sum
        value, cols, weights = fn(diagram, x, ring, phi)
        return value.render(), len(cols), weights

    def canon(raw):
        text, count, weights = raw
        return {"value": text, "colorings": count,
                "weights": sorted(ring.render_elem(w) for w in weights)}
    return Case(name, run, canon, checks, pin=pin)


def _catalog_checks(entry):
    checks = [("catalog value",
               lambda raw: _expect("value", raw[0], entry["expect"]))]
    if "expect_colorings" in entry:
        checks.append(("catalog colorings", lambda raw: _expect(
            "colorings", raw[1], entry["expect_colorings"])))
    return checks


def setup_statesum(seed, workdir=None):
    from twistq import chain, cocycles, coeff, knot, quandle
    cases = []
    for qk, ns in TORUS:
        x, ring, phi = _weights(qk)
        family, size = TORUS_FAMILY[qk]
        for n in ns + ([LONG_KNOT] if qk == "T2" else []):
            diagram = knot.parse_pd(gen.torus_pd(n))
            want = ref.torus_colorings(family, size, n)
            checks = [("closed-form colorings", lambda raw, want=want:
                       _expect("colorings", raw[1], want))]
            knot_by_trivial = family == "trivial" and n % 2
            if knot_by_trivial:
                # a knot colored by a trivial quandle is colored constantly,
                # and a TQ cocycle vanishes on (a, a)
                checks.append(("trivial-quandle value",
                               lambda raw, size=size: _expect(
                                   "value", raw[0], str(size))))
            cases.append(_state_sum_case("t-%s-%d" % (qk, n), diagram, x,
                                         ring, phi, checks,
                                         pin=not knot_by_trivial))
    catalog = _catalog()
    for cid in ("torus-mod2-polynomial", "torus-mod2-modular"):
        entry = catalog[cid]
        params = entry["construct"]
        h = coeff.parse_poly(params["h"])
        if params["family"] == "modular":
            phi, x, ring = cocycles.modular_extension_cocycle(
                int(params["p"]), int(params["m"]), h)
        else:
            phi, x, ring = cocycles.polynomial_extension_cocycle(
                int(params["p"]), h, int(params["m"]))
        cases.append(_state_sum_case("cat-" + cid, knot.parse_pd(entry["pd"]),
                                     x, ring, phi, _catalog_checks(entry),
                                     pin=False))
    entry = catalog["spun-hopf-t3"]
    ring = coeff.parse_ring(entry["coeff"])
    cases.append(_state_sum_case(
        "cat-spun-hopf-t3", knot.parse_surface(entry["surface"]),
        quandle.quandle_standard(entry["quandle"]), ring,
        chain.parse_cochain(ring, entry["cocycle"],
                            degree=entry["cocycle_degree"]),
        _catalog_checks(entry), pin=False, surface=True))
    ctx = Context(cases)
    cases.append(_verify_suite_case(ctx))
    return ctx


# -- cli ----------------------------------------------------------------------

LIFT2 = "0,1 -> 1\n"
BAD_TABLE = "3\n0 2 1\n1 1 0\n2 0 2\n"
MOD2_TORUS = "Xp[2,3,1,4]\nXp[1,4,2,3]\n"
SPUN = ("sheets: x y z\ntp: sign=+1 L=0 x=x y=y z=z\n"
        "tp: sign=+1 L=0 x=x y=z z=y\ntp: sign=-1 L=0 x=y y=z z=x\n"
        "tp: sign=-1 L=0 x=z y=y z=x\n")
HOPF_PD = "Xp[1,3,2,4]\nXp[3,1,4,2]\nface out: 3L\nouter out\n"
R3 = ["--quandle", "R(3)"]
Z3 = ["--coeff", "Z3[T]/(T+1)"]


def _cli_inputs(seed, catalog):
    """Input files of the cli workload, as {file name: text}."""
    table = ref.dihedral_table(3)
    ring = ref.Ring(3, (1, 1))
    g = gen.random_cochain(gen.case_rng(seed, "cli-verify-coboundary"),
                           ref.basis(3, 2, "TQ"), 3, 1)
    lift2 = _parse_cochain(catalog["lift-2cocycle-r3"]["expect"])
    h = gen.random_cochain(gen.case_rng(seed, "cli-verify-not-coboundary"),
                           ref.basis(3, 1, "TQ"), 3, 1)
    noncob = ref.coboundary(table, ring, "TQ", 1, h)
    for key, v in lift2.items():
        noncob[key] = ring.add(noncob.get(key, ring.zero()), v)
    prod = ref.product_table(ref.dihedral_table(2), ref.dihedral_table(3))
    return {
        "seeds.txt": LIFT2,
        "phi_g.txt": catalog["lift-2cocycle-r3"]["expect"],
        "coboundary.txt": gen.render_cochain(
            ref.coboundary(table, ring, "TQ", 2, g)),
        "not_coboundary.txt": gen.render_cochain(
            {k: v for k, v in noncob.items() if any(v)}),
        "carry_polynomial.txt": catalog["carry-polynomial-9"]["expect"],
        "carry_modular.txt": catalog["carry-modular-9"]["expect"],
        "cycle.txt": catalog["pair-polynomial-x"]["cycle"],
        "product.txt": "%d\n%s\n" % (len(prod), "\n".join(
            " ".join(map(str, row)) for row in prod)),
        "hopf.pd": HOPF_PD,
        "hopf_phi.txt": HOPF_COCYCLE,
        "mod2.pd": MOD2_TORUS + "mod 2\n",
        "mod2_planar.pd": MOD2_TORUS,
        "spun.srf": SPUN,
        "theta.txt": "0,1,2 -> T + 1\n",
        "long.pd": gen.torus_pd(LONG_KNOT),
        "t2_9.pd": gen.torus_pd(9),
        "bad_table.txt": BAD_TABLE,
        "not_cocycle.txt": "0,1 -> 1\n",
    }


def _parse_cochain(text):
    """Integer-coefficient cochain text (as twistq prints it for the
    degree-one rings used here) as {tuple: (value,)}."""
    out = {}
    for line in text.splitlines():
        if "->" in line:
            lhs, rhs = line.split("->")
            out[tuple(int(v) for v in lhs.split(","))] = (int(rhs),)
    return out


def _cli_spec(catalog, files):
    """(name, argv, expected exit, reference label, checks on the
    result, pin)."""
    cat = catalog

    def result_is(cid, field="cocycle"):
        return lambda r: _expect(field, r[field], cat[cid]["expect"])

    table3 = ref.dihedral_table(3)
    ring3 = ref.Ring(3, (1, 1))
    fp = _fp_dims_check("R3", "Z3", "TQ", 2)
    cocycles = _cocycle_check("R3", "Z3", "TQ", 2)

    def primitive_ok(r):
        if not r["is_coboundary"]:
            return "no primitive found for a coboundary"
        image = ref.coboundary(table3, ring3, "TQ", 2,
                               _parse_cochain(r["primitive"]))
        return _expect("delta of the primitive", image, _parse_cochain(
            files["coboundary.txt"]))

    noncob = _once(lambda: ref.is_coboundary_mod_p(
        table3, ring3, "TQ", 2, _parse_cochain(
            files["not_coboundary.txt"])))

    def iso_ok(r):
        prod = ref.product_table(ref.dihedral_table(2), ref.dihedral_table(3))
        if not r["isomorphic"] or not ref.is_isomorphism(
                ref.dihedral_table(6), prod, r["map"]):
            return "no isomorphism R(6) -> R(2) x R(3): %r" % (r["map"],)
        return None

    def state_sum_is(cid):
        e = cat[cid]
        return [lambda r: _expect("value", r["value"], e["expect"]),
                lambda r: _expect("colorings", r["colorings"],
                                  e.get("expect_colorings", r["colorings"]))]

    h2 = cat["h2-tq-r3-r3"]
    invariant = ["invariant", "--pd"]
    long_knot = ["long.pd", "--quandle", "T(2)", "--coeff", "Z[T]/(T^2-1)",
                 "--cocycle", "hopf_phi.txt"]
    return [
        ("cli-verify-suite", ["verify-suite"], 0, "catalog",
         [lambda r: _expect("failed entries", r["failed"], 0)], False),
        ("cli-homology-oracle",
         ["homology"] + R3 + Z3 + ["--degree", "2", "--oracle"], 0,
         "catalog", [
             lambda r: _expect("factors", r["invariant_factors"],
                               h2["expect"]),
             lambda r: _expect("T-action", r["t_action"], h2["expect_t"]),
             lambda r: _expect("oracle", r["oracle_factors"], h2["expect"])],
         False),
        ("cli-cohomology", ["cohomology"] + R3 + Z3 + ["--degree", "2"], 0,
         "F_p rank, generators are cocycles", [
             lambda r: fp(r["invariant_factors"]),
             lambda r: cocycles([_parse_cochain(g)
                                 for g in r["cocycle_generators"]])], False),
        ("cli-construct-modular", ["cocycle", "construct", "modular", "--p",
                                   "3", "--m", "2", "--h", "T+1"], 0,
         "catalog", [result_is("carry-modular-9")], False),
        ("cli-construct-polynomial", ["cocycle", "construct", "polynomial",
                                      "--p", "3", "--h", "T+1", "--m", "2"],
         0, "catalog", [result_is("carry-polynomial-9")], False),
        ("cli-construct-dihedral", ["cocycle", "construct", "dihedral",
                                    "--n", "3"], 0,
         "catalog", [result_is("carry-dihedral-3")], False),
        ("cli-construct-lift", ["cocycle", "construct", "lift"] + R3 + Z3 +
         ["--seeds", "seeds.txt"], 0, "catalog", [
             result_is("lift-2cocycle-r3"),
             lambda r: _expect("is_tq", r["is_tq"], True)], False),
        ("cli-construct-obstruction2",
         ["cocycle", "construct", "obstruction2", "--ambient", "Z9[T]/(T+1)",
          "--sub", "3"] + R3 + ["--eta", "0,1,2", "--search-lift"], 0,
         None, [], True),
        ("cli-construct-obstruction3",
         ["cocycle", "construct", "obstruction3", "--ambient", "Z9[T]/(T+1)",
          "--sub", "3"] + R3 + ["--phi", "phi_g.txt"], 0, None, [], True),
        ("cli-verify-coboundary", ["cocycle", "verify"] + R3 + Z3 +
         ["--degree", "3", "--cocycle", "coboundary.txt"], 0,
         "delta of the primitive", [primitive_ok], False),
        ("cli-verify-not-coboundary", ["cocycle", "verify"] + R3 + Z3 +
         ["--degree", "2", "--cocycle", "not_coboundary.txt"], 0,
         "obstruction mod 3", [
             lambda r: _expect("is_coboundary", r["is_coboundary"], False),
             lambda r: "the reference finds no obstruction mod 3"
             if noncob() else None], False),
        ("cli-pair", ["cocycle", "pair"] + R3 + Z3 +
         ["--degree", "2", "--cocycle", "carry_polynomial.txt",
          "--cycle", "cycle.txt"], 0,
         "catalog", [result_is("pair-polynomial-x", "value")], False),
        ("cli-quandle-info", ["quandle", "info", "--quandle",
                              "A(2;T^2+T+1)"], 0, "reference table",
         [lambda r: _expect("table", r["table"], QUANDLES["A4"][1]())],
         False),
        ("cli-quandle-iso", ["quandle", "iso", "--first", "R(6)",
                             "--second", "@product.txt"], 0,
         "map is an isomorphism", [iso_ok], False),
        ("cli-invariant-hopf", invariant + ["hopf.pd", "--quandle", "T(2)",
                                            "--coeff", "Z[T]/(T^2-1)",
                                            "--cocycle", "hopf_phi.txt"], 0,
         "catalog", state_sum_is("hopf-t2-state-sum"), False),
        ("cli-invariant-mod2", invariant + ["mod2.pd", "--quandle",
                                            "A(3;T+1)"] + Z3 +
         ["--cocycle", "carry_modular.txt"], 0,
         "catalog", state_sum_is("torus-mod2-modular"), False),
        ("cli-invariant-surface", ["invariant-surface", "--surface",
                                   "spun.srf", "--quandle", "T(3)",
                                   "--coeff", "Z0[T]/(T^2-1)", "--cocycle",
                                   "theta.txt"], 0,
         "catalog", state_sum_is("spun-hopf-t3"), False),
        ("cli-invariant-T2-%d" % LONG_KNOT, invariant + long_knot, 0,
         "closed-form colorings, trivial-quandle value", [
             lambda r: _expect("value", r["value"], "2"),
             lambda r: _expect("colorings", r["colorings"], 2)], False),
        ("cli-invariant-R3-9", invariant + ["t2_9.pd"] + R3 + Z3 +
         ["--cocycle", "phi_g.txt"], 0, "closed-form colorings",
         [lambda r: _expect("colorings", r["colorings"],
                            ref.torus_colorings("dihedral", 3, 9))], True),
        ("cli-error-table", ["homology", "--quandle", "@bad_table.txt"] + Z3 +
         ["--degree", "2"], 2, None, [], False),
        ("cli-error-weight", invariant + ["hopf.pd"] + R3 + Z3 +
         ["--cocycle", "not_cocycle.txt"], 2, None, [], False),
        ("cli-error-planar", invariant + ["mod2_planar.pd", "--quandle",
                                          "A(3;T+1)"] + Z3 +
         ["--cocycle", "carry_modular.txt"], 2, None, [], False),
        ("cli-error-ring", ["homology"] + R3 + ["--coeff", "Z3[T]/(T+3)",
                                                "--degree", "2"], 2, None, [],
         False),
        ("cli-error-missing-file", invariant + ["missing.pd"] +
         long_knot[1:], 2, None, [], False),
        ("cli-usage-missing-flag", ["homology"] + R3, 64, None, [], False),
        ("cli-usage-unknown-command", ["no-such-command"], 64, None, [],
         False),
    ]


def setup_cli(seed, workdir):
    import twistq.cli  # noqa: F401  (set-up includes the package import)
    catalog = _catalog()
    files = _cli_inputs(seed, catalog)
    for fname, text in files.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            fh.write(text)
    ctx = Context([], workdir)
    for name, argv, code, label, checks, pin in _cli_spec(catalog, files):
        ctx.cases.append(_cli_case(ctx, name, argv, code, label, checks,
                                   pin))
    return ctx


def _canon_result(command, result):
    result = dict(result)
    if command == "cohomology":
        result.pop("cocycle_generators")
        result.pop("t_action")
    elif command == "cocycle verify":
        result.pop("primitive")
    elif command in ("invariant", "invariant-surface"):
        result["weights"] = sorted(result["weights"])
    return result


def _cli_case(ctx, name, argv, code, label, checks, pin):
    def run():
        rc, out, err = runner.run_cli(ctx, argv)
        crashed = "Traceback" in err
        if crashed or (rc != code and (code == 0 or rc != 0)):
            # no answer at all: a crash, or a refusal of a valid input
            last = (err.strip().splitlines() or [""])[-1]
            raise RuntimeError("exit %d, expected %d: %s" % (rc, code,
                                                             last[:160]))
        return rc, out, err

    def report(raw):
        return json.loads(raw[1])

    def canon(raw):
        if raw[0] != 0:
            return {"exit": raw[0]}
        rep = report(raw)
        return {"exit": 0, "result": _canon_result(rep["command"],
                                                   rep["result"])}

    def exit_ok(raw):
        rc, out, _err = raw
        if rc != code:
            return "exit %d, expected %d" % (rc, code)
        if code != 0 and out:
            return "report printed on a failed run"
        return None

    def result_checks(raw):
        if raw[0] != 0:
            return None
        for check in checks:
            msg = check(report(raw)["result"])
            if msg:
                return msg
        return None
    all_checks = [("exit code", exit_ok)]
    if label:
        all_checks.append((label, result_checks))
    return Case(name, run, canon, all_checks, pin=pin, limit=60.0)


WORKLOADS = {
    "homology": setup_homology,
    "statesum": setup_statesum,
    "cli": setup_cli,
}

"""Command-line front end.

Every invocation prints a single JSON report to standard output:

    {"command": ..., "inputs_digest": ..., "result": ...}

The digest is a SHA-256 of the resolved inputs (with file arguments
replaced by their contents), so identical inputs always produce
byte-identical reports; wall-clock time goes to standard error.  Exit
status is 0 on success, 2 when a precondition of the requested
computation fails, and 64 for usage errors.
"""

import argparse
import hashlib
import json
import sys
import time
from importlib import resources

from . import chain, cocycles, coeff, knot, quandle

EX_USAGE = 64

# argument names whose values are file paths, read before hashing
_FILE_ARGS = {"cocycle", "cycle", "pd", "surface", "seeds", "phi", "catalog"}
_SKIP_ARGS = {"func", "pretty", "command_path"}


class CliParser(argparse.ArgumentParser):
    """argparse parser that exits with the usage status code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))


def _load_quandle(text):
    """A quandle argument is a standard name (T(n), R(n), A(n;h)),
    '@path' pointing at an operation-table file, or the table text
    itself (report inputs carry @files inlined), told apart from a name
    by its first non-comment line, the size."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read()
    lines = [ln for ln in map(str.strip, text.splitlines())
             if ln and not ln.startswith("#")]
    if lines and lines[0][0].isdigit():
        return quandle.parse_quandle_table(text)
    return quandle.quandle_standard(text)


def _quandle_payload(x):
    return {"name": x.name, "size": x.size, "labels": list(x.labels),
            "table": [list(row) for row in x.table]}


def _resolve_inputs(args):
    out = {}
    for key, value in vars(args).items():
        if key in _SKIP_ARGS or value is None:
            continue
        if key in _FILE_ARGS:
            with open(value) as fh:
                value = fh.read()
        elif isinstance(value, str) and value.startswith("@"):
            with open(value[1:]) as fh:
                value = fh.read()
        out[key] = value
    return out


def _digest(command, inputs):
    blob = json.dumps({"command": command, "inputs": inputs},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- cocycle construction shared with the catalog ---------------------------

def construct_cocycle(params):
    """Build (cochain, quandle, ring) from a family-parameter mapping."""
    family = params["family"]
    if family == "modular":
        return cocycles.modular_extension_cocycle(
            int(params["p"]), int(params["m"]), coeff.parse_poly(params["h"]))
    if family == "polynomial":
        return cocycles.polynomial_extension_cocycle(
            int(params["p"]), coeff.parse_poly(params["h"]), int(params["m"]))
    if family == "dihedral":
        return cocycles.dihedral_integral_cocycle(int(params["n"]))
    if family == "lift":
        x = _load_quandle(params["quandle"])
        ring = coeff.parse_ring(params["coeff"])
        seeds = chain.parse_cochain(ring, params["seeds"])
        psi, _is_tq = cocycles.lift_h1(x, ring, seeds.values)
        return psi, x, ring
    raise cocycles.CocycleError("unknown cocycle family %r" % family)


def _make_ses(args_or_params):
    g = coeff.parse_ring(args_or_params["ambient"])
    gens = tuple(g.reduce(coeff.parse_poly(s))
                 for s in str(args_or_params["sub"]).split(";"))
    return cocycles.SesSpec(g, gens)


# -- subcommand handlers -----------------------------------------------------

def _spec_from(inputs):
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    return chain.ComplexSpec(x, ring, inputs["variant"], inputs["degree"])


def _cmd_homology(inputs):
    spec = _spec_from(inputs)
    info = chain.homology(spec)
    result = {
        "quandle": spec.x.name or "custom",
        "ring": spec.ring.descriptor(),
        "variant": spec.variant,
        "degree": spec.degree,
        "invariant_factors": list(info.invariant_factors),
        "description": info.describe(),
        "t_action": info.t_action,
    }
    if inputs.get("oracle"):
        oracle = chain.brute_force_homology(spec)
        result["oracle_factors"] = list(oracle.invariant_factors)
    return result


def _cmd_cohomology(inputs):
    spec = _spec_from(inputs)
    info, gens = chain.cohomology(spec)
    return {
        "quandle": spec.x.name or "custom",
        "ring": spec.ring.descriptor(),
        "variant": spec.variant,
        "degree": spec.degree,
        "invariant_factors": list(info.invariant_factors),
        "description": info.describe(),
        "t_action": info.t_action,
        "cocycle_generators": [chain.render_cochain(g) for g in gens],
    }


def _construct_result(phi, x, ring):
    return {"cocycle": chain.render_cochain(phi),
            "degree": phi.degree,
            "ring": ring.descriptor(),
            "quandle": _quandle_payload(x)}


def _cmd_construct_family(family):
    def handler(inputs):
        params = dict(inputs)
        params["family"] = family
        phi, x, ring = construct_cocycle(params)
        return _construct_result(phi, x, ring)
    return handler


def _cmd_construct_lift(inputs):
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    seeds = chain.parse_cochain(ring, inputs["seeds"])
    psi, is_tq = cocycles.lift_h1(x, ring, seeds.values)
    result = _construct_result(psi, x, ring)
    result["is_tq"] = is_tq
    return result


def _cmd_construct_obstruction2(inputs):
    ses = _make_ses(inputs)
    x = _load_quandle(inputs["quandle"])
    eta = quandle.QuandleMap(
        x, ses.a_quandle, [int(v) for v in inputs["eta"].split(",")])
    phi = cocycles.obstruction_2cocycle(ses, x, eta)
    result = _construct_result(phi, x, ses.g_ring)
    result["quotient_labels"] = list(ses.a_quandle.labels)
    if inputs.get("search_lift"):
        lift = cocycles.extension_homomorphism(ses, x, eta)
        result["lift"] = list(lift.values) if lift is not None else None
    return result


def _cmd_construct_obstruction3(inputs):
    ses = _make_ses(inputs)
    x = _load_quandle(inputs["quandle"])
    phi = chain.parse_cochain(ses.g_ring, inputs["phi"], degree=2)
    theta = cocycles.obstruction_3cocycle(ses, x, phi)
    return _construct_result(theta, x, ses.g_ring)


def _cmd_verify(inputs):
    spec = _spec_from(inputs)
    f = chain.parse_cochain(spec.ring, inputs["cocycle"], degree=spec.degree)
    ok, witness = chain.is_cocycle(spec, f)
    result = {"is_cocycle": ok,
              "witness": list(witness) if witness is not None else None,
              "is_coboundary": None, "primitive": None}
    if ok:
        g = chain.is_coboundary(spec, f)
        result["is_coboundary"] = g is not None
        result["primitive"] = chain.render_cochain(g) if g is not None else None
    return result


def _cmd_pair(inputs):
    spec = _spec_from(inputs)
    f = chain.parse_cochain(spec.ring, inputs["cocycle"], degree=spec.degree)
    c = chain.parse_cochain(spec.ring, inputs["cycle"], degree=spec.degree)
    value = chain.pair(spec, f, c)
    return {"value": spec.ring.render_elem(value)}


def _cmd_quandle_info(inputs):
    x = _load_quandle(inputs["quandle"])
    return _quandle_payload(x)


def _cmd_quandle_iso(inputs):
    a = _load_quandle(inputs["first"])
    b = _load_quandle(inputs["second"])
    m = quandle.find_isomorphism(a, b)
    return {"isomorphic": m is not None,
            "map": list(m.values) if m is not None else None}


def _cmd_invariant(inputs):
    diagram = knot.parse_pd(inputs["pd"])
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    phi = chain.parse_cochain(ring, inputs["cocycle"], degree=2)
    value, cols, weights = knot.state_sum(diagram, x, ring, phi)
    return {"value": value.render(),
            "colorings": len(cols),
            "weights": [ring.render_elem(w) for w in weights]}


def _cmd_invariant_surface(inputs):
    sp = knot.parse_surface(inputs["surface"])
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    theta = chain.parse_cochain(ring, inputs["cocycle"], degree=3)
    value, cols, weights = knot.state_sum_surface(sp, x, ring, theta)
    return {"value": value.render(),
            "colorings": len(cols),
            "weights": [ring.render_elem(w) for w in weights]}


# -- catalog / verify-suite --------------------------------------------------

def load_catalog(text=None):
    if text is None:
        text = resources.files("twistq").joinpath(
            "data/catalog.json").read_text()
    entries = json.loads(text)
    if not isinstance(entries, list):
        raise ValueError("catalog must be a JSON list of entries")
    return entries


def _catalog_quandle(spec, default=None):
    if spec is None:
        if default is None:
            raise ValueError("catalog entry is missing its quandle")
        return default
    if isinstance(spec, str):
        return quandle.quandle_standard(spec)
    if "product" in spec:
        a, b = spec["product"]
        return quandle.quandle_product(quandle.quandle_standard(a),
                                       quandle.quandle_standard(b))
    if "extension" in spec:
        phi, x, ring = construct_cocycle(spec["extension"])
        return quandle.quandle_extension(x, ring, phi)
    raise ValueError("cannot interpret quandle spec %r" % (spec,))


def _catalog_cocycle(entry):
    """Resolve an entry's weight cochain; returns (cochain, quandle, ring)
    where the quandle may be None when only text data was given."""
    if "construct" in entry:
        return construct_cocycle(entry["construct"])
    ring = coeff.parse_ring(entry["coeff"])
    f = chain.parse_cochain(ring, entry["cocycle"],
                            degree=entry.get("cocycle_degree", 2))
    return f, None, ring


def run_catalog_entry(entry):
    """Execute one catalog check; returns (ok, witness_text_or_None)."""
    kind = entry["kind"]
    if kind == "homology":
        x = _catalog_quandle(entry["quandle"])
        ring = coeff.parse_ring(entry["coeff"])
        spec = chain.ComplexSpec(x, ring, entry.get("variant", "TQ"),
                                 entry["degree"])
        info = chain.homology(spec)
        got = list(info.invariant_factors)
        if got != list(entry["expect"]):
            return False, "invariant factors %r, expected %r" % (
                got, entry["expect"])
        if "expect_t" in entry and info.t_action != entry["expect_t"]:
            return False, "T-action %r, expected %r" % (
                info.t_action, entry["expect_t"])
        if entry.get("oracle"):
            alt = list(chain.brute_force_homology(spec).invariant_factors)
            if alt != got:
                return False, "oracle disagrees: %r vs %r" % (alt, got)
        return True, None
    if kind == "cocycle-table":
        phi, _x, _ring = construct_cocycle(entry["construct"])
        got = chain.render_cochain(phi)
        if got != entry["expect"]:
            return False, "table mismatch:\n%s" % got
        return True, None
    if kind == "pairing":
        f, x, ring = _catalog_cocycle(entry)
        c = chain.parse_cochain(ring, entry["cycle"], degree=f.degree)
        spec = chain.ComplexSpec(x, ring, entry.get("variant", "TQ"), f.degree)
        got = ring.render_elem(chain.pair(spec, f, c))
        if got != entry["expect"]:
            return False, "pairing gave %s, expected %s" % (
                got, entry["expect"])
        return True, None
    if kind == "lift":
        x = _catalog_quandle(entry["quandle"])
        ring = coeff.parse_ring(entry["coeff"])
        seeds = chain.parse_cochain(ring, entry["seeds"])
        psi, is_tq = cocycles.lift_h1(x, ring, seeds.values)
        got = chain.render_cochain(psi)
        if got != entry["expect"]:
            return False, "lifted table mismatch:\n%s" % got
        if "expect_tq" in entry and is_tq != entry["expect_tq"]:
            return False, "is_tq == %r" % is_tq
        return True, None
    if kind == "not-coboundary":
        f, x, ring = _catalog_cocycle(entry)
        spec = chain.ComplexSpec(x, ring, entry.get("variant", "TQ"), f.degree)
        g = chain.is_coboundary(spec, f)
        if (g is None) != entry.get("expect_none", True):
            return False, ("a primitive exists" if g is not None
                           else "no primitive found")
        return True, None
    if kind == "invariant":
        f, x, ring = _catalog_cocycle(entry)
        x = _catalog_quandle(entry.get("quandle"), default=x)
        diagram = knot.parse_pd(entry["pd"])
        value, cols, _w = knot.state_sum(diagram, x, ring, f)
        got = value.render()
        if got != entry["expect"]:
            return False, "state sum %s, expected %s" % (got, entry["expect"])
        if "expect_colorings" in entry and len(cols) != entry["expect_colorings"]:
            return False, "%d colorings, expected %d" % (
                len(cols), entry["expect_colorings"])
        return True, None
    if kind == "invariant-surface":
        f, x, ring = _catalog_cocycle(entry)
        x = _catalog_quandle(entry.get("quandle"), default=x)
        sp = knot.parse_surface(entry["surface"])
        value, _cols, _w = knot.state_sum_surface(sp, x, ring, f)
        got = value.render()
        if got != entry["expect"]:
            return False, "state sum %s, expected %s" % (got, entry["expect"])
        return True, None
    if kind == "iso":
        a = _catalog_quandle(entry["first"])
        b = _catalog_quandle(entry["second"])
        m = quandle.find_isomorphism(a, b)
        if (m is not None) != entry["expect"]:
            return False, ("isomorphism %r" % (m.values,) if m is not None
                           else "no isomorphism found")
        return True, None
    return False, "unknown catalog entry kind %r" % kind


def run_catalog(entries):
    items = []
    for i, entry in enumerate(entries):
        eid = entry.get("id", "entry-%d" % i)
        try:
            ok, witness = run_catalog_entry(entry)
        except Exception as exc:  # a broken entry is a failure, not a crash
            ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
        items.append({"id": eid, "pass": ok, "witness": witness})
    result = {"items": items,
              "passed": sum(1 for it in items if it["pass"]),
              "failed": sum(1 for it in items if not it["pass"])}
    if not items:
        result["warning"] = "catalog is empty; nothing was verified"
    return result


def _cmd_verify_suite(inputs):
    entries = load_catalog(inputs.get("catalog"))
    result = run_catalog(entries)
    if "warning" in result:
        print("warning: %s" % result["warning"], file=sys.stderr)
    return result


# -- parser ------------------------------------------------------------------

def _add_complex_args(p):
    p.add_argument("--quandle", required=True,
                   help="T(n), R(n), A(n;h) or @table-file")
    p.add_argument("--coeff", required=True,
                   help="coefficient ring, e.g. \"Z3[T]/(T+1)\"")
    p.add_argument("--variant", choices=chain.VARIANTS, default="TQ")
    p.add_argument("--degree", type=int, required=True)


def build_parser():
    parser = CliParser(prog="twistq",
                       description="Twisted quandle homology, cocycles and "
                                   "cocycle state-sum invariants.")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                parser_class=CliParser)

    p = sub.add_parser("homology")
    _add_complex_args(p)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check with the brute-force engine")
    p.set_defaults(func=_cmd_homology, command_path="homology")

    p = sub.add_parser("cohomology")
    _add_complex_args(p)
    p.set_defaults(func=_cmd_cohomology, command_path="cohomology")

    p = sub.add_parser("cocycle")
    csub = p.add_subparsers(dest="action", required=True,
                            parser_class=CliParser)

    pc = csub.add_parser("construct")
    fsub = pc.add_subparsers(dest="family", required=True,
                             parser_class=CliParser)
    q = fsub.add_parser("modular")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--h", required=True)
    q.set_defaults(func=_cmd_construct_family("modular"),
                   command_path="cocycle construct modular")
    q = fsub.add_parser("polynomial")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--h", required=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=_cmd_construct_family("polynomial"),
                   command_path="cocycle construct polynomial")
    q = fsub.add_parser("dihedral")
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=_cmd_construct_family("dihedral"),
                   command_path="cocycle construct dihedral")
    q = fsub.add_parser("obstruction2")
    q.add_argument("--ambient", required=True, help="the ambient module G")
    q.add_argument("--sub", required=True,
                   help="generators of N, ';'-separated polynomials")
    q.add_argument("--quandle", required=True)
    q.add_argument("--eta", required=True,
                   help="images in G/N, comma-separated indices")
    q.add_argument("--search-lift", action="store_true", dest="search_lift")
    q.set_defaults(func=_cmd_construct_obstruction2,
                   command_path="cocycle construct obstruction2")
    q = fsub.add_parser("obstruction3")
    q.add_argument("--ambient", required=True)
    q.add_argument("--sub", required=True)
    q.add_argument("--quandle", required=True)
    q.add_argument("--phi", required=True,
                   help="file with a 2-cochain valued in G")
    q.set_defaults(func=_cmd_construct_obstruction3,
                   command_path="cocycle construct obstruction3")
    q = fsub.add_parser("lift")
    q.add_argument("--quandle", required=True)
    q.add_argument("--coeff", required=True)
    q.add_argument("--seeds", required=True, help="file with seed values")
    q.set_defaults(func=_cmd_construct_lift,
                   command_path="cocycle construct lift")

    pv = csub.add_parser("verify")
    _add_complex_args(pv)
    pv.add_argument("--cocycle", required=True, help="cochain file")
    pv.set_defaults(func=_cmd_verify, command_path="cocycle verify")

    pp = csub.add_parser("pair")
    _add_complex_args(pp)
    pp.add_argument("--cocycle", required=True, help="cochain file")
    pp.add_argument("--cycle", required=True, help="chain file")
    pp.set_defaults(func=_cmd_pair, command_path="cocycle pair")

    p = sub.add_parser("quandle")
    qsub = p.add_subparsers(dest="action", required=True,
                            parser_class=CliParser)
    qi = qsub.add_parser("info")
    qi.add_argument("--quandle", required=True)
    qi.set_defaults(func=_cmd_quandle_info, command_path="quandle info")
    qx = qsub.add_parser("iso")
    qx.add_argument("--first", required=True)
    qx.add_argument("--second", required=True)
    qx.set_defaults(func=_cmd_quandle_iso, command_path="quandle iso")

    p = sub.add_parser("invariant")
    p.add_argument("--pd", required=True, help="diagram file")
    p.add_argument("--quandle", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--cocycle", required=True, help="2-cochain file")
    p.set_defaults(func=_cmd_invariant, command_path="invariant")

    p = sub.add_parser("invariant-surface")
    p.add_argument("--surface", required=True, help="presentation file")
    p.add_argument("--quandle", required=True)
    p.add_argument("--coeff", required=True)
    p.add_argument("--cocycle", required=True, help="3-cochain file")
    p.set_defaults(func=_cmd_invariant_surface,
                   command_path="invariant-surface")

    p = sub.add_parser("verify-suite")
    p.add_argument("--catalog", help="path to a catalog JSON file "
                                     "(default: the bundled catalog)")
    p.set_defaults(func=_cmd_verify_suite, command_path="verify-suite")

    return parser


def main(argv=None):
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs = _resolve_inputs(args)
        result = args.func(inputs)
    except (OSError, ValueError) as exc:
        # RingError, QuandleError, CocycleError and DiagramError are all
        # ValueErrors: a violated precondition of the computation
        print("error: %s" % exc, file=sys.stderr)
        return 2
    report = {"command": args.command_path,
              "inputs_digest": _digest(args.command_path, inputs),
              "result": result}
    if args.pretty:
        text = json.dumps(report, sort_keys=True, indent=2)
    else:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    print(text)
    print("wall-time: %.3fs" % (time.monotonic() - started), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every invocation prints a single JSON report to standard output:

    {"command": ..., "inputs_digest": ..., "result": ...}

The digest is a SHA-256 of the resolved inputs (with file arguments
replaced by their contents), so identical inputs always produce
byte-identical reports; wall-clock time goes to standard error.  Exit
status is 0 on success, 2 when a precondition of the requested
computation fails, 64 for usage errors and 70 for an internal error (a
bug in twistq: any other exception), which prints one line,
`internal error: <type>: <message>`, to standard error and no report.

Parsing and dispatch need no computation module: each handler imports
the modules its command runs when it runs, so a process loads only
those.  A catalog run builds each construct, catalog quandle and parsed
quandle its entries share once, and keeps nothing once it returns.
"""

import argparse
import hashlib
import json
import sys
import time

from . import VARIANTS

EX_USAGE = 64
EX_SOFTWARE = 70

# argument names whose values are file paths, read before hashing
_FILE_ARGS = {"cocycle", "cycle", "pd", "surface", "seeds", "phi", "catalog"}
_SKIP_ARGS = {"pretty", "command_path"}


class CliParser(argparse.ArgumentParser):
    """argparse parser that exits with the usage status code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, "%s: error: %s\n" % (self.prog, message))

    def _get_values(self, action, arg_strings):
        # argparse turns an option's value "--" (as in --h=--) into []
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)

    def _get_value(self, action, arg_string):
        if action.type is not int:
            return super()._get_value(action, arg_string)
        from .limits import integer  # argparse would echo the value whole
        return integer(arg_string, lambda m: argparse.ArgumentError(action, m),
                       action.option_strings[-1], "invalid int value: %s",
                       arg_string)


_SHARED = None  # {(maker, key): made} while run_catalog runs


def _shared(key, make, *args):
    """make(*args), made once per catalog run and key; a failure is not
    kept, and outside a run every call makes it afresh."""
    if _SHARED is None:
        return make(*args)
    if (make, key) not in _SHARED:
        _SHARED[make, key] = make(*args)
    return _SHARED[make, key]


def _load_quandle(text):
    """A quandle argument is a standard name (T(n), R(n), A(n;h)) or
    the table text itself (main inlines an '@path' argument before the
    handler runs)."""
    from . import quandle
    return _shared(text, quandle.parse_quandle, text)


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


# cocycle families: (cocycles, coeff, parameters) -> (cochain, quandle,
# ring); the handler passes the two modules in
_FAMILIES = {
    "modular": lambda cocycles, coeff, p: cocycles.modular_extension_cocycle(
        p["p"], p["m"], coeff.parse_poly(p["h"])),
    "polynomial": lambda cocycles, coeff, p:
        cocycles.polynomial_extension_cocycle(
            p["p"], coeff.parse_poly(p["h"]), p["m"]),
    "dihedral": lambda cocycles, coeff, p:
        cocycles.dihedral_integral_cocycle(p["n"]),
}


def _make_ses(inputs):
    from . import cocycles, coeff
    g = coeff.parse_ring(inputs["ambient"])
    gens = tuple(g.reduce(coeff.parse_poly(s))
                 for s in inputs["sub"].split(";"))
    return cocycles.SesSpec(g, gens)


# -- subcommand handlers -----------------------------------------------------

def _spec_from(inputs):
    from . import chain, coeff
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    return chain.ComplexSpec(x, ring, inputs["variant"], inputs["degree"])


def _module_result(spec, info):
    return {
        "quandle": spec.x.name or "custom",
        "ring": spec.ring.descriptor(),
        "variant": spec.variant,
        "degree": spec.degree,
        "invariant_factors": list(info.invariant_factors),
        "description": info.describe(),
        "t_action": info.t_action,
    }


def _cmd_homology(inputs):
    from . import chain
    spec = _spec_from(inputs)
    # the oracle's guard is the cheaper one, so it runs first
    oracle = chain.brute_force_homology(spec) if inputs.get("oracle") else None
    result = _module_result(spec, chain.homology(spec))
    if oracle is not None:
        result["oracle_factors"] = list(oracle.invariant_factors)
    return result


def _cmd_cohomology(inputs):
    from . import chain
    spec = _spec_from(inputs)
    info, gens = chain.cohomology(spec)
    result = _module_result(spec, info)
    result["cocycle_generators"] = [chain.render_cochain(g) for g in gens]
    return result


def _construct_result(phi, x, ring):
    from . import chain
    return {"cocycle": chain.render_cochain(phi),
            "degree": phi.degree,
            "ring": ring.descriptor(),
            "quandle": _quandle_payload(x)}


def _cmd_construct_family(inputs):
    from . import cocycles, coeff
    return _construct_result(
        *_FAMILIES[inputs["family"]](cocycles, coeff, inputs))


def _cmd_construct_lift(inputs):
    from . import chain, cocycles, coeff
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    seeds = chain.parse_cochain(ring, inputs["seeds"], size=x.size)
    psi, is_tq = cocycles.lift_h1(x, ring, seeds.values)
    result = _construct_result(psi, x, ring)
    result["is_tq"] = is_tq
    return result


def _cmd_construct_obstruction2(inputs):
    from . import cocycles, limits, quandle
    ses = _make_ses(inputs)
    x = _load_quandle(inputs["quandle"])
    eta = quandle.QuandleMap(x, ses.a_quandle, [
        limits.integer(v, ValueError, "--eta", "bad integer %s in --eta %s",
                       v, inputs["eta"]) for v in inputs["eta"].split(",")])
    phi = cocycles.obstruction_2cocycle(ses, x, eta)
    result = _construct_result(phi, x, ses.g_ring)
    result["quotient_labels"] = list(ses.a_quandle.labels)
    if inputs.get("search_lift"):
        lift = cocycles.extension_homomorphism(ses, x, eta)
        result["lift"] = list(lift.values) if lift is not None else None
    return result


def _cmd_construct_obstruction3(inputs):
    from . import chain, cocycles
    ses = _make_ses(inputs)
    x = _load_quandle(inputs["quandle"])
    phi = chain.parse_cochain(ses.g_ring, inputs["phi"], degree=2,
                              size=x.size)
    theta = cocycles.obstruction_3cocycle(ses, x, phi)
    return _construct_result(theta, x, ses.g_ring)


def _cmd_verify(inputs):
    from . import chain
    spec = _spec_from(inputs)
    f = chain.parse_cochain(spec.ring, inputs["cocycle"], degree=spec.degree,
                            size=spec.x.size)
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
    from . import chain
    spec = _spec_from(inputs)
    f, c = (chain.parse_cochain(spec.ring, inputs[key], degree=spec.degree,
                                size=spec.x.size)
            for key in ("cocycle", "cycle"))
    value = chain.pair(spec, f, c)
    return {"value": spec.ring.render_elem(value)}


def _cmd_quandle_info(inputs):
    return _quandle_payload(_load_quandle(inputs["quandle"]))


def _cmd_quandle_iso(inputs):
    from . import quandle
    a = _load_quandle(inputs["first"])
    b = _load_quandle(inputs["second"])
    m = quandle.find_isomorphism(a, b)
    return {"isomorphic": m is not None,
            "map": list(m.values) if m is not None else None}


def _state_sum_result(inputs, diagram, state_sum, degree):
    from . import chain, coeff
    x = _load_quandle(inputs["quandle"])
    ring = coeff.parse_ring(inputs["coeff"])
    phi = chain.parse_cochain(ring, inputs["cocycle"], degree=degree,
                              size=x.size)
    value, cols, weights = state_sum(diagram, x, ring, phi)
    return {"value": value.render(),
            "colorings": len(cols),
            "weights": [ring.render_elem(w) for w in weights]}


def _cmd_invariant(inputs):
    from . import knot
    return _state_sum_result(inputs, knot.parse_pd(inputs["pd"]),
                             knot.state_sum, 2)


def _cmd_invariant_surface(inputs):
    from . import knot
    return _state_sum_result(inputs, knot.parse_surface(inputs["surface"]),
                             knot.state_sum_surface, 3)


# -- catalog / verify-suite --------------------------------------------------

def load_catalog(text=None):
    from . import limits
    if text is None:
        from importlib import resources
        text = resources.files("twistq").joinpath(
            "data/catalog.json").read_text()
    try:
        entries = json.loads(text, parse_int=lambda token: limits.integer(
            token, ValueError, "the catalog"))
    except RecursionError:
        raise ValueError("catalog is nested too deeply to read") from None
    except json.JSONDecodeError as exc:
        raise ValueError("catalog is not JSON: %s" % exc) from None
    if not isinstance(entries, list):
        raise ValueError("catalog must be a JSON list of entries")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError("catalog entry %d is not a JSON object" % i)
    return entries


# kind: (command path, {result field: reader}).  A reader gives the value
# the entry expects in the field, raises KeyError for a key the entry
# must give, or returns _SKIP for a check the entry does not ask for.
# The command None stands for the entry's `construct` alone.
_SKIP = object()
_STATE_SUM = {"value": lambda e: e["expect"],
              "colorings": lambda e: e.get("expect_colorings", _SKIP)}
_KINDS = {
    "homology": ("homology", {
        "invariant_factors": lambda e: e["expect"],
        # homology reports oracle_factors only when the entry asks
        "oracle_factors": lambda e: e["expect"] if e.get("oracle") else _SKIP,
        "t_action": lambda e: e.get("expect_t", _SKIP)}),
    "cocycle-table": (None, {"cocycle": lambda e: e["expect"]}),
    "lift": ("cocycle construct lift", {
        "cocycle": lambda e: e["expect"],
        "is_tq": lambda e: e.get("expect_tq", _SKIP)}),
    "pairing": ("cocycle pair", {"value": lambda e: e["expect"]}),
    "not-coboundary": ("cocycle verify", {
        "is_cocycle": lambda e: True,
        "is_coboundary": lambda e: not e.get("expect_none", True)}),
    "invariant": ("invariant", _STATE_SUM),
    "invariant-surface": ("invariant-surface", _STATE_SUM),
    "iso": ("quandle iso", {"isomorphic": lambda e: e["expect"]}),
}


# the JSON type of an option's value in a catalog, named in a witness
_JSON_TYPES = {int: "an integer", bool: "a boolean", str: "a string"}


def _catalog_inputs(params, path):
    """The inputs of the command path from a catalog mapping: each
    required option given, and each key that names an option holding
    the option's JSON type, an integer (never a boolean) for type=int, a
    boolean for store_true and a string for any other, or for a quandle
    a mapping, replaced by its table text.  Other keys pass unchecked."""
    inputs = dict(params)
    for flag, keywords in _COMMANDS[path][1]:
        key = keywords.get("dest", flag[2:])
        if key not in inputs:
            if keywords.get("required"):
                raise ValueError("%s is missing" % key)
            continue
        value = inputs[key]
        want = (bool if keywords.get("action") == "store_true"
                else keywords.get("type", str))
        if key in ("quandle", "first", "second") and type(value) is dict:
            inputs[key] = _shared(json.dumps(value, sort_keys=True),
                                  _catalog_quandle, value)
        elif type(value) is not want:  # JSON gives no subclasses
            raise ValueError("%s must be %s" % (key, _JSON_TYPES[want]))
    return inputs


def _construct(params, what="construct"):
    """The report of `cocycle construct <family>` on a catalog construct
    mapping, given as the entry's `what`."""
    from . import cocycles
    from .limits import show
    if not isinstance(params, dict):
        raise ValueError("%s must be a mapping" % what)
    family = params.get("family")
    if family not in ("lift", *_FAMILIES):  # compared, never hashed
        raise cocycles.CocycleError("unknown cocycle family %s"
                                    % show(family))
    path = "cocycle construct " + family
    return _shared(json.dumps(params, sort_keys=True), _COMMANDS[path][0],
                   _catalog_inputs(params, path))


def _catalog_quandle(spec):
    """Table text of a {"product": [a, b]} (two quandle names) or
    {"extension": construct} quandle spec."""
    from . import chain, coeff, quandle
    from .limits import show
    if "product" in spec:
        names = spec["product"]
        if (type(names) is not list or len(names) != 2
                or not all(isinstance(name, str) for name in names)):
            raise ValueError("product must be a list of two strings")
        x = quandle.quandle_product(*map(quandle.quandle_standard, names))
    elif "extension" in spec:
        made = _construct(spec["extension"], "extension")
        ring = coeff.parse_ring(made["ring"])
        x = quandle.quandle_extension(
            quandle.FiniteQuandle(made["quandle"]["table"]), ring,
            chain.parse_cochain(ring, made["cocycle"]))
    else:
        raise ValueError("cannot interpret quandle spec %s" % show(spec))
    return quandle.render_quandle_table(x.table)


def _catalog_result(entry):
    """The report of the CLI command that checks a catalog entry.  A
    construct's report supplies the command's cocycle, coeff, degree and
    quandle (table text)."""
    path = _KINDS[entry["kind"]][0]
    made = _construct(entry["construct"]) if "construct" in entry else {}
    if path is None:
        return made
    inputs = {"variant": "TQ", **entry}
    if made:
        from .quandle import render_quandle_table
        inputs = {"cocycle": made["cocycle"], "coeff": made["ring"],
                  "degree": made["degree"],
                  "quandle": render_quandle_table(made["quandle"]["table"]),
                  **inputs}
    return _COMMANDS[path][0](_catalog_inputs(inputs, path))


def run_catalog_entry(entry):
    """Execute one catalog check; returns (ok, witness_text_or_None)."""
    from .limits import show
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        return False, "unknown catalog entry kind %s" % show(kind)
    try:
        want = {field: read(entry) for field, read in _KINDS[kind][1].items()}
    except KeyError as exc:
        return False, "%s is missing" % exc.args[0]
    result = _catalog_result(entry)
    for field, value in want.items():
        if value is _SKIP:
            continue
        if field not in result:
            return False, "%s is missing from the report" % field
        if result[field] != value:
            return False, "%s is %s, expected %s" % (
                field, json.dumps(result[field]), json.dumps(value))
    return True, None


def run_catalog(entries):
    global _SHARED
    items, _SHARED = [], {}
    try:
        for i, entry in enumerate(entries):
            eid = entry.get("id", "entry-%d" % i)
            try:
                ok, witness = run_catalog_entry(entry)
            except Exception as exc:  # a broken entry fails, not the run
                ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
            items.append({"id": eid, "pass": ok, "witness": witness})
    finally:
        _SHARED = None
    result = {"items": items,
              "passed": sum(1 for it in items if it["pass"]),
              "failed": sum(1 for it in items if not it["pass"])}
    if not items:
        result["warning"] = "catalog is empty; nothing was verified"
    return result


def _cmd_verify_suite(inputs):
    result = run_catalog(load_catalog(inputs.get("catalog")))
    if "warning" in result:
        print("warning: %s" % result["warning"], file=sys.stderr)
    return result


def _required(help=None, **keywords):
    """add_argument keywords of a required option."""
    return dict(required=True, help=help, **keywords)


# option lists that several commands share
_COMPLEX = [("--quandle", _required("T(n), R(n), A(n;h) or @table-file")),
            ("--coeff", _required("coefficient ring, e.g. \"Z3[T]/(T+1)\"")),
            ("--variant", {"choices": VARIANTS, "default": "TQ"}),
            ("--degree", _required(type=int))]
_CARRY = [("--p", _required(type=int)), ("--m", _required(type=int)),
          ("--h", _required())]
_COCYCLE = ("--cocycle", _required("cochain file"))


def _state_sum_args(flag, what, degree):
    return [(flag, _required(what + " file")), ("--quandle", _required()),
            ("--coeff", _required()),
            ("--cocycle", _required("%d-cochain file" % degree))]


# command path -> (handler, [(flag, add_argument keywords), ...]): the one
# description of the command line, read by build_parser, main and the
# catalog; its order is the order in which the help lists commands
_COMMANDS = {
    "homology": (_cmd_homology, _COMPLEX + [
        ("--oracle", {"action": "store_true",
                      "help": "cross-check with the brute-force engine"})]),
    "cohomology": (_cmd_cohomology, _COMPLEX),
    "cocycle construct modular": (_cmd_construct_family, _CARRY),
    "cocycle construct polynomial": (_cmd_construct_family, _CARRY),
    "cocycle construct dihedral": (_cmd_construct_family,
                                   [("--n", _required(type=int))]),
    "cocycle construct obstruction2": (_cmd_construct_obstruction2, [
        ("--ambient", _required("the ambient module G")),
        ("--sub", _required("generators of N, ';'-separated polynomials")),
        ("--quandle", _required()),
        ("--eta", _required("images in G/N, comma-separated indices")),
        ("--search-lift", {"action": "store_true", "dest": "search_lift"})]),
    "cocycle construct obstruction3": (_cmd_construct_obstruction3, [
        ("--ambient", _required()), ("--sub", _required()),
        ("--quandle", _required()),
        ("--phi", _required("file with a 2-cochain valued in G"))]),
    "cocycle construct lift": (_cmd_construct_lift, [
        ("--quandle", _required()), ("--coeff", _required()),
        ("--seeds", _required("file with seed values"))]),
    "cocycle verify": (_cmd_verify, _COMPLEX + [_COCYCLE]),
    "cocycle pair": (_cmd_pair, _COMPLEX + [
        _COCYCLE, ("--cycle", _required("chain file"))]),
    "quandle info": (_cmd_quandle_info, [("--quandle", _required())]),
    "quandle iso": (_cmd_quandle_iso, [("--first", _required()),
                                       ("--second", _required())]),
    "invariant": (_cmd_invariant, _state_sum_args("--pd", "diagram", 2)),
    "invariant-surface": (_cmd_invariant_surface,
                          _state_sum_args("--surface", "presentation", 3)),
    "verify-suite": (_cmd_verify_suite, [
        ("--catalog", {"help": "path to a catalog JSON file "
                               "(default: the bundled catalog)"})]),
}


# -- parser ------------------------------------------------------------------

# the argparse key of the subcommand at each depth, hashed into the digest
_DESTS = ("subcommand", "action", "family")


def build_parser():
    parser = CliParser(prog="twistq",
                       description="Twisted quandle homology, cocycles and "
                                   "cocycle state-sum invariants.")
    parser.add_argument("--pretty", action="store_true",
                        help="indent the JSON report")
    subs = {(): parser.add_subparsers(dest=_DESTS[0], required=True,
                                      parser_class=CliParser)}
    for path, (_, options) in _COMMANDS.items():
        words = tuple(path.split())
        for depth in range(1, len(words)):
            if words[:depth] not in subs:
                node = subs[words[:depth - 1]].add_parser(words[depth - 1])
                subs[words[:depth]] = node.add_subparsers(
                    dest=_DESTS[depth], required=True, parser_class=CliParser)
        p = subs[words[:-1]].add_parser(words[-1])
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(command_path=path)
    return parser


def main(argv=None):
    started = time.monotonic()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        inputs = _resolve_inputs(args)
        result = _COMMANDS[args.command_path][0](inputs)
    except (OSError, ValueError) as exc:
        # RingError, QuandleError, CocycleError and DiagramError are all
        # ValueErrors: a violated precondition of the computation; an
        # OSError's file name is outside text
        if getattr(exc, "filename", None) is not None:
            from .limits import show
            exc = "[Errno %s] %s: %s" % (exc.errno, exc.strerror,
                                         show(exc.filename))
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, not a refused input; KeyboardInterrupt is no Exception
        message = " ".join(str(exc).split())
        print("internal error: %s: %s" % (type(exc).__name__, message),
              file=sys.stderr)
        return EX_SOFTWARE
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

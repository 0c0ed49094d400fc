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

A process builds and loads only what its command runs: the parser gives
options only to the command that argv's leading words name (every other
command is still registered by name, so usage and help read the same),
each handler imports its computation modules when it runs, hashlib
loads only for a report and the catalog runner, `twistq.catalog`, only
for verify-suite.  A catalog run builds each construct, catalog quandle,
parsed quandle and parsed ring its entries share once, and keeps nothing
once it returns.
"""

import argparse
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


def _load_ring(text):
    from . import coeff
    return _shared(text, coeff.parse_ring, text)


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
    import hashlib  # OpenSSL loads only for a report
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
    g = _load_ring(inputs["ambient"])
    gens = tuple(g.reduce(coeff.parse_poly(s))
                 for s in inputs["sub"].split(";"))
    return cocycles.SesSpec(g, gens)


# -- subcommand handlers -----------------------------------------------------

def _spec_from(inputs):
    from . import chain
    x = _load_quandle(inputs["quandle"])
    ring = _load_ring(inputs["coeff"])
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
    from . import chain, cocycles
    x = _load_quandle(inputs["quandle"])
    ring = _load_ring(inputs["coeff"])
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
    from . import chain
    x = _load_quandle(inputs["quandle"])
    ring = _load_ring(inputs["coeff"])
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


# -- verify-suite ------------------------------------------------------------

def _checker():
    """A catalog checker that runs entries through the command table."""
    from .catalog import Checker
    return Checker(_COMMANDS, ("lift", *_FAMILIES), _shared)


def run_catalog(entries):
    """The verify-suite result of catalog entries; the run shares what
    its entries build, and keeps nothing once it returns."""
    global _SHARED
    _SHARED = {}
    try:
        return _checker().run(entries)
    finally:
        _SHARED = None


def _cmd_verify_suite(inputs):
    from .catalog import load_catalog
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


def build_parser(command=None):
    """The twistq parser; given a command path, only that command gets
    its options.  Every command stays registered by name, so usage, help
    and errors read the same as with all options."""
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
        if command in (None, path):
            for flag, keywords in options:
                p.add_argument(flag, **keywords)
        p.set_defaults(command_path=path)
    return parser


def _command_path(argv):
    """The command path that argv's leading words (those before its first
    option) name, else None.  argparse reaches that command through those
    words alone, so it parses no other command's options."""
    words = []
    for arg in argv:
        if arg.startswith("-"):
            break
        words.append(arg)
    for path in _COMMANDS:
        if path.split() == words[:path.count(" ") + 1]:
            return path
    return None


def main(argv=None):
    started = time.monotonic()
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(_command_path(argv)).parse_args(argv)
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

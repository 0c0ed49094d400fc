"""Verification catalogs: entries that name a command and the answer
its report must hold.

An entry's kind gives the command path whose handler checks it and the
result fields it compares; `run` checks entries through the command
table of `twistq.cli`, in that module's store, which it opens for the
run.  Only `verify-suite` loads this module.
"""

import json
import os

from . import chain, cli, cocycles, quandle
from .limits import integer, show


def load_catalog(text=None):
    if text is None:
        with open(os.path.join(os.path.dirname(__file__), "data",
                               "catalog.json"), encoding="utf-8") as fh:
            text = fh.read()
    try:
        entries = json.loads(text, parse_int=lambda token: integer(
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


def inputs(params, path):
    """The inputs of the command path from a catalog mapping: each
    required option given, an absent option at its declared default, and
    each key that names an option holding its JSON type (an integer, never
    a boolean, for type=int, a boolean for store_true, else a string), or
    for a quandle a mapping, replaced by its table text; others unchecked."""
    out = dict(params)
    for flag, keywords in cli._COMMANDS[path][1]:
        key = keywords.get("dest", flag[2:])
        if key not in out:
            if keywords.get("required"):
                raise ValueError("%s is missing" % key)
            if "default" in keywords:
                out[key] = keywords["default"]
            continue
        value = out[key]
        want = (bool if keywords.get("action") == "store_true"
                else keywords.get("type", str))
        if key in ("quandle", "first", "second") and type(value) is dict:
            out[key] = cli._shared(json.dumps(value, sort_keys=True),
                                   quandle_text, value)
        elif type(value) is not want:  # JSON gives no subclasses
            raise ValueError("%s must be %s" % (key, _JSON_TYPES[want]))
    return out


def construct(params, what="construct"):
    """The report of `cocycle construct <family>` on a catalog construct
    mapping, given as the entry's `what`."""
    if not isinstance(params, dict):
        raise ValueError("%s must be a mapping" % what)
    family = params.get("family")
    if family not in ("lift", *cli._FAMILIES):  # compared, never hashed
        raise cocycles.CocycleError("unknown cocycle family %s"
                                    % show(family))
    path = "cocycle construct " + family
    return cli._shared(json.dumps(params, sort_keys=True),
                       cli._COMMANDS[path][0], inputs(params, path))


def quandle_text(spec):
    """Table text of a {"product": [a, b]} (two quandle names) or
    {"extension": construct} quandle spec."""
    if "product" in spec:
        names = spec["product"]
        if (type(names) is not list or len(names) != 2
                or not all(isinstance(name, str) for name in names)):
            raise ValueError("product must be a list of two strings")
        x = quandle.quandle_product(*map(quandle.quandle_standard, names))
    elif "extension" in spec:
        made = construct(spec["extension"], "extension")
        ring = cli._load_ring(made["ring"])
        x = quandle.quandle_extension(
            quandle.FiniteQuandle(made["quandle"]["table"]), ring,
            chain.parse_cochain(ring, made["cocycle"]))
    else:
        raise ValueError("cannot interpret quandle spec %s" % show(spec))
    return quandle.render_quandle_table(x.table)


def result(entry):
    """The report of the command that checks a catalog entry.  A
    construct's report supplies the command's cocycle, coeff, degree and
    quandle (table text)."""
    path = _KINDS[entry["kind"]][0]
    made = construct(entry["construct"]) if "construct" in entry else {}
    if path is None:
        return made
    if made:
        entry = {"cocycle": made["cocycle"], "coeff": made["ring"],
                 "degree": made["degree"],
                 "quandle": quandle.render_quandle_table(
                     made["quandle"]["table"]),
                 **entry}
    return cli._COMMANDS[path][0](inputs(entry, path))


def check(entry):
    """Execute one catalog check; returns (ok, witness_text_or_None)."""
    kind = entry.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        return False, "unknown catalog entry kind %s" % show(kind)
    try:
        want = {field: read(entry) for field, read in _KINDS[kind][1].items()}
    except KeyError as exc:
        return False, "%s is missing" % exc.args[0]
    report = result(entry)
    for field, value in want.items():
        if value is _SKIP:
            continue
        if field not in report:
            return False, "%s is missing from the report" % field
        if report[field] != value:
            return False, "%s is %s, expected %s" % (
                field, json.dumps(report[field]), json.dumps(value))
    return True, None


def run(entries):
    """The verify-suite result: each entry's pass and witness, and the
    counts, from one run in a store it opens on `twistq.cli` and clears."""
    items = []
    cli._SHARED = {}
    try:
        for i, entry in enumerate(entries):
            eid = entry.get("id", "entry-%d" % i)
            try:
                ok, witness = check(entry)
            except Exception as exc:  # a broken entry fails, not the run
                ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
            items.append({"id": eid, "pass": ok, "witness": witness})
    finally:
        cli._SHARED = None
    passed = sum(it["pass"] for it in items)
    out = {"items": items, "passed": passed, "failed": len(items) - passed}
    if not items:
        out["warning"] = "catalog is empty; nothing was verified"
    return out

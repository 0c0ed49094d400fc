"""Verification catalogs: entries that name a command and the answer
its report must hold.

An entry's kind gives the command path whose handler checks it and the
result fields it compares.  A `Checker` runs entries through the command
line's table, which the front end hands in: this module never imports
`twistq.cli`, since under `python -m twistq.cli` that import would run
the front end a second time, with a table and a shared store of its own.
Only `verify-suite` loads it.
"""

import json

from . import chain, cocycles, coeff, quandle
from .limits import integer, show


def load_catalog(text=None):
    if text is None:
        from importlib import resources
        text = resources.files("twistq").joinpath(
            "data/catalog.json").read_text()
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


class Checker:
    """Checks catalog entries through a command table, {path: (handler,
    [(flag, add_argument keywords), ...])}.  An entry's construct may
    name one of `families`, each a `cocycle construct` path's last word;
    `shared(key, make, *args)` gives make(*args), made once per run."""

    def __init__(self, commands, families, shared):
        self.commands, self.families, self.shared = commands, families, shared

    def inputs(self, params, path):
        """The inputs of the command path from a catalog mapping: each
        required option given, and each key that names an option holding
        the option's JSON type, an integer (never a boolean) for type=int,
        a boolean for store_true and a string for any other, or for a
        quandle a mapping, replaced by its table text.  Other keys pass
        unchecked."""
        inputs = dict(params)
        for flag, keywords in self.commands[path][1]:
            key = keywords.get("dest", flag[2:])
            if key not in inputs:
                if keywords.get("required"):
                    raise ValueError("%s is missing" % key)
                continue
            value = inputs[key]
            want = (bool if keywords.get("action") == "store_true"
                    else keywords.get("type", str))
            if key in ("quandle", "first", "second") and type(value) is dict:
                inputs[key] = self.shared(json.dumps(value, sort_keys=True),
                                          self.quandle_text, value)
            elif type(value) is not want:  # JSON gives no subclasses
                raise ValueError("%s must be %s" % (key, _JSON_TYPES[want]))
        return inputs

    def construct(self, params, what="construct"):
        """The report of `cocycle construct <family>` on a catalog
        construct mapping, given as the entry's `what`."""
        if not isinstance(params, dict):
            raise ValueError("%s must be a mapping" % what)
        family = params.get("family")
        if family not in self.families:  # compared, never hashed
            raise cocycles.CocycleError("unknown cocycle family %s"
                                        % show(family))
        path = "cocycle construct " + family
        return self.shared(json.dumps(params, sort_keys=True),
                           self.commands[path][0], self.inputs(params, path))

    def quandle_text(self, spec):
        """Table text of a {"product": [a, b]} (two quandle names) or
        {"extension": construct} quandle spec."""
        if "product" in spec:
            names = spec["product"]
            if (type(names) is not list or len(names) != 2
                    or not all(isinstance(name, str) for name in names)):
                raise ValueError("product must be a list of two strings")
            x = quandle.quandle_product(*map(quandle.quandle_standard, names))
        elif "extension" in spec:
            made = self.construct(spec["extension"], "extension")
            ring = self.shared(made["ring"], coeff.parse_ring, made["ring"])
            x = quandle.quandle_extension(
                quandle.FiniteQuandle(made["quandle"]["table"]), ring,
                chain.parse_cochain(ring, made["cocycle"]))
        else:
            raise ValueError("cannot interpret quandle spec %s" % show(spec))
        return quandle.render_quandle_table(x.table)

    def result(self, entry):
        """The report of the command that checks a catalog entry.  A
        construct's report supplies the command's cocycle, coeff, degree
        and quandle (table text)."""
        path = _KINDS[entry["kind"]][0]
        made = {}
        if "construct" in entry:
            made = self.construct(entry["construct"])
        if path is None:
            return made
        inputs = {"variant": "TQ", **entry}
        if made:
            inputs = {"cocycle": made["cocycle"], "coeff": made["ring"],
                      "degree": made["degree"],
                      "quandle": quandle.render_quandle_table(
                          made["quandle"]["table"]),
                      **inputs}
        return self.commands[path][0](self.inputs(inputs, path))

    def check(self, entry):
        """Execute one catalog check; returns (ok, witness_text_or_None)."""
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            return False, "unknown catalog entry kind %s" % show(kind)
        try:
            want = {field: read(entry)
                    for field, read in _KINDS[kind][1].items()}
        except KeyError as exc:
            return False, "%s is missing" % exc.args[0]
        result = self.result(entry)
        for field, value in want.items():
            if value is _SKIP:
                continue
            if field not in result:
                return False, "%s is missing from the report" % field
            if result[field] != value:
                return False, "%s is %s, expected %s" % (
                    field, json.dumps(result[field]), json.dumps(value))
        return True, None

    def run(self, entries):
        """The verify-suite result: each entry's pass and witness, and
        the counts."""
        items = []
        for i, entry in enumerate(entries):
            eid = entry.get("id", "entry-%d" % i)
            try:
                ok, witness = self.check(entry)
            except Exception as exc:  # a broken entry fails, not the run
                ok, witness = False, "%s: %s" % (type(exc).__name__, exc)
            items.append({"id": eid, "pass": ok, "witness": witness})
        result = {"items": items,
                  "passed": sum(1 for it in items if it["pass"]),
                  "failed": sum(1 for it in items if not it["pass"])}
        if not items:
            result["warning"] = "catalog is empty; nothing was verified"
        return result

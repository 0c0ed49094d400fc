"""The guard table in `limits`, README's copy of it, `show`, and the
comment rule `lines` gives every line format."""

import re
from pathlib import Path

import pytest

from twistq import limits
from twistq.chain import parse_cochain
from twistq.coeff import parse_ring
from twistq.knot import parse_pd, parse_surface
from twistq.quandle import parse_quandle_table

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_states_the_guard_table():
    rows = re.findall(r"^ *\| ([^|`]+?) \| `(TWISTQ_MAX_\w+)` \| (\d+) \|",
                      README.read_text(), re.MULTILINE)
    assert len(rows) == len(limits.GUARDS)
    assert {stage: (var, int(default)) for stage, var, default in rows} \
        == limits.GUARDS


def test_five_variables_set_the_six_guards():
    assert len({var for var, _ in limits.GUARDS.values()}) == 5



def test_show_picks_the_shape_from_the_type():
    show = limits.show
    assert show(10 ** 20 - 1) == "99999999999999999999"  # 20 digits
    assert show(-(10 ** 20 - 1)) == "-99999999999999999999"
    assert show(10 ** 20) == "~10^20"  # 21 digits
    assert show(-10 ** 20) == "-~10^20"
    assert show(-10 ** 4299) == "-~10^4299"
    assert show(10 ** 4299 - 1) == "~10^4298"
    assert show(limits.power(10, 10 ** 6)) == "~10^1000000"
    assert show(limits.power(10, 10 ** 401)) == "~10^~10^401"
    assert show("a" * 80) == repr("a" * 80)
    assert show("a" * 81) == "%r... (81 characters)" % ("a" * 80)
    assert show((0,) * 26) == repr((0,) * 26)
    assert show((0,) * 81) == "%s... (length 81)" % repr((0,) * 80)[:80]
    assert show({"sum": ["R(3)"]}) == "{'sum': ['R(3)']}"
    long_dict = {"sum": "s" * 100}
    assert show(long_dict) == "%s... (111 characters)" % repr(long_dict)[:80]


def test_power_shows_the_exact_decade_while_it_builds():
    # log10 of 10^4300 - 1 rounds to 4300.0 as a float; the power is
    # built up to 8600 digits, so its decade is counted, not estimated
    show, power = limits.show, limits.power
    assert show(power(10 ** 4300 - 1, 1)) == "~10^4299"
    assert show(power(10 ** 4300 - 1, 2)) == "~10^8599"
    assert show(power(10, 4300)) == "~10^4300"
    assert show(power(10, 4299)) == "~10^4299"
    assert power(10, 4299) == 10 ** 4299  # 4300 digits: still an integer
    assert show(power(2, 10 ** 5)) == "~10^30102"  # estimated
    assert [power(b, e) for b, e in ((0, 3), (1, 10 ** 9), (7, 0))] == \
        [0, 1, 1]


# one text of each line format and a parse of it that compares by value
_R3 = parse_ring("Z3[T]/(T+1)")
_LINE_FORMATS = {
    "table": ("3\n0 2 1\n2 1 0\n1 0 2\n", parse_quandle_table),
    "cochain": ("0,1 -> T\n1,0 -> 1\n2,0 -> 2T + 1\n",
                lambda text: parse_cochain(_R3, text)),
    "diagram": ("Xp[1,3,2,4]\nXp[3,1,4,2]\nface out: 3L\nouter out\n"
                "L 1 0\n", lambda text: vars(parse_pd(text))),
    "surface": ("sheets: x y z\nrel: z = x * y\n"
                "tp: sign=+1 L=0 x=x y=y z=z\n",
                lambda text: vars(parse_surface(text))),
}


@pytest.mark.parametrize("text,parse", _LINE_FORMATS.values(),
                         ids=_LINE_FORMATS.keys())
def test_every_line_format_drops_comments_and_blanks(text, parse):
    rows = text.splitlines()
    commented = "".join(row + "  # note\n" for row in rows)
    spaced = "\n# a comment line\n\n   \n".join(rows) + "\n"
    assert parse(commented) == parse(text)
    assert parse(spaced) == parse(text)


def test_once_keeps_the_first_and_refuses_the_second():
    table = {}
    limits.once(table, "k", 1, LookupError, "key %s", "k")
    with pytest.raises(LookupError, match=r"^key 'k' is declared twice$"):
        limits.once(table, "k", 2, LookupError, "key %s", "k")
    assert table == {"k": 1}

"""The guard table in `limits` and README's copy of it."""

import re
from pathlib import Path

from twistq import limits

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_states_the_guard_table():
    rows = re.findall(r"^ *\| ([^|`]+?) \| `(TWISTQ_MAX_\w+)` \| (\d+) \|",
                      README.read_text(), re.MULTILINE)
    assert len(rows) == len(limits.GUARDS)
    assert {stage: (var, int(default)) for stage, var, default in rows} \
        == limits.GUARDS


def test_five_variables_set_the_six_guards():
    assert len({var for var, _ in limits.GUARDS.values()}) == 5


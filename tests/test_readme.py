"""README's library examples, each ```python block, run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_pass_as_doctests():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    for i, block in enumerate(blocks):
        runner.run(parser.get_doctest(block, {}, "README.md python block %d"
                                      % (i + 1), str(README), 0))
    assert runner.failures == 0

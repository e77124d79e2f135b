"""The README's library quick tour, run as a doctest.

`python -m doctest README.md` cannot run it, since the closing fence
reads as expected output of the last example; so the fenced `python`
block is extracted and run on its own.
"""

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_tour_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    test = doctest.DocTestParser().get_doctest(blocks[0], {}, "README quick tour", str(README), 0)
    assert test.examples
    out = []
    failed, attempted = doctest.DocTestRunner().run(test, out=out.append)
    assert (failed, attempted) == (0, len(test.examples)), "".join(out)

"""The README's library example runs and prints what its comments say."""

import re
from pathlib import Path

from nilsplit.bundles import ForcingReport

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library\n\n```python\n(.*?)^```$", text, re.S | re.M)
    assert block, "README has no python block under 'Library'"
    printed = []
    exec(block.group(1), {"print": printed.append})
    betti, sphere_b2, forcing, total = printed
    assert betti == [1, 3, 4, 3, 1]
    assert sphere_b2 == 1
    assert isinstance(forcing, ForcingReport) and forcing.forced_zero is True
    assert total == (1, 3, 5, 6, 5, 3, 1)

"""The README's library tour runs against the package as it is."""

import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_library_tour_runs():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    tour = re.search(r"^## Library tour\n.*?^```python\n(.*?)^```", text, re.S | re.M)
    assert tour, "README.md has no python block under '## Library tour'"
    exec(compile(tour.group(1), "README.md (library tour)", "exec"), {})

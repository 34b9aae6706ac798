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


def test_readme_guard_table_matches_guards():
    # each row r of the guard table gives the bound for ell - r = 0, 1, 2 and
    # >= 3; GUARDS[r] lists them with its last entry standing for every larger
    # ell - r, and the table has a row for each r listed and no other
    from turanlab.search import GUARDS

    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    header = "| r | ℓ = r | ℓ = r + 1 | ℓ = r + 2 | ℓ ≥ r + 3 |"
    assert header in text, "README.md has no guard table"
    rows = {}
    for line in text[text.index(header):].splitlines()[2:]:
        if not line.startswith("|"):
            break
        r, *cells = [c.strip() for c in line.strip("|").split("|")]
        rows[int(r)] = [int(re.match(r"n ≤ (\d+)", c).group(1)) for c in cells]
    assert rows == {r: [b[min(k, len(b) - 1)] for k in range(4)] for r, b in GUARDS.items()}

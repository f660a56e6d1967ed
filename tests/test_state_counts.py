"""The deterministic state counts of the cop-count scans, pinned.

`golden/measures.json` holds `measure_detailed` (value, states) for all five
measures on switch-all(1), zadeh(1) and 60 seeded 4-7-vertex digraphs.  A
change that moves a count regenerates the file and says so in its change
entry:

    PYTHONPATH=src python tests/test_state_counts.py
"""

import json
from pathlib import Path

import pytest

from copwidth import Variant, gen_random_digraph, gen_switch_all, gen_zadeh, measure_detailed

GOLDEN = Path(__file__).resolve().parent / "golden" / "measures.json"


def corpus():
    """(label, graph) for every graph the file pins."""
    yield "switch-all(1)", gen_switch_all(1)
    yield "zadeh(1)", gen_zadeh(1)
    for i in range(60):
        n, p, seed = 4 + i % 4, (0.2, 0.35, 0.5)[i // 4 % 3], 5000 + i
        yield f"random({n}, {p}, {seed})", gen_random_digraph(n, p, seed)


def state_counts() -> str:
    """The file's text: a JSON list, one graph per line."""
    rows = (
        json.dumps({"graph": label, **{v.value: measure_detailed(g, v) for v in Variant}})
        for label, g in corpus()
    )
    return "[\n" + ",\n".join(rows) + "\n]\n"


def test_state_counts_match_golden():
    assert state_counts() == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "gen, n, value, states",
    [
        (gen_zadeh, 2, 3, 6_681),
        (gen_switch_all, 3, 3, 12_467),
        (gen_switch_all, 4, 3, 27_261),
        (gen_zadeh, 3, 4, 297_177),
    ],
    ids=["zadeh_2", "switch_all_3", "switch_all_4", "zadeh_3"],
)
def test_dpw_scans_of_the_baseline_table(gen, n, value, states):
    # the family cells whose losing k's the `_union` tables speed up
    assert measure_detailed(gen(n), Variant.DPW) == (value, states)


if __name__ == "__main__":
    GOLDEN.write_text(state_counts(), encoding="utf-8")

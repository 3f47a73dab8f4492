"""Golden output digests: the bytes the writers emit for fixed solves.

Each group is one sha256 over the outputs of a fixed list of solves,
committed in ``golden.json``. A change that alters any output of a group
fails that group's test, so every output change is a visible diff of the
digest file. Regenerate the file, after checking that the change is meant,
with::

    PYTHONPATH=src python tests/test_golden.py

and name the groups that changed, and why, with the change.
"""

import hashlib
import json
from pathlib import Path

from sixflow import random_2ec_multigraph, solve
from sixflow.fileio import build_flow_document, format_flow
from sixflow.testkit import flower, grid, petersen, with_root_loops
from sixflow.tutte import group_flow_to_integer_flow, group_flow_to_z6

DIGESTS = Path(__file__).with_name("golden.json")


def writer_graphs():
    """Grids, Petersen with and without root loops, flowers, and small
    graphs of the criterion-7 shape (14 vertices, 2-3k edges)."""
    for rows in range(2, 9):
        for cols in range(2, 9):
            yield grid(rows, cols)
    yield petersen()
    yield with_root_loops(petersen(), 0, 3)
    yield flower([2, 3, 1, 4])
    yield flower([1, 1, 5, 2, 2])
    for extra, seed in ((2_000, 1), (2_500, 2), (3_000, 3)):
        yield random_2ec_multigraph(14, extra, seed)


def writer_digest():
    """sha256 over the text and machine flow files of every graph above,
    solved at every root."""
    h = hashlib.sha256()
    for g in writer_graphs():
        for root in g.vertices():
            flow, _ = solve(g, root)
            int6 = group_flow_to_integer_flow(g, group_flow_to_z6(flow))
            doc = build_flow_document(g, root, flow, int6)
            for fmt in ("text", "machine"):
                h.update(format_flow(doc, fmt).encode())
    return h.hexdigest()


GROUPS = {"writer": writer_digest}


def test_writer_digest():
    assert writer_digest() == json.loads(DIGESTS.read_text())["writer"]


if __name__ == "__main__":
    digests = {name: compute() for name, compute in GROUPS.items()}
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")

"""Correctness gate run on every emitted flow, outside the timed region."""

from __future__ import annotations

from sixflow.fileio import flow_matches_graph, parse_flow
from sixflow.flows import verify_k_flow, verify_rooted


def check_solution(g, root, flow, z6, int6, text):
    """None if the solve output is correct, else a one-line reason."""
    if not verify_rooted(g, root, flow):
        return "group flow fails the rooted check"
    if not verify_k_flow(g, int6, 6):
        return "integer flow is not a nowhere-zero 6-flow"
    if any(int6[e] % 6 != z6[e] for e in g.edge_ids):
        return "integer flow is not congruent to the Z6 flow"
    try:
        doc = parse_flow(text)
    except Exception as exc:  # any parse failure of our own output is a wrong output
        return f"emitted text does not parse: {exc}"
    if not flow_matches_graph(doc, g):
        return "emitted text does not match the graph"
    if doc.root != root or doc.group_flow() != flow or doc.integer_flow() != int6:
        return "emitted text does not round-trip to the computed flow"
    return None

import json

import numpy as np
import pytest

from dagformer import rng
from dagformer.errors import ConfigError, ShapeError
from dagformer.graph import (
    CausalDag, NodeRole, backdoor_dag, build_adjacency, build_mask,
    demand_dag, input_nodes_for, mask_to_additive,
)


def triangle_dag():
    return CausalDag(
        [("X", "confounder"), ("A", "treatment"), ("Y", "outcome")],
        [("X", "A"), ("X", "Y"), ("A", "Y")],
    )


def test_adjacency_confounded_triangle():
    adj = build_adjacency(triangle_dag())
    assert adj.tolist() == [[0, 1, 1], [0, 0, 1], [0, 0, 0]]


def test_adjacency_empty_edges_is_zero():
    dag = CausalDag([("X", "confounder"), ("A", "treatment"), ("Y", "outcome")], [])
    assert not build_adjacency(dag).any()


def test_adjacency_demand_graph_entry_by_entry():
    dag = demand_dag()
    adj = build_adjacency(dag)
    edges = {("A", "Y"), ("U", "A"), ("U", "Y"), ("U", "Z"), ("U", "W"), ("Z", "A"), ("W", "Y")}
    for i, pi in enumerate(dag.names):
        for j, cj in enumerate(dag.names):
            assert adj[i, j] == int((pi, cj) in edges)


def test_mask_confounded_triangle():
    mask = build_mask(build_adjacency(triangle_dag()))
    assert mask.tolist() == [[0, 1, 1], [0, 0, 1], [0, 0, 0]]


def test_mask_no_edges_allows_diagonal_only():
    mask = build_mask(np.zeros((4, 4), dtype=int))
    assert np.array_equal(mask, 1 - np.eye(4, dtype=np.int64))


def test_mask_chain_with_full_parent_set():
    # chain X1 -> X2 -> X3 -> X4: each node sees its direct parent and itself
    names = [f"X{i}" for i in range(1, 5)]
    nodes = [(n, "confounder") for n in names[:-2]] + [(names[-2], "treatment"), (names[-1], "outcome")]
    dag = CausalDag(nodes, list(zip(names[:-1], names[1:])))
    mask = build_mask(build_adjacency(dag))
    for i in range(4):
        for j in range(4):
            allowed = (j == i - 1) or (i == j)
            assert mask[i, j] == (0 if allowed else 1)


def test_mask_requires_square_input():
    with pytest.raises(ShapeError):
        build_mask(np.zeros((2, 3), dtype=int))


def test_mask_additive_form():
    add = mask_to_additive(np.array([[0, 1], [0, 0]]))
    assert add[0, 0] == 0.0 and np.isneginf(add[0, 1])


def _random_dags():
    """1000 random graphs of 2 to 12 nodes as (nodes, edges): each edge runs
    forward along a random node order, drawn with probability 0.3."""
    g = rng.stream(5, "dags")
    for _ in range(1000):
        d = int(g.integers(2, 13))
        order = g.permutation(d)
        names = [f"n{i}" for i in range(d)]
        roles = ["confounder"] * d
        roles[order[0]] = "treatment"
        roles[order[-1]] = "outcome"
        edges = []
        for a in range(d):
            for b in range(a + 1, d):
                if g.random() < 0.3:
                    edges.append((names[order[a]], names[order[b]]))
        yield list(zip(names, roles)), edges


def test_mask_adjacency_duality_over_random_dags():
    for nodes, edges in _random_dags():
        dag = CausalDag(nodes, edges)
        d = dag.n_nodes
        adj = build_adjacency(dag)
        mask = build_mask(adj)
        for i in range(d):
            for j in range(d):
                assert (mask[i, j] == 0) == (adj[j, i] == 1 or i == j)
        assert np.all(np.diag(mask) == 0)


def test_parents_and_ancestors_match_brute_force_over_random_dags():
    g = rng.stream(7, "back edges")
    for nodes, edges in _random_dags():
        dag = CausalDag(nodes, edges)
        names = dag.names
        edge_set = set(edges)
        reach = build_adjacency(dag).astype(bool)
        for k in range(len(names)):  # Warshall: reach[i, j] iff a path runs i -> j
            reach |= reach[:, [k]] & reach[[k], :]
        for c, child in enumerate(names):
            assert dag.parents_of(child) == [p for p in names if (p, child) in edge_set]
            ancestors = [names[a] for a in np.flatnonzero(reach[:, c])]
            assert dag.ancestors_of(child) == set(ancestors)
            if ancestors:  # an edge back to an ancestor closes a cycle
                back = (child, ancestors[int(g.integers(len(ancestors)))])
                with pytest.raises(ConfigError, match="graph contains a directed cycle"):
                    CausalDag(nodes, edges + [back])


@pytest.mark.parametrize("length", range(2, 13))
def test_cycle_of_every_length_rejected(length):
    # a chain n0 -> ... -> n{length-1} and the edge back to n0
    names = [f"n{i}" for i in range(length)]
    chain = list(zip(names, names[1:]))
    CausalDag([(n, "confounder") for n in names], chain)
    with pytest.raises(ConfigError, match="graph contains a directed cycle"):
        CausalDag([(n, "confounder") for n in names], chain + [(names[-1], names[0])])


def test_cycle_rejected():
    g = rng.stream(6, "cycles")
    for _ in range(50):
        d = int(g.integers(2, 8))
        names = [f"n{i}" for i in range(d)]
        roles = ["confounder"] * d
        nodes = list(zip(names, roles))
        i, j = g.choice(d, size=2, replace=False)
        with pytest.raises(ConfigError):
            CausalDag(nodes, [(names[i], names[j]), (names[j], names[i])])


def test_duplicate_names_rejected():
    with pytest.raises(ConfigError):
        CausalDag([("X", "confounder"), ("X", "treatment")], [])


def test_two_treatments_rejected():
    with pytest.raises(ConfigError):
        CausalDag([("A1", "treatment"), ("A2", "treatment")], [])


def test_input_nodes_aipw():
    inputs, heads = input_nodes_for("aipw", triangle_dag())
    assert inputs == ["X", "A", "Y"]
    assert heads == ["A", "Y"]


def test_input_nodes_gformula_and_ipw():
    inputs, heads = input_nodes_for("gformula", triangle_dag())
    assert inputs == ["X", "A", "Y"] and heads == ["Y"]
    inputs, heads = input_nodes_for("ipw", triangle_dag())
    assert inputs == ["X", "A"] and heads == ["A"]


def test_input_nodes_proximal_excludes_unmeasured():
    inputs, heads = input_nodes_for("proximal", demand_dag())
    assert inputs == ["Z", "W", "A", "Y"]
    assert heads == ["Y"]


def test_input_nodes_missing_role_is_config_error():
    no_treatment = CausalDag([("X", "confounder"), ("Y", "outcome")], [("X", "Y")])
    with pytest.raises(ConfigError, match="treatment"):
        input_nodes_for("ipw", no_treatment)
    with pytest.raises(ConfigError, match="proxy"):
        input_nodes_for("proximal", triangle_dag())


def six_role_dag():
    return CausalDag(
        [("U", "unmeasured"), ("Z", "treatment_proxy"), ("X", "confounder"),
         ("W", "outcome_proxy"), ("A", "treatment"), ("Y", "outcome")],
        [("U", "Z"), ("U", "W"), ("U", "A"), ("U", "Y"), ("X", "A"), ("X", "Y"),
         ("Z", "A"), ("W", "Y"), ("A", "Y")],
    )


@pytest.mark.parametrize("method, inputs, heads", [
    ("gformula", ["X", "A", "Y"], ["Y"]),
    ("ipw", ["X", "A"], ["A"]),
    ("aipw", ["X", "A", "Y"], ["A", "Y"]),
    ("proximal", ["Z", "X", "W", "A", "Y"], ["Y"]),
])
def test_input_nodes_on_a_graph_with_every_role(method, inputs, heads):
    # inputs in DAG order, heads in head order; the unmeasured node is never an input
    assert input_nodes_for(method, six_role_dag()) == (inputs, heads)


def test_numeric_node_names_are_names_not_indices():
    # node "1" is the treatment and "0" the outcome: the edge [1, 0] is 1 -> 0
    dag = CausalDag([(1, "treatment"), (0, "outcome")], [(1, 0)])
    assert dag.names == ["1", "0"]
    assert dag.parents_of("0") == ["1"] and dag.parents_of("1") == []
    assert CausalDag.from_dict(json.loads('{"nodes": [{"name": 1, "role": "treatment"}, '
                                          '{"name": 0, "role": "outcome"}], '
                                          '"edges": [[1, 0]]}')) == dag
    with pytest.raises(ConfigError, match="references unknown node"):
        CausalDag([("A", "treatment"), ("Y", "outcome")], [(0, 1)])


def test_json_roundtrip_is_bit_exact():
    dag = demand_dag()
    text = json.dumps(dag.to_dict(), sort_keys=True)
    again = CausalDag.from_dict(json.loads(text))
    assert again == dag
    assert json.dumps(again.to_dict(), sort_keys=True) == text


def test_parents_and_ancestors():
    dag = demand_dag()
    assert set(dag.parents_of("Y")) == {"U", "W", "A"}
    assert dag.ancestors_of("Y") == {"U", "W", "A", "Z"}
    assert dag.ancestors_of("Z") == {"U"}


def test_induced_subgraph_keeps_order_and_edges():
    dag = demand_dag()
    sub = dag.induced_subgraph(["Z", "W", "A", "Y"])
    assert sub.names == ["Z", "W", "A", "Y"]
    got = {(sub.names[p], sub.names[c]) for p, c in sub.edges}
    assert got == {("Z", "A"), ("W", "Y"), ("A", "Y")}


def test_backdoor_dag_shape():
    dag = backdoor_dag(["X1", "X2"])
    assert dag.names == ["X1", "X2", "A", "Y"]
    assert dag.role_of("A") is NodeRole.TREATMENT
    adj = build_adjacency(dag)
    assert adj[dag.index["A"], dag.index["Y"]] == 1
    assert adj[dag.index["X1"], dag.index["A"]] == 1


def _demand_dag_plus(*edges):
    dag = demand_dag()
    return CausalDag(zip(dag.names, dag.roles),
                     [(dag.names[p], dag.names[c]) for p, c in dag.edges] + list(edges))


@pytest.mark.parametrize("dag, message", [
    # the bridge's head would read Z as a raw parent, which h_hat fills with its mean
    (_demand_dag_plus(("Z", "Y")), "the treatment_proxy 'Z' is a parent of the head 'Y'"),
    (_demand_dag_plus(("A", "W")), "the outcome_proxy 'W' descends from the treatment 'A'"),
    (_demand_dag_plus(("Z", "W")),
     "the outcome_proxy 'W' descends from the treatment_proxy 'Z'"),
    # acyclic because Z does not cause A here
    (CausalDag([("U", "unmeasured"), ("Z", "treatment_proxy"), ("W", "outcome_proxy"),
                ("A", "treatment"), ("Y", "outcome")],
               [("U", "A"), ("U", "Y"), ("U", "W"), ("W", "Y"), ("A", "Y"), ("Y", "Z")]),
     "the treatment_proxy 'Z' descends from the outcome 'Y'"),
], ids=["Z->Y", "A->W", "Z->W", "Y->Z"])
def test_proximal_graph_that_breaks_a_proxy_rule_is_config_error(dag, message):
    with pytest.raises(ConfigError, match=f"^proximal method: {message}"):
        input_nodes_for("proximal", dag)
    for method in ("gformula", "ipw", "aipw"):  # they read no proxy
        input_nodes_for(method, dag)

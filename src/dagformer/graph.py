"""Causal DAGs with role-tagged nodes, compiled into attention masks.

The node order fixed at construction is authoritative: it defines row and
column order of the adjacency matrix, the attention mask, and every derived
model structure, and it is preserved by serialization.
"""

import graphlib
from enum import Enum

import numpy as np

from .errors import ConfigError, ShapeError


class NodeRole(str, Enum):
    TREATMENT = "treatment"
    OUTCOME = "outcome"
    CONFOUNDER = "confounder"
    UNMEASURED = "unmeasured"
    TREATMENT_PROXY = "treatment_proxy"
    OUTCOME_PROXY = "outcome_proxy"


class CausalDag:
    """Directed acyclic graph over named, role-tagged nodes.

    Immutable after construction; acyclicity, name uniqueness and role
    multiplicity (at most one treatment, at most one outcome) are verified
    up front. An edge is a (parent, child) pair of node names; an end is
    converted by `str`, as a node's name is, so a JSON number names a node.
    """

    def __init__(self, nodes, edges):
        self.names: list[str] = []
        self.roles: list[NodeRole] = []
        for name, role in nodes:
            if role not in tuple(NodeRole):
                raise ConfigError(f"node {name!r} has unknown role {role!r}, "
                                  f"expected one of {[r.value for r in NodeRole]}")
            self.names.append(str(name))
            self.roles.append(NodeRole(role))
        if len(set(self.names)) != len(self.names):
            raise ConfigError(f"duplicate node names in {self.names}")
        for role in (NodeRole.TREATMENT, NodeRole.OUTCOME):
            if self.roles.count(role) > 1:
                raise ConfigError(f"more than one {role.value} node")
        self.index = {name: i for i, name in enumerate(self.names)}
        edge_idx = set()
        for parent, child in edges:
            p, c = (self.index.get(str(end), -1) for end in (parent, child))
            if p < 0 or c < 0:
                raise ConfigError(f"edge ({parent}, {child}) references unknown node")
            if p == c:
                raise ConfigError(f"self-loop on node {self.names[p]}")
            edge_idx.add((p, c))
        self.edges: tuple = tuple(sorted(edge_idx))
        self._parents: list[list[str]] = [[] for _ in self.names]
        for p, c in self.edges:
            self._parents[c].append(self.names[p])
        try:
            graphlib.TopologicalSorter(dict(zip(self.names, self._parents))).prepare()
        except graphlib.CycleError:
            raise ConfigError("graph contains a directed cycle") from None

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    def role_of(self, name: str) -> NodeRole:
        return self.roles[self.index[name]]

    def nodes_with_role(self, role: NodeRole) -> list[str]:
        return [n for n, r in zip(self.names, self.roles) if r is role]

    def single_node(self, role: NodeRole) -> str:
        found = self.nodes_with_role(role)
        if len(found) != 1:
            raise ConfigError(f"graph needs exactly one {role.value} node, found {len(found)}")
        return found[0]

    def parents_of(self, name: str) -> list[str]:
        return list(self._parents[self.index[name]])

    def ancestors_of(self, name: str) -> set[str]:
        result: set[str] = set()
        frontier = [name]
        while frontier:
            node = frontier.pop()
            for parent in self.parents_of(node):
                if parent not in result:
                    result.add(parent)
                    frontier.append(parent)
        return result

    def induced_subgraph(self, keep: list[str]) -> "CausalDag":
        """Subgraph over `keep` (in this graph's node order) with its edges."""
        keep_set = set(keep)
        nodes = [(n, r) for n, r in zip(self.names, self.roles) if n in keep_set]
        edges = [(self.names[p], self.names[c]) for p, c in self.edges
                 if self.names[p] in keep_set and self.names[c] in keep_set]
        return CausalDag(nodes, edges)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "nodes": [{"name": n, "role": r.value} for n, r in zip(self.names, self.roles)],
            "edges": [[self.names[p], self.names[c]] for p, c in self.edges],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CausalDag":
        d = d if isinstance(d, dict) else {}
        nodes, edges = d.get("nodes"), d.get("edges")
        if not (isinstance(nodes, list) and isinstance(edges, list)
                and all(isinstance(nd, dict) and {"name", "role"} <= nd.keys() for nd in nodes)
                and all(isinstance(e, list) and len(e) == 2 for e in edges)):
            raise ConfigError("a graph needs 'nodes', a list of objects with a 'name' and a "
                              "'role', and 'edges', a list of [parent, child] pairs")
        return cls([(nd["name"], nd["role"]) for nd in nodes], [tuple(e) for e in edges])

    def __eq__(self, other):
        return (isinstance(other, CausalDag) and self.names == other.names
                and self.roles == other.roles and self.edges == other.edges)

    def __repr__(self):
        return f"CausalDag(nodes={self.names}, edges={len(self.edges)})"


def build_adjacency(dag: CausalDag) -> np.ndarray:
    """0/1 matrix with adj[i, j] = 1 iff there is an edge node_i -> node_j."""
    d = dag.n_nodes
    adj = np.zeros((d, d), dtype=np.int64)
    for p, c in dag.edges:
        adj[p, c] = 1
    return adj


def build_mask(adj: np.ndarray) -> np.ndarray:
    """Attention mask from an adjacency matrix: 1 = forbidden, 0 = allowed.

    Position (i, j) is allowed iff j is a parent of i (adj[j, i] = 1) or
    i == j, so attention flows only along causal edges plus self-attention.
    """
    adj = np.asarray(adj)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ShapeError(f"adjacency must be square, got {adj.shape}")
    allowed = (adj.T == 1) | np.eye(adj.shape[0], dtype=bool)
    return np.where(allowed, 0, 1).astype(np.int64)


def mask_to_additive(mask: np.ndarray) -> np.ndarray:
    """Score-space form of the mask: 0 where allowed, -inf where forbidden."""
    return np.where(np.asarray(mask) == 0, 0.0, -np.inf)


# Per base method: the roles of its model's inputs, the roles of its heads in
# head order, and the input roles that only its objective reads, which no
# other position attends to and no head has as a parent: the bridge h(A, W, X)
# never reads the treatment proxy. No row lists the unmeasured role, so such a
# node is never an input. Every input role but the confounder must be held by
# some node.
METHOD_ROLES = {
    "gformula": ((NodeRole.CONFOUNDER, NodeRole.TREATMENT, NodeRole.OUTCOME), (NodeRole.OUTCOME,),
                 ()),
    "ipw": ((NodeRole.CONFOUNDER, NodeRole.TREATMENT), (NodeRole.TREATMENT,), ()),
    "aipw": ((NodeRole.CONFOUNDER, NodeRole.TREATMENT, NodeRole.OUTCOME),
             (NodeRole.TREATMENT, NodeRole.OUTCOME), ()),
    "proximal": ((NodeRole.CONFOUNDER, NodeRole.TREATMENT_PROXY, NodeRole.OUTCOME_PROXY,
                  NodeRole.TREATMENT, NodeRole.OUTCOME), (NodeRole.OUTCOME,),
                 (NodeRole.TREATMENT_PROXY,)),
}


def input_nodes_for(method: str, dag: CausalDag) -> tuple[list[str], list[str]]:
    """Model input nodes and output-head nodes for an estimation method.

    Returns (input node names in DAG order, head node names), as read from
    `METHOD_ROLES`. Every method needs one treatment and one outcome node.
    No head may have a parent whose role only the objective reads. For a
    method that reads proxies, an outcome proxy may not descend from the
    treatment or a treatment proxy, and a treatment proxy may not descend
    from the outcome (Tchetgen Tchetgen et al. 2020). A graph that breaks a
    rule is a ConfigError naming the method and both nodes.
    """
    if method not in METHOD_ROLES:
        raise ConfigError(f"unknown method {method!r}, expected one of {tuple(METHOD_ROLES)}")
    treatment = dag.single_node(NodeRole.TREATMENT)
    outcome = dag.single_node(NodeRole.OUTCOME)
    input_roles, head_roles, objective_roles = METHOD_ROLES[method]
    for role in input_roles:
        if role is not NodeRole.CONFOUNDER and not dag.nodes_with_role(role):
            article = "an" if role.value[0] in "aeiou" else "a"
            raise ConfigError(f"{method} method requires {article} {role.value} node")
    heads = [dag.single_node(role) for role in head_roles]
    for head in heads:
        for parent in dag.parents_of(head):
            if dag.role_of(parent) in objective_roles:
                raise ConfigError(f"{method} method: the {dag.role_of(parent).value} "
                                  f"{parent!r} is a parent of the head {head!r}, which must "
                                  f"not read it")
    if NodeRole.OUTCOME_PROXY in input_roles:
        treatment_proxies = dag.nodes_with_role(NodeRole.TREATMENT_PROXY)
        for proxy in dag.nodes_with_role(NodeRole.OUTCOME_PROXY):
            ancestors = dag.ancestors_of(proxy)
            for cause in [treatment] + treatment_proxies:
                if cause in ancestors:
                    raise ConfigError(f"{method} method: the outcome_proxy {proxy!r} descends "
                                      f"from the {dag.role_of(cause).value} {cause!r}")
        for proxy in treatment_proxies:
            if outcome in dag.ancestors_of(proxy):
                raise ConfigError(f"{method} method: the treatment_proxy {proxy!r} descends "
                                  f"from the outcome {outcome!r}")
    inputs = [n for n, r in zip(dag.names, dag.roles) if r in input_roles]
    return inputs, heads


# -- stock graphs -----------------------------------------------------------

def backdoor_dag(confounders: list[str], treatment: str = "A", outcome: str = "Y") -> CausalDag:
    """Classic adjustment graph: every confounder points at both A and Y."""
    nodes = [(x, NodeRole.CONFOUNDER) for x in confounders]
    nodes += [(treatment, NodeRole.TREATMENT), (outcome, NodeRole.OUTCOME)]
    edges = [(x, treatment) for x in confounders] + [(x, outcome) for x in confounders]
    edges.append((treatment, outcome))
    return CausalDag(nodes, edges)


def demand_dag() -> CausalDag:
    """Price/sales graph with unmeasured demand and its two proxies."""
    nodes = [
        ("U", NodeRole.UNMEASURED),
        ("Z", NodeRole.TREATMENT_PROXY),
        ("W", NodeRole.OUTCOME_PROXY),
        ("A", NodeRole.TREATMENT),
        ("Y", NodeRole.OUTCOME),
    ]
    edges = [("A", "Y"), ("U", "A"), ("U", "Y"), ("U", "Z"), ("U", "W"), ("Z", "A"), ("W", "Y")]
    return CausalDag(nodes, edges)

"""Splitting a structured (sub-)topology into *units* (Sec. IV-C.1).

Within a structured topology the number of MC-trees can still blow up
wherever substream choices multiply: at merge-then-split operators, at join
operators with merge inputs, and (a case the paper's prose does not call out
but its bound requires) at merges stacked in series.  Units are connected
groups of operators cut at those points, so that the number of *segments*
(MC-trees of a unit) stays proportional to the largest fan-in inside the
unit instead of growing multiplicatively across the topology.

Boundary rules for an internal edge ``U -> D``:

* pattern ``FULL`` — always a boundary (inside structured sub-topologies only
  output operators may use full partitioning);
* pattern ``MERGE`` and ``D`` is a correlated-input operator — Fig. 3(b);
* pattern ``MERGE`` and ``D`` has a split (or full) output — Fig. 3(a);
* pattern ``MERGE`` and ``U``'s unit already contains a merge edge — keeps
  merges from stacking in series within one unit (our addition: the case
  above that the paper's bound requires but its prose does not state).
"""

from __future__ import annotations

from typing import Iterable

from repro.topology.graph import Topology
from repro.topology.partitioning import Partitioning


class _UnionFind:
    """Minimal union-find over operator names with a ``has_merge`` payload."""

    def __init__(self, names: Iterable[str]):
        self._parent = {name: name for name in names}
        self._has_merge = {name: False for name in names}

    def find(self, name: str) -> str:
        root = name
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[name] != root:  # path compression
            self._parent[name], name = root, self._parent[name]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        self._parent[rb] = ra
        self._has_merge[ra] = self._has_merge[ra] or self._has_merge[rb]

    def has_merge(self, name: str) -> bool:
        return self._has_merge[self.find(name)]

    def mark_merge(self, name: str) -> None:
        self._has_merge[self.find(name)] = True

    def groups(self) -> list[frozenset[str]]:
        by_root: dict[str, set[str]] = {}
        for name in self._parent:
            by_root.setdefault(self.find(name), set()).add(name)
        return [frozenset(group) for group in by_root.values()]


def _has_fanout_output(topology: Topology, name: str, allowed: set[str]) -> bool:
    """Whether ``name`` has a split or full output edge inside ``allowed``."""
    for edge in topology.edges():
        if edge.upstream != name or edge.downstream not in allowed:
            continue
        if edge.pattern in (Partitioning.SPLIT, Partitioning.FULL):
            return True
    return False


def split_into_units(topology: Topology, ops: Iterable[str]) -> list[frozenset[str]]:
    """Partition ``ops`` into units, returned in topological order of their heads."""
    allowed = set(ops)
    uf = _UnionFind(allowed)
    for name in topology.topological_order():
        if name not in allowed:
            continue
        spec = topology.operator(name)
        for upstream in topology.upstream_of(name):
            if upstream not in allowed:
                continue
            pattern = topology.edge(upstream, name).pattern
            if pattern is Partitioning.FULL:
                continue  # boundary
            if pattern is Partitioning.MERGE:
                boundary = (
                    spec.is_correlated
                    or _has_fanout_output(topology, name, allowed)
                    or uf.has_merge(upstream)
                )
                if boundary:
                    continue
                uf.union(upstream, name)
                uf.mark_merge(name)
            else:
                uf.union(upstream, name)

    order = {name: pos for pos, name in enumerate(topology.topological_order())}
    groups = uf.groups()
    groups.sort(key=lambda group: min(order[name] for name in group))
    return groups


def unit_neighbours(topology: Topology, units: list[frozenset[str]]
                    ) -> dict[int, set[int]]:
    """Adjacency (undirected) between unit indices, via any connecting edge."""
    index_of: dict[str, int] = {}
    for pos, unit in enumerate(units):
        for name in unit:
            index_of[name] = pos
    neighbours: dict[int, set[int]] = {pos: set() for pos in range(len(units))}
    for edge in topology.edges():
        up = index_of.get(edge.upstream)
        down = index_of.get(edge.downstream)
        if up is None or down is None or up == down:
            continue
        neighbours[up].add(down)
        neighbours[down].add(up)
    return neighbours

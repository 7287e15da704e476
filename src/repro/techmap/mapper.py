"""Dynamic-programming tree-covering technology mapper (area-oriented).

The network DAG is partitioned into maximal fanout-free cones (every
multi-fanout node and every primary output is a cone root).  Within each
cone, the classic tree-covering recurrence applies: the best cost at a
node is the minimum over library gates whose pattern tree matches the
local structure, of the gate area plus the best costs of the subtrees at
the pattern leaves.  Matching handles commutativity of AND/OR/XOR by
trying both operand orders.

The mapper is area-only (the paper's comparison metric) and returns both
the total area and the chosen cover for inspection.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.techmap.genlib import Gate, GateLibrary
from repro.techmap.network import LogicNetwork


@dataclass
class MappedGate:
    """One chosen library cell: gate, root node id, leaf node ids."""

    gate: Gate
    root: int
    leaves: tuple[int, ...]


@dataclass
class MappingResult:
    """Outcome of mapping a network onto a library."""

    area: float
    gates: list[MappedGate]

    def gate_histogram(self) -> dict[str, int]:
        """Count of instances per cell name."""
        histogram: dict[str, int] = {}
        for mapped in self.gates:
            histogram[mapped.gate.name] = histogram.get(mapped.gate.name, 0) + 1
        return histogram


class MappingError(RuntimeError):
    """No library pattern matches a network node (incomplete library)."""


def _match(
    network: LogicNetwork,
    pattern: tuple,
    node_id: int,
    is_root: bool,
    roots: set[int],
    bindings: list[int],
) -> list[list[int]]:
    """All ways to match ``pattern`` at ``node_id``.

    Returns a list of leaf-binding lists (node ids where pattern
    variables attach).  Internal pattern nodes must not cross cone
    boundaries (non-root multi-fanout nodes).
    """
    kind = pattern[0]
    if kind == "var":
        return [bindings + [node_id]]
    node = network.nodes[node_id]
    if not is_root and node_id in roots:
        return []  # crossing into another cone
    if kind == "const":
        expected = "const1" if pattern[1] else "const0"
        return [bindings] if node.kind == expected else []
    if kind == "not":
        if node.kind != "not":
            return []
        return _match(network, pattern[1], node.fanins[0], False, roots, bindings)
    if kind in ("and", "or", "xor"):
        if node.kind != kind:
            return []
        left_id, right_id = node.fanins
        results = []
        for first, second in ((left_id, right_id), (right_id, left_id)):
            for partial in _match(network, pattern[1], first, False, roots, bindings):
                results.extend(
                    _match(network, pattern[2], second, False, roots, partial)
                )
            if left_id == right_id:
                break  # symmetric operands: avoid duplicate matches
        return results
    raise ValueError(f"bad pattern node {kind!r}")


def map_network_for_area(
    network: LogicNetwork, library: GateLibrary
) -> MappingResult:
    """Map a network onto the library, minimizing total area.

    Iterative throughout, so a left-deep chain of any length (the OR of
    a wide cover) maps without recursing: the nodes reachable from the
    outputs are solved in id order, which is topological because fanins
    are created before their users, and the chosen cover is collected
    with an explicit stack.
    """
    nodes = network.nodes
    fanouts = network.fanout_counts()
    roots = {
        node_id
        for node_id, node in enumerate(nodes)
        if node.kind not in ("input",) and fanouts[node_id] > 1
    }
    roots |= set(network.outputs.values())

    # Library gates by the node kind their pattern root can match, in
    # library order; buffers match anything and add no logic.
    gates_by_kind: dict[str, list[Gate]] = {}
    for gate in library:
        kind = gate.pattern[0]
        if kind == "var":
            continue
        if kind == "const":
            kind = "const1" if gate.pattern[1] else "const0"
        gates_by_kind.setdefault(kind, []).append(gate)

    reachable = [False] * len(nodes)
    for node_id in network.outputs.values():
        reachable[node_id] = True
    for node_id in range(len(nodes) - 1, -1, -1):
        if reachable[node_id]:
            for fanin in nodes[node_id].fanins:
                reachable[fanin] = True

    best_cost = [0.0] * len(nodes)
    best_choice: list[MappedGate | None] = [None] * len(nodes)
    for node_id, node in enumerate(nodes):
        if not reachable[node_id] or node.kind == "input":
            continue
        best = float("inf")
        chosen: MappedGate | None = None
        for gate in gates_by_kind.get(node.kind, ()):
            for leaves in _match(network, gate.pattern, node_id, True, roots, []):
                cost = gate.area + sum(best_cost[leaf] for leaf in leaves)
                if cost < best:
                    best = cost
                    chosen = MappedGate(gate, node_id, tuple(leaves))
        if chosen is None:
            raise MappingError(
                f"no library gate matches node {node_id} ({node.kind})"
            )
        best_cost[node_id] = best
        best_choice[node_id] = chosen

    # Total area: each cone root is mapped once; leaf costs below other
    # roots are counted at those roots, so sum roots' *local* gate areas.
    # A cone root met as a leaf is collected on the spot, before the
    # rest of the current cone (one frame per open cone), which keeps
    # the summation order — and so the float total — fixed.
    total = 0.0
    gates: list[MappedGate] = []
    visited: set[int] = set()
    frames: list[tuple[list[MappedGate], Iterator[int]]] = []

    def open_cone(node_id: int) -> None:
        if node_id in visited:
            return
        visited.add(node_id)
        if nodes[node_id].kind != "input":
            frames.append(([best_choice[node_id]], iter(())))

    for output_root in set(network.outputs.values()):
        open_cone(output_root)
        while frames:
            pending, leaves = frames[-1]
            leaf = next(leaves, None)
            if leaf is not None:
                if nodes[leaf].kind == "input":
                    continue
                if leaf in roots:
                    open_cone(leaf)
                else:
                    pending.append(best_choice[leaf])
                continue
            if not pending:
                frames.pop()
                continue
            mapped = pending.pop()
            total += mapped.gate.area
            gates.append(mapped)
            frames[-1] = (pending, iter(mapped.leaves))
    return MappingResult(area=total, gates=gates)

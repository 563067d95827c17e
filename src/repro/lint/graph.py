"""Graph view of a :class:`~repro.pulsesim.netlist.Circuit` for analysis.

The linter's rules and the pulse-flow analyzer (:mod:`repro.analyze`)
all consume this one pre-computed view: per-port fan-in and fan-out
indexes, element-level adjacency, reachability from the stimulus entry
points, a topological order, and combinational strongly-connected
components.

Storage-role cells (:class:`~repro.pulsesim.element.CellRole.STORAGE`)
play the role registers play in synchronous logic: they absorb pulses,
so they legally break feedback loops.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.pulsesim.element import CellRole, Element
from repro.pulsesim.netlist import Circuit, Wire

#: An (element, port) endpoint, the currency of the whole linter.
Endpoint = Tuple[Element, str]


class CircuitGraph:
    """Immutable analysis indexes over one circuit.

    Args:
        circuit: The netlist under analysis.
        entry_points: ``(element, input_port)`` pairs driven by external
            stimulus (block inputs, testbench drives).  These seed
            reachability; a port that is neither wired nor an entry
            point is *floating*.
        observed_outputs: ``(element, output_port)`` pairs that are
            architecturally observed (block outputs).  Probed ports are
            always considered observed.
    """

    def __init__(
        self,
        circuit: Circuit,
        entry_points: Iterable[Endpoint] = (),
        observed_outputs: Iterable[Endpoint] = (),
    ):
        self.circuit = circuit
        self.entry_points: Set[Tuple[int, str]] = {
            (id(element), port) for element, port in entry_points
        }
        self.entry_elements: Dict[int, Element] = {
            id(element): element for element, _ in entry_points
        }
        self.observed: Set[Tuple[int, str]] = {
            (id(element), port) for element, port in observed_outputs
        }
        for element, port in circuit.probed_ports():
            self.observed.add((id(element), port))

        # Per-port indexes: snapshots of the circuit's own wire buckets
        # (same (id, port) keying), copied so later connect() calls do not
        # leak into this graph's view.
        self.out_wires: Dict[Tuple[int, str], List[Wire]] = {
            key: list(wires) for key, wires in circuit._fanout.items()
        }
        self.in_wires: Dict[Tuple[int, str], List[Wire]] = {
            key: list(wires) for key, wires in circuit._fanin.items()
        }
        # Element-level adjacency (ids, stable under mutation-free analysis).
        self.successors: Dict[int, List[Wire]] = {id(e): [] for e in circuit.elements}
        for wire in circuit.iter_wires():
            self.successors[id(wire.source)].append(wire)
        self._order: Optional[Tuple[List[Element], bool]] = None

    # -- port-level queries -------------------------------------------------
    def fan_out(self, element: Element, port: str) -> List[Wire]:
        return self.out_wires.get((id(element), port), [])

    def fan_in(self, element: Element, port: str) -> List[Wire]:
        return self.in_wires.get((id(element), port), [])

    def is_entry(self, element: Element, port: str) -> bool:
        return (id(element), port) in self.entry_points

    def is_driven(self, element: Element, port: str) -> bool:
        """Whether an input port receives pulses (wired or external)."""
        return bool(self.fan_in(element, port)) or self.is_entry(element, port)

    def is_observed(self, element: Element, port: str) -> bool:
        return (id(element), port) in self.observed

    # -- reachability --------------------------------------------------------
    def reachable_elements(self) -> Set[int]:
        """Ids of elements reachable from any entry point (BFS over wires)."""
        frontier = deque(self.entry_elements.values())
        seen: Set[int] = {id(e) for e in frontier}
        while frontier:
            element = frontier.popleft()
            for wire in self.successors[id(element)]:
                sink_id = id(wire.sink)
                if sink_id not in seen:
                    seen.add(sink_id)
                    frontier.append(wire.sink)
        return seen

    # -- topology ------------------------------------------------------------
    def topological_order(self) -> Tuple[List[Element], bool]:
        """Elements, dependencies first (Kahn), with any cyclic residue
        appended in circuit order; and whether the netlist is acyclic.

        Computed once per graph: the combinational-loop rule and the
        pulse-flow analyzer's evaluation plan both read it.
        """
        if self._order is None:
            elements = list(self.circuit.elements)
            indegree: Dict[int, int] = {id(e): 0 for e in elements}
            for wires in self.successors.values():
                for wire in wires:
                    indegree[id(wire.sink)] += 1
            by_id = {id(e): e for e in elements}
            ready = deque(e for e in elements if not indegree[id(e)])
            order: List[Element] = []
            while ready:
                element = ready.popleft()
                order.append(element)
                for wire in self.successors[id(element)]:
                    sid = id(wire.sink)
                    indegree[sid] -= 1
                    if indegree[sid] == 0:
                        ready.append(by_id[sid])
            acyclic = len(order) == len(elements)
            if not acyclic:  # feedback: append the cyclic residue
                placed = {id(e) for e in order}
                order.extend(e for e in elements if id(e) not in placed)
            self._order = (order, acyclic)
        return self._order

    # -- combinational loops -------------------------------------------------
    def combinational_cycles(self) -> List[List[Element]]:
        """Cycles whose every member lacks the STORAGE role.

        Uses Tarjan's SCC algorithm restricted to the subgraph of
        non-storage elements; an SCC of size > 1 (or a self-loop) is a
        pulse racetrack: every cell re-emits immediately, so one pulse
        circulates forever.  An acyclic netlist has none.
        """
        if self.topological_order()[1]:
            return []
        elements = [
            e for e in self.circuit.elements if not e.has_role(CellRole.STORAGE)
        ]
        member = {id(e): e for e in elements}
        index: Dict[int, int] = {}
        lowlink: Dict[int, int] = {}
        on_stack: Set[int] = set()
        stack: List[int] = []
        counter = [0]
        cycles: List[List[Element]] = []

        def neighbours(eid: int) -> List[int]:
            return [
                id(w.sink) for w in self.successors[eid] if id(w.sink) in member
            ]

        def strongconnect(root: int) -> None:
            # Iterative Tarjan (netlists can be deep chains).
            work = [(root, iter(neighbours(root)))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                eid, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(neighbours(succ))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[eid] = min(lowlink[eid], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[eid])
                if lowlink[eid] == index[eid]:
                    component: List[int] = []
                    while True:
                        node = stack.pop()
                        on_stack.discard(node)
                        component.append(node)
                        if node == eid:
                            break
                    if len(component) > 1 or any(
                        id(w.sink) == component[0]
                        for w in self.successors[component[0]]
                    ):
                        cycles.append([member[n] for n in reversed(component)])

        for element in elements:
            if id(element) not in index:
                strongconnect(id(element))
        return cycles

"""Independent output checks.

Each check compares what the program returned with an answer the
benchmark derives on its own, never with a value the checked code path
computed for itself:

* ``dpu.dot`` counts against the functional model
  :meth:`repro.core.dpu.DpuModel.output_count`, not the structural
  simulation that served them;
* synthesized programs against :func:`dataflow_levels`, an evaluation of
  the generated document under the slot-multiset semantics of the two
  unary encodings (paper section 3), not ``expected_level`` from the
  compiler;
* sharded recordings against one monolithic sealed run of the same
  NoC-augmented circuit (see ``workloads.ShardFabric``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Sequence


def uniform_slots(level: int, n_max: int) -> List[int]:
    """Slots of a ``level``-pulse stream literal spread over the epoch."""
    return [k * n_max // level for k in range(level)]


def dataflow_levels(doc: Mapping[str, Any]) -> Dict[str, int]:
    """Decoded level of every output of a ``usfq-dataflow/1`` document.

    A stream value is the multiset of slots its pulses occupy and decodes
    to its size; a Race-Logic value is its one slot.  ``mul`` keeps the
    stream pulses in slots below the weight's slot, ``add`` unites
    multisets, ``delay`` shifts slots, and ``tap``/``matvec`` are sums of
    such products.
    """
    n_max = 1 << doc["bits"]
    streams: Dict[str, List[int]] = {}
    weights: Dict[str, int] = {}

    def gate(ticks: Sequence[int], slot: int) -> List[int]:
        return [t for t in ticks if t < slot]

    for node in doc["nodes"]:
        ref, op, args = node["id"], node["op"], node.get("args", [])
        if op == "const":
            if node["encoding"] == "stream":
                streams[ref] = uniform_slots(node["level"], n_max)
            else:
                weights[ref] = node["level"]
        elif op == "add":
            streams[ref] = sorted(t for a in args for t in streams[a])
        elif op == "mul":
            streams[ref] = gate(streams[args[0]], weights[args[1]])
        elif op == "delay":
            if args[0] in weights:
                weights[ref] = weights[args[0]] + node["slots"]
            else:
                streams[ref] = [t + node["slots"] for t in streams[args[0]]]
        elif op == "tap":
            source = streams[args[0]]
            lag = node.get("spacing", 1)
            streams[ref] = sorted(
                t + i * lag
                for i, weight in enumerate(node["taps"])
                for t in gate(source, weight - i * lag)
            )
        elif op == "matvec":
            for row_index, row in enumerate(node["matrix"]):
                streams[f"{ref}.y{row_index}"] = sorted(
                    t for a, weight in zip(args, row)
                    for t in gate(streams[a], weight)
                )
        else:
            raise ValueError(f"unknown op {op!r} in generated document")
    return {
        ref: weights[ref] if ref in weights else len(streams[ref])
        for ref in doc["outputs"]
    }


def dpu_expected_counts(operand_pairs) -> List[int]:
    """``DpuModel.output_count`` for each ``(a_slots, b_counts)`` pair."""
    from repro.core.dpu import DpuModel
    from repro.encoding.epoch import EpochSpec

    from gen import DPU_CONFIG

    model = DpuModel(
        EpochSpec(bits=DPU_CONFIG["bits"], slot_fs=DPU_CONFIG["slot_fs"]),
        length=DPU_CONFIG["length"],
        bipolar=DPU_CONFIG["bipolar"],
    )
    return [model.output_count(list(a), list(b)) for a, b in operand_pairs]


def dpu_response_ok(body: bytes, expected: int) -> bool:
    """Whether a ``dpu.dot`` response body carries exactly ``expected``."""
    import json

    try:
        doc = json.loads(body)
    except ValueError:
        return False
    return (
        doc.get("ok") is True
        and doc.get("op") == "dpu.dot"
        and doc.get("result") == {"count": expected}
    )


def program_failures(
    levels: Mapping[str, int],
    expected: Mapping[str, int],
    lint_errors: int,
    collisions: int,
) -> List[str]:
    """Why one compiled spec is wrong (empty when it is right).

    Mergers the analyzer leaves unproved are not a failure here: on
    reconvergent fanout the interval domain cannot prove spacing the
    compiler did enforce, and a real collision would show as a lost
    pulse in ``collisions`` and in the decoded levels.  The benchmark
    reports the unproved count as ``analyze.mergers_unproved``.
    """
    failures = []
    if dict(levels) != dict(expected):
        failures.append(f"decoded {dict(levels)}, expected {dict(expected)}")
    if lint_errors:
        failures.append(f"{lint_errors} lint error(s)")
    if collisions:
        failures.append(f"{collisions} merger collision(s) in simulation")
    return failures


def recordings_failures(
    got: Mapping[str, Sequence[int]],
    reference: Mapping[str, Sequence[int]],
    drops: int,
) -> List[str]:
    """Why a sharded run differs from the monolithic reference."""
    failures = []
    if set(got) != set(reference):
        failures.append(f"probes {sorted(got)} vs reference {sorted(reference)}")
    for label in sorted(set(got) & set(reference)):
        if list(got[label]) != list(reference[label]):
            failures.append(
                f"probe {label}: {len(got[label])} pulses vs "
                f"{len(reference[label])} in the monolithic run"
            )
    if drops:
        failures.append(f"{drops} NoC drop(s)")
    return failures

"""IEEE-1364 VCD export of traced pulse timelines.

SFQ pulses are ~ps-wide events, not levels, so a faithful VCD renders each
pulse as a fixed-width high interval on a 1-bit wire (default 2000 fs,
matching :class:`~repro.pulsesim.probe.WaveformProbe`'s FWHM); overlapping
pulses merge into one interval.  Scheduler health rides along as an
integer ``queue_depth`` variable.  The output is deterministic: ports are
sorted by signal name, id codes assigned in that order, and no wall-clock
timestamps are embedded — two runs of the same workload produce identical
files.

:func:`parse_vcd` is a deliberately strict structural parser used by the
golden-file tests and ``usfq-trace validate``; it is not a general VCD
reader.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, TextIO, Tuple, Union

from repro.trace.session import TraceSession, sorted_ports

#: Rendered width of one SFQ pulse, femtoseconds.
DEFAULT_PULSE_WIDTH_FS = 2_000

#: Name of the scheduler-health integer variable.
QUEUE_DEPTH_VAR = "queue_depth"

_ID_FIRST, _ID_LAST = 33, 126  # printable VCD id-code alphabet: '!'..'~'


def _id_codes() -> Iterator[str]:
    """Deterministic short id codes: ``!``, ``"``, ... then two chars."""
    span = _ID_LAST - _ID_FIRST + 1
    width = 1
    while True:
        for index in range(span**width):
            code = ""
            value = index
            for _ in range(width):
                code = chr(_ID_FIRST + value % span) + code
                value //= span
            yield code
        width += 1


def pulse_intervals(times: List[int], width_fs: int) -> List[Tuple[int, int]]:
    """Merge pulse times into high intervals ``[start, end)``."""
    intervals: List[Tuple[int, int]] = []
    for time in sorted(times):
        end = time + width_fs
        if intervals and time <= intervals[-1][1]:
            start, previous_end = intervals[-1]
            intervals[-1] = (start, max(previous_end, end))
        else:
            intervals.append((time, end))
    return intervals


def vcd_lines(
    session: TraceSession,
    pulse_width_fs: int = DEFAULT_PULSE_WIDTH_FS,
    queue_depth: bool = True,
) -> List[str]:
    """The full VCD document as a list of lines."""
    ports = sorted_ports(session.ports)
    codes = _id_codes()
    lines = [
        "$comment repro.trace VCD export $end",
        "$timescale 1 fs $end",
        f"$scope module {session.name.replace(' ', '_')} $end",
    ]
    port_codes: List[Tuple[str, object]] = []
    for tap in ports:
        code = next(codes)
        port_codes.append((code, tap))
        lines.append(f"$var wire 1 {code} {tap.name} $end")
    depth_code = None
    if queue_depth:
        depth_code = next(codes)
        lines.append(f"$var integer 32 {depth_code} {QUEUE_DEPTH_VAR} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    # (time, declaration order, change text): the declaration-order key
    # makes simultaneous changes deterministic.
    changes: List[Tuple[int, int, str]] = []
    for order, (code, tap) in enumerate(port_codes):
        for start, end in pulse_intervals(tap.times(), pulse_width_fs):
            changes.append((start, order, f"1{code}"))
            changes.append((end, order, f"0{code}"))
    if depth_code is not None:
        depth_order = len(port_codes)
        for sample in session.health:
            changes.append(
                (
                    sample.time_fs,
                    depth_order,
                    f"b{sample.queue_depth:b} {depth_code}",
                )
            )
    changes.sort()

    lines.append("$dumpvars")
    for code, _tap in port_codes:
        lines.append(f"0{code}")
    if depth_code is not None:
        lines.append(f"b0 {depth_code}")
    lines.append("$end")
    current_time = None
    for time, _order, text in changes:
        if time != current_time:
            lines.append(f"#{time}")
            current_time = time
        lines.append(text)
    return lines


def write_vcd(
    session: TraceSession,
    destination: Union[str, TextIO],
    pulse_width_fs: int = DEFAULT_PULSE_WIDTH_FS,
    queue_depth: bool = True,
) -> None:
    """Write the session's VCD to a path or text file object."""
    text = "\n".join(vcd_lines(session, pulse_width_fs, queue_depth)) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w") as handle:
            handle.write(text)


def parse_vcd(text: str) -> dict:
    """Structurally parse a VCD document; raise ``ValueError`` if invalid.

    Returns ``{"timescale", "vars" (id -> name), "change_count",
    "times" (sorted distinct timestamps)}``.
    """
    timescale = None
    variables: Dict[str, str] = {}
    change_count = 0
    times: List[int] = []
    in_definitions = True
    in_dump = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if in_definitions:
            if line.startswith("$timescale"):
                timescale = " ".join(line.split()[1:-1])
            elif line.startswith("$var"):
                fields = line.split()
                if len(fields) != 6 or fields[-1] != "$end":
                    raise ValueError(f"line {lineno}: malformed $var: {raw!r}")
                _var, _kind, _width, code, name, _end = fields
                if code in variables:
                    raise ValueError(f"line {lineno}: duplicate id code {code!r}")
                variables[code] = name
            elif line.startswith("$enddefinitions"):
                in_definitions = False
            continue
        if line == "$dumpvars":
            in_dump = True
            continue
        if line == "$end" and in_dump:
            in_dump = False
            continue
        if line.startswith("#"):
            time = int(line[1:])
            if time < 0:
                raise ValueError(f"line {lineno}: negative timestamp: {raw!r}")
            if times and time < times[-1]:
                raise ValueError(f"line {lineno}: time goes backwards: {raw!r}")
            if not times or time != times[-1]:
                times.append(time)
            continue
        if line[0] in "01":
            code = line[1:]
        elif line[0] == "b":
            value, _, code = line.partition(" ")
            if not code or set(value[1:]) - set("01"):
                raise ValueError(f"line {lineno}: malformed vector: {raw!r}")
        else:
            raise ValueError(f"line {lineno}: unrecognised change: {raw!r}")
        if code not in variables:
            raise ValueError(f"line {lineno}: change to undeclared id {code!r}")
        change_count += 1
    if timescale is None:
        raise ValueError("missing $timescale")
    if in_definitions:
        raise ValueError("missing $enddefinitions")
    return {
        "timescale": timescale,
        "vars": variables,
        "change_count": change_count,
        "times": times,
    }

"""Discrete-event simulator for SFQ pulse circuits.

This package is the spice-substitute substrate of the reproduction (see
DESIGN.md section 2).  Information in RSFQ circuits is carried by
picosecond-wide SFQ pulses; at the architecture level all that matters is
*when* pulses arrive at which cell port and how each cell's internal SQUID
state reacts.  We therefore model a circuit as a netlist of behavioural
cells exchanging timestamped pulses through an event queue, with integer
femtosecond timestamps for exact, reproducible event ordering.

Typical usage::

    from repro.pulsesim import Circuit, Simulator, PulseRecorder
    from repro.cells import Ndro

    circuit = Circuit()
    ndro = circuit.add(Ndro("cell"))
    probe = circuit.probe(ndro, "q")
    sim = Simulator(circuit)
    sim.schedule_input(ndro, "set", 0)
    sim.schedule_input(ndro, "clk", 10_000)
    sim.run()
    assert probe.count() == 1

Each re-exported name imports its module on first use
(:mod:`repro.lazy`); NumPy loads only with the batch kernel or a
batch stimulus helper.
"""

from repro.lazy import exports

__getattr__, __dir__ = exports(
    __name__,
    {
        "repro.pulsesim.batch": (
            "BatchProgram",
            "BatchSimulator",
            "BatchStats",
            "compile_batch",
        ),
        "repro.pulsesim.block": ("Block",),
        "repro.pulsesim.element": ("CellRole", "Element", "PortSpec"),
        "repro.pulsesim.faults": ("DropChannel", "JitterChannel"),
        "repro.pulsesim.kernel": (
            "KERNELS",
            "SealedSimulator",
            "compile_circuit",
            "resolve_kernel",
        ),
        "repro.pulsesim.netlist": ("Circuit", "Wire"),
        "repro.pulsesim.probe": ("PulseRecorder", "WaveformProbe"),
        "repro.pulsesim.schedule": (
            "burst_stream_times",
            "clock_times",
            "rl_pulse_time",
            "rl_pulse_times_batch",
            "uniform_stream_times",
            "uniform_stream_times_batch",
        ),
        "repro.pulsesim.simulator": (
            "SimulationStats",
            "Simulator",
            "active_collectors",
            "capture_stats",
            "quiet_stats",
        ),
    },
)

__all__ = [
    "BatchProgram",
    "BatchSimulator",
    "BatchStats",
    "Block",
    "CellRole",
    "Circuit",
    "DropChannel",
    "Element",
    "JitterChannel",
    "KERNELS",
    "PortSpec",
    "PulseRecorder",
    "SealedSimulator",
    "SimulationStats",
    "Simulator",
    "WaveformProbe",
    "Wire",
    "active_collectors",
    "capture_stats",
    "quiet_stats",
    "compile_batch",
    "compile_circuit",
    "resolve_kernel",
    "burst_stream_times",
    "clock_times",
    "rl_pulse_time",
    "rl_pulse_times_batch",
    "uniform_stream_times",
    "uniform_stream_times_batch",
]

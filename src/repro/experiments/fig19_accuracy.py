"""Fig 19: FIR accuracy under error injection.

Reproduces the section 5.4.1 methodology: the golden 16-tap / 1-7-8-9 kHz
workload, quantisation SNRs, SNR-versus-error-rate sweeps for the binary
(bit-flip) and unary (pulse-loss, RL-loss, RL-delay) filters, the binary
SNR distribution at 1 % errors, and the error-rate effect on the unary
filter's recovered spectrum.
"""

from __future__ import annotations

import numpy as np

from repro.core.fir import UnaryFirFilter
from repro.dsp import errorinjection as ei
from repro.dsp.golden import make_golden_reference
from repro.dsp.snr import snr_db, tone_power_db
from repro.encoding.epoch import EpochSpec
from repro.experiments.report import ExperimentResult

ERROR_RATES = (0.0, 0.01, 0.05, 0.1, 0.2, 0.3)
BITS = 16

#: The structural cross-check runs real pulse streams through a simulated
#: JTL -> DropChannel fabric under the batch kernel: 256 Monte-Carlo lanes
#: per error rate, all rates coalesced into one vectorized run.
STRUCTURAL_BITS = 8
STRUCTURAL_LANES = 256
STRUCTURAL_SEED = 97


def _structural_retained() -> np.ndarray:
    """Retained fraction of the stream, one row of lanes per error rate.

    One :class:`~repro.pulsesim.BatchSimulator` run carries every
    ``(error rate, Monte-Carlo lane)`` combination: lane ``i`` of rate
    ``r`` gets its own seeded drop stream via ``set_drop_rates``, and a
    full-scale uniform pulse stream is broadcast to all lanes.
    """
    from repro.cells.interconnect import Jtl
    from repro.pulsesim import BatchSimulator, Circuit, DropChannel
    from repro.pulsesim.schedule import uniform_stream_times

    n_max = 1 << STRUCTURAL_BITS
    circuit = Circuit("fig19-structural")
    jtl = circuit.add(Jtl("j"))
    channel = circuit.add(DropChannel("loss", drop_rate=0.0, seed=STRUCTURAL_SEED))
    circuit.connect(jtl, "q", channel, "a", delay=100)
    circuit.probe(channel, "q")
    sim = BatchSimulator(circuit, batch=len(ERROR_RATES) * STRUCTURAL_LANES)
    sim.set_drop_rates(channel, np.repeat(ERROR_RATES, STRUCTURAL_LANES))
    sim.schedule_train(jtl, "a", uniform_stream_times(n_max, n_max, 1_000))
    sim.run()
    counts = sim.port_counts(channel, "q").reshape(
        len(ERROR_RATES), STRUCTURAL_LANES
    )
    return counts / n_max


def run(trials: int = 5) -> ExperimentResult:
    golden = make_golden_reference()
    sweeps = [ei.sweep_binary_bit_flips(golden, BITS, ERROR_RATES, trials=trials)]
    for mode in ("pulse_loss", "rl_delay", "rl_loss"):
        sweeps.append(
            ei.sweep_unary_errors(golden, BITS, ERROR_RATES, mode, trials=trials)
        )

    result = ExperimentResult(
        "fig19",
        "FIR accuracy under errors (16 taps, 1/7/8/9 kHz workload)",
        ["error mode", "rate", "SNR mean (dB)", "SNR min (dB)", "SNR max (dB)"],
    )
    for sweep in sweeps:
        for i, rate in enumerate(sweep.error_rates):
            result.add_row(
                sweep.mode, rate,
                round(sweep.mean_db[i], 1),
                round(sweep.min_db[i], 1),
                round(sweep.max_db[i], 1),
            )

    result.add_claim(
        "golden float FIR output SNR", "25.7 dB",
        f"{golden.golden_snr_db:.1f} dB",
        abs(golden.golden_snr_db - 25.7) < 1.0,
    )

    # Quantisation-only SNRs ("for 16 bits, the calculated SNR is 24 dB
    # and for 6 bits is 15 dB").
    quantised = {}
    for bits in (6, 16):
        fir = UnaryFirFilter(EpochSpec(bits), golden.h, exact_counting=False)
        quantised[bits] = float(
            snr_db(golden.target, fir.process(golden.x), skip=golden.skip)
        )
        result.add_row(f"unary quantisation only ({bits} bits)", 0.0,
                       round(quantised[bits], 1), "-", "-")
    result.add_claim(
        "quantisation SNR at 16 bits", "24 dB",
        f"{quantised[16]:.1f} dB", 22 <= quantised[16] <= 27,
    )
    result.add_claim(
        "quantisation degrades at 6 bits", "15 dB",
        f"{quantised[6]:.1f} dB",
        12 <= quantised[6] <= 26 and quantised[6] <= quantised[16] + 0.5,
    )

    binary, pulse_loss, rl_delay, rl_loss = sweeps
    binary_drop = binary.mean_db[0] - binary.mean_db[-1]
    unary_drop = pulse_loss.mean_db[0] - pulse_loss.mean_db[-1]
    result.add_claim(
        "binary SNR degradation at 30 % errors", "~30 dB",
        f"{binary_drop:.1f} dB", binary_drop > 15,
    )
    result.add_claim(
        "unary SNR degradation at 30 % pulse loss", "~4 dB",
        f"{unary_drop:.1f} dB", 1.0 <= unary_drop <= 7.0,
    )
    result.add_claim(
        "unary degrades far less than binary", "4 dB vs 30 dB",
        f"{unary_drop:.1f} dB vs {binary_drop:.1f} dB",
        unary_drop < binary_drop / 3.0,
    )
    rl_loss_drop = rl_loss.mean_db[0] - rl_loss.mean_db[1]
    result.add_claim(
        "a lost RL pulse is the damaging error mode",
        "large effect (all information in one pulse)",
        f"{rl_loss_drop:.1f} dB drop at 1 %",
        rl_loss_drop > 5.0,
    )
    delay_drop = rl_delay.mean_db[0] - rl_delay.mean_db[-1]
    result.add_claim(
        "RL delay errors behave like pulse loss (small)",
        "similar to error (i)",
        f"{delay_drop:.1f} dB drop at 30 %",
        delay_drop < 7.0,
    )

    # Fig 19b: binary SNR distribution at 1 % errors.  A short record
    # keeps the per-trial flip count low, so single flips dominate and
    # the SNR spread reflects which bit each flip hits.
    short_golden = make_golden_reference(n_samples=600)
    distribution = ei.binary_snr_distribution(short_golden, BITS, 0.01, trials=60)
    spread = float(np.std(distribution))
    result.notes.append(
        "binary SNR distribution at 1 % bit flips: "
        f"mean {float(np.mean(distribution)):.1f} dB, std {spread:.1f} dB, "
        f"range [{float(np.min(distribution)):.1f}, "
        f"{float(np.max(distribution)):.1f}] dB "
        "(damage depends on which bit flips)"
    )
    result.add_claim(
        "binary error damage varies wildly with bit significance",
        "large SNR variance",
        f"std {spread:.1f} dB",
        spread > 2.0,
    )

    # Fig 19c: unary output spectrum under error — the recovered 1 kHz
    # tone versus the filtered-out interferers, clean and at 50 % loss.
    spectra = ei.unary_spectra_under_error(golden, BITS, (0.0, 0.5))
    tones = {}
    for tone in (1_000.0, 7_000.0, 8_000.0, 9_000.0):
        clean_db, lossy_db = (
            float(tone_power_db(
                spectra[rate][golden.skip:], golden.sample_rate_hz, tone
            ))
            for rate in (0.0, 0.5)
        )
        tones[tone] = (clean_db, lossy_db)
        result.add_row(
            f"spectrum @ {tone / 1000:.0f} kHz (dB re peak)", 0.5,
            round(clean_db, 1), round(lossy_db, 1), "-",
        )
    tone_clean, tone_noisy = tones[1_000.0]
    result.add_claim(
        "the recovered tone survives 50 % pulse loss (Fig 19c)",
        "1 kHz peak intact, noise floor rises",
        f"{tone_clean:.1f} dB -> {tone_noisy:.1f} dB",
        tone_noisy > -3.0,
    )

    # Structural cross-check: the accuracy model above injects pulse loss
    # functionally; here real pulse streams traverse a simulated
    # JTL -> DropChannel fabric (batch kernel, 256 lanes per rate) and the
    # retained fraction must track 1 - rate.
    worst = 0.0
    for rate, retained in zip(ERROR_RATES, _structural_retained()):
        mean_retained = float(retained.mean())
        result.add_row(
            f"structural pulse loss ({STRUCTURAL_LANES} lanes)", rate,
            round(mean_retained, 3),
            round(float(retained.min()), 3),
            round(float(retained.max()), 3),
        )
        worst = max(worst, abs(mean_retained - (1.0 - rate)))
    result.add_claim(
        "structural DropChannel retains ~(1 - rate) of stream pulses",
        "retention tracks 1 - error rate",
        f"max |mean retained - (1 - rate)| = {worst:.4f}",
        worst < 0.02,
    )
    result.notes.append(
        "regenerated under the epoch-boundary codec fixes: the functional "
        "SNR rows are unchanged (the accuracy model quantises via np.rint, "
        "not the codecs); the structural rows are new (batch kernel)"
    )
    return result

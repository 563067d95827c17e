"""DSP substrate replacing the paper's Octave scripts (section 5.4.1).

Signal synthesis, windowed-sinc FIR design, SNR measurement, error
injection, and the golden-reference pipeline used by the accuracy
evaluation (Fig 19): a superposition of 1/7/8/9 kHz sines filtered by a
16-tap low-pass that recovers the 1 kHz tone.
"""

from repro.dsp.firdesign import design_lowpass
from repro.dsp.golden import GoldenReference, make_golden_reference
from repro.dsp.signals import sine, superposition
from repro.dsp.snr import snr_db, spectrum

__all__ = [
    "GoldenReference",
    "design_lowpass",
    "make_golden_reference",
    "sine",
    "snr_db",
    "spectrum",
    "superposition",
]

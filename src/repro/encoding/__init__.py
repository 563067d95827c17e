"""U-SFQ data representations (paper section 3).

Two unary encodings over a shared *computing epoch* of ``2**bits`` time
slots:

* :mod:`repro.encoding.racelogic` — a value is the arrival slot of a single
  pulse (``Id / n_max``), unipolar in [0, 1] or bipolar in [-1, 1];
* :mod:`repro.encoding.pulsestream` — a value is the rate of a periodic
  pulse train (``n / n_max`` pulses per epoch), unipolar or bipolar.

:mod:`repro.encoding.epoch` defines the epoch geometry.
"""

from repro.encoding.epoch import EpochSpec
from repro.encoding.pulsestream import (
    PulseStreamCodec,
    bipolar_from_unipolar,
    unipolar_from_bipolar,
)
from repro.encoding.racelogic import RaceLogicCodec

__all__ = [
    "EpochSpec",
    "PulseStreamCodec",
    "RaceLogicCodec",
    "bipolar_from_unipolar",
    "unipolar_from_bipolar",
]

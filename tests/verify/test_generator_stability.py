"""Fixed-seed stability lock on the verify generator's output stream.

The generator's splitter growth is shared with the synthesis builder
(:mod:`repro.synth.builder`) and its merger spacing with the analyzer
(:func:`repro.analyze.checks.cell_arrival_sets`), so any behavioral
drift in the shared helpers — bump order, tie-breaking, shortfall
arithmetic — shows up here as a key mismatch before it can silently
reshuffle every seeded campaign and corpus entry.
"""

import pytest

from repro.verify.generator import example_rng, generate_spec, profile

#: ``profile/seed/example`` -> NetlistSpec.key() of the generated spec.
#: ``nightly/0/1``, ``nightly/0/3`` and ``nightly/1/2`` were re-locked
#: when merger spacing moved from each input's latest arrival onto the
#: full single-wave arrival sets; every other digest is unchanged.
DIGESTS = {
    "smoke/0/0": "413447d20874",
    "smoke/0/1": "488e6ccd965f",
    "smoke/0/2": "37b60941a366",
    "smoke/0/3": "38777a9831f0",
    "smoke/1/0": "814ff4ba9ffa",
    "smoke/1/1": "7337f39b65f9",
    "smoke/1/2": "11df19bf11a1",
    "smoke/1/3": "72a0c92586fc",
    "smoke/7/0": "37ff3b61f385",
    "smoke/7/1": "9d701fd26420",
    "smoke/7/2": "65f838ff8ece",
    "smoke/7/3": "49c1817625a9",
    "ci/0/0": "2ba7e947b01a",
    "ci/0/1": "e8e711a7690e",
    "ci/0/2": "6b50732b990d",
    "ci/0/3": "aae93139e006",
    "ci/1/0": "71992d04d13a",
    "ci/1/1": "0ed806f99da7",
    "ci/1/2": "26f89d8b15b6",
    "ci/1/3": "588e05fb1706",
    "ci/7/0": "4cfafbad7973",
    "ci/7/1": "9ae8e21bc5ec",
    "ci/7/2": "9da0d9c63679",
    "ci/7/3": "7c1b94066605",
    "nightly/0/0": "c28506c4f29e",
    "nightly/0/1": "d0b0cc4516e9",
    "nightly/0/2": "dd2cc59863d9",
    "nightly/0/3": "6637463ac675",
    "nightly/1/0": "b38a09d4e616",
    "nightly/1/1": "3db39097c304",
    "nightly/1/2": "ea8a07474125",
    "nightly/1/3": "82ea5bb6abcb",
    "nightly/7/0": "d56995075f57",
    "nightly/7/1": "781b86f336b2",
    "nightly/7/2": "4a59420fe9fe",
    "nightly/7/3": "f4ca16c5a77d",
}


@pytest.mark.parametrize("case", sorted(DIGESTS))
def test_generated_spec_keys_are_byte_stable(case):
    prof_name, seed, example = case.split("/")
    spec = generate_spec(example_rng(int(seed), int(example)),
                         profile(prof_name))
    assert spec.key() == DIGESTS[case]

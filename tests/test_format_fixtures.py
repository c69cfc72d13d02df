"""Committed fixtures pin the persisted formats byte for byte.

``tests/fixtures/`` holds a version-1 suspend envelope (``service_version``
1, canonical JSON) of ``mesa_loop_sum`` with n=20, suspended after 300
cycles, and the checksummed spool file (``spool_version`` 1) the fleet
writes for it.  Both were written before any format change was made.  A
change to either format, or to the machine state inside them, fails
here; a deliberate format bump must either keep loading these files or
refuse them with a named error, and update this test to say which.
"""

import pathlib

import pytest

from repro.errors import SpoolCorruption
from repro.service import Session
from repro.service.spool import spool_decode, spool_encode

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
ENVELOPE = (FIXTURES / "mesa_loop_sum_n20_c300.envelope.json").read_text()
SPOOL = (FIXTURES / "mesa_loop_sum_n20_c300.spool").read_bytes()

#: ``arch_hash`` of the suspended machine, and of the same session run
#: on to HALT, recorded when the fixture was written.
SUSPENDED_ARCH_HASH = "87dfac4b9dc155f6"
HALTED_ARCH_HASH = "0445266615b04bc1"
HALTED_CYCLES = 487


def test_v1_envelope_resumes_to_the_recorded_state():
    session = Session.resume(ENVELOPE)
    assert session.name == "fixture"
    assert session.cpu.counters.cycles == 300
    assert session.arch_hash() == SUSPENDED_ARCH_HASH
    session.run()
    result = session.result()
    assert result["verified"]
    assert result["cycles"] == HALTED_CYCLES
    assert result["arch_hash"] == HALTED_ARCH_HASH


def test_v1_envelope_resuspends_byte_identical():
    assert Session.resume(ENVELOPE).suspend() == ENVELOPE


def test_v1_spool_file_decodes_to_the_envelope():
    assert spool_decode(SPOOL) == ENVELOPE
    assert spool_encode(ENVELOPE) == SPOOL


@pytest.mark.parametrize("offset", [0, 40, len(SPOOL) // 2, len(SPOOL) - 1])
def test_v1_spool_file_refuses_one_flipped_byte(offset):
    damaged = bytearray(SPOOL)
    damaged[offset] ^= 0x01
    with pytest.raises(SpoolCorruption):
        spool_decode(bytes(damaged))

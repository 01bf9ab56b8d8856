"""Infrastructure fault injection for the crash-resilient control plane.

Everything the resilience layer claims to survive — torn journal
writes, corrupted checkpoints, stalling sources — is injectable on
purpose from here, seeded and deterministic, so the recovery paths are
*exercised* in CI rather than trusted.
"""

from repro.resilience.faults import (
    corrupt_journal,
    flip_bit,
    stalling_source_factory,
    truncate_journal,
    truncate_tail,
)

__all__ = [
    "corrupt_journal",
    "flip_bit",
    "stalling_source_factory",
    "truncate_journal",
    "truncate_tail",
]

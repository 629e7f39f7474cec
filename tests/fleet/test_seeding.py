"""Seed derivation: stability, path sensitivity, shard independence."""

from repro.fleet.seeding import session_seed
from repro.runtime.seeded import derive_seed


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(7, "video", 3) == derive_seed(7, "video", 3)

    def test_component_boundaries_matter(self):
        # "video", 31 must not collide with "video3", 1 etc.
        assert derive_seed(7, "video", 31) != derive_seed(7, "video3", 1)
        assert derive_seed(7, "video", 3) != derive_seed(7, "video3")

    def test_every_path_component_changes_the_seed(self):
        base = session_seed(7, "video", 3, "inputs")
        assert base != session_seed(8, "video", 3, "inputs")
        assert base != session_seed(7, "audio", 3, "inputs")
        assert base != session_seed(7, "video", 4, "inputs")
        assert base != session_seed(7, "video", 3, "jitter")

    def test_fits_in_32_bits(self):
        for i in range(64):
            assert 0 <= derive_seed(42, "t", i) < 2**32

    def test_known_value_pins_cross_process_stability(self):
        # crc32 of "7|fleet|video|3|inputs": a changed derivation scheme
        # silently breaks every committed baseline, so pin one value.
        import zlib

        expected = zlib.crc32(b"7|fleet|video|3|inputs")
        assert session_seed(7, "video", 3, "inputs") == expected

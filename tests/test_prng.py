from nugs.prng import SplitMix64


def test_reference_sequence():
    # SplitMix64 with seed 1234567: first outputs of the reference algorithm
    gen = SplitMix64(1234567)
    words = [gen.next_raw() for _ in range(3)]
    assert words == [6457827717110365317, 3203168211198807973, 9817491932198370423]


def test_uniform_range_and_determinism():
    gen = SplitMix64(42)
    vals = [gen.uniform() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    gen2 = SplitMix64(42)
    assert vals == [gen2.uniform() for _ in range(1000)]


def test_seeds_decorrelate():
    a = [SplitMix64(0).uniform() for _ in range(1)]
    b = [SplitMix64(1).uniform() for _ in range(1)]
    assert a != b

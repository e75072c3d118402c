"""Seeded splitmix64 generator.

All randomness that crosses the CLI boundary (estimate_ratio trials, verify
fields) is drawn from this generator so runs are reproducible from a single
64-bit seed, independently of numpy's generator versioning.

Update rule (all arithmetic mod 2^64):

    state += 0x9E3779B97F4A7B15
    z = state
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    output = z ^ (z >> 31)

Doubles are formed from the top 53 bits: u = output >> 11; u / 2^53 in [0, 1).
"""

_MASK = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7B15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform_symmetric(self) -> float:
        """Uniform double in [-1, 1)."""
        return 2.0 * self.uniform() - 1.0

    def complex_symmetric(self) -> complex:
        """Complex with independent uniform [-1, 1) parts; real drawn first."""
        re = self.uniform_symmetric()
        im = self.uniform_symmetric()
        return complex(re, im)

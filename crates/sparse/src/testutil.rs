//! Deterministic generators shared by the crate's unit tests.

/// splitmix64: a seeded source of test inputs.
pub struct Mix(pub u64);

impl Mix {
    /// Next 64 uniform bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw from `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `len` bytes drawn from the first `alphabet` byte values.
    pub fn bytes(&mut self, len: usize, alphabet: usize) -> Vec<u8> {
        (0..len).map(|_| self.below(alphabet) as u8).collect()
    }
}

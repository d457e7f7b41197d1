//! Seeded hashes: deterministic draws and digests that consume no RNG
//! stream and do not depend on the thread budget.
//!
//! - [`fmix64`] / [`hash_unit`]: the 64-bit MurmurHash3 finalizer, a
//!   cheap, well-mixed `u64 -> u64` bijection, and the uniform float in
//!   `[0, 1)` taken from its top 53 bits. Per-job coin flips hash a seed
//!   with the job's id and a salt, so the draw is the same whatever
//!   order or thread computes it.
//! - [`Digest`] / [`fnv1a64`]: 64-bit FNV-1a over a byte stream, for
//!   determinism checks (served responses, scenario hashes, the CLI
//!   digest golden). FNV-1a is not cryptographic: it makes *accidental*
//!   divergence loud, and its tiny state keeps hot paths free of
//!   hashing noise.

/// The 64-bit MurmurHash3 finalizer.
#[inline]
pub fn fmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Hashes a seed to a uniform float in `[0, 1)`.
#[inline]
pub fn hash_unit(seed: u64) -> f64 {
    (fmix64(seed) >> 11) as f64 / (1u64 << 53) as f64
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a over a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    state: u64,
}

impl Default for Digest {
    fn default() -> Digest {
        Digest::new()
    }
}

impl Digest {
    /// A digest over the empty stream.
    pub fn new() -> Digest {
        Digest { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the digest. Order matters: `update(a);
    /// update(b)` equals `update(ab)` but not `update(b); update(a)`.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.state
    }

    /// The current digest as 16 lowercase hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.state)
    }
}

/// One-shot FNV-1a of a byte slice.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.update(bytes);
    d.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_known_fnv1a_vectors() {
        // Reference values for the canonical 64-bit FNV-1a parameters.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_equals_one_shot_and_order_matters() {
        let mut d = Digest::new();
        d.update(b"foo");
        d.update(b"bar");
        assert_eq!(d.finish(), fnv1a64(b"foobar"));
        assert_eq!(d.hex(), format!("{:016x}", fnv1a64(b"foobar")));
        assert_ne!(fnv1a64(b"barfoo"), fnv1a64(b"foobar"));
    }
}

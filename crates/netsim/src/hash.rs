//! 64-bit FNV-1a: the workspace's one stable, dependency-free hash.
//!
//! Substrate keys, sweep config hashes and output digests fold through
//! it, and RNG stream keys through the same fold with another prime
//! (the crate-private `stream_key_hash`). None of it may change: every value is pinned
//! by recorded digests and checkpoint manifests.

const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// Not the FNV prime (one hex digit longer); see [`stream_key_hash`].
const STREAM_KEY_PRIME: u64 = 0x0000_1000_0000_01b3;

/// The FNV-1a fold: xor each byte in, then multiply by `prime`.
fn fold(mut h: u64, prime: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(prime);
    }
    h
}

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fold(OFFSET_BASIS, PRIME, bytes)
}

/// The hash [`SimRng`](crate::SimRng) keys its streams with: the
/// FNV-1a fold with `0x1000_0000_01b3` where FNV-1a has
/// `0x100_0000_01b3`. It is not FNV-1a, but every RNG stream of every
/// run is keyed by it, so it stays as it is.
pub(crate) fn stream_key_hash(bytes: &[u8]) -> u64 {
    fold(OFFSET_BASIS, STREAM_KEY_PRIME, bytes)
}

/// Incremental FNV-1a, for digests folded from many values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    pub fn new() -> Fnv1a {
        Fnv1a(OFFSET_BASIS)
    }

    /// Fold in raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        self.0 = fold(self.0, PRIME, bytes);
    }

    /// Fold in a `u64` as its eight little-endian bytes.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything folded so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn published_fnv1a_64_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn stream_key_hash_is_pinned() {
        assert_eq!(stream_key_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(stream_key_hash(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(stream_key_hash(b"foobar"), 0xf8ac_2471_f739_67e8);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
        let mut w = Fnv1a::default();
        w.write_u64(0x0102_0304_0506_0708);
        assert_eq!(w.finish(), fnv1a(&[8, 7, 6, 5, 4, 3, 2, 1]));
    }
}

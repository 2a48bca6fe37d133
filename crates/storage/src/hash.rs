//! Word-at-a-time multiply-mix hashing for in-memory lookup structures
//! whose answers never depend on the hash: the table's row locator
//! (candidates are compared byte for byte), the column statistics (an
//! estimate) and the buffer pool's frame map (keys are compared). Not
//! keyed, so not for maps an adversary's keys could fill.

use std::hash::{BuildHasherDefault, Hasher};

/// Fold `word` into `h`: one 64×64→128-bit multiply, halves xor-ed.
pub(crate) fn mix(h: u64, word: u64) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let m = u128::from(h ^ word) * u128::from(K);
    (m as u64) ^ (m >> 64) as u64
}

/// [`mix`] over a byte string, eight bytes at a time, seeded with `h`.
pub(crate) fn mix_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("chunks of 8")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// A [`Hasher`] over [`mix`]: one multiply per integer written, one per
/// eight bytes of a string.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0 ^ bytes.len() as u64, bytes);
    }

    fn write_u8(&mut self, v: u8) {
        self.0 = mix(self.0, u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = mix(self.0, u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = mix(self.0, v);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type Mixed = BuildHasherDefault<MixHasher>;

/// Hasher of a map keyed by an already mixed 64-bit hash: the key is its
/// own hash.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("prehashed maps are keyed by u64");
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

pub(crate) type Prehashed = BuildHasherDefault<PrehashedHasher>;

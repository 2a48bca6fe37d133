//! Word-at-a-time multiply-mix hashing for in-memory lookup structures
//! whose answers never depend on the hash: the table's row locator
//! (candidates are compared byte for byte), the column statistics (an
//! estimate) and the buffer pool's frame map (keys are compared). Those
//! are not keyed, so not for maps an adversary's keys could fill; maps
//! keyed by stored values use [`SeededMix`], whose seed is drawn once per
//! process.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::OnceLock;

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
    // The zero-padded tail as a little-endian word, without a copy.
    let tail = words
        .remainder()
        .iter()
        .rev()
        .fold(0, |t, &b| t << 8 | u64::from(b));
    mix(h, tail)
}

/// A [`Hasher`] over `mix`: one multiply per integer written, one per
/// eight bytes of a string.
#[derive(Debug, Default, Clone, Copy)]
pub struct MixHasher(u64);

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = mix_bytes(self.0 ^ bytes.len() as u64, bytes);
    }

    fn write_usize(&mut self, v: usize) {
        self.0 = mix(self.0, v as u64);
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

/// [`MixHasher`]s starting from one seed per process, drawn from the
/// standard library's random keys: for maps keyed by stored values, such
/// as the hash joins over encoded join keys, where SipHash's cost per
/// byte shows and a key set that crowds one bucket for this seed need not
/// crowd one for the next process.
#[derive(Debug, Default, Clone, Copy)]
pub struct SeededMix;

impl BuildHasher for SeededMix {
    type Hasher = MixHasher;

    fn build_hasher(&self) -> MixHasher {
        static SEED: OnceLock<u64> = OnceLock::new();
        MixHasher(*SEED.get_or_init(|| RandomState::new().hash_one(0u64)))
    }
}

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

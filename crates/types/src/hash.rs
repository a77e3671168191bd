//! The hasher of every id-keyed table.
//!
//! Inode numbers, pids, device and mount ids, namespace ids, file handles
//! and descriptor numbers are fixed-width integers the simulated kernel
//! hands out from its own counters. No attacker picks them, so a map keyed
//! by them needs none of SipHash's keyed mixing: one multiply per word
//! spreads them well (the multiplicative hash of rustc's `FxHasher`).
//!
//! A map keyed by anything a user or a tool chooses — a name, a path, the
//! bytes of a file — stays on std's `RandomState`: with a fixed hasher,
//! whoever picks the keys can pick them to collide.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd 64-bit constant with well-spread bits (rustc's `FxHasher`).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// One multiply per word: `h = (rotl(h, 5) ^ word) · K`.
///
/// A single id hashes to `id · K`, a bijection on every run of low bits
/// (`K` is odd), so consecutive ids never share a bucket index; the
/// product's high bits, which a `HashMap` uses as its tag, take every bit
/// of the id into account.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher {
    hash: u64,
}

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn write_isize(&mut self, i: isize) {
        self.add(i as u64);
    }
}

/// The `BuildHasher` of id-keyed tables: stateless, so every map built
/// with it hashes alike.
pub type IdHasher = BuildHasherDefault<MulHasher>;

/// A `HashMap` keyed by an id (or a tuple of ids) on [`IdHasher`].
pub type IdMap<K, V> = HashMap<K, V, IdHasher>;

/// A `HashSet` of ids on [`IdHasher`].
pub type IdSet<K> = HashSet<K, IdHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DevId, Ino};
    use std::hash::BuildHasher;

    #[test]
    fn consecutive_ids_differ_in_their_low_16_bits() {
        let build = IdHasher::default();
        let mut seen = vec![false; 1 << 16];
        for id in 0..1u64 << 16 {
            let low = (build.hash_one(Ino(id)) & 0xffff) as usize;
            assert!(!seen[low], "ino {id} shares low bits {low:#x}");
            seen[low] = true;
        }
    }

    #[test]
    fn tuple_keys_hash_each_field() {
        let build = IdHasher::default();
        assert_ne!(
            build.hash_one((DevId(1), Ino(2))),
            build.hash_one((DevId(2), Ino(1)))
        );
        let mut map: IdMap<(DevId, Ino), u32> = IdMap::default();
        for dev in 0..64 {
            for ino in 0..64 {
                map.insert((DevId(dev), Ino(ino)), (dev * 64 + ino) as u32);
            }
        }
        assert_eq!(map.len(), 64 * 64);
        assert_eq!(map[&(DevId(7), Ino(9))], 7 * 64 + 9);
    }

    #[test]
    fn byte_writes_cover_a_short_tail() {
        let hash = |b: &[u8]| {
            let mut h = MulHasher::default();
            h.write(b);
            h.finish()
        };
        assert_ne!(hash(b"12345678a"), hash(b"12345678b"));
        assert_ne!(hash(b""), hash(b"\x01"));
    }
}

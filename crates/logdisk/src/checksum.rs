//! Seedable 64-bit segment checksums.
//!
//! Every sealed segment carries a checksum over its summary fields
//! (`base_lsn`, `physical_start`, the merged flag, the entry count) and
//! its mapping payload (the `(lsn, logical, physical)` entry triples),
//! written at seal time and audited by [`LogicalDisk::scrub`],
//! [`LogicalDisk::rebuild_map`], [`LogicalDisk::restore_to_lsn`] and
//! [`LogicalDisk::merge_below_watermark`] before any of them believes a
//! record. The storage below us is allowed to lie — torn writes,
//! flipped bits, whole words overwritten — and the checksum is how a
//! lie turns into a quarantined segment instead of a silently wrong
//! map.
//!
//! The digest is a position-keyed sum of independent terms. With
//! `mix` the splitmix64 finalizer, φ the odd golden-ratio constant and
//! `key = mix(seed ^ C)`, word `w_i` at position `i` contributes
//! `mix(w_i ^ (key + i·φ))`; `acc` is the wrapping sum of the terms,
//! and the digest over `n` words is `mix(acc ^ mix(key ^ n))`.
//!
//! - **Any change confined to one word is always detected**, whatever
//!   its bit pattern: `mix` is a bijection, so that word's term changes,
//!   so `acc` changes, and the final step is a bijection of `acc` for a
//!   fixed seed and length.
//! - **Changes to several words** — swaps, shifted runs, paired
//!   overwrites — are caught with probability about `1 - 2⁻⁶⁴`: the
//!   position key makes the same word contribute an unrelated term at
//!   another position, so the terms would have to cancel by chance.
//!   Length changes move the `n` the digest is finished under.
//! - **The seed keys every term**, so distinct disks can run distinct
//!   checksum families and a test can prove detection is not an
//!   accident of one constant.
//!
//! No term depends on another, so the CPU overlaps their `mix` rounds;
//! the only serial work is one add per word. Checksums never leave the
//! process, so there is no on-disk format to version.
//!
//! [`LogicalDisk::scrub`]: crate::LogicalDisk::scrub
//! [`LogicalDisk::rebuild_map`]: crate::LogicalDisk::rebuild_map
//! [`LogicalDisk::restore_to_lsn`]: crate::LogicalDisk::restore_to_lsn
//! [`LogicalDisk::merge_below_watermark`]: crate::LogicalDisk::merge_below_watermark

/// Default checksum seed ("LOGDISK" on a phone keypad, roughly).
pub const DEFAULT_SEED: u64 = 0x10D6_D15C_5EA1_ED64;

/// Odd step between consecutive position keys (2⁶⁴/φ).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a full-avalanche 64-bit bijection.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(PHI);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A seeded checksum accumulator. Feed words, then [`finish`].
///
/// [`finish`]: Checksummer::finish
#[derive(Debug, Clone, Copy)]
pub struct Checksummer {
    key: u64,
    /// Key of the next word's position: `key + n·φ`.
    pos: u64,
    acc: u64,
    n: u64,
}

impl Checksummer {
    /// Starts a digest under `seed`.
    pub fn new(seed: u64) -> Self {
        let key = mix(seed ^ 0xC0DE_C0DE_C0DE_C0DE);
        Checksummer {
            key,
            pos: key,
            acc: 0,
            n: 0,
        }
    }

    /// Adds one word's term, keyed by its position.
    #[inline]
    pub fn word(&mut self, w: u64) {
        self.acc = self.acc.wrapping_add(mix(w ^ self.pos));
        self.pos = self.pos.wrapping_add(PHI);
        self.n += 1;
    }

    /// The digest over everything fed so far.
    pub fn finish(&self) -> u64 {
        mix(self.acc ^ mix(self.key ^ self.n))
    }
}

/// One-shot digest of a word sequence under `seed`.
pub fn checksum_words(seed: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    let mut c = Checksummer::new(seed);
    for w in words {
        c.word(w);
    }
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_rng::SmallRng;

    #[test]
    fn deterministic_and_seed_keyed() {
        let a = checksum_words(1, [1, 2, 3]);
        let b = checksum_words(1, [1, 2, 3]);
        let c = checksum_words(2, [1, 2, 3]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn any_single_bit_flip_changes_the_digest() {
        let words = [0u64, 7, u64::MAX, 0x1234_5678_9ABC_DEF0];
        let clean = checksum_words(DEFAULT_SEED, words);
        for slot in 0..words.len() {
            for bit in 0..64 {
                let mut rotted = words;
                rotted[slot] ^= 1 << bit;
                assert_ne!(
                    checksum_words(DEFAULT_SEED, rotted),
                    clean,
                    "flip of bit {bit} in word {slot} went undetected"
                );
            }
        }
    }

    #[test]
    fn position_matters() {
        // A plain XOR fold would pass both of these.
        assert_ne!(
            checksum_words(0, [1, 2]),
            checksum_words(0, [2, 1]),
            "swap undetected"
        );
        assert_ne!(
            checksum_words(0, [5, 5]),
            checksum_words(0, [6, 6] /* paired flips */),
        );
        assert_ne!(checksum_words(0, []), checksum_words(0, [0]));
    }

    /// Seeded words shaped like a fresh segment record: four summary
    /// words, then `(lsn, logical, physical)` per entry.
    fn record(rng: &mut SmallRng, entries: u64) -> Vec<u64> {
        let base = rng.bounded_u64(1 << 40);
        let start = rng.bounded_u64(1 << 30);
        let mut words = vec![base, start, 0, entries];
        for i in 0..entries {
            words.extend([base + i, rng.bounded_u64(1 << 18), start + i]);
        }
        words
    }

    #[test]
    fn replacing_any_one_word_with_any_value_is_detected() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0001);
        for seed in [DEFAULT_SEED, 0, rng.next_u64()] {
            let words = record(&mut rng, 16);
            let clean = checksum_words(seed, words.iter().copied());
            for slot in 0..words.len() {
                let old = words[slot];
                let values = [0, u64::MAX, !old, old.wrapping_add(1), old.rotate_left(32)];
                let drawn = (0..32).map(|_| rng.next_u64());
                for v in values.into_iter().chain(drawn).filter(|&v| v != old) {
                    let mut rotted = words.clone();
                    rotted[slot] = v;
                    assert_ne!(
                        checksum_words(seed, rotted),
                        clean,
                        "seed {seed:#x}: word {slot} {old:#x} -> {v:#x} undetected"
                    );
                }
            }
        }
    }

    #[test]
    fn swapping_two_different_words_is_detected() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0002);
        let words = record(&mut rng, 16);
        let clean = checksum_words(DEFAULT_SEED, words.iter().copied());
        for i in 0..words.len() {
            for j in i + 1..words.len() {
                if words[i] == words[j] {
                    continue;
                }
                let mut swapped = words.clone();
                swapped.swap(i, j);
                assert_ne!(
                    checksum_words(DEFAULT_SEED, swapped),
                    clean,
                    "swap of words {i} and {j} undetected"
                );
            }
        }
    }
}

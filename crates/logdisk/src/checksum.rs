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
//! the only serial work is one add per word. [`Checksummer::words`]
//! takes that further on x86-64 hosts with AVX-512F/DQ (detected at run
//! time): it computes eight terms per step, lane *j* keyed on
//! `pos + j·φ` and every lane stepping by `8·φ`, and adds their
//! wrapping sum into `acc`. Addition commutes, so the digest is the
//! scalar one bit for bit; the tail, and every other host, runs the
//! scalar `word` loop. Checksums never leave the process, so there is
//! no on-disk format to version.
//!
//! [`LogicalDisk::scrub`]: crate::LogicalDisk::scrub
//! [`LogicalDisk::rebuild_map`]: crate::LogicalDisk::rebuild_map
//! [`LogicalDisk::restore_to_lsn`]: crate::LogicalDisk::restore_to_lsn
//! [`LogicalDisk::merge_below_watermark`]: crate::LogicalDisk::merge_below_watermark

/// Default checksum seed ("LOGDISK" on a phone keypad, roughly).
pub const DEFAULT_SEED: u64 = 0x10D6_D15C_5EA1_ED64;

/// Odd step between consecutive position keys (2⁶⁴/φ).
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// The finalizer's two multipliers.
const MIX1: u64 = 0xBF58_476D_1CE4_E5B9;
const MIX2: u64 = 0x94D0_49BB_1331_11EB;

/// The splitmix64 finalizer: a full-avalanche 64-bit bijection.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(PHI);
    x = (x ^ (x >> 30)).wrapping_mul(MIX1);
    x = (x ^ (x >> 27)).wrapping_mul(MIX2);
    x ^ (x >> 31)
}

/// Whether [`Checksummer::words`] runs the AVX-512 kernel on this host.
/// `std` probes the CPU once and caches the answer, so each call after
/// the first is one relaxed load.
#[cfg(target_arch = "x86_64")]
fn avx512() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

/// The kernel [`Checksummer::words`] runs on this host: `"avx512"` or
/// `"scalar"`. Run artifacts record it, so audit timings from hosts
/// with and without AVX-512 are not mistaken for a regression.
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        return "avx512";
    }
    "scalar"
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

    /// Adds every word of `ws` in order: the same digest as calling
    /// [`word`](Checksummer::word) once per word, eight terms at a time
    /// where the host has AVX-512.
    pub fn words(&mut self, ws: &[u64]) {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: `avx512()` just confirmed that this CPU supports
            // AVX-512F and AVX-512DQ, the features the kernel enables.
            return unsafe { self.words_avx512(ws) };
        }
        for &w in ws {
            self.word(w);
        }
    }

    /// [`words`](Checksummer::words) on 512-bit registers: the whole
    /// chunks of eight words in lanes, then the tail through `word`.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX-512F and AVX-512DQ (`avx512()`); a
    /// `target_feature` function is `unsafe` to call from code that
    /// does not enable those features itself.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx512f,avx512dq")]
    fn words_avx512(&mut self, ws: &[u64]) {
        use std::arch::x86_64::*;
        let splat = |x: u64| _mm512_set1_epi64(x as i64);
        let (phi, c1, c2) = (splat(PHI), splat(MIX1), splat(MIX2));
        let step = splat(PHI.wrapping_mul(8));
        let lane = |j: u64| self.pos.wrapping_add(PHI.wrapping_mul(j)) as i64;
        let mut pos = _mm512_setr_epi64(
            lane(0),
            lane(1),
            lane(2),
            lane(3),
            lane(4),
            lane(5),
            lane(6),
            lane(7),
        );
        let mut acc = _mm512_setzero_si512();
        let chunks = ws.chunks_exact(8);
        let tail = chunks.remainder();
        let whole = ws.len() - tail.len();
        for chunk in chunks {
            // SAFETY: `chunk` is eight initialised u64s (64 bytes), and
            // `loadu` accepts any alignment.
            let w = unsafe { _mm512_loadu_si512(chunk.as_ptr().cast()) };
            let mut x = _mm512_add_epi64(_mm512_xor_si512(w, pos), phi);
            x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<30>(x)), c1);
            x = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<27>(x)), c2);
            x = _mm512_xor_si512(x, _mm512_srli_epi64::<31>(x));
            acc = _mm512_add_epi64(acc, x);
            pos = _mm512_add_epi64(pos, step);
        }
        self.acc = self.acc.wrapping_add(_mm512_reduce_add_epi64(acc) as u64);
        self.pos = self.pos.wrapping_add(PHI.wrapping_mul(whole as u64));
        self.n += whole as u64;
        for &w in tail {
            self.word(w);
        }
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

    /// Seeded random words with the extremes mixed in.
    fn corpus(rng: &mut SmallRng, n: usize) -> Vec<u64> {
        (0..n)
            .map(|i| match i % 7 {
                3 => 0,
                5 => u64::MAX,
                _ => rng.next_u64(),
            })
            .collect()
    }

    /// Checks `run` against a `word` loop for every run length 0..=40
    /// after 0..=9 leading words, so the lanes start at every position.
    fn matches_the_word_loop(run: impl Fn(&mut Checksummer, &[u64])) {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0003);
        for seed in [DEFAULT_SEED, rng.next_u64()] {
            let words = corpus(&mut rng, 49);
            for lead in 0..=9 {
                for len in 0..=40 {
                    let (head, body) = (&words[..lead], &words[lead..lead + len]);
                    let mut want = Checksummer::new(seed);
                    let mut got = Checksummer::new(seed);
                    for &w in head {
                        want.word(w);
                        got.word(w);
                    }
                    for &w in body {
                        want.word(w);
                    }
                    run(&mut got, body);
                    assert_eq!(
                        got.finish(),
                        want.finish(),
                        "seed {seed:#x}: {len} words after {lead}"
                    );
                    // The state, not only the digest, so a later `word`
                    // continues from the right position.
                    want.word(7);
                    got.word(7);
                    assert_eq!(got.finish(), want.finish(), "{len} after {lead}, then one");
                }
            }
        }
    }

    #[test]
    fn words_equals_a_word_loop() {
        matches_the_word_loop(|c, ws| c.words(ws));
    }

    #[test]
    fn the_vector_kernel_equals_a_word_loop() {
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            // SAFETY: `avx512()` confirmed AVX-512F/DQ on this CPU.
            matches_the_word_loop(|c, ws| unsafe { c.words_avx512(ws) });
            return;
        }
        println!("note: no AVX-512F/DQ on this host; the vector kernel went untested");
    }

    #[test]
    fn a_segment_digest_covers_its_summary_then_its_entry_triples() {
        let mut rng = SmallRng::seed_from_u64(0x5EED_0004);
        for n in 0..=20 {
            let words = corpus(&mut rng, 3 * n + 3);
            let segment = crate::SealedSegment {
                base_lsn: words[0],
                physical_start: words[1],
                merged: words[2] & 1 == 1,
                entries: words[3..]
                    .chunks_exact(3)
                    .map(|t| crate::MapEntry {
                        lsn: t[0],
                        logical: t[1],
                        physical: t[2],
                    })
                    .collect(),
                checksum: 0,
            };
            let summary = [words[0], words[1], words[2] & 1, n as u64];
            let want = checksum_words(
                DEFAULT_SEED,
                summary.into_iter().chain(words[3..].iter().copied()),
            );
            assert_eq!(segment.compute_checksum(DEFAULT_SEED), want, "{n} entries");
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

//! Byte-stream filter grafts (Stream; §3.2's filter-chain examples).
//!
//! Beyond MD5, §3.2 motivates stream grafts with transparent
//! compression/encryption and the UNIX Stream I/O system's filter
//! chains. This module provides two more filters in the same ABI —
//! an XOR stream cipher (the encryption stand-in) and a Fletcher-style
//! checksum — plus [`FilterChain`], which composes filter grafts the
//! way the paper's character-I/O chains did.
//!
//! ## Region ABI
//!
//! `data` holds one byte per word; `filter(len, arg) -> out_len`
//! transforms it in place.

use graft_api::{
    ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionId,
    RegionSpec, RegionStore,
};

/// Bytes per filter invocation.
pub const CHUNK: usize = 4096;

/// Grail source for the XOR stream cipher.
pub const XOR_GRAIL: &str = r#"
// XOR stream cipher with a rolling 8-bit keystream seeded by `arg`.
var ks = 0;

fn filter_init(arg: int) {
    ks = arg & 255;
}

fn filter(len: int, arg: int) -> int {
    let i = 0;
    while i < len {
        data[i] = data[i] ^ ks;
        ks = (ks * 5 + 17) & 255;
        i = i + 1;
    }
    return len;
}
"#;

/// Grail source for the checksum filter (data passes through, a
/// Fletcher-16 accumulates in globals, as MD5's state does).
pub const SUM_GRAIL: &str = r#"
var s1 = 0;
var s2 = 0;

fn filter_init(arg: int) {
    s1 = 0;
    s2 = 0;
}

fn filter(len: int, arg: int) -> int {
    let i = 0;
    while i < len {
        s1 = (s1 + data[i]) % 255;
        s2 = (s2 + s1) % 255;
        i = i + 1;
    }
    return len;
}

fn checksum() -> int {
    return s2 * 256 + s1;
}
"#;

/// Grail source for a run-length compressor (§3.2: "we might want the
/// kernel to transparently compress a file when it is written").
///
/// Output format: `(count, byte)` pairs; `filter` returns the encoded
/// length, which is at most `2 × len` and usually far less on runs.
pub const RLE_GRAIL: &str = r#"
fn filter_init(arg: int) {
}

fn filter(len: int, arg: int) -> int {
    // Encode in place into scratch, then copy back.
    let out = 0;
    let i = 0;
    while i < len {
        let b = data[i];
        let run = 1;
        while i + run < len && data[i + run] == b && run < 255 {
            run = run + 1;
        }
        scratch[out] = run;
        scratch[out + 1] = b;
        out = out + 2;
        i = i + run;
    }
    let j = 0;
    while j < out {
        data[j] = scratch[j];
        j = j + 1;
    }
    return out;
}

fn expand(len: int) -> int {
    // Decode (count, byte) pairs from data into scratch, copy back.
    let out = 0;
    let i = 0;
    while i < len {
        let run = data[i];
        let b = data[i + 1];
        let k = 0;
        while k < run {
            scratch[out] = b;
            out = out + 1;
            k = k + 1;
        }
        i = i + 2;
    }
    let j = 0;
    while j < out {
        data[j] = scratch[j];
        j = j + 1;
    }
    return out;
}
"#;

/// The RLE compressor package. `scratch` is sized 2× the data chunk
/// because incompressible input doubles.
pub fn rle_spec() -> GraftSpec {
    GraftSpec::new("rle-compressor", GraftClass::Stream, Motivation::Functionality)
        .region(RegionSpec::data("data", 2 * CHUNK))
        .region(RegionSpec::data("scratch", 2 * CHUNK))
        .entry("filter_init", 1)
        .entry("filter", 2)
        .entry("expand", 1)
        .with_grail(RLE_GRAIL)
}

/// Native XOR cipher (same keystream).
#[derive(Debug, Default)]
pub struct NativeXor {
    data: Option<RegionId>,
    ks: i64,
}

impl NativeGraft for NativeXor {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        match entry {
            "filter_init" => {
                self.ks = args[0] & 255;
                Ok(0)
            }
            "filter" => {
                let len = args[0] as usize;
                let id = crate::region_id(&mut self.data, regions, "data")?;
                let data = regions.region_mut(id).words_mut();
                for w in data.iter_mut().take(len) {
                    *w ^= self.ks;
                    self.ks = (self.ks * 5 + 17) & 255;
                }
                Ok(len as i64)
            }
            other => Err(graft_api::engine::no_such_entry(other)),
        }
    }
}

/// The XOR filter package.
pub fn xor_spec() -> GraftSpec {
    GraftSpec::new("xor-stream-cipher", GraftClass::Stream, Motivation::Functionality)
        .region(RegionSpec::data("data", CHUNK))
        .entry("filter_init", 1)
        .entry("filter", 2)
        .with_grail(XOR_GRAIL)
        .with_native(Box::new(|| Box::<NativeXor>::default()))
}

/// The checksum filter package.
pub fn checksum_spec() -> GraftSpec {
    GraftSpec::new("fletcher-checksum", GraftClass::Stream, Motivation::Functionality)
        .region(RegionSpec::data("data", CHUNK))
        .entry("filter_init", 1)
        .entry("filter", 2)
        .entry("checksum", 0)
        .with_grail(SUM_GRAIL)
}

/// A chain of filter grafts applied in order to a byte stream — the
/// Stream I/O System structure from Ritchie as cited in §3.2.
pub struct FilterChain {
    stages: Vec<Box<dyn ExtensionEngine>>,
}

impl FilterChain {
    /// Builds a chain and initializes every stage with `arg`.
    pub fn new(mut stages: Vec<Box<dyn ExtensionEngine>>, arg: i64) -> Result<Self, GraftError> {
        for s in stages.iter_mut() {
            s.invoke("filter_init", &[arg])?;
        }
        Ok(FilterChain { stages })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the chain has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// A stage, for querying stage-specific entries (e.g. `checksum`).
    pub fn stage_mut(&mut self, i: usize) -> &mut dyn ExtensionEngine {
        self.stages[i].as_mut()
    }

    /// Pushes `bytes` through every stage in order, returning the
    /// transformed bytes.
    pub fn process(&mut self, bytes: &[u8]) -> Result<Vec<u8>, GraftError> {
        let mut out = Vec::with_capacity(bytes.len());
        for chunk in bytes.chunks(CHUNK) {
            let mut words: Vec<i64> = chunk.iter().map(|&b| b as i64).collect();
            for stage in self.stages.iter_mut() {
                stage.load_region("data", 0, &words)?;
                let n = stage.invoke("filter", &[words.len() as i64, 0])? as usize;
                words.resize(n, 0);
                stage.read_region_slice("data", 0, &mut words)?;
            }
            out.extend(words.iter().map(|&w| (w & 0xFF) as u8));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_native::{load_grail, SafetyMode};

    fn xor_engine(mode: SafetyMode) -> Box<dyn ExtensionEngine> {
        let spec = xor_spec();
        Box::new(load_grail(spec.grail.as_ref().unwrap(), &spec.regions, mode).unwrap())
    }

    fn sum_engine() -> Box<dyn ExtensionEngine> {
        let spec = checksum_spec();
        Box::new(
            load_grail(
                spec.grail.as_ref().unwrap(),
                &spec.regions,
                SafetyMode::Safe { nil_checks: true },
            )
            .unwrap(),
        )
    }

    #[test]
    fn xor_cipher_round_trips() {
        let plain: Vec<u8> = (0..10_000u32).map(|i| (i % 256) as u8).collect();
        let mut enc = FilterChain::new(vec![xor_engine(SafetyMode::Unchecked)], 0x5A).unwrap();
        let cipher = enc.process(&plain).unwrap();
        assert_ne!(cipher, plain);
        let mut dec =
            FilterChain::new(vec![xor_engine(SafetyMode::Safe { nil_checks: true })], 0x5A)
                .unwrap();
        assert_eq!(dec.process(&cipher).unwrap(), plain);
    }

    #[test]
    fn grail_xor_matches_native() {
        let plain = vec![7u8; 300];
        let mut grail = FilterChain::new(vec![xor_engine(SafetyMode::Unchecked)], 9).unwrap();
        let spec = xor_spec();
        let native = graft_api::NativeEngine::new(
            &spec.regions,
            (spec.native.as_ref().unwrap())(),
        )
        .unwrap();
        let mut native = FilterChain::new(vec![Box::new(native)], 9).unwrap();
        assert_eq!(
            grail.process(&plain).unwrap(),
            native.process(&plain).unwrap()
        );
    }

    #[test]
    fn checksum_passes_data_through_and_detects_changes() {
        let data: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 256) as u8).collect();
        let mut chain = FilterChain::new(vec![sum_engine()], 0).unwrap();
        let out = chain.process(&data).unwrap();
        assert_eq!(out, data, "checksum filter must not modify the stream");
        let sum1 = chain.stage_mut(0).invoke("checksum", &[]).unwrap();

        let mut tampered = data.clone();
        tampered[1234] ^= 1;
        let mut chain2 = FilterChain::new(vec![sum_engine()], 0).unwrap();
        chain2.process(&tampered).unwrap();
        let sum2 = chain2.stage_mut(0).invoke("checksum", &[]).unwrap();
        assert_ne!(sum1, sum2);
    }

    fn rle_engine(mode: SafetyMode) -> Box<dyn ExtensionEngine> {
        let spec = rle_spec();
        Box::new(load_grail(spec.grail.as_ref().unwrap(), &spec.regions, mode).unwrap())
    }

    fn rle_round_trip(engine: &mut dyn ExtensionEngine, bytes: &[u8]) -> (usize, Vec<u8>) {
        let words: Vec<i64> = bytes.iter().map(|&b| b as i64).collect();
        engine.load_region("data", 0, &words).unwrap();
        let packed = engine.invoke("filter", &[bytes.len() as i64, 0]).unwrap() as usize;
        let expanded = engine.invoke("expand", &[packed as i64]).unwrap() as usize;
        let mut out = vec![0i64; expanded];
        engine.read_region_slice("data", 0, &mut out).unwrap();
        (packed, out.iter().map(|&w| w as u8).collect())
    }

    #[test]
    fn rle_round_trips_and_compresses_runs() {
        // A run-heavy "file": long zero runs with occasional markers.
        let mut bytes = vec![0u8; 900];
        for i in (0..900).step_by(97) {
            bytes[i] = 0xEE;
        }
        for mode in [SafetyMode::Unchecked, SafetyMode::Safe { nil_checks: true }] {
            let mut e = rle_engine(mode);
            let (packed, restored) = rle_round_trip(e.as_mut(), &bytes);
            assert_eq!(restored, bytes, "{mode:?}");
            assert!(
                packed < bytes.len() / 10,
                "runs must compress well: {packed} of {}",
                bytes.len()
            );
        }
    }

    #[test]
    fn rle_handles_incompressible_and_tiny_inputs() {
        let mut e = rle_engine(SafetyMode::Safe { nil_checks: true });
        // Strictly alternating bytes: worst case, encoded = 2× input.
        let worst: Vec<u8> = (0..300).map(|i| (i % 2) as u8).collect();
        let (packed, restored) = rle_round_trip(e.as_mut(), &worst);
        assert_eq!(restored, worst);
        assert_eq!(packed, 2 * worst.len());
        // Empty and single-byte inputs.
        let (packed, restored) = rle_round_trip(e.as_mut(), &[]);
        assert_eq!((packed, restored.len()), (0, 0));
        let (_, restored) = rle_round_trip(e.as_mut(), &[7]);
        assert_eq!(restored, vec![7]);
    }

    #[test]
    fn rle_runs_longer_than_255_split_correctly() {
        let mut e = rle_engine(SafetyMode::Unchecked);
        let bytes = vec![9u8; 600];
        let (packed, restored) = rle_round_trip(e.as_mut(), &bytes);
        assert_eq!(restored, bytes);
        // 600 = 255 + 255 + 90 → three pairs.
        assert_eq!(packed, 6);
    }

    #[test]
    fn chained_filters_compose_like_stream_io() {
        // encrypt → checksum: the checksum sees ciphertext; output is
        // still the ciphertext (checksum is pass-through).
        let plain = vec![42u8; 1000];
        let mut solo = FilterChain::new(vec![xor_engine(SafetyMode::Unchecked)], 1).unwrap();
        let cipher = solo.process(&plain).unwrap();

        let mut chain = FilterChain::new(
            vec![xor_engine(SafetyMode::Unchecked), sum_engine()],
            1,
        )
        .unwrap();
        let out = chain.process(&plain).unwrap();
        assert_eq!(out, cipher);
        assert_eq!(chain.len(), 2);
    }
}

//! The MD5 fingerprinting graft (Stream; §3.2, Table 5).
//!
//! The full RFC 1321 algorithm — rounds, padding, length trailer — is
//! implemented in Grail (for the compiled and bytecode technologies)
//! and in Tickle (for the script technology), and checked word for word
//! against the reference implementation in `graft-md5`. As the paper
//! notes, the test "makes heavy use of array access and unsigned 32-bit
//! arithmetic": the Grail and Tickle versions do their 32-bit work in
//! 64-bit integers masked to `0xFFFFFFFF`, exactly the `Word`-package
//! idiom the paper discusses for the 64-bit Alpha.
//!
//! ## Region ABI
//!
//! * `msg` — the kernel marshals file bytes here, one byte per word,
//!   with 128 words of slack for the graft to build its padding blocks;
//! * `mw` — 16-word scratch for the decoded message block.
//!
//! Entry points: `md5_init()`, `md5_blocks(n)` (hash `n` 64-byte blocks
//! from `msg[0..]`), `md5_final(rem)` (pad and finish with `rem` tail
//! bytes in `msg`), `md5_state(i)` (read chaining word *i*).

use graft_api::{
    EntryId, ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft,
    RegionId, RegionSpec, RegionStore,
};

/// Bytes marshalled per `md5_blocks` call (must be a multiple of 64).
pub const CHUNK: usize = 16_384;
/// `msg` region length in words: a chunk plus padding slack.
pub const MSG_LEN: usize = CHUNK + 128;

fn table_lines(prefix: &str, values: &[u32], grail: bool) -> String {
    let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
    if grail {
        format!("const {prefix}[{}] = {{ {} }};", values.len(), vals.join(", "))
    } else {
        values
            .iter()
            .enumerate()
            .map(|(i, v)| format!("set {prefix}({i}) {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Grail source for the MD5 graft (generated to embed the RFC tables).
pub fn grail_source() -> String {
    let t = table_lines("T", &graft_md5::T, true);
    let s = table_lines("S", &graft_md5::S, true);
    format!(
        r#"
// MD5 (RFC 1321) as a stream graft. 32-bit arithmetic is done in
// 64-bit integers masked to 0xFFFFFFFF (the paper's Alpha idiom).
{t}
{s}

var a0 = 0;
var b0 = 0;
var c0 = 0;
var d0 = 0;
var total = 0;

fn md5_init() {{
    a0 = 0x67452301;
    b0 = 0xefcdab89;
    c0 = 0x98badcfe;
    d0 = 0x10325476;
    total = 0;
}}

fn rotl(x: int, n: int) -> int {{
    return ((x << n) | (x >> (32 - n))) & 0xFFFFFFFF;
}}

fn md5_block(off: int) {{
    let j = 0;
    while j < 16 {{
        let b = off + j * 4;
        mw[j] = msg[b] | (msg[b + 1] << 8) | (msg[b + 2] << 16) | (msg[b + 3] << 24);
        j = j + 1;
    }}
    let a = a0;
    let b = b0;
    let c = c0;
    let d = d0;
    let i = 0;
    while i < 64 {{
        let f = 0;
        let g = 0;
        if i < 16 {{
            f = (b & c) | (~b & d);
            g = i;
        }} else if i < 32 {{
            f = (d & b) | (~d & c);
            g = (5 * i + 1) % 16;
        }} else if i < 48 {{
            f = b ^ c ^ d;
            g = (3 * i + 5) % 16;
        }} else {{
            f = c ^ (b | (~d & 0xFFFFFFFF));
            g = (7 * i) % 16;
        }}
        f = f & 0xFFFFFFFF;
        let tmp = d;
        d = c;
        c = b;
        let sum = (a + f + T[i] + mw[g]) & 0xFFFFFFFF;
        b = (b + rotl(sum, S[i])) & 0xFFFFFFFF;
        a = tmp;
        i = i + 1;
    }}
    a0 = (a0 + a) & 0xFFFFFFFF;
    b0 = (b0 + b) & 0xFFFFFFFF;
    c0 = (c0 + c) & 0xFFFFFFFF;
    d0 = (d0 + d) & 0xFFFFFFFF;
}}

fn md5_blocks(n: int) {{
    let k = 0;
    while k < n {{
        md5_block(k * 64);
        k = k + 1;
    }}
    total = total + n * 64;
}}

fn md5_final(rem: int) {{
    let bits = (total + rem) * 8;
    msg[rem] = 128;
    let blocks = 1;
    if rem >= 56 {{
        blocks = 2;
    }}
    let len = blocks * 64;
    let i = rem + 1;
    while i < len {{
        msg[i] = 0;
        i = i + 1;
    }}
    let j = 0;
    while j < 8 {{
        msg[len - 8 + j] = (bits >> (j * 8)) & 255;
        j = j + 1;
    }}
    md5_block(0);
    if blocks == 2 {{
        md5_block(64);
    }}
}}

fn md5_state(i: int) -> int {{
    if i == 0 {{ return a0; }}
    if i == 1 {{ return b0; }}
    if i == 2 {{ return c0; }}
    return d0;
}}
"#
    )
}

/// Tickle source for the MD5 graft.
pub fn tickle_source() -> String {
    let t = table_lines("T", &graft_md5::T, false);
    let s = table_lines("S", &graft_md5::S, false);
    format!(
        r#"
{t}
{s}

proc md5_init {{}} {{
    global a0 b0 c0 d0 total
    set a0 1732584193
    set b0 4023233417
    set c0 2562383102
    set d0 271733878
    set total 0
}}

proc rotl {{x n}} {{
    return [expr (($x << $n) | ($x >> (32 - $n))) & 0xFFFFFFFF]
}}

proc md5_block {{off}} {{
    global a0 b0 c0 d0 T S mw
    for {{set j 0}} {{$j < 16}} {{incr j}} {{
        set b [expr $off + $j * 4]
        set mw($j) [expr [rload msg $b] | ([rload msg [expr $b+1]] << 8) | ([rload msg [expr $b+2]] << 16) | ([rload msg [expr $b+3]] << 24)]
    }}
    set a $a0
    set b $b0
    set c $c0
    set d $d0
    for {{set i 0}} {{$i < 64}} {{incr i}} {{
        if {{$i < 16}} {{
            set f [expr ($b & $c) | (~$b & $d)]
            set g $i
        }} elseif {{$i < 32}} {{
            set f [expr ($d & $b) | (~$d & $c)]
            set g [expr (5 * $i + 1) % 16]
        }} elseif {{$i < 48}} {{
            set f [expr $b ^ $c ^ $d]
            set g [expr (3 * $i + 5) % 16]
        }} else {{
            set f [expr $c ^ ($b | (~$d & 0xFFFFFFFF))]
            set g [expr (7 * $i) % 16]
        }}
        set f [expr $f & 0xFFFFFFFF]
        set tmp $d
        set d $c
        set c $b
        set sum [expr ($a + $f + $T($i) + $mw($g)) & 0xFFFFFFFF]
        set b [expr ($b + [rotl $sum $S($i)]) & 0xFFFFFFFF]
        set a $tmp
    }}
    set a0 [expr ($a0 + $a) & 0xFFFFFFFF]
    set b0 [expr ($b0 + $b) & 0xFFFFFFFF]
    set c0 [expr ($c0 + $c) & 0xFFFFFFFF]
    set d0 [expr ($d0 + $d) & 0xFFFFFFFF]
}}

proc md5_blocks {{n}} {{
    global total
    for {{set k 0}} {{$k < $n}} {{incr k}} {{
        md5_block [expr $k * 64]
    }}
    set total [expr $total + $n * 64]
    return 0
}}

proc md5_final {{rem}} {{
    global total
    set bits [expr ($total + $rem) * 8]
    rstore msg $rem 128
    set blocks 1
    if {{$rem >= 56}} {{ set blocks 2 }}
    set len [expr $blocks * 64]
    for {{set i [expr $rem + 1]}} {{$i < $len}} {{incr i}} {{
        rstore msg $i 0
    }}
    for {{set j 0}} {{$j < 8}} {{incr j}} {{
        rstore msg [expr $len - 8 + $j] [expr ($bits >> ($j * 8)) & 255]
    }}
    md5_block 0
    if {{$blocks == 2}} {{ md5_block 64 }}
    return 0
}}

proc md5_state {{i}} {{
    global a0 b0 c0 d0
    if {{$i == 0}} {{ return $a0 }}
    if {{$i == 1}} {{ return $b0 }}
    if {{$i == 2}} {{ return $c0 }}
    return $d0
}}
"#
    )
}

/// Native implementation of the same ABI (regions in, state in fields).
#[derive(Debug, Default)]
pub struct NativeMd5 {
    msg: Option<RegionId>,
    state: [u64; 4],
    total: u64,
}

impl NativeMd5 {
    fn block(&mut self, msg: &[i64], off: usize) {
        let mut mw = [0u32; 16];
        for (j, w) in mw.iter_mut().enumerate() {
            let b = off + j * 4;
            *w = (msg[b] as u32 & 0xFF)
                | ((msg[b + 1] as u32 & 0xFF) << 8)
                | ((msg[b + 2] as u32 & 0xFF) << 16)
                | ((msg[b + 3] as u32 & 0xFF) << 24);
        }
        let [mut a, mut b, mut c, mut d] =
            [self.state[0] as u32, self.state[1] as u32, self.state[2] as u32, self.state[3] as u32];
        for i in 0..64 {
            let (f, g) = match i / 16 {
                0 => ((b & c) | (!b & d), i),
                1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                2 => (b ^ c ^ d, (3 * i + 5) % 16),
                _ => (c ^ (b | !d), (7 * i) % 16),
            };
            let tmp = d;
            d = c;
            c = b;
            let sum = a
                .wrapping_add(f)
                .wrapping_add(graft_md5::T[i])
                .wrapping_add(mw[g]);
            b = b.wrapping_add(sum.rotate_left(graft_md5::S[i]));
            a = tmp;
        }
        self.state[0] = (self.state[0] as u32).wrapping_add(a) as u64;
        self.state[1] = (self.state[1] as u32).wrapping_add(b) as u64;
        self.state[2] = (self.state[2] as u32).wrapping_add(c) as u64;
        self.state[3] = (self.state[3] as u32).wrapping_add(d) as u64;
    }
}

impl NativeGraft for NativeMd5 {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        match entry {
            "md5_init" => {
                self.state = [0x6745_2301, 0xefcd_ab89, 0x98ba_dcfe, 0x1032_5476];
                self.total = 0;
                Ok(0)
            }
            "md5_blocks" => {
                let n = args[0] as usize;
                let msg_id = crate::region_id(&mut self.msg, regions, "msg")?;
                let msg = regions.region(msg_id).words();
                for k in 0..n {
                    self.block(msg, k * 64);
                }
                self.total += (n * 64) as u64;
                Ok(0)
            }
            "md5_final" => {
                let rem = args[0] as usize;
                let bits = (self.total + rem as u64) * 8;
                let msg_id = crate::region_id(&mut self.msg, regions, "msg")?;
                let msg = regions.region_mut(msg_id).words_mut();
                msg[rem] = 128;
                let blocks = if rem >= 56 { 2 } else { 1 };
                let len = blocks * 64;
                for w in msg.iter_mut().take(len).skip(rem + 1) {
                    *w = 0;
                }
                for j in 0..8 {
                    msg[len - 8 + j] = ((bits >> (j * 8)) & 255) as i64;
                }
                self.block(msg, 0);
                if blocks == 2 {
                    self.block(msg, 64);
                }
                Ok(0)
            }
            "md5_state" => Ok(self.state[(args[0] as usize).min(3)] as i64),
            other => Err(graft_api::engine::no_such_entry(other)),
        }
    }
}

/// The portable graft package.
pub fn spec() -> GraftSpec {
    GraftSpec::new("md5-fingerprint", GraftClass::Stream, Motivation::Functionality)
        .region(RegionSpec::data("msg", MSG_LEN))
        .region(RegionSpec::data("mw", 16))
        .entry("md5_init", 0)
        .entry("md5_blocks", 1)
        .entry("md5_final", 1)
        .entry("md5_state", 1)
        .with_grail(&grail_source())
        .with_tickle(&tickle_source())
        .with_native(Box::new(|| Box::<NativeMd5>::default()))
}

/// Kernel-side wrapper: drives any engine through the MD5 graft ABI as
/// a byte-stream filter.
pub struct Md5Graft<'e> {
    engine: &'e mut dyn ExtensionEngine,
    /// Tail bytes not yet forming a whole 64-byte block.
    pending: Vec<u8>,
    /// Staging for `msg`, one byte per word: this thread's reused
    /// buffer, held until the digest is dropped.
    words: crate::Scratch,
    /// Pre-bound handles (two-phase ABI): names are resolved once in
    /// [`Md5Graft::start`]; the streaming hot path below is entirely
    /// id-based — no string lookup per chunk.
    msg: RegionId,
    e_blocks: EntryId,
    e_final: EntryId,
    e_state: EntryId,
}

impl<'e> Md5Graft<'e> {
    /// Starts a fingerprint on `engine` (which must host the MD5 graft).
    pub fn start(engine: &'e mut dyn ExtensionEngine) -> Result<Self, GraftError> {
        let msg = engine.bind_region("msg")?;
        let e_init = engine.bind_entry("md5_init")?;
        let e_blocks = engine.bind_entry("md5_blocks")?;
        let e_final = engine.bind_entry("md5_final")?;
        let e_state = engine.bind_entry("md5_state")?;
        engine.invoke_id(e_init, &[])?;
        Ok(Md5Graft {
            engine,
            pending: Vec::with_capacity(64),
            words: crate::Scratch::take(CHUNK),
            msg,
            e_blocks,
            e_final,
            e_state,
        })
    }

    /// Streams `data` through the graft.
    pub fn update(&mut self, data: &[u8]) -> Result<(), GraftError> {
        let mut rest = data;
        if !self.pending.is_empty() {
            let need = 64 - self.pending.len();
            let take = need.min(rest.len());
            self.pending.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.pending.len() == 64 {
                let block = std::mem::take(&mut self.pending);
                self.feed_blocks(&block)?;
                self.pending = block;
                self.pending.clear();
            } else {
                return Ok(());
            }
        }
        let whole = rest.len() - rest.len() % 64;
        let mut at = 0;
        while at < whole {
            let n = (whole - at).min(CHUNK);
            self.feed_blocks(&rest[at..at + n])?;
            at += n;
        }
        self.pending.extend_from_slice(&rest[whole..]);
        Ok(())
    }

    fn feed_blocks(&mut self, bytes: &[u8]) -> Result<(), GraftError> {
        debug_assert!(bytes.len().is_multiple_of(64) && bytes.len() <= CHUNK);
        self.load(bytes)?;
        self.engine
            .invoke_id(self.e_blocks, &[(bytes.len() / 64) as i64])
            .map(|_| ())
    }

    /// Stages `bytes` one per word and loads them at `msg[0..]`.
    fn load(&mut self, bytes: &[u8]) -> Result<(), GraftError> {
        let words = &mut self.words[..bytes.len()];
        for (w, &b) in words.iter_mut().zip(bytes) {
            *w = b as i64;
        }
        self.engine.load_region_id(self.msg, 0, words)
    }

    /// Pads, finishes, and returns the 16-byte fingerprint.
    pub fn finish(mut self) -> Result<[u8; 16], GraftError> {
        let tail = std::mem::take(&mut self.pending);
        self.load(&tail)?;
        self.engine.invoke_id(self.e_final, &[tail.len() as i64])?;
        let mut out = [0u8; 16];
        for i in 0..4 {
            let w = self.engine.invoke_id(self.e_state, &[i as i64])? as u32;
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_le_bytes());
        }
        Ok(out)
    }
}

/// Graft invocations [`digest_via`] makes to fingerprint `len` bytes:
/// `md5_init`, one `md5_blocks` per [`CHUNK`] of whole blocks,
/// `md5_final`, and four `md5_state`.
pub fn invocations(len: usize) -> usize {
    6 + (len - len % 64).div_ceil(CHUNK)
}

/// One-shot fingerprint through a graft engine.
pub fn digest_via(engine: &mut dyn ExtensionEngine, data: &[u8]) -> Result<[u8; 16], GraftError> {
    let mut g = Md5Graft::start(engine)?;
    g.update(data)?;
    g.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_bytecode::BytecodeEngine;
    use engine_native::{load_grail, SafetyMode};
    use engine_script::ScriptEngine;

    fn grail_engine(mode: SafetyMode) -> Box<dyn ExtensionEngine> {
        let spec = spec();
        Box::new(load_grail(spec.grail.as_ref().unwrap(), &spec.regions, mode).unwrap())
    }

    #[test]
    fn grail_md5_matches_rfc_vectors() {
        let cases: [&[u8]; 4] = [b"", b"abc", b"message digest", b"12345678901234567890123456789012345678901234567890123456789012345678901234567890"];
        let mut e = grail_engine(SafetyMode::Safe { nil_checks: true });
        for data in cases {
            let got = digest_via(e.as_mut(), data).unwrap();
            assert_eq!(got, graft_md5::digest(data), "input {data:?}");
        }
    }

    #[test]
    fn all_compiled_modes_agree_on_multi_block_input() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 37 % 256) as u8).collect();
        let want = graft_md5::digest(&data);
        for mode in [
            SafetyMode::Unchecked,
            SafetyMode::Safe { nil_checks: true },
            SafetyMode::Sfi { read_protect: false },
            SafetyMode::Sfi { read_protect: true },
        ] {
            let mut e = grail_engine(mode);
            assert_eq!(digest_via(e.as_mut(), &data).unwrap(), want, "{mode:?}");
        }
    }

    #[test]
    fn bytecode_md5_matches_reference() {
        let spec = spec();
        let mut e =
            BytecodeEngine::load_grail(spec.grail.as_ref().unwrap(), &spec.regions).unwrap();
        let data = vec![0x5Au8; 300];
        assert_eq!(digest_via(&mut e, &data).unwrap(), graft_md5::digest(&data));
    }

    #[test]
    fn tickle_md5_matches_reference_on_small_input() {
        let spec = spec();
        let mut e = ScriptEngine::load(spec.tickle.as_ref().unwrap(), &spec.regions).unwrap();
        for data in [&b"abc"[..], &b"0123456789012345678901234567890123456789012345678901234567890123456789"[..]] {
            assert_eq!(
                digest_via(&mut e, data).unwrap(),
                graft_md5::digest(data),
                "input {data:?}"
            );
        }
    }

    #[test]
    fn native_graft_matches_reference() {
        let spec = spec();
        let mut e =
            graft_api::NativeEngine::new(&spec.regions, (spec.native.as_ref().unwrap())())
                .unwrap();
        let data: Vec<u8> = (0..777u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(digest_via(&mut e, &data).unwrap(), graft_md5::digest(&data));
    }

    #[test]
    fn streaming_split_points_do_not_matter() {
        let data: Vec<u8> = (0..500u32).map(|i| (i * 13 % 256) as u8).collect();
        let want = graft_md5::digest(&data);
        let mut e = grail_engine(SafetyMode::Unchecked);
        for split in [1usize, 63, 64, 65, 200, 499] {
            let mut g = Md5Graft::start(e.as_mut()).unwrap();
            g.update(&data[..split]).unwrap();
            g.update(&data[split..]).unwrap();
            assert_eq!(g.finish().unwrap(), want, "split {split}");
        }
    }

    #[test]
    fn padding_boundaries_are_correct_in_grail() {
        let mut e = grail_engine(SafetyMode::Safe { nil_checks: true });
        for len in [55usize, 56, 57, 63, 64, 65, 119, 120] {
            let data = vec![b'y'; len];
            assert_eq!(
                digest_via(e.as_mut(), &data).unwrap(),
                graft_md5::digest(&data),
                "len {len}"
            );
        }
    }

    #[test]
    fn invocation_count_covers_every_call_digest_via_makes() {
        assert_eq!(invocations(10), 6);
        assert_eq!(invocations(64), 7);
        assert_eq!(invocations(CHUNK), 7);
        assert_eq!(invocations(CHUNK + 64), 8);
        assert_eq!(invocations(1 << 20), 6 + (1 << 20) / CHUNK);
    }

    #[test]
    fn engine_state_resets_between_digests() {
        let mut e = grail_engine(SafetyMode::Unchecked);
        let first = digest_via(e.as_mut(), b"first").unwrap();
        let _ = digest_via(e.as_mut(), b"second").unwrap();
        let again = digest_via(e.as_mut(), b"first").unwrap();
        assert_eq!(first, again);
    }
}

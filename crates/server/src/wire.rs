//! The graft-server wire protocol: length-prefixed binary frames over
//! the id-based batched ABI.
//!
//! Every frame is `u32-LE length ‖ body`; the first body byte is the
//! opcode, and every request after `Hello` carries a client-chosen
//! `seq` that the server echoes in the reply. Echoing matters because
//! the data plane is served by the stealing shards: replies complete
//! *out of order* relative to submission, and `seq` is how the client
//! re-associates them.
//!
//! Two failure shapes are deliberately distinct:
//!
//! * a frame that *parses as a frame* but has a bad body (unknown
//!   opcode, truncated payload, string overrun) is answered with a
//!   typed [`WireError::Malformed`] reply and the connection stays up —
//!   the length prefix lets the decoder resynchronize on the next
//!   frame boundary;
//! * a frame whose declared length exceeds [`MAX_FRAME`] is fatal:
//!   the prefix itself can no longer be trusted, so the server closes
//!   the connection (the only tear-down the protocol performs).
//!
//! Stale handles never panic and never index: an `EntryId` the server
//! never issued comes back as [`WireError::StaleHandle`], the wire
//! image of [`Trap::BadHandle`] — deterministically, exactly as the
//! in-process engines behave.

use graft_api::{GraftError, Trap};
use graft_kernel::AttachPoint;
use std::fmt;
use std::ops::Deref;

/// Largest body a frame may declare. Generous for batched invokes
/// (8-byte args × thousands) while keeping a corrupted length prefix
/// from ballooning the connection buffer.
pub const MAX_FRAME: usize = 1 << 16;

/// Arguments an [`InvokeArgs`] holds without the heap: the largest
/// attach-point arity, so every invoke a graft can accept decodes in
/// place.
pub const INLINE_ARGS: usize = AttachPoint::MAX_ARITY;

/// An `Invoke`'s argument list. Up to [`INLINE_ARGS`] words live
/// inline, so a single invoke crosses decode, admission and the run
/// queue without an allocation; a longer list (which no attach point
/// accepts, and which the engine answers `BadArity`) is kept on the
/// heap. Compares and prints as the slice it holds.
#[derive(Clone)]
pub struct InvokeArgs(ArgWords);

#[derive(Clone)]
enum ArgWords {
    Inline { len: u8, words: [i64; INLINE_ARGS] },
    Heap(Vec<i64>),
}

impl InvokeArgs {
    /// `args` held inline; at most [`INLINE_ARGS`] of them.
    fn inline(args: &[i64]) -> Self {
        let mut words = [0; INLINE_ARGS];
        words[..args.len()].copy_from_slice(args);
        InvokeArgs(ArgWords::Inline {
            len: args.len() as u8,
            words,
        })
    }
}

impl From<Vec<i64>> for InvokeArgs {
    fn from(args: Vec<i64>) -> Self {
        if args.len() > INLINE_ARGS {
            InvokeArgs(ArgWords::Heap(args))
        } else {
            InvokeArgs::inline(&args)
        }
    }
}

impl Deref for InvokeArgs {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        match &self.0 {
            ArgWords::Inline { len, words } => &words[..*len as usize],
            ArgWords::Heap(args) => args,
        }
    }
}

impl PartialEq for InvokeArgs {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for InvokeArgs {}

impl fmt::Debug for InvokeArgs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// Request opcodes (first body byte, client → server).
mod op {
    pub const HELLO: u8 = 0x01;
    pub const INSTALL: u8 = 0x02;
    pub const BIND: u8 = 0x03;
    pub const INVOKE: u8 = 0x04;
    pub const INVOKE_BATCH: u8 = 0x05;
    pub const UNINSTALL: u8 = 0x06;
    pub const BYE: u8 = 0x07;
}

/// Reply opcodes (first body byte, server → client).
mod rop {
    pub const WELCOME: u8 = 0x81;
    pub const INSTALLED: u8 = 0x82;
    pub const BOUND: u8 = 0x83;
    pub const VALUE: u8 = 0x84;
    pub const BATCH: u8 = 0x85;
    pub const GONE: u8 = 0x86;
    pub const ERROR: u8 = 0xff;
}

/// A client → server frame body, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// First frame on a connection: authenticate as tenant `tenant`.
    Hello {
        /// Echoed in the reply.
        seq: u32,
        /// The tenant this connection acts for.
        tenant: u64,
    },
    /// Install a named graft spec (server-side registry) at an attach
    /// point with a technology, into this tenant's namespace.
    Install {
        /// Echoed in the reply.
        seq: u32,
        /// Attach-point code (see [`Request::encode`]).
        point: u8,
        /// Technology code.
        tech: u8,
        /// Spec name in the server's registry.
        spec: String,
    },
    /// Look up the bound entry id for `entry` on an installed graft.
    Bind {
        /// Echoed in the reply.
        seq: u32,
        /// Graft handle from `Installed`.
        graft: u64,
        /// Entry-point name.
        entry: String,
    },
    /// Invoke one pre-bound entry with `args`.
    Invoke {
        /// Echoed in the reply.
        seq: u32,
        /// Graft handle from `Installed`.
        graft: u64,
        /// Entry id from `Bound`.
        entry: u32,
        /// Arguments.
        args: InvokeArgs,
    },
    /// Invoke one entry `calls` times with packed `arity`-wide args —
    /// the wire image of `ExtensionEngine::invoke_batch`, with the same
    /// prefix-on-trap semantics.
    InvokeBatch {
        /// Echoed in the reply.
        seq: u32,
        /// Graft handle from `Installed`.
        graft: u64,
        /// Entry id from `Bound`.
        entry: u32,
        /// Per-call argument count.
        arity: u16,
        /// `calls × arity` packed arguments.
        args: Vec<i64>,
    },
    /// Remove a graft from this tenant's namespace.
    Uninstall {
        /// Echoed in the reply.
        seq: u32,
        /// Graft handle from `Installed`.
        graft: u64,
    },
    /// Orderly close.
    Bye {
        /// Echoed in the reply.
        seq: u32,
    },
}

/// A server → client frame body, decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `Hello` accepted.
    Welcome {
        /// Echo of the request seq.
        seq: u32,
        /// The tenant id acknowledged.
        tenant: u64,
    },
    /// `Install` succeeded; `graft` is the handle for later frames.
    Installed {
        /// Echo of the request seq.
        seq: u32,
        /// The new graft handle.
        graft: u64,
    },
    /// `Bind` succeeded.
    Bound {
        /// Echo of the request seq.
        seq: u32,
        /// The entry id to put in invoke frames.
        entry: u32,
    },
    /// An `Invoke` completed with a value.
    Value {
        /// Echo of the request seq.
        seq: u32,
        /// The graft's return value.
        value: i64,
    },
    /// An `InvokeBatch` completed: the per-call values that ran, plus
    /// the trap that stopped the batch if one did (prefix semantics).
    Batch {
        /// Echo of the request seq.
        seq: u32,
        /// Values for the calls that completed.
        values: Vec<i64>,
        /// The error that ended the batch early, if any.
        error: Option<WireError>,
    },
    /// `Uninstall`/`Bye` acknowledged.
    Gone {
        /// Echo of the request seq.
        seq: u32,
    },
    /// The request failed with a typed error.
    Error {
        /// Echo of the request seq (0 when the seq itself was
        /// unreadable).
        seq: u32,
        /// What went wrong.
        error: WireError,
    },
}

/// Typed wire errors. Everything a server can refuse is enumerated
/// here so clients never have to parse prose, and admission decisions
/// (`QuotaExceeded`, `Overloaded`, `Quarantined`) are distinguishable
/// from runtime faults (`Trap`) and protocol misuse (`Malformed`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The frame body did not parse; the connection survives.
    Malformed(String),
    /// A data frame arrived before `Hello`, or `Hello` came twice.
    Protocol(String),
    /// The graft handle does not exist in this tenant's namespace.
    NoSuchGraft(u64),
    /// A pre-bound handle the server never issued (wire image of
    /// [`Trap::BadHandle`]).
    StaleHandle {
        /// `0` = entry, `1` = region.
        kind: u8,
        /// The raw handle value presented.
        id: u32,
    },
    /// The graft trapped; `kind` is the [`graft_api::TrapKind`]
    /// discriminant and `detail` the rendered trap.
    Trap {
        /// Coarse trap taxonomy code.
        kind: u8,
        /// Human-readable trap rendering.
        detail: String,
    },
    /// A per-tenant quota (grafts installed, cumulative fuel) is
    /// exhausted.
    QuotaExceeded {
        /// Which quota (`"grafts"`, `"fuel"`, …).
        resource: String,
        /// The configured ceiling.
        limit: u64,
    },
    /// The tenant's in-flight cap (or the plane's queue capacity) is
    /// full; the request was rejected, not queued.
    Overloaded {
        /// Requests in flight when refused.
        in_flight: u64,
        /// The ceiling that was hit.
        cap: u64,
    },
    /// The tenant's graft is quarantined; requests are refused until
    /// the backoff window elapses (`0` = permanently banned).
    Quarantined {
        /// Clean server dispatches remaining before re-admission.
        backoff_remaining: u64,
    },
    /// The graft exists but cannot serve (detached, missing source…).
    Unavailable(String),
    /// Wrong argument count for the entry.
    BadArity {
        /// Declared parameter count.
        expected: u32,
        /// Supplied argument count.
        got: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
            WireError::Protocol(m) => write!(f, "protocol violation: {m}"),
            WireError::NoSuchGraft(id) => write!(f, "no such graft {id}"),
            WireError::StaleHandle { kind, id } => {
                let ns = if *kind == 0 { "entry" } else { "region" };
                write!(f, "stale or unknown {ns} handle {id}")
            }
            WireError::Trap { detail, .. } => write!(f, "graft trapped: {detail}"),
            WireError::QuotaExceeded { resource, limit } => {
                write!(f, "quota exceeded: {resource} (limit {limit})")
            }
            WireError::Overloaded { in_flight, cap } => {
                write!(f, "overloaded: {in_flight} in flight (cap {cap})")
            }
            WireError::Quarantined { backoff_remaining } => {
                write!(
                    f,
                    "tenant quarantined ({backoff_remaining} to re-admission)"
                )
            }
            WireError::Unavailable(m) => write!(f, "unavailable: {m}"),
            WireError::BadArity { expected, got } => {
                write!(f, "bad arity: expected {expected}, got {got}")
            }
        }
    }
}

impl From<&GraftError> for WireError {
    fn from(e: &GraftError) -> WireError {
        match e {
            GraftError::Trap(Trap::BadHandle { kind, id }) => WireError::StaleHandle {
                kind: u8::from(*kind != "entry"),
                id: *id,
            },
            GraftError::Trap(t) => WireError::Trap {
                kind: t.kind() as u8,
                detail: t.to_string(),
            },
            GraftError::QuotaExceeded { resource, limit } => WireError::QuotaExceeded {
                resource: (*resource).to_string(),
                limit: *limit,
            },
            GraftError::Overloaded { in_flight, cap } => WireError::Overloaded {
                in_flight: *in_flight,
                cap: *cap,
            },
            GraftError::Unavailable { graft, missing } => {
                WireError::Unavailable(format!("graft `{graft}`: {missing}"))
            }
            GraftError::BadArity { expected, got, .. } => WireError::BadArity {
                expected: *expected as u32,
                got: *got as u32,
            },
            other => WireError::Unavailable(other.to_string()),
        }
    }
}

// ---------------------------------------------------------------------
// Encoding primitives: little-endian integers, u16-length strings.

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize);
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over one frame body; every read is bounds-checked and a
/// short body yields `Malformed`, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.buf.len() - self.pos < n {
            return Err(WireError::Malformed(format!(
                "truncated body: wanted {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.bytes(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.bytes(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let raw = self.bytes(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string".into()))
    }

    fn i64_vec(&mut self, count: usize) -> Result<Vec<i64>, WireError> {
        // Validate against remaining bytes *before* allocating so a
        // forged count cannot balloon memory.
        if (self.buf.len() - self.pos) / 8 < count {
            return Err(WireError::Malformed(format!(
                "arg count {count} exceeds body"
            )));
        }
        (0..count).map(|_| self.i64()).collect()
    }

    fn invoke_args(&mut self, count: usize) -> Result<InvokeArgs, WireError> {
        if count > INLINE_ARGS {
            return Ok(InvokeArgs(ArgWords::Heap(self.i64_vec(count)?)));
        }
        let mut words = [0; INLINE_ARGS];
        for word in &mut words[..count] {
            *word = self.i64()?;
        }
        Ok(InvokeArgs::inline(&words[..count]))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.pos != self.buf.len() {
            return Err(WireError::Malformed(format!(
                "{} trailing bytes after body",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

/// Appends one frame to `out`: a length placeholder, the body `body`
/// writes after it, then the body's real length over the placeholder.
pub(crate) fn framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u32(out, 0);
    body(out);
    let len = out.len() - at - 4;
    debug_assert!(len <= MAX_FRAME);
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Bytes of an `Invoke` frame with `args` arguments, prefix included
/// (an `InvokeBatch` frame adds a 4-byte count).
pub(crate) const fn invoke_frame_len(args: usize) -> usize {
    4 + 1 + 4 + 8 + 4 + 2 + 8 * args
}

/// Writes an `Invoke` body from borrowed arguments.
pub(crate) fn put_invoke(b: &mut Vec<u8>, seq: u32, graft: u64, entry: u32, args: &[i64]) {
    b.push(op::INVOKE);
    put_u32(b, seq);
    put_u64(b, graft);
    put_u32(b, entry);
    put_u16(b, args.len() as u16);
    args.iter().for_each(|a| put_i64(b, *a));
}

/// Writes an `InvokeBatch` body from borrowed arguments.
pub(crate) fn put_invoke_batch(
    b: &mut Vec<u8>,
    seq: u32,
    graft: u64,
    entry: u32,
    arity: u16,
    args: &[i64],
) {
    b.push(op::INVOKE_BATCH);
    put_u32(b, seq);
    put_u64(b, graft);
    put_u32(b, entry);
    put_u16(b, arity);
    put_u32(b, args.len() as u32);
    args.iter().for_each(|a| put_i64(b, *a));
}

impl Request {
    /// Encodes this request as one length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends this request to `out` as one length-prefixed frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        framed(out, |b| match self {
            Request::Hello { seq, tenant } => {
                b.push(op::HELLO);
                put_u32(b, *seq);
                put_u64(b, *tenant);
            }
            Request::Install {
                seq,
                point,
                tech,
                spec,
            } => {
                b.push(op::INSTALL);
                put_u32(b, *seq);
                b.push(*point);
                b.push(*tech);
                put_str(b, spec);
            }
            Request::Bind { seq, graft, entry } => {
                b.push(op::BIND);
                put_u32(b, *seq);
                put_u64(b, *graft);
                put_str(b, entry);
            }
            Request::Invoke {
                seq,
                graft,
                entry,
                args,
            } => put_invoke(b, *seq, *graft, *entry, args),
            Request::InvokeBatch {
                seq,
                graft,
                entry,
                arity,
                args,
            } => put_invoke_batch(b, *seq, *graft, *entry, *arity, args),
            Request::Uninstall { seq, graft } => {
                b.push(op::UNINSTALL);
                put_u32(b, *seq);
                put_u64(b, *graft);
            }
            Request::Bye { seq } => {
                b.push(op::BYE);
                put_u32(b, *seq);
            }
        });
    }

    /// Decodes one frame *body* (length prefix already stripped).
    pub fn decode(body: &[u8]) -> Result<Request, WireError> {
        let mut c = Cursor::new(body);
        let opcode = c.u8()?;
        let req = match opcode {
            op::HELLO => Request::Hello {
                seq: c.u32()?,
                tenant: c.u64()?,
            },
            op::INSTALL => Request::Install {
                seq: c.u32()?,
                point: c.u8()?,
                tech: c.u8()?,
                spec: c.string()?,
            },
            op::BIND => Request::Bind {
                seq: c.u32()?,
                graft: c.u64()?,
                entry: c.string()?,
            },
            op::INVOKE => {
                let seq = c.u32()?;
                let graft = c.u64()?;
                let entry = c.u32()?;
                let argc = c.u16()? as usize;
                Request::Invoke {
                    seq,
                    graft,
                    entry,
                    args: c.invoke_args(argc)?,
                }
            }
            op::INVOKE_BATCH => {
                let seq = c.u32()?;
                let graft = c.u64()?;
                let entry = c.u32()?;
                let arity = c.u16()?;
                let total = c.u32()? as usize;
                let args = c.i64_vec(total)?;
                if arity != 0 && args.len() % arity as usize != 0 {
                    return Err(WireError::Malformed(format!(
                        "batch args {} not a multiple of arity {arity}",
                        args.len()
                    )));
                }
                Request::InvokeBatch {
                    seq,
                    graft,
                    entry,
                    arity,
                    args,
                }
            }
            op::UNINSTALL => Request::Uninstall {
                seq: c.u32()?,
                graft: c.u64()?,
            },
            op::BYE => Request::Bye { seq: c.u32()? },
            other => return Err(WireError::Malformed(format!("unknown opcode {other:#04x}"))),
        };
        c.done()?;
        Ok(req)
    }

    /// The request's sequence number (for echoing in error replies).
    pub fn seq(&self) -> u32 {
        match self {
            Request::Hello { seq, .. }
            | Request::Install { seq, .. }
            | Request::Bind { seq, .. }
            | Request::Invoke { seq, .. }
            | Request::InvokeBatch { seq, .. }
            | Request::Uninstall { seq, .. }
            | Request::Bye { seq } => *seq,
        }
    }
}

fn put_wire_error(b: &mut Vec<u8>, e: &WireError) {
    match e {
        WireError::Malformed(m) => {
            b.push(0);
            put_str(b, m);
        }
        WireError::Protocol(m) => {
            b.push(1);
            put_str(b, m);
        }
        WireError::NoSuchGraft(id) => {
            b.push(2);
            put_u64(b, *id);
        }
        WireError::StaleHandle { kind, id } => {
            b.push(3);
            b.push(*kind);
            put_u32(b, *id);
        }
        WireError::Trap { kind, detail } => {
            b.push(4);
            b.push(*kind);
            put_str(b, detail);
        }
        WireError::QuotaExceeded { resource, limit } => {
            b.push(5);
            put_str(b, resource);
            put_u64(b, *limit);
        }
        WireError::Overloaded { in_flight, cap } => {
            b.push(6);
            put_u64(b, *in_flight);
            put_u64(b, *cap);
        }
        WireError::Quarantined { backoff_remaining } => {
            b.push(7);
            put_u64(b, *backoff_remaining);
        }
        WireError::Unavailable(m) => {
            b.push(8);
            put_str(b, m);
        }
        WireError::BadArity { expected, got } => {
            b.push(9);
            put_u32(b, *expected);
            put_u32(b, *got);
        }
    }
}

fn read_wire_error(c: &mut Cursor<'_>) -> Result<WireError, WireError> {
    Ok(match c.u8()? {
        0 => WireError::Malformed(c.string()?),
        1 => WireError::Protocol(c.string()?),
        2 => WireError::NoSuchGraft(c.u64()?),
        3 => WireError::StaleHandle {
            kind: c.u8()?,
            id: c.u32()?,
        },
        4 => WireError::Trap {
            kind: c.u8()?,
            detail: c.string()?,
        },
        5 => WireError::QuotaExceeded {
            resource: c.string()?,
            limit: c.u64()?,
        },
        6 => WireError::Overloaded {
            in_flight: c.u64()?,
            cap: c.u64()?,
        },
        7 => WireError::Quarantined {
            backoff_remaining: c.u64()?,
        },
        8 => WireError::Unavailable(c.string()?),
        9 => WireError::BadArity {
            expected: c.u32()?,
            got: c.u32()?,
        },
        other => return Err(WireError::Malformed(format!("unknown error tag {other}"))),
    })
}

impl Reply {
    /// Encodes this reply as one length-prefixed frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends this reply to `out` as one length-prefixed frame.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        framed(out, |b| match self {
            Reply::Welcome { seq, tenant } => {
                b.push(rop::WELCOME);
                put_u32(b, *seq);
                put_u64(b, *tenant);
            }
            Reply::Installed { seq, graft } => {
                b.push(rop::INSTALLED);
                put_u32(b, *seq);
                put_u64(b, *graft);
            }
            Reply::Bound { seq, entry } => {
                b.push(rop::BOUND);
                put_u32(b, *seq);
                put_u32(b, *entry);
            }
            Reply::Value { seq, value } => {
                b.push(rop::VALUE);
                put_u32(b, *seq);
                put_i64(b, *value);
            }
            Reply::Batch { seq, values, error } => {
                b.push(rop::BATCH);
                put_u32(b, *seq);
                put_u32(b, values.len() as u32);
                values.iter().for_each(|v| put_i64(b, *v));
                match error {
                    None => b.push(0),
                    Some(e) => {
                        b.push(1);
                        put_wire_error(b, e);
                    }
                }
            }
            Reply::Gone { seq } => {
                b.push(rop::GONE);
                put_u32(b, *seq);
            }
            Reply::Error { seq, error } => {
                b.push(rop::ERROR);
                put_u32(b, *seq);
                put_wire_error(b, error);
            }
        });
    }

    /// Decodes one frame *body* (length prefix already stripped).
    pub fn decode(body: &[u8]) -> Result<Reply, WireError> {
        let mut c = Cursor::new(body);
        let opcode = c.u8()?;
        let reply = match opcode {
            rop::WELCOME => Reply::Welcome {
                seq: c.u32()?,
                tenant: c.u64()?,
            },
            rop::INSTALLED => Reply::Installed {
                seq: c.u32()?,
                graft: c.u64()?,
            },
            rop::BOUND => Reply::Bound {
                seq: c.u32()?,
                entry: c.u32()?,
            },
            rop::VALUE => Reply::Value {
                seq: c.u32()?,
                value: c.i64()?,
            },
            rop::BATCH => {
                let seq = c.u32()?;
                let count = c.u32()? as usize;
                let values = c.i64_vec(count)?;
                let error = match c.u8()? {
                    0 => None,
                    _ => Some(read_wire_error(&mut c)?),
                };
                Reply::Batch { seq, values, error }
            }
            rop::GONE => Reply::Gone { seq: c.u32()? },
            rop::ERROR => {
                let seq = c.u32()?;
                Reply::Error {
                    seq,
                    error: read_wire_error(&mut c)?,
                }
            }
            other => return Err(WireError::Malformed(format!("unknown opcode {other:#04x}"))),
        };
        c.done()?;
        Ok(reply)
    }

    /// The echoed sequence number.
    pub fn seq(&self) -> u32 {
        match self {
            Reply::Welcome { seq, .. }
            | Reply::Installed { seq, .. }
            | Reply::Bound { seq, .. }
            | Reply::Value { seq, .. }
            | Reply::Batch { seq, .. }
            | Reply::Gone { seq }
            | Reply::Error { seq, .. } => *seq,
        }
    }
}

/// Incremental frame reassembly over an arbitrary byte stream.
///
/// Feed it whatever chunks the transport produced (a non-blocking pipe
/// read, a whole virtual-transport flush); [`FrameBuf::next`] yields
/// complete frame bodies in order. The only unrecoverable condition is
/// a declared length beyond [`MAX_FRAME`] — everything else is either
/// "wait for more bytes" or a per-frame body error the caller answers
/// without closing.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw transport bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Every frame consumed: start over at the front of the same
        // allocation. Otherwise compact before growing: drop the
        // consumed prefix once it dominates the buffer so a long-lived
        // connection stays O(frame).
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame body, if one has fully arrived. The
    /// body is borrowed from the buffer until the next call.
    ///
    /// `Err` is the fatal oversized-length condition; the caller must
    /// close the connection.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            return Err(WireError::Malformed(format!(
                "declared frame length {len} exceeds maximum {MAX_FRAME}"
            )));
        }
        if avail < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(&self.buf[start..self.pos]))
    }

    /// Bytes buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An `Invoke` of `n` distinct arguments.
    fn invoke_of(n: usize) -> Request {
        Request::Invoke {
            seq: 40 + n as u32,
            graft: 7,
            entry: 0,
            args: (0..n as i64)
                .map(|i| i64::MAX - i * 3)
                .collect::<Vec<_>>()
                .into(),
        }
    }

    /// Every request variant, with invokes of 0..=5 arguments (across
    /// the inline/heap boundary).
    fn every_request() -> Vec<Request> {
        let mut all = vec![
            Request::Hello { seq: 1, tenant: 42 },
            Request::Install {
                seq: 2,
                point: 0,
                tech: 3,
                spec: "tenant_tag".into(),
            },
            Request::Bind {
                seq: 3,
                graft: 7,
                entry: "select_victim".into(),
            },
            Request::InvokeBatch {
                seq: 5,
                graft: 7,
                entry: 0,
                arity: 2,
                args: vec![1, 2, 3, 4],
            },
            Request::InvokeBatch {
                seq: 6,
                graft: 7,
                entry: 0,
                arity: 1,
                args: vec![],
            },
            Request::Uninstall { seq: 6, graft: 7 },
            Request::Bye { seq: 7 },
        ];
        all.extend((0..=5).map(invoke_of));
        all
    }

    /// Every reply variant, with an `Error` for every wire error.
    fn every_reply() -> Vec<Reply> {
        let errors = [
            WireError::Malformed("truncated body".into()),
            WireError::Protocol("frame before Hello".into()),
            WireError::NoSuchGraft(12),
            WireError::StaleHandle { kind: 0, id: 99 },
            WireError::Trap {
                kind: 2,
                detail: "integer division by zero".into(),
            },
            WireError::QuotaExceeded {
                resource: "grafts".into(),
                limit: 4,
            },
            WireError::Overloaded {
                in_flight: 64,
                cap: 64,
            },
            WireError::Quarantined {
                backoff_remaining: 16,
            },
            WireError::Unavailable("detached".into()),
            WireError::BadArity {
                expected: 2,
                got: 5,
            },
        ];
        let mut all = vec![
            Reply::Welcome { seq: 1, tenant: 9 },
            Reply::Installed { seq: 2, graft: 3 },
            Reply::Bound { seq: 3, entry: 0 },
            Reply::Value { seq: 4, value: -7 },
            Reply::Batch {
                seq: 5,
                values: vec![1, 2],
                error: Some(errors[4].clone()),
            },
            Reply::Batch {
                seq: 6,
                values: vec![],
                error: None,
            },
            Reply::Gone { seq: 7 },
        ];
        all.extend(
            errors
                .into_iter()
                .enumerate()
                .map(|(i, error)| Reply::Error {
                    seq: 8 + i as u32,
                    error,
                }),
        );
        all
    }

    /// Prefixes a buffer may already hold when a frame is appended.
    fn prefixes() -> Vec<Vec<u8>> {
        vec![
            vec![],
            vec![0xab],
            (0..37u8).map(|i| i.wrapping_mul(97)).collect(),
            Request::Bye { seq: 9 }.encode(),
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in every_request() {
            let framed = req.encode();
            let mut fb = FrameBuf::new();
            fb.extend(&framed);
            let body = fb.next_frame().unwrap().expect("one frame");
            assert_eq!(Request::decode(body).unwrap(), req);
            assert_eq!(fb.next_frame().unwrap(), None);
            for prefix in prefixes() {
                let mut out = prefix.clone();
                req.encode_into(&mut out);
                assert_eq!(out, [prefix, framed.clone()].concat(), "{req:?}");
            }
        }
    }

    #[test]
    fn replies_round_trip() {
        for reply in every_reply() {
            let framed = reply.encode();
            let mut fb = FrameBuf::new();
            fb.extend(&framed);
            let body = fb.next_frame().unwrap().unwrap();
            assert_eq!(Reply::decode(body).unwrap(), reply);
            for prefix in prefixes() {
                let mut out = prefix.clone();
                reply.encode_into(&mut out);
                assert_eq!(out, [prefix, framed.clone()].concat(), "{reply:?}");
            }
        }
    }

    #[test]
    fn invoke_args_are_inline_up_to_the_widest_attach_point() {
        let widest = AttachPoint::ALL.iter().map(AttachPoint::arity).max();
        assert_eq!(Some(INLINE_ARGS), widest);
        for n in 0..=5usize {
            let words: Vec<i64> = (0..n as i64).map(|i| -i - 1).collect();
            let Request::Invoke { args, .. } =
                Request::decode(&invoke_of(n).encode()[4..]).unwrap()
            else {
                panic!("an invoke decodes as an invoke");
            };
            assert_eq!(
                matches!(args.0, ArgWords::Inline { .. }),
                n <= INLINE_ARGS,
                "{n} args"
            );
            let from_vec = InvokeArgs::from(words.clone());
            assert_eq!(*from_vec, words[..]);
            assert_eq!(
                matches!(from_vec.0, ArgWords::Inline { .. }),
                n <= INLINE_ARGS
            );
            assert_eq!(format!("{from_vec:?}"), format!("{words:?}"));
        }
    }

    #[test]
    fn frames_reassemble_from_arbitrary_chunking() {
        let requests: Vec<Request> = (0..=5)
            .map(invoke_of)
            .chain([Request::Bye { seq: 2 }])
            .collect();
        let frames: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
        let stream = frames.concat();

        // Deliver the stream in chunks of every size from one byte up:
        // each frame pops out whole and in order, its borrowed body the
        // exact bytes after its prefix, regardless of chunk boundaries.
        for chunk in 1..=frames[0].len() + 1 {
            let mut fb = FrameBuf::new();
            let mut popped = 0;
            for bytes in stream.chunks(chunk) {
                fb.extend(bytes);
                while let Some(body) = fb.next_frame().unwrap() {
                    assert_eq!(body, &frames[popped][4..], "chunk {chunk}");
                    assert_eq!(Request::decode(body).unwrap(), requests[popped]);
                    popped += 1;
                }
            }
            assert_eq!(popped, requests.len(), "chunk {chunk}");
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn malformed_body_is_typed_not_fatal() {
        // Unknown opcode.
        let err = Request::decode(&[0x6f, 0, 0, 0, 0]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // Truncated payload.
        let err = Request::decode(&[super::op::INVOKE, 1, 0]).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // Trailing garbage.
        let mut body = vec![super::op::BYE, 1, 0, 0, 0];
        body.push(0xee);
        let err = Request::decode(&body).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
        // Forged arg count larger than the body.
        let mut body = vec![super::op::INVOKE];
        body.extend_from_slice(&1u32.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        body.extend_from_slice(&u16::MAX.to_le_bytes()); // claims 65535 args
        let err = Request::decode(&body).unwrap_err();
        assert!(matches!(err, WireError::Malformed(_)), "{err:?}");
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut fb = FrameBuf::new();
        fb.extend(&((MAX_FRAME as u32 + 1).to_le_bytes()));
        assert!(fb.next_frame().is_err());
    }

    #[test]
    fn graft_errors_map_to_typed_wire_errors() {
        let stale = GraftError::bad_handle("entry", 5);
        assert_eq!(
            WireError::from(&stale),
            WireError::StaleHandle { kind: 0, id: 5 }
        );
        let quota = GraftError::QuotaExceeded {
            resource: "fuel",
            limit: 1000,
        };
        assert!(matches!(
            WireError::from(&quota),
            WireError::QuotaExceeded { limit: 1000, .. }
        ));
        let trap: GraftError = Trap::DivByZero.into();
        match WireError::from(&trap) {
            WireError::Trap { kind, .. } => {
                assert_eq!(kind, graft_api::TrapKind::DivByZero as u8)
            }
            other => panic!("{other:?}"),
        }
    }
}

//! The graft client: frame building, reply re-association, and the
//! in-process [`VirtualTransport`].
//!
//! [`GraftClient`] is the protocol-side half of a connection: it
//! allocates sequence numbers, encodes request frames, and reassembles
//! reply frames from whatever byte chunks the transport hands back.
//! It never blocks and holds no I/O — the same client drives the
//! in-process [`VirtualTransport`] and the pipe front-end.
//!
//! [`VirtualTransport`] owns a [`GraftServer`] and moves bytes between
//! client and server synchronously. Crucially it is *byte-faithful*:
//! every request crosses as encoded frames through
//! [`GraftServer::ingest`] and every reply comes back through
//! [`GraftServer::take_outbound`], so a conformance test over the
//! virtual transport exercises the identical protocol core (framing,
//! malformed-frame recovery, out-of-order completion) as a live pipe —
//! only the readiness loop is elided.

use crate::server::GraftServer;
use crate::wire::{self, FrameBuf, Reply, Request, WireError};

/// Protocol-side connection state for one client.
#[derive(Debug)]
pub struct GraftClient {
    /// The server-issued connection id this client speaks for.
    pub conn: usize,
    next_seq: u32,
    frames: FrameBuf,
}

impl GraftClient {
    /// A client for connection `conn`.
    pub fn new(conn: usize) -> Self {
        GraftClient {
            conn,
            next_seq: 1,
            frames: FrameBuf::new(),
        }
    }

    /// Allocates the next sequence number.
    pub fn seq(&mut self) -> u32 {
        let s = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        s
    }

    /// Encoded `Hello` frame.
    pub fn hello(&mut self, tenant: u64) -> Vec<u8> {
        Request::Hello {
            seq: self.seq(),
            tenant,
        }
        .encode()
    }

    /// Encoded `Install` frame.
    pub fn install(&mut self, point: u8, tech: u8, spec: &str) -> Vec<u8> {
        Request::Install {
            seq: self.seq(),
            point,
            tech,
            spec: spec.to_string(),
        }
        .encode()
    }

    /// Encoded `Bind` frame.
    pub fn bind(&mut self, graft: u64, entry: &str) -> Vec<u8> {
        Request::Bind {
            seq: self.seq(),
            graft,
            entry: entry.to_string(),
        }
        .encode()
    }

    /// Encoded `Invoke` frame; returns `(seq, bytes)` so the caller
    /// can match the eventual (possibly reordered) reply.
    pub fn invoke(&mut self, graft: u64, entry: u32, args: &[i64]) -> (u32, Vec<u8>) {
        let seq = self.seq();
        let mut frame = Vec::with_capacity(wire::invoke_frame_len(args.len()));
        wire::framed(&mut frame, |b| wire::put_invoke(b, seq, graft, entry, args));
        (seq, frame)
    }

    /// Encoded `InvokeBatch` frame; returns `(seq, bytes)`.
    pub fn invoke_batch(
        &mut self,
        graft: u64,
        entry: u32,
        arity: u16,
        args: &[i64],
    ) -> (u32, Vec<u8>) {
        let seq = self.seq();
        let mut frame = Vec::with_capacity(wire::invoke_frame_len(args.len()) + 4);
        wire::framed(&mut frame, |b| {
            wire::put_invoke_batch(b, seq, graft, entry, arity, args)
        });
        (seq, frame)
    }

    /// Encoded `Uninstall` frame.
    pub fn uninstall(&mut self, graft: u64) -> Vec<u8> {
        Request::Uninstall {
            seq: self.seq(),
            graft,
        }
        .encode()
    }

    /// Encoded `Bye` frame.
    pub fn bye(&mut self) -> Vec<u8> {
        Request::Bye { seq: self.seq() }.encode()
    }

    /// Feeds reply bytes from the transport; returns every complete
    /// reply they finished, in arrival order.
    pub fn on_bytes(&mut self, bytes: &[u8]) -> Result<Vec<Reply>, WireError> {
        self.frames.extend(bytes);
        let mut replies = Vec::new();
        while let Some(body) = self.frames.next_frame()? {
            replies.push(Reply::decode(body)?);
        }
        Ok(replies)
    }
}

/// An in-process transport: the same protocol core as the pipe
/// front-end, minus the readiness loop. Deterministic by construction
/// — pump and drain run exactly when [`VirtualTransport::rpc`] says.
pub struct VirtualTransport {
    /// The server under test.
    pub server: GraftServer,
}

impl VirtualTransport {
    /// Wraps a server.
    pub fn new(server: GraftServer) -> Self {
        VirtualTransport { server }
    }

    /// Opens a connection and returns its client.
    pub fn connect(&mut self) -> GraftClient {
        GraftClient::new(self.server.connect())
    }

    /// Sends pre-encoded request bytes, runs the server to quiescence,
    /// and returns every reply that came back on this connection.
    pub fn exchange(&mut self, client: &mut GraftClient, bytes: &[u8]) -> Vec<Reply> {
        self.server.ingest(client.conn, bytes);
        self.server.pump();
        self.server.drain_all();
        let out = self.server.take_outbound(client.conn);
        client
            .on_bytes(&out)
            .expect("server emits well-formed frames")
    }

    /// One-request convenience: send, serve, return the single reply.
    pub fn rpc(&mut self, client: &mut GraftClient, bytes: &[u8]) -> Reply {
        let mut replies = self.exchange(client, bytes);
        assert_eq!(replies.len(), 1, "expected one reply, got {replies:?}");
        replies.remove(0)
    }
}

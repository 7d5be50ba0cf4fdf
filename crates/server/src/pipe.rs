//! The pipe front-end: a poll(2)-based readiness loop over non-blocking
//! in-tree transport shims.
//!
//! This is the "live" shape of the server — the same
//! [`GraftServer`] protocol core as the [`VirtualTransport`], fed by a
//! real kernel boundary: each connection is a duplex
//! [`kernsim::netpipe::PipeEnd`], the loop `poll(2)`s every read fd,
//! drains whatever arrived into [`GraftServer::ingest`], pumps the
//! protocol, runs the shard executors, and flushes reply bytes back.
//! Clients live on their own threads and write frames blockingly, so
//! the loop sees arbitrary chunk boundaries — exactly what the
//! incremental framer is for.
//!
//! On targets without the FFI shims `PipeEnd::pair` returns `None`
//! and callers use the virtual transport instead (the documented
//! offline fallback).
//!
//! [`VirtualTransport`]: crate::client::VirtualTransport

use crate::server::GraftServer;
use kernsim::netpipe::{ignore_sigpipe, poll_readable, PipeEnd};

/// Outcome of one [`serve_pipes`] session.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeServeStats {
    /// Poll wake-ups that found at least one readable connection.
    pub wakeups: u64,
    /// Raw byte chunks read off the pipes.
    pub chunks: u64,
    /// Connections that reached EOF or said `Bye`.
    pub closed: usize,
}

/// Runs the readiness loop until every connection has closed (client
/// EOF or `Bye`) and the plane is drained. Returns loop stats.
///
/// `ends[i]` becomes server connection `i` in registration order; the
/// caller keeps the peer ends and speaks frames over them from any
/// thread.
pub fn serve_pipes(server: &mut GraftServer, ends: Vec<PipeEnd>) -> PipeServeStats {
    let conns: Vec<usize> = ends.iter().map(|_| server.connect()).collect();
    let fds: Vec<i32> = ends.iter().map(|e| e.read_fd()).collect();
    let mut ready = vec![false; ends.len()];
    let mut eof = vec![false; ends.len()];
    let mut buf = [0u8; 4096];
    let mut stats = PipeServeStats::default();

    loop {
        let all_done = eof
            .iter()
            .zip(conns.iter())
            .all(|(&e, &c)| e || !server.is_open(c));
        if all_done && server.backlog() == 0 {
            break;
        }

        // Short timeout: the loop also owes the executor cycles while
        // clients are quiet (queued work completes out of band).
        let n = poll_readable(&fds, &mut ready, 10);
        if n > 0 {
            stats.wakeups += 1;
        }
        for (i, (&is_ready, end)) in ready.iter().zip(ends.iter()).enumerate() {
            if !is_ready || eof[i] {
                continue;
            }
            loop {
                match end.read(&mut buf) {
                    Some(0) => {
                        eof[i] = true;
                        break;
                    }
                    Some(n) => {
                        stats.chunks += 1;
                        server.ingest(conns[i], &buf[..n]);
                    }
                    None => break, // drained for now
                }
            }
        }

        server.pump();
        server.drain_all();

        for (i, end) in ends.iter().enumerate() {
            let out = server.take_outbound(conns[i]);
            if !out.is_empty() {
                end.write_all(&out);
            }
        }
    }

    stats.closed = eof
        .iter()
        .zip(conns.iter())
        .filter(|(&e, &c)| e || !server.is_open(c))
        .count();
    stats
}

/// The threaded front-end: this thread becomes the *pump* (poll,
/// frame reassembly, admission, completion processing, reply writes)
/// while a [`WorkerPlane`](crate::workers::WorkerPlane) of one drain
/// worker per shard runs the invokes concurrently. Two properties the
/// single-threaded loop does not need:
///
/// * **writes never block the pump**: write sides are flipped
///   non-blocking and replies a slow (slowloris) reader will not take
///   are parked in a per-connection pending buffer — one stalled
///   client costs other tenants nothing;
/// * **churn is survivable**: `SIGPIPE` is ignored up front, so a
///   client that vanishes mid-reply turns into `EPIPE`, the connection
///   is marked closed, and its in-flight replies are dropped as
///   orphans (accounting still runs).
///
/// Returns once every connection has closed and the plane is fully
/// drained and reaped; the workers are joined (loss-free) before it
/// does.
pub fn serve_pipes_threaded(server: &mut GraftServer, ends: Vec<PipeEnd>) -> PipeServeStats {
    ignore_sigpipe();
    for end in &ends {
        end.set_write_nonblocking();
    }
    let conns: Vec<usize> = ends.iter().map(|_| server.connect()).collect();
    let fds: Vec<i32> = ends.iter().map(|e| e.read_fd()).collect();
    let mut ready = vec![false; ends.len()];
    let mut eof = vec![false; ends.len()];
    let mut pending: Vec<Vec<u8>> = vec![Vec::new(); ends.len()];
    let mut buf = [0u8; 4096];
    let mut stats = PipeServeStats::default();

    let plane = server.spawn_workers();
    loop {
        let all_done = eof
            .iter()
            .zip(conns.iter())
            .all(|(&e, &c)| e || !server.is_open(c));
        if all_done
            && server.in_flight() == 0
            && server.backlog() == 0
            && pending.iter().all(|p| p.is_empty())
        {
            break;
        }

        // Short timeout: even with nothing readable the pump owes the
        // plane a reap pass and the pending buffers a flush attempt.
        let n = poll_readable(&fds, &mut ready, 1);
        if n > 0 {
            stats.wakeups += 1;
        }
        for (i, (&is_ready, end)) in ready.iter().zip(ends.iter()).enumerate() {
            if !is_ready || eof[i] {
                continue;
            }
            loop {
                match end.read(&mut buf) {
                    Some(0) => {
                        eof[i] = true;
                        // Abrupt close (no Bye): admit the frames that
                        // arrived before it, then orphan what remains.
                        if server.is_open(conns[i]) {
                            server.pump_conn(conns[i]);
                            server.disconnect(conns[i]);
                        }
                        pending[i].clear();
                        break;
                    }
                    Some(n) => {
                        stats.chunks += 1;
                        server.ingest(conns[i], &buf[..n]);
                    }
                    None => break, // drained for now
                }
            }
        }

        server.pump();
        server.reap();

        for (i, end) in ends.iter().enumerate() {
            let out = server.take_outbound(conns[i]);
            if !out.is_empty() {
                pending[i].extend_from_slice(&out);
            }
            if pending[i].is_empty() || eof[i] {
                continue;
            }
            match end.try_write(&pending[i]) {
                Some(0) => {} // reader full (slowloris): keep pending
                Some(n) => {
                    pending[i].drain(..n);
                }
                None => {
                    // Peer churned away mid-write: admit the frames it
                    // sent before it went, then orphan what remains.
                    while let Some(n) = end.read(&mut buf).filter(|&n| n > 0) {
                        server.ingest(conns[i], &buf[..n]);
                    }
                    server.pump_conn(conns[i]);
                    pending[i].clear();
                    server.disconnect(conns[i]);
                    eof[i] = true;
                }
            }
        }
    }
    plane.join(server);

    stats.closed = eof
        .iter()
        .zip(conns.iter())
        .filter(|(&e, &c)| e || !server.is_open(c))
        .count();
    stats
}

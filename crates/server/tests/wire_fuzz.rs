//! Seeded mutation fuzzing over the wire framing and request decoder.
//!
//! Each seed mutates valid frames — truncation with a consistent
//! length prefix, length corruption (short, long, oversized, and the
//! exact `MAX_FRAME` boundary), opcode type confusion, byte flips,
//! splices — and feeds them to a live server on a *victim* tenant's
//! connection while a *bystander* tenant keeps making real requests.
//! The invariants, per the ISSUE:
//!
//! * the server never panics;
//! * every mutated frame is answered with a typed error (or happens to
//!   decode and is served), or the connection closes — and a close is
//!   only legal when the length prefix was corrupted: an oversized
//!   prefix is the documented fatal tear-down, and an *undersized*
//!   prefix desynchronizes the framer so later bytes may be misread as
//!   a fatal prefix. Opcode confusion, byte flips, truncation, and
//!   splices never close;
//! * no tenant state leaks: the bystander's ledger, standing, trip
//!   count, and service are exactly its own traffic no matter what the
//!   barrage did to the victim — even when a flipped arg byte traps
//!   the victim's graft and quarantines it.

use graft_api::{
    EntryPoint, ExtensionEngine, NativeEngine, RegionSpec, RegionStore, Technology, Trap,
};
use graft_rng::SmallRng;
use graft_server::{
    GraftClient, GraftServer, Reply, Request, ServerConfig, Standing, VirtualTransport, MAX_FRAME,
};

const POINT: u8 = 0;
const TECH: u8 = 0;

fn tagging() -> Box<dyn ExtensionEngine> {
    let specs = [RegionSpec::data("scratch", 8)];
    let entries = [EntryPoint {
        name: "select_victim".into(),
        arity: 2,
    }];
    let factory: graft_api::spec::SharedNativeFactory = std::sync::Arc::new(|| {
        Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
            if args[1] == 0 {
                return Err(Trap::DivByZero.into());
            }
            // Wrapping: flipped arg bytes feed this arbitrary i64s.
            Ok(args[0].wrapping_mul(31).wrapping_add(args[1]))
        })
    });
    Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
}

fn build_server() -> GraftServer {
    let mut s = GraftServer::new(ServerConfig::default());
    s.register_spec("tag", Box::new(|_tech: Technology| Ok(tagging())));
    s
}

fn seeds() -> u64 {
    std::env::var("GRAFT_FUZZ_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// A pool of well-formed frames to mutate from.
fn corpus(client: &mut GraftClient, graft: u64) -> Vec<Vec<u8>> {
    vec![
        client.invoke(graft, 0, &[3, 4]).1,
        client.invoke_batch(graft, 0, 2, &[1, 2, 3, 4]).1,
        client.bind(graft, "select_victim"),
        client.install(POINT, TECH, "tag"),
        client.uninstall(graft ^ 0xdead), // NoSuchGraft, but well-formed
        client.hello(9999),               // duplicate hello: Protocol error
    ]
}

/// What a mutation is allowed to do to the connection it rides on.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Blast {
    /// Body damage only: must be answered typed, never closes.
    Benign,
    /// Length prefix above `MAX_FRAME`: the one immediate fatal close.
    Oversize,
    /// Length prefix below the real body length: the framer reads the
    /// frame's tail as the next prefix — from here on the connection
    /// may survive on garbage frames or hit a phantom fatal prefix.
    Desync,
}

/// Applies one seeded mutation.
fn mutate(rng: &mut SmallRng, base: &[u8]) -> (Vec<u8>, Blast) {
    let mut frame = base.to_vec();
    match rng.bounded_u64(6) {
        0 => {
            // Truncate the body but keep the length prefix consistent:
            // a short, self-consistent frame that must decode Malformed
            // (the decoder also rejects *trailing* bytes, so no prefix
            // of a real request is itself a valid request).
            let body_len = frame.len() - 4;
            let keep = rng.bounded_u64(body_len as u64) as usize;
            frame.truncate(4 + keep);
            frame[..4].copy_from_slice(&(keep as u32).to_le_bytes());
            (frame, Blast::Benign)
        }
        1 => {
            // Corrupt the length downward: the tail bleeds into the
            // next frame's prefix.
            let body_len = (frame.len() - 4) as u32;
            let lie = rng.bounded_u64(body_len.max(1) as u64) as u32;
            frame[..4].copy_from_slice(&lie.to_le_bytes());
            (frame, Blast::Desync)
        }
        2 => {
            // Oversized length prefix: the one fatal shape.
            let lie = MAX_FRAME as u32 + 1 + rng.bounded_u64(1 << 20) as u32;
            frame[..4].copy_from_slice(&lie.to_le_bytes());
            (frame, Blast::Oversize)
        }
        3 => {
            // Type confusion: swap the opcode for a random byte.
            frame[4] = rng.bounded_u64(256) as u8;
            (frame, Blast::Benign)
        }
        4 => {
            // Flip one bit somewhere in the body.
            let i = 4 + rng.bounded_u64((frame.len() - 4) as u64) as usize;
            frame[i] ^= 1 << rng.bounded_u64(8);
            (frame, Blast::Benign)
        }
        _ => {
            // Splice garbage onto the body, fixing the prefix.
            let extra = 1 + rng.bounded_u64(16) as usize;
            for _ in 0..extra {
                frame.push(rng.bounded_u64(256) as u8);
            }
            let body_len = (frame.len() - 4) as u32;
            frame[..4].copy_from_slice(&body_len.to_le_bytes());
            (frame, Blast::Benign)
        }
    }
}

#[test]
fn mutated_frames_answer_typed_or_close_without_leaking_tenant_state() {
    for seed in 0..seeds() {
        let mut rng = SmallRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9));
        let mut vt = VirtualTransport::new(build_server());

        // The bystander whose state must never move.
        let mut bystander = vt.connect();
        let hello = bystander.hello(2);
        vt.rpc(&mut bystander, &hello);
        let install = bystander.install(POINT, TECH, "tag");
        let by_graft = match vt.rpc(&mut bystander, &install) {
            Reply::Installed { graft, .. } => graft,
            other => panic!("{other:?}"),
        };

        // The victim connection the mutants ride on (re-opened whenever
        // a length-corrupt frame kills it).
        let mut victim = vt.connect();
        let hello = victim.hello(1);
        vt.rpc(&mut victim, &hello);
        let install = victim.install(POINT, TECH, "tag");
        let graft = match vt.rpc(&mut victim, &install) {
            Reply::Installed { graft, .. } => graft,
            other => panic!("{other:?}"),
        };

        let frames = corpus(&mut victim, graft);
        // Sticky once a Desync mutant lands; cleared by reconnecting.
        let mut desynced = false;
        let mut clean_oversize = 0u64;
        for step in 0..48 {
            let base = &frames[rng.bounded_u64(frames.len() as u64) as usize];
            let (mutant, blast) = mutate(&mut rng, base);

            let was_desynced = desynced;
            if blast == Blast::Desync {
                // The lie takes effect inside this very exchange: the
                // frame's own tail is re-framed immediately and may
                // already read as a phantom fatal prefix.
                desynced = true;
            }
            let replies = vt.exchange(&mut victim, &mutant);
            let open = vt.server.is_open(victim.conn);
            if !was_desynced {
                match blast {
                    Blast::Oversize => {
                        clean_oversize += 1;
                        assert!(
                            !open,
                            "seed {seed} step {step}: oversized prefix left conn open"
                        );
                        assert_eq!(replies.len(), 1, "seed {seed} step {step}: {replies:?}");
                        assert!(
                            matches!(replies[0], Reply::Error { seq: 0, .. }),
                            "seed {seed} step {step}: {replies:?}"
                        );
                    }
                    Blast::Benign => {
                        assert!(
                            open,
                            "seed {seed} step {step}: benign mutant closed the conn"
                        );
                    }
                    Blast::Desync => {
                        // Survival is framer's choice; the server's
                        // health is asserted via the bystander below.
                    }
                }
            }
            if !open {
                victim = vt.connect();
                let hello = victim.hello(1);
                vt.rpc(&mut victim, &hello);
                desynced = false;
            }

            // The bystander is untouched and still served.
            let (seq, invoke) = bystander.invoke(by_graft, 0, &[5, 6]);
            assert_eq!(
                vt.rpc(&mut bystander, &invoke),
                Reply::Value {
                    seq,
                    value: 5 * 31 + 6
                },
                "seed {seed} step {step}"
            );
        }

        // A fresh tenant on a fresh connection is served normally — the
        // server never wedges, whatever happened to the victim (whose
        // own graft may by now be trapped out and quarantined).
        let mut fresh = vt.connect();
        let hello = fresh.hello(3);
        vt.rpc(&mut fresh, &hello);
        let install = fresh.install(POINT, TECH, "tag");
        let fresh_graft = match vt.rpc(&mut fresh, &install) {
            Reply::Installed { graft, .. } => graft,
            other => panic!("{other:?}"),
        };
        let (seq, invoke) = fresh.invoke(fresh_graft, 0, &[7, 8]);
        assert_eq!(
            vt.rpc(&mut fresh, &invoke),
            Reply::Value {
                seq,
                value: 7 * 31 + 8
            }
        );

        // Every clean oversized prefix tore down exactly once; desync
        // phantoms may add more, never fewer.
        assert!(
            vt.server.stats().fatal_frames >= clean_oversize,
            "seed {seed}: fatal ledger lost closes"
        );
        // The bystander's world: standing intact, ledger exactly its
        // own 48 invokes, zero rejections, zero quarantine trips.
        assert_eq!(vt.server.tenant_standing(2), Some(Standing::Serving));
        assert_eq!(
            vt.server.tenant_ledger(2).map(|(a, r, _)| (a, r)),
            Some((48, 0)),
            "seed {seed}: bystander ledger moved"
        );
        assert_eq!(vt.server.tenant_trips(2), Some(0));
    }
}

/// Pure decoder fuzz: random bodies never panic, and every `Ok` is a
/// request whose re-encode decodes back to itself (the decoder accepts
/// nothing it cannot round-trip).
#[test]
fn random_bodies_never_panic_the_decoder() {
    for seed in 0..seeds() {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x0DD5_EED5);
        for _ in 0..256 {
            let len = rng.bounded_u64(64) as usize;
            let body: Vec<u8> = (0..len).map(|_| rng.bounded_u64(256) as u8).collect();
            if let Ok(req) = Request::decode(&body) {
                let encoded = req.encode();
                let round = Request::decode(&encoded[4..]).expect("re-encode decodes");
                assert_eq!(req, round);
            }
        }
    }
}

/// The exact `MAX_FRAME` boundary: a declared length of `MAX_FRAME`
/// is legal framing (the body may still be malformed); `MAX_FRAME + 1`
/// is the fatal close.
#[test]
fn max_frame_boundary_is_exact() {
    let mut vt = VirtualTransport::new(build_server());
    let mut c = vt.connect();
    let hello = c.hello(1);
    vt.rpc(&mut c, &hello);

    let mut frame = (MAX_FRAME as u32).to_le_bytes().to_vec();
    frame.extend(std::iter::repeat_n(0x6fu8, MAX_FRAME));
    let replies = vt.exchange(&mut c, &frame);
    assert_eq!(replies.len(), 1);
    assert!(
        matches!(
            &replies[0],
            Reply::Error {
                error: graft_server::WireError::Malformed(_),
                ..
            }
        ),
        "{replies:?}"
    );
    assert!(vt.server.is_open(c.conn), "boundary frame must not close");

    let frame = (MAX_FRAME as u32 + 1).to_le_bytes().to_vec();
    let replies = vt.exchange(&mut c, &frame);
    assert_eq!(replies.len(), 1);
    assert!(matches!(replies[0], Reply::Error { seq: 0, .. }));
    assert!(!vt.server.is_open(c.conn), "oversized prefix must close");
    assert_eq!(vt.server.stats().fatal_frames, 1);
}

//! Every benchmark graft with Grail source compiles to machine code in
//! every compiled mode, and MD5's hot call is inlined.
#![cfg(all(target_arch = "x86_64", target_os = "linux"))]

use engine_native::{load_grail_on, CompiledEngine, SafetyMode, Tier};
use graft_api::GraftSpec;

const MODES: [SafetyMode; 3] = [
    SafetyMode::Unchecked,
    SafetyMode::Safe { nil_checks: true },
    SafetyMode::Sfi { read_protect: true },
];

fn specs() -> Vec<GraftSpec> {
    use grafts::*;
    vec![
        md5::spec(),
        eviction::spec(),
        logdisk::spec(),
        logdisk::spec_bomb_sized(64),
        acl::spec(),
        readahead::spec(),
        schedule::spec(),
        stream::xor_spec(),
        stream::checksum_spec(),
        stream::rle_spec(),
    ]
}

fn jit(spec: &GraftSpec, mode: SafetyMode) -> CompiledEngine {
    let src = spec.grail.as_deref().expect("Grail source");
    let engine = load_grail_on(src, &spec.regions, mode, Tier::Jit)
        .unwrap_or_else(|e| panic!("{} under {mode:?}: {e}", spec.name));
    assert_eq!(engine.tier(), Tier::Jit, "{} under {mode:?}", spec.name);
    engine
}

#[test]
fn every_grail_graft_loads_as_machine_code() {
    let specs = specs();
    for spec in specs.iter().filter(|s| s.grail.is_some()) {
        for mode in MODES {
            jit(spec, mode);
        }
    }
}

/// `md5_block` calls `rotl` 64 times a block; that site, the module's
/// only call to a leaf, runs inline, and the block's loop registers
/// are pinned.
#[test]
fn md5_inlines_rotl_and_pins_registers() {
    let spec = grafts::md5::spec();
    for mode in MODES {
        let engine = jit(&spec, mode);
        assert_eq!(engine.inlined_calls(), 1, "{mode:?}");
        assert!(engine.pinned_registers() > 0, "{mode:?}");
    }
}

//! Loading grafts under a chosen technology.

use engine_bytecode::BytecodeEngine;
use engine_native::{CompiledEngine, SafetyMode, Tier};
use engine_script::ScriptEngine;
use graft_api::{ExtensionEngine, GraftError, GraftSpec, NativeEngine, Technology};
use graft_ir::Module;
use kernsim::upcall::UpcallEngine;

/// Loads [`GraftSpec`]s under any [`Technology`], applying the paper's
/// default engine configurations (overridable for ablations).
#[derive(Debug, Clone, Copy)]
pub struct GraftManager {
    /// Emit NIL checks in the safe-compiled engine (paper default:
    /// true — the Linux Modula-3 configuration it measured there).
    pub nil_checks: bool,
    /// Run the load-time IR optimizer before translating compiled
    /// technologies (paper default: false — the omniC++ 1.0β the paper
    /// measured had no optimizer; see `graft_ir::opt`).
    pub optimize: bool,
    /// Mask reads in the SFI engine (paper default: false — omniC++
    /// 1.0β had write/jump protection only).
    pub sfi_read_protect: bool,
    /// Which technology runs *inside* a user-level server (the paper's
    /// servers ran compiled C).
    pub user_level_inner: Technology,
}

impl Default for GraftManager {
    fn default() -> Self {
        Self::new()
    }
}

impl GraftManager {
    /// A manager with the paper's default configurations.
    pub fn new() -> Self {
        GraftManager {
            nil_checks: true,
            optimize: false,
            sfi_read_protect: false,
            user_level_inner: Technology::CompiledUnchecked,
        }
    }

    fn missing(spec: &GraftSpec, what: &str) -> GraftError {
        GraftError::Unavailable {
            graft: spec.name.clone(),
            missing: what.to_string(),
        }
    }

    /// Loads `spec` under `tech`, verifying as the technology demands.
    pub fn load(
        &self,
        spec: &GraftSpec,
        tech: Technology,
    ) -> Result<Box<dyn ExtensionEngine>, GraftError> {
        match tech {
            Technology::RustNative => {
                let factory = spec
                    .native
                    .as_ref()
                    .ok_or_else(|| Self::missing(spec, "native implementation"))?;
                // Seal the native engine to the spec's declared entry
                // manifest so binding an undeclared name fails at bind
                // time, exactly like the other technologies. The shared
                // factory travels with the engine so a sharded host can
                // fork one replica per worker shard.
                Ok(Box::new(NativeEngine::from_factory(
                    &spec.regions,
                    &spec.entries,
                    factory.clone(),
                )?))
            }
            Technology::CompiledUnchecked | Technology::SafeCompiled | Technology::Sfi => {
                let (module, mode) = self.compiled_module(spec, tech)?;
                Ok(Box::new(CompiledEngine::load(module, mode)?))
            }
            Technology::Bytecode => {
                let grail = spec
                    .grail
                    .as_ref()
                    .ok_or_else(|| Self::missing(spec, "Grail source"))?;
                Ok(Box::new(BytecodeEngine::load_grail(grail, &spec.regions)?))
            }
            Technology::Script => {
                let tickle = spec
                    .tickle
                    .as_ref()
                    .ok_or_else(|| Self::missing(spec, "Tickle source"))?;
                Ok(Box::new(ScriptEngine::load(tickle, &spec.regions)?))
            }
            Technology::UserLevel => {
                let inner = self.load(spec, self.user_level_inner)?;
                Ok(Box::new(UpcallEngine::new(inner)))
            }
        }
    }

    /// The translation mode this manager gives a compiled technology.
    pub fn mode(&self, tech: Technology) -> Option<SafetyMode> {
        match tech {
            Technology::CompiledUnchecked => Some(SafetyMode::Unchecked),
            Technology::SafeCompiled => Some(SafetyMode::Safe {
                nil_checks: self.nil_checks,
            }),
            Technology::Sfi => Some(SafetyMode::Sfi {
                read_protect: self.sfi_read_protect,
            }),
            _ => None,
        }
    }

    /// Loads `spec` under a compiled technology on exactly `tier` (the
    /// tables time the decoded loop against the machine code this way);
    /// [`GraftError::Unavailable`] for a tier the host cannot run.
    pub fn load_compiled(
        &self,
        spec: &GraftSpec,
        tech: Technology,
        tier: Tier,
    ) -> Result<CompiledEngine, GraftError> {
        let (module, mode) = self.compiled_module(spec, tech)?;
        CompiledEngine::load_on(module, mode, tier)
    }

    /// `spec`'s lowered module and the mode `tech` translates it in.
    fn compiled_module(
        &self,
        spec: &GraftSpec,
        tech: Technology,
    ) -> Result<(Module, SafetyMode), GraftError> {
        let mode = self
            .mode(tech)
            .ok_or_else(|| Self::missing(spec, "a compiled technology"))?;
        let grail = spec
            .grail
            .as_ref()
            .ok_or_else(|| Self::missing(spec, "Grail source"))?;
        let hir = graft_lang::compile(grail, &spec.regions)?;
        let mut module = graft_ir::lower(&hir);
        if self.optimize {
            graft_ir::optimize(&mut module);
        }
        Ok((module, mode))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_sources_surface_as_unavailable() {
        // The Logical Disk graft has no Tickle source, as in the paper.
        let spec = grafts::logdisk::spec_sized(64);
        let err = GraftManager::new()
            .load(&spec, Technology::Script)
            .err()
            .expect("script must be unavailable");
        assert!(matches!(err, GraftError::Unavailable { .. }));
    }

    #[test]
    fn user_level_wraps_the_configured_inner_technology() {
        let spec = grafts::acl::spec();
        let manager = GraftManager {
            user_level_inner: Technology::SafeCompiled,
            ..GraftManager::new()
        };
        let engine = manager.load(&spec, Technology::UserLevel).unwrap();
        assert_eq!(engine.technology(), Technology::UserLevel);
    }

    #[test]
    fn manager_loaded_engines_bind_declared_entries_only() {
        // For every technology the ACL graft supports, bind of a
        // declared entry succeeds and bind of an undeclared name is a
        // deterministic load-time failure — including RustNative, whose
        // engine is sealed to the spec's manifest.
        let spec = grafts::acl::spec();
        let manager = GraftManager::new();
        for tech in [
            Technology::CompiledUnchecked,
            Technology::SafeCompiled,
            Technology::Sfi,
            Technology::Bytecode,
            Technology::RustNative,
            Technology::UserLevel,
        ] {
            let mut engine = manager.load(&spec, tech).unwrap();
            let declared = &spec.entries[0].name;
            engine
                .bind_entry(declared)
                .unwrap_or_else(|e| panic!("{tech:?}: bind {declared}: {e}"));
            assert!(
                engine.bind_entry("definitely_not_declared").is_err(),
                "{tech:?} must reject undeclared entry at bind"
            );
        }
    }

    #[test]
    fn ablation_flags_change_loaded_code() {
        let spec = grafts::acl::spec();
        let base = GraftManager::new();
        let prot = GraftManager {
            sfi_read_protect: true,
            ..base
        };
        // Both load; the read-protected variant carries more code. We
        // can only observe this through the CompiledEngine type.
        let a = engine_native::load_grail(
            spec.grail.as_ref().unwrap(),
            &spec.regions,
            SafetyMode::Sfi {
                read_protect: base.sfi_read_protect,
            },
        )
        .unwrap();
        let b = engine_native::load_grail(
            spec.grail.as_ref().unwrap(),
            &spec.regions,
            SafetyMode::Sfi {
                read_protect: prot.sfi_read_protect,
            },
        )
        .unwrap();
        assert!(b.module().code_len() > a.module().code_len());
    }

    #[test]
    fn load_compiled_runs_exactly_the_requested_tier() {
        let spec = grafts::acl::spec();
        let manager = GraftManager::new();
        for &tier in Tier::AVAILABLE {
            let engine = manager
                .load_compiled(&spec, Technology::SafeCompiled, tier)
                .unwrap();
            assert_eq!(engine.tier(), tier);
        }
        let absent = [Tier::Jit, Tier::Loop]
            .into_iter()
            .filter(|tier| !Tier::AVAILABLE.contains(tier));
        for tier in absent {
            let err = manager.load_compiled(&spec, Technology::SafeCompiled, tier);
            assert!(matches!(err, Err(GraftError::Unavailable { .. })));
        }
    }
}

//! The technologies the benchmark measures and how each loads a graft.

use engine_native::SafetyMode;
use graft_api::{ExtensionEngine, GraftError, GraftSpec, NativeEngine, Technology};

/// A measured technology, named as the paper's rows are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tech {
    /// Hand-written Rust compiled into the host.
    Native,
    /// Unsafe compiled C (`CompiledUnchecked`).
    C,
    /// Modula-3 (`SafeCompiled` with NIL checks).
    M3,
    /// Omniware (`Sfi`, write protection only).
    Omni,
    /// Java (`Bytecode`).
    Java,
}

impl Tech {
    /// The label used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            Tech::Native => "native",
            Tech::C => "c",
            Tech::M3 => "m3",
            Tech::Omni => "omni",
            Tech::Java => "java",
        }
    }

    /// The program's technology.
    pub fn technology(self) -> Technology {
        match self {
            Tech::Native => Technology::RustNative,
            Tech::C => Technology::CompiledUnchecked,
            Tech::M3 => Technology::SafeCompiled,
            Tech::Omni => Technology::Sfi,
            Tech::Java => Technology::Bytecode,
        }
    }

    /// The technology's code on the server wire (its index in
    /// [`Technology::ALL`]).
    pub fn wire_code(self) -> u8 {
        Technology::ALL
            .iter()
            .position(|&t| t == self.technology())
            .expect("every measured technology is on the wire") as u8
    }
}

/// Loads `spec` under `tech` with the paper's default engine settings:
/// Grail compile, IR verify and (for Omniware) SFI instrumentation all
/// happen here.
pub fn load(spec: &GraftSpec, tech: Tech) -> Result<Box<dyn ExtensionEngine>, GraftError> {
    let grail = || {
        spec.grail
            .as_deref()
            .ok_or_else(|| GraftError::Unavailable {
                graft: spec.name.clone(),
                missing: "Grail source".into(),
            })
    };
    let compiled = |mode| -> Result<Box<dyn ExtensionEngine>, GraftError> {
        Ok(Box::new(engine_native::load_grail(
            grail()?,
            &spec.regions,
            mode,
        )?))
    };
    match tech {
        Tech::Native => {
            let factory = spec.native.clone().ok_or_else(|| GraftError::Unavailable {
                graft: spec.name.clone(),
                missing: "native implementation".into(),
            })?;
            Ok(Box::new(NativeEngine::from_factory(
                &spec.regions,
                &spec.entries,
                factory,
            )?))
        }
        Tech::C => compiled(SafetyMode::Unchecked),
        Tech::M3 => compiled(SafetyMode::Safe { nil_checks: true }),
        Tech::Omni => compiled(SafetyMode::Sfi {
            read_protect: false,
        }),
        Tech::Java => Ok(Box::new(engine_bytecode::BytecodeEngine::load_grail(
            grail()?,
            &spec.regions,
        )?)),
    }
}

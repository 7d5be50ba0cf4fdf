//! Extension technologies and trust models (Section 4 of the paper).

use std::fmt;

/// How the kernel protects itself from a graft (Section 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrustModel {
    /// No protection at all: the graft is trusted (the MS-DOS / unsafe-C
    /// model).
    Unprotected,
    /// The graft runs in a separate address space and is reached by upcall
    /// (the microkernel / user-level-server model, Section 4.1).
    HardwareProtection,
    /// The graft runs in the kernel address space but the instructions it
    /// may execute are restricted by the language, the compiler, or binary
    /// patching (Section 4.2).
    SoftwareProtection,
    /// The graft is run by an in-kernel interpreter that implements only
    /// safe operations (Section 4.3).
    Interpretation,
}

impl fmt::Display for TrustModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrustModel::Unprotected => "unprotected",
            TrustModel::HardwareProtection => "hardware protection",
            TrustModel::SoftwareProtection => "software protection",
            TrustModel::Interpretation => "interpretation",
        };
        f.write_str(s)
    }
}

/// An extension technology evaluated by the paper, mapped onto this
/// reproduction's engines.
///
/// The paper's technologies and our analogues:
///
/// | Paper            | Variant                     | Engine                              |
/// |------------------|-----------------------------|-------------------------------------|
/// | C (`gcc -O`)     | [`CompiledUnchecked`]       | machine code, no checks             |
/// | Modula-3         | [`SafeCompiled`]            | machine code + bounds/NIL checks    |
/// | Omniware (SFI)   | [`Sfi`]                     | machine code + mask instrumentation |
/// | Java             | [`Bytecode`]                | stack bytecode interpreter          |
/// | Tcl              | [`Script`]                  | string-substitution interpreter     |
/// | user-level server| [`UserLevel`]               | cross-thread upcall wrapper         |
/// | (upper bound)    | [`RustNative`]              | hand-written Rust                   |
///
/// [`CompiledUnchecked`]: Technology::CompiledUnchecked
/// [`SafeCompiled`]: Technology::SafeCompiled
/// [`Sfi`]: Technology::Sfi
/// [`Bytecode`]: Technology::Bytecode
/// [`Script`]: Technology::Script
/// [`UserLevel`]: Technology::UserLevel
/// [`RustNative`]: Technology::RustNative
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Technology {
    /// Hand-written Rust compiled into the host binary. Not one of the
    /// paper's downloadable technologies; reported as a hardware upper
    /// bound on what "compiled into the kernel" can do on this machine.
    RustNative,
    /// The paper's unsafe C baseline: graft source compiled to threaded
    /// code with every safety check disabled. All normalized numbers are
    /// relative to this technology, as in the paper.
    CompiledUnchecked,
    /// The paper's Modula-3: same compiled code plus array-bounds checks,
    /// NIL checks on pointer-chasing loads, and defined overflow.
    SafeCompiled,
    /// The paper's Omniware: same compiled code run inside a sandbox
    /// arena, with explicit address-mask instructions inserted before
    /// every write (and optionally every read) and a load-time verifier.
    Sfi,
    /// The paper's Java: a stack bytecode interpreter with boxed values.
    Bytecode,
    /// The paper's Tcl: direct source interpretation, everything a string.
    Script,
    /// The paper's user-level server: a graft hosted behind an upcall
    /// boundary (hardware protection).
    UserLevel,
}

impl Technology {
    /// Every technology, in the paper's comparison order.
    pub const ALL: [Technology; 7] = [
        Technology::RustNative,
        Technology::CompiledUnchecked,
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
        Technology::UserLevel,
    ];

    /// The downloadable technologies the paper's tables compare (excludes
    /// the Rust upper bound and the upcall wrapper, which Figure 1 treats
    /// parametrically).
    pub const TABLE_ORDER: [Technology; 5] = [
        Technology::CompiledUnchecked,
        Technology::Bytecode,
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Script,
    ];

    /// Which trust model protects the kernel under this technology.
    pub fn trust_model(self) -> TrustModel {
        match self {
            Technology::RustNative | Technology::CompiledUnchecked => TrustModel::Unprotected,
            Technology::SafeCompiled | Technology::Sfi => TrustModel::SoftwareProtection,
            Technology::Bytecode | Technology::Script => TrustModel::Interpretation,
            Technology::UserLevel => TrustModel::HardwareProtection,
        }
    }

    /// The 1996 technology this engine stands in for.
    pub fn paper_name(self) -> &'static str {
        match self {
            Technology::RustNative => "(in-kernel native)",
            Technology::CompiledUnchecked => "C",
            Technology::SafeCompiled => "Modula-3",
            Technology::Sfi => "Omniware",
            Technology::Bytecode => "Java",
            Technology::Script => "Tcl",
            Technology::UserLevel => "user-level server",
        }
    }

    /// Whether the kernel can preempt a runaway graft under this
    /// technology without special compiler support.
    ///
    /// Interpreted and upcall technologies meter execution (fuel /
    /// time-slicing); compiled in-kernel code must be instrumented.
    pub fn preemptible(self) -> bool {
        !matches!(
            self,
            Technology::RustNative | Technology::CompiledUnchecked
        )
    }
}

impl fmt::Display for Technology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Technology::RustNative => "rust-native",
            Technology::CompiledUnchecked => "compiled-unchecked",
            Technology::SafeCompiled => "safe-compiled",
            Technology::Sfi => "sfi",
            Technology::Bytecode => "bytecode",
            Technology::Script => "script",
            Technology::UserLevel => "user-level",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for Technology {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rust-native" | "native" => Ok(Technology::RustNative),
            "compiled-unchecked" | "c" | "unchecked" => Ok(Technology::CompiledUnchecked),
            "safe-compiled" | "modula-3" | "m3" | "safe" => Ok(Technology::SafeCompiled),
            "sfi" | "omniware" => Ok(Technology::Sfi),
            "bytecode" | "java" => Ok(Technology::Bytecode),
            "script" | "tcl" | "tickle" => Ok(Technology::Script),
            "user-level" | "upcall" => Ok(Technology::UserLevel),
            other => Err(format!("unknown technology `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trust_models_match_paper_sections() {
        assert_eq!(
            Technology::CompiledUnchecked.trust_model(),
            TrustModel::Unprotected
        );
        assert_eq!(
            Technology::SafeCompiled.trust_model(),
            TrustModel::SoftwareProtection
        );
        assert_eq!(Technology::Sfi.trust_model(), TrustModel::SoftwareProtection);
        assert_eq!(Technology::Bytecode.trust_model(), TrustModel::Interpretation);
        assert_eq!(Technology::Script.trust_model(), TrustModel::Interpretation);
        assert_eq!(
            Technology::UserLevel.trust_model(),
            TrustModel::HardwareProtection
        );
    }

    #[test]
    fn from_str_round_trips_display() {
        for tech in Technology::ALL {
            let parsed: Technology = tech.to_string().parse().unwrap();
            assert_eq!(parsed, tech);
        }
    }

    #[test]
    fn from_str_accepts_paper_aliases() {
        assert_eq!("m3".parse::<Technology>().unwrap(), Technology::SafeCompiled);
        assert_eq!("java".parse::<Technology>().unwrap(), Technology::Bytecode);
        assert_eq!("tcl".parse::<Technology>().unwrap(), Technology::Script);
        assert_eq!("omniware".parse::<Technology>().unwrap(), Technology::Sfi);
        assert!("fortran".parse::<Technology>().is_err());
    }

    #[test]
    fn unchecked_compiled_code_is_not_preemptible() {
        assert!(!Technology::CompiledUnchecked.preemptible());
        assert!(Technology::Bytecode.preemptible());
        assert!(Technology::UserLevel.preemptible());
    }
}

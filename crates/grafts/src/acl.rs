//! An access-control-list graft (Black box; the §3.3 ACL example).
//!
//! "At the center of the code that implements Access Control Lists is a
//! small database that accepts a triple containing a file access
//! request, a user ID, and a file ID, and responds yes or no." The
//! graft stores the ACL as `(uid, file, mode-mask)` triples in a region
//! and answers `acl_check(uid, file, mode)`.
//!
//! Modes are a bit mask: 1 = read, 2 = write, 4 = execute. A uid of −1
//! in a rule matches any user (a "world" entry).

use graft_api::{
    ExtensionEngine, GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionId,
    RegionSpec, RegionStore,
};

/// Maximum ACL entries.
pub const MAX_RULES: usize = 256;

/// Mode bit: read.
pub const READ: i64 = 1;
/// Mode bit: write.
pub const WRITE: i64 = 2;
/// Mode bit: execute.
pub const EXEC: i64 = 4;

/// Grail source for the ACL graft.
pub const GRAIL: &str = r#"
// ACL check: rules are (uid, file, modemask) triples; rules[0] = count.
// uid -1 matches any user. Deny unless some rule grants every bit.

fn acl_check(uid: int, file: int, mode: int) -> int {
    let n = rules[0];
    let i = 0;
    while i < n {
        let base = 1 + i * 3;
        let ruid = rules[base];
        if (ruid == uid || ruid == -1) && rules[base + 1] == file {
            if (rules[base + 2] & mode) == mode {
                return 1;
            }
        }
        i = i + 1;
    }
    return 0;
}
"#;

/// Tickle source for the ACL graft.
pub const TICKLE: &str = r#"
proc acl_check {uid file mode} {
    set n [rload rules 0]
    for {set i 0} {$i < $n} {incr i} {
        set base [expr 1 + $i * 3]
        set ruid [rload rules $base]
        if {($ruid == $uid || $ruid == -1) && [rload rules [expr $base + 1]] == $file} {
            if {([rload rules [expr $base + 2]] & $mode) == $mode} { return 1 }
        }
    }
    return 0
}
"#;

/// Native implementation of the same ABI.
#[derive(Debug, Default)]
pub struct NativeAcl {
    rules: Option<RegionId>,
}

impl NativeGraft for NativeAcl {
    fn call(
        &mut self,
        entry: &str,
        args: &[i64],
        regions: &mut RegionStore,
    ) -> Result<i64, GraftError> {
        if entry != "acl_check" {
            return Err(graft_api::engine::no_such_entry(entry));
        }
        let (uid, file, mode) = (args[0], args[1], args[2]);
        let id = crate::region_id(&mut self.rules, regions, "rules")?;
        let rules = regions.region(id).words();
        let n = rules[0] as usize;
        for i in 0..n {
            let base = 1 + i * 3;
            let ruid = rules[base];
            if (ruid == uid || ruid == -1)
                && rules[base + 1] == file
                && (rules[base + 2] & mode) == mode
            {
                return Ok(1);
            }
        }
        Ok(0)
    }
}

/// One ACL rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    /// User id, or −1 for any user.
    pub uid: i64,
    /// File id.
    pub file: i64,
    /// Granted mode bits.
    pub modes: i64,
}

/// The portable graft package.
pub fn spec() -> GraftSpec {
    GraftSpec::new("acl-check", GraftClass::BlackBox, Motivation::Functionality)
        .region(RegionSpec::data("rules", 1 + 3 * MAX_RULES))
        .entry("acl_check", 3)
        .with_grail(GRAIL)
        .with_tickle(TICKLE)
        .with_native(Box::new(|| Box::<NativeAcl>::default()))
}

/// Marshals a rule table into an engine.
pub fn load_rules(engine: &mut dyn ExtensionEngine, rules: &[Rule]) -> Result<(), GraftError> {
    assert!(rules.len() <= MAX_RULES);
    let mut words = vec![0i64; 1 + 3 * rules.len()];
    words[0] = rules.len() as i64;
    for (i, r) in rules.iter().enumerate() {
        let base = 1 + i * 3;
        words[base] = r.uid;
        words[base + 1] = r.file;
        words[base + 2] = r.modes;
    }
    engine.load_region("rules", 0, &words)
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine_bytecode::BytecodeEngine;
    use engine_native::{load_grail, SafetyMode};
    use engine_script::ScriptEngine;

    fn rules() -> Vec<Rule> {
        vec![
            Rule { uid: 100, file: 1, modes: READ | WRITE },
            Rule { uid: -1, file: 2, modes: READ },
            Rule { uid: 200, file: 1, modes: READ },
            Rule { uid: 100, file: 3, modes: EXEC },
        ]
    }

    fn engines() -> Vec<Box<dyn ExtensionEngine>> {
        let spec = spec();
        let grail = spec.grail.as_ref().unwrap();
        let tickle = spec.tickle.as_ref().unwrap();
        vec![
            Box::new(load_grail(grail, &spec.regions, SafetyMode::Unchecked).unwrap()),
            Box::new(
                load_grail(grail, &spec.regions, SafetyMode::Safe { nil_checks: true }).unwrap(),
            ),
            Box::new(BytecodeEngine::load_grail(grail, &spec.regions).unwrap()),
            Box::new(ScriptEngine::load(tickle, &spec.regions).unwrap()),
            Box::new(
                graft_api::NativeEngine::new(&spec.regions, (spec.native.as_ref().unwrap())())
                    .unwrap(),
            ),
        ]
    }

    #[test]
    fn decisions_match_across_technologies() {
        // (uid, file, mode) → expected verdict.
        let queries = [
            (100, 1, READ, 1),
            (100, 1, READ | WRITE, 1),
            (100, 1, EXEC, 0),
            (200, 1, READ, 1),
            (200, 1, WRITE, 0),
            (555, 2, READ, 1), // world rule
            (555, 2, WRITE, 0),
            (100, 3, EXEC, 1),
            (100, 9, READ, 0), // no rule for file 9
        ];
        for engine in engines().iter_mut() {
            load_rules(engine.as_mut(), &rules()).unwrap();
            for &(uid, file, mode, want) in &queries {
                let got = engine.invoke("acl_check", &[uid, file, mode]).unwrap();
                assert_eq!(got, want, "{uid}/{file}/{mode} on {:?}", engine.technology());
            }
        }
    }

    #[test]
    fn empty_acl_denies_everything() {
        for engine in engines().iter_mut() {
            load_rules(engine.as_mut(), &[]).unwrap();
            assert_eq!(engine.invoke("acl_check", &[1, 1, READ]).unwrap(), 0);
        }
    }
}

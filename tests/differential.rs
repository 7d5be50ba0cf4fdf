//! Differential fuzzing across extension technologies.
//!
//! The paper's comparison is only meaningful if all technologies compute
//! the *same function*; these tests generate random programs and random
//! workloads from a seeded RNG and require every engine to agree bit for
//! bit with a Rust evaluator.

use graft_rng::{Rng, SliceRandom, SmallRng};

use graftbench::api::{ExtensionEngine, RegionSpec};
use graftbench::bytecode::BytecodeEngine;
use graftbench::native::{load_grail, load_grail_on, CompiledEngine, SafetyMode, Tier};
use graftbench::script::ScriptEngine;

/// A random arithmetic expression over three integer parameters.
#[derive(Debug, Clone)]
enum E {
    Lit(i64),
    Var(usize),
    Bin(&'static str, Box<E>, Box<E>),
    Neg(Box<E>),
    BitNot(Box<E>),
}

const OPS: [&str; 10] = ["+", "-", "*", "&", "|", "^", "<<", ">>", "/", "%"];

/// Draws a random expression with bounded depth, the moral equivalent
/// of the old `prop_recursive` strategy.
fn random_expr(rng: &mut SmallRng, depth: usize) -> E {
    if depth == 0 || rng.gen_bool(0.3) {
        return if rng.gen_bool(0.5) {
            E::Lit(rng.gen_range(-100_000i64..100_000))
        } else {
            E::Var(rng.gen_range(0usize..3))
        };
    }
    match rng.gen_range(0u32..4) {
        0 | 1 => E::Bin(
            OPS[rng.gen_range(0usize..OPS.len())],
            Box::new(random_expr(rng, depth - 1)),
            Box::new(random_expr(rng, depth - 1)),
        ),
        2 => E::Neg(Box::new(random_expr(rng, depth - 1))),
        _ => E::BitNot(Box::new(random_expr(rng, depth - 1))),
    }
}

impl E {
    /// Reference semantics (identical to Grail's defined semantics).
    fn eval(&self, vars: &[i64; 3]) -> i64 {
        match self {
            E::Lit(v) => *v,
            E::Var(i) => vars[*i],
            E::Neg(e) => e.eval(vars).wrapping_neg(),
            E::BitNot(e) => !e.eval(vars),
            E::Bin(op, a, b) => {
                let (a, b) = (a.eval(vars), b.eval(vars));
                match *op {
                    "+" => a.wrapping_add(b),
                    "-" => a.wrapping_sub(b),
                    "*" => a.wrapping_mul(b),
                    "&" => a & b,
                    "|" => a | b,
                    "^" => a ^ b,
                    "<<" => a.wrapping_shl(b as u32 & 63),
                    ">>" => ((a as u64).wrapping_shr(b as u32 & 63)) as i64,
                    "/" => a.wrapping_div(b | 1),
                    "%" => a.wrapping_rem(b | 1),
                    other => unreachable!("{other}"),
                }
            }
        }
    }

    /// Renders to a Grail expression (fully parenthesized).
    fn grail(&self) -> String {
        match self {
            E::Lit(v) if *v < 0 => format!("(0 - {})", v.unsigned_abs()),
            E::Lit(v) => v.to_string(),
            E::Var(i) => ["a", "b", "c"][*i].to_string(),
            E::Neg(e) => format!("(-{})", e.grail()),
            E::BitNot(e) => format!("(~{})", e.grail()),
            E::Bin(op, a, b) => match *op {
                "/" | "%" => format!("({} {op} ({} | 1))", a.grail(), b.grail()),
                _ => format!("({} {op} {})", a.grail(), b.grail()),
            },
        }
    }

    /// Renders to a Tickle `expr` expression.
    fn tickle(&self) -> String {
        match self {
            E::Lit(v) if *v < 0 => format!("(0 - {})", v.unsigned_abs()),
            E::Lit(v) => v.to_string(),
            E::Var(i) => format!("${}", ["a", "b", "c"][*i]),
            E::Neg(e) => format!("(-{})", e.tickle()),
            E::BitNot(e) => format!("(~{})", e.tickle()),
            E::Bin(op, a, b) => match *op {
                "/" | "%" => format!("({} {op} ({} | 1))", a.tickle(), b.tickle()),
                // Tickle's `>>` is logical, same as Grail's.
                _ => format!("({} {op} {})", a.tickle(), b.tickle()),
            },
        }
    }
}

/// Every compiled/interpreted technology computes the reference value
/// for arbitrary expressions — the core soundness property of the whole
/// comparison.
#[test]
fn engines_agree_on_random_expressions() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    for _case in 0..64 {
        let e = random_expr(&mut rng, 5);
        let vars = [
            rng.next_u64() as u32 as i32 as i64,
            rng.next_u64() as u32 as i32 as i64,
            rng.next_u64() as u32 as i32 as i64,
        ];
        let want = e.eval(&vars);

        let grail = format!(
            "fn f(a: int, b: int, c: int) -> int {{ return {}; }}",
            e.grail()
        );
        for mode in [
            SafetyMode::Unchecked,
            SafetyMode::Safe { nil_checks: true },
            SafetyMode::Sfi { read_protect: true },
        ] {
            let mut eng = load_grail(&grail, &[], mode).unwrap();
            assert_eq!(eng.invoke("f", &vars).unwrap(), want, "{:?}", mode);
        }
        let mut bc = BytecodeEngine::load_grail(&grail, &[]).unwrap();
        assert_eq!(bc.invoke("f", &vars).unwrap(), want, "bytecode");
    }
}

/// The script technology agrees too (fewer cases — it is four orders of
/// magnitude slower, which is rather the point).
#[test]
fn tickle_agrees_on_random_expressions() {
    let mut rng = SmallRng::seed_from_u64(0x71C);
    for _case in 0..32 {
        let e = random_expr(&mut rng, 4);
        let vars = [
            rng.next_u64() as u16 as i16 as i64,
            rng.next_u64() as u16 as i16 as i64,
            rng.next_u64() as u16 as i16 as i64,
        ];
        let want = e.eval(&vars);
        let tickle = format!("proc f {{a b c}} {{ return [expr {}] }}", e.tickle());
        let mut eng = ScriptEngine::load(&tickle, &[]).unwrap();
        assert_eq!(eng.invoke("f", &vars).unwrap(), want);
    }
}

/// What one compiled mode makes of an access to `buf`, modelled without
/// the engine's own memory code.
enum RegionModel {
    /// Unsafe C: a flat array padded to the next power of two; a stray
    /// index wraps into the padding.
    Padded(Vec<i64>),
    /// Modula-3 (and the bytecode engine): the region's own words, and
    /// an `OutOfBounds` trap naming the exact index and length.
    Checked(Vec<i64>),
    /// Omniware: one arena holding every pool and region where
    /// `ArenaLayout` places them, with every address masked into it.
    Arena { words: Vec<i64>, base: i64 },
}

impl RegionModel {
    fn arena(layout: &graftbench::native::sfi::ArenaLayout, pools: &[Vec<i64>]) -> Self {
        let mut words = vec![0; layout.total.max(2).next_power_of_two()];
        for (&(at, _), pool) in layout.pools.iter().zip(pools) {
            words[at as usize..at as usize + pool.len()].copy_from_slice(pool);
        }
        RegionModel::Arena {
            words,
            base: i64::from(layout.regions[0].0),
        }
    }

    /// The word `i` reaches, or the trap.
    fn word(&mut self, i: i64) -> Result<&mut i64, Trap> {
        match self {
            RegionModel::Padded(words) => {
                let mask = words.len() - 1;
                Ok(&mut words[i as usize & mask])
            }
            RegionModel::Checked(words) => {
                let len = words.len();
                usize::try_from(i)
                    .ok()
                    .and_then(|at| words.get_mut(at))
                    .ok_or(Trap::OutOfBounds {
                        region: "buf".into(),
                        index: i,
                        len,
                    })
            }
            RegionModel::Arena { words, base } => {
                let mask = words.len() - 1;
                Ok(&mut words[i.wrapping_add(*base) as usize & mask])
            }
        }
    }
}

/// Region traffic. In range, every technology behaves like a plain
/// array. Out of range and negative — on a region of 20 words, so its
/// power-of-two padding and the arena's other contents are reachable —
/// each compiled mode, on every tier, matches its own model (see
/// [`RegionModel`]), as the bytecode engine matches the checked one.
#[test]
fn region_semantics_match_a_flat_array() {
    const LEN: usize = 20;
    let grail = r#"
        const K[3] = { 7, 8, 9 };
        fn put(i: int, v: int) { buf[i] = v; }
        fn get(i: int) -> int { return buf[i]; }
        fn k(i: int) -> int { return K[i]; }
    "#;
    let regions = [RegionSpec::data("buf", LEN)];
    let module = graftbench::ir::lower(&graftbench::lang::compile(grail, &regions).unwrap());
    let layout = graftbench::native::sfi::ArenaLayout::for_module(&module);
    assert!(
        layout.regions[0].0 > 0,
        "the pool must sit below the region"
    );
    let mut rng = SmallRng::seed_from_u64(0x4E6);
    for _case in 0..16 {
        let mut engines: Vec<(String, Box<dyn ExtensionEngine>, RegionModel)> = Vec::new();
        let modes = [
            SafetyMode::Unchecked,
            SafetyMode::Safe { nil_checks: true },
            SafetyMode::Sfi {
                read_protect: false,
            },
            SafetyMode::Sfi { read_protect: true },
        ];
        for mode in modes {
            for &tier in Tier::AVAILABLE {
                let model = match mode {
                    SafetyMode::Unchecked => RegionModel::Padded(vec![0; LEN.next_power_of_two()]),
                    SafetyMode::Safe { .. } => RegionModel::Checked(vec![0; LEN]),
                    SafetyMode::Sfi { .. } => RegionModel::arena(&layout, &module.const_pools),
                };
                let engine = load_grail_on(grail, &regions, mode, tier).unwrap();
                engines.push((format!("{mode:?} {tier:?}"), Box::new(engine), model));
            }
        }
        engines.push((
            "bytecode".into(),
            Box::new(BytecodeEngine::load_grail(grail, &regions).unwrap()),
            RegionModel::Checked(vec![0; LEN]),
        ));
        let nops = rng.gen_range(1usize..40);
        for _ in 0..nops {
            let wild = rng.gen_bool(0.4);
            let i = if wild {
                match rng.gen_range(0u32..4) {
                    0 => rng.gen_range(LEN as i64..LEN as i64 + 16),
                    1 => rng.gen_range(-16i64..0),
                    2 => rng.next_u64() as i64,
                    _ => *[i64::MIN, i64::MAX, 1 << 40].choose(&mut rng).unwrap(),
                }
            } else {
                rng.gen_range(0..LEN as i64)
            };
            let v = rng.next_u64() as u32 as i32 as i64;
            let get = rng.gen_bool(0.5);
            for (name, eng, model) in engines.iter_mut() {
                let (got, want) = if get {
                    let want = model.word(i).map(|w| *w);
                    (eng.invoke("get", &[i]), want)
                } else {
                    let want = model.word(i).map(|w| {
                        *w = v;
                        0
                    });
                    (eng.invoke("put", &[i, v]), want)
                };
                let got = got.map_err(|e| e.as_trap().cloned().expect("a trap"));
                assert_eq!(got, want, "{name}: {} {i}", if get { "get" } else { "put" });
            }
        }
        for (name, eng, model) in engines.iter_mut() {
            for i in 0..LEN as i64 {
                let want = *model.word(i).unwrap();
                assert_eq!(eng.invoke("get", &[i]).unwrap(), want, "{name}: get {i}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Generated programs: loops, region traffic, nested calls, globals and
// traps. Expressions alone never exercise branches, frames or memory
// checks; these programs do, so a mistake in how an engine decodes or
// dispatches code shows up as a disagreement between technologies.
// ---------------------------------------------------------------------

/// `buf`: a data region; indexes are masked into it unless hostile.
const BUF_LEN: usize = 16;
/// `lst`: a linked region, whose word 0 is the NIL sentinel.
const LST_LEN: usize = 8;
/// `K`: the constant pool.
const K_LEN: usize = 8;
const GLOBALS: usize = 3;
const CMPS: [&str; 6] = ["<", "<=", ">", ">=", "==", "!="];

/// Generated-program seeds per run: 200 by default, `GRAFT_DIFF_SEEDS`
/// overrides.
fn diff_seeds() -> u64 {
    std::env::var("GRAFT_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200)
}

/// Writes random Grail programs. A *hostile* program may index past a
/// region or constant pool, read a linked region at its NIL word 0, and
/// recurse without bound; any other program keeps every access in
/// range, so every technology must compute the same thing.
struct ProgramGen {
    rng: SmallRng,
    hostile: bool,
    /// Names in scope, innermost scope last; `true` marks a `let` local
    /// statements may assign (parameters and loop counters are not).
    scopes: Vec<Vec<(String, bool)>>,
    fresh: usize,
    loop_depth: usize,
    max_loops: usize,
    /// Functions the body being written may call.
    callable: &'static [&'static str],
}

impl ProgramGen {
    fn new(seed: u64) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hostile = rng.gen_bool(0.4);
        ProgramGen {
            rng,
            hostile,
            scopes: Vec::new(),
            fresh: 0,
            loop_depth: 0,
            max_loops: 0,
            callable: &[],
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        self.rng.gen_bool(p)
    }

    fn lit(&mut self) -> String {
        let v: i64 = match self.rng.gen_range(0u32..4) {
            0 => self.rng.gen_range(0i64..4),
            1 => self.rng.gen_range(-100_000i64..100_000),
            2 => *[1, 31, 63, 64, 0xFFFF_FFFF].choose(&mut self.rng).unwrap(),
            _ => self.rng.next_u64() as u32 as i32 as i64,
        };
        if v < 0 {
            format!("(0 - {})", v.unsigned_abs())
        } else {
            v.to_string()
        }
    }

    fn name(&mut self, assignable_only: bool) -> Option<String> {
        let names: Vec<&String> = self
            .scopes
            .iter()
            .flatten()
            .filter(|(_, assignable)| *assignable || !assignable_only)
            .map(|(name, _)| name)
            .collect();
        names.choose(&mut self.rng).map(|n| n.to_string())
    }

    fn atom(&mut self) -> String {
        match self.rng.gen_range(0u32..4) {
            0 => self.lit(),
            1 | 2 => self.name(false).unwrap_or_else(|| self.lit()),
            _ => format!("g{}", self.rng.gen_range(0..GLOBALS)),
        }
    }

    fn expr(&mut self, depth: u32) -> String {
        if depth == 0 || self.chance(0.25) {
            return self.atom();
        }
        let d = depth - 1;
        match self.rng.gen_range(0u32..11) {
            0..=2 => {
                let op = ["+", "-", "*", "&", "|", "^", "<<", ">>"]
                    .choose(&mut self.rng)
                    .unwrap();
                format!("({} {op} {})", self.expr(d), self.expr(d))
            }
            3 | 4 => {
                let op = ["+", "-", "*", "&", "|", "^", "<<", ">>"]
                    .choose(&mut self.rng)
                    .unwrap();
                format!("({} {op} {})", self.expr(d), self.lit())
            }
            5 => {
                let op = if self.chance(0.5) { "/" } else { "%" };
                let (a, b) = (self.expr(d), self.expr(d));
                // Mostly non-zero divisors; `& 3` is zero a quarter of
                // the time it is drawn, which must trap alike everywhere.
                let divisor = if self.chance(0.95) {
                    format!("({b} | 1)")
                } else {
                    format!("({b} & 3)")
                };
                format!("({a} {op} {divisor})")
            }
            6 => format!("(-{})", self.expr(d)),
            7 => format!("(~{})", self.expr(d)),
            8 | 9 => self.load(d),
            _ => self.call(d),
        }
    }

    /// An index into a region or pool of `len` words.
    fn index(&mut self, len: usize, depth: u32) -> String {
        let e = self.expr(depth);
        if self.hostile && self.chance(0.08) {
            match self.rng.gen_range(0u32..3) {
                0 => e,
                1 => format!("({e} & {})", 2 * len - 1),
                _ => (len + self.rng.gen_range(0usize..3)).to_string(),
            }
        } else {
            format!("({e} & {})", len - 1)
        }
    }

    /// An index into the linked region: never the NIL word 0 unless
    /// hostile.
    fn link(&mut self, depth: u32) -> String {
        if self.hostile && self.chance(0.08) {
            if self.chance(0.5) {
                "0".to_string()
            } else {
                self.index(LST_LEN, depth)
            }
        } else {
            format!("({} | 1)", self.index(LST_LEN, depth))
        }
    }

    fn load(&mut self, depth: u32) -> String {
        match self.rng.gen_range(0u32..3) {
            0 => format!("buf[{}]", self.index(BUF_LEN, depth)),
            1 => format!("K[{}]", self.index(K_LEN, depth)),
            _ => format!("lst[{}]", self.link(depth)),
        }
    }

    fn call(&mut self, depth: u32) -> String {
        let Some(&callee) = self.callable.choose(&mut self.rng) else {
            return self.atom();
        };
        let args: Vec<String> = match callee {
            "rec" => {
                let e = self.expr(depth);
                // Unbounded recursion depth only in hostile programs.
                let n = if self.hostile && self.chance(0.2) {
                    e
                } else {
                    format!("({e} & 7)")
                };
                vec![n, self.expr(depth)]
            }
            "wide" => (0..13).map(|_| self.expr(depth.min(1))).collect(),
            "hot" | "mid" => (0..3).map(|_| self.expr(depth)).collect(),
            _ => (0..2).map(|_| self.expr(depth)).collect(),
        };
        format!("{callee}({})", args.join(", "))
    }

    fn cond(&mut self, depth: u32) -> String {
        if depth == 0 || self.chance(0.6) {
            let cmp = CMPS.choose(&mut self.rng).unwrap();
            let rhs = if self.chance(0.5) {
                self.lit()
            } else {
                self.expr(1)
            };
            return format!("{} {cmp} {rhs}", self.expr(1));
        }
        let d = depth - 1;
        match self.rng.gen_range(0u32..3) {
            0 => format!("!({})", self.cond(d)),
            1 => format!("({}) && ({})", self.cond(d), self.cond(d)),
            _ => format!("({}) || ({})", self.cond(d), self.cond(d)),
        }
    }

    fn declare(&mut self, prefix: &str, assignable: bool) -> String {
        self.fresh += 1;
        let name = format!("{prefix}{}", self.fresh);
        self.scopes
            .last_mut()
            .unwrap()
            .push((name.clone(), assignable));
        name
    }

    fn block(&mut self, stmts: std::ops::Range<usize>, depth: u32) -> String {
        self.scopes.push(Vec::new());
        let n = self.rng.gen_range(stmts);
        let body: Vec<String> = (0..n).map(|_| self.stmt(depth)).collect();
        self.scopes.pop();
        body.join(" ")
    }

    fn stmt(&mut self, depth: u32) -> String {
        match self.rng.gen_range(0u32..13) {
            2 | 3 => {
                if let Some(name) = self.name(true) {
                    return format!("{name} = {};", self.expr(3));
                }
                let e = self.expr(3);
                format!("let {} = {e};", self.declare("v", true))
            }
            4 => format!("g{} = {};", self.rng.gen_range(0..GLOBALS), self.expr(3)),
            5 => format!("buf[{}] = {};", self.index(BUF_LEN, 2), self.expr(3)),
            6 => format!("lst[{}] = {};", self.link(2), self.expr(3)),
            7 if depth > 0 => {
                let c = self.cond(2);
                let then = self.block(1..4, depth - 1);
                if self.chance(0.5) {
                    let els = self.block(1..4, depth - 1);
                    format!("if {c} {{ {then} }} else {{ {els} }}")
                } else {
                    format!("if {c} {{ {then} }}")
                }
            }
            8 if depth > 0 && self.loop_depth < self.max_loops => {
                // The counter steps first, so `continue` cannot spin.
                let bound = self.rng.gen_range(0i64..5);
                let i = self.declare("i", false);
                self.loop_depth += 1;
                let body = self.block(1..4, depth - 1);
                self.loop_depth -= 1;
                format!("let {i} = 0; while {i} < {bound} {{ {i} = {i} + 1; {body} }}")
            }
            9 if self.loop_depth > 0 => {
                let jump = if self.chance(0.5) {
                    "break"
                } else {
                    "continue"
                };
                format!("if {} {{ {jump}; }}", self.cond(1))
            }
            10 => format!("if {} {{ return {}; }}", self.cond(1), self.expr(2)),
            11 if self.chance(0.1) => format!("if {} {{ abort({}); }}", self.cond(1), self.expr(1)),
            _ => {
                let e = self.expr(3);
                if self.chance(0.3) {
                    // A copy of another local: the pattern a register
                    // coalescer must not fold while the source is live.
                    if let Some(src) = self.name(false) {
                        let first = self.declare("v", true);
                        let second = self.declare("v", true);
                        let sum = self.declare("v", true);
                        return format!(
                            "let {first} = {src}; let {second} = {first}; \
                             let {sum} = {e} + {first} + {second};"
                        );
                    }
                }
                format!("let {} = {e};", self.declare("v", true))
            }
        }
    }

    fn function(
        &mut self,
        name: &str,
        params: &[&str],
        callable: &'static [&'static str],
        max_loops: usize,
        stmts: usize,
    ) -> String {
        self.callable = callable;
        self.max_loops = max_loops;
        self.scopes = vec![params.iter().map(|p| (p.to_string(), false)).collect()];
        let body = self.block(stmts..stmts + 1, 2);
        let ret = self.expr(3);
        let sig: Vec<String> = params.iter().map(|p| format!("{p}: int")).collect();
        format!(
            "fn {name}({}) -> int {{ {body} return {ret}; }}\n",
            sig.join(", ")
        )
    }

    /// `tiny(x, y)`: a leaf with no loops and no calls, short enough
    /// for the machine code to inline at every call site.
    fn tiny(&mut self) -> String {
        self.callable = &[];
        self.max_loops = 0;
        self.scopes = vec![vec![("x".into(), false), ("y".into(), false)]];
        let t = self.expr(1);
        self.scopes[0].push(("t".into(), true));
        let cond = format!(
            "{} {} {}",
            self.atom(),
            CMPS.choose(&mut self.rng).unwrap(),
            self.atom()
        );
        let (early, ret) = (self.expr(1), self.expr(1));
        format!("fn tiny(x: int, y: int) -> int {{ let t = {t}; if {cond} {{ return {early}; }} return {ret}; }}\n")
    }

    /// `hot(a, b, c)`: twelve locals live across a loop that calls
    /// `tiny` and the thirteen-argument `wide`, more than the machine
    /// code has host registers for.
    fn hot(&mut self) -> String {
        self.callable = &[];
        self.scopes = vec![vec![
            ("a".into(), false),
            ("b".into(), false),
            ("c".into(), false),
        ]];
        let locals: String = (0..12)
            .map(|k| format!("let h{k} = {}; ", self.expr(2)))
            .collect();
        let bound = self.rng.gen_range(0i64..6);
        let args: Vec<String> = (0..12).map(|k| format!("h{k}")).collect();
        let updates: String = (2..12)
            .map(|k| {
                let op = ["+", "-", "^", "|", "&", "*"]
                    .choose(&mut self.rng)
                    .unwrap();
                let other = (k + self.rng.gen_range(1..12)) % 12;
                format!("h{k} = (h{k} {op} h{other}) + i; ")
            })
            .collect();
        let sum: Vec<String> = (0..12).map(|k| format!("h{k} * {}", 2 * k + 1)).collect();
        format!(
            "fn hot(a: int, b: int, c: int) -> int {{ {locals}let i = 0; \
             while i < {bound} {{ i = i + 1; h0 = h0 + tiny(h1, i); \
             h1 = h1 ^ wide({}, i); {updates}}} return {}; }}\n",
            args.join(", "),
            sum.join(" + ")
        )
    }

    /// The program's source. Entry points: `main(a, b, c)` and
    /// `digest()`, a hash of every global and region word.
    fn program(&mut self) -> String {
        let mut src = String::new();
        for g in 0..GLOBALS {
            src += &format!("var g{g} = {};\n", self.lit());
        }
        let pool: Vec<String> = (0..K_LEN).map(|_| self.lit()).collect();
        src += &format!("const K[{K_LEN}] = {{ {} }};\n", pool.join(", "));
        src += &self.function("leaf", &["x", "y"], &[], 1, 4);
        src += &self.tiny();
        // Bounded recursion: the only cycle in the call graph. Each
        // level calls `tiny` from a loop.
        self.callable = &["leaf", "tiny"];
        self.max_loops = 0;
        self.scopes = vec![vec![("n".into(), false), ("acc".into(), false)]];
        let body = self.block(2..3, 1);
        let (arg, step) = (self.expr(1), self.expr(2));
        src += &format!(
            "fn rec(n: int, acc: int) -> int {{ if n <= 0 {{ return acc; }} {body} \
             let r = acc; let j = 0; while j < 2 {{ j = j + 1; r = r ^ tiny(j, {arg}); }} \
             return rec(n - 1, r ^ {step}); }}\n"
        );
        // Thirteen parameters: one more than a fixed argument buffer of
        // twelve would hold; the weights catch a misordered argument.
        let params: Vec<String> = (0..13).map(|i| format!("p{i}: int")).collect();
        let sum: Vec<String> = (0..13).map(|i| format!("p{i} * {}", i + 1)).collect();
        src += &format!(
            "fn wide({}) -> int {{ return {}; }}\n",
            params.join(", "),
            sum.join(" + ")
        );
        src += &self.hot();
        src += &self.function(
            "mid",
            &["x", "y", "z"],
            &["leaf", "tiny", "rec", "wide"],
            1,
            5,
        );
        let main = self.function(
            "main",
            &["a", "b", "c"],
            &["leaf", "tiny", "rec", "wide", "mid", "hot"],
            2,
            6,
        );
        // Every program makes at least one 13-argument call, and runs
        // `hot` once.
        let wide: Vec<String> = (0..13)
            .map(|i| ["a", "b", "c"][i % 3].to_string())
            .collect();
        let calls = format!(
            "{{ g0 = g0 ^ wide({}); g1 = g1 ^ hot(a, b, c);",
            wide.join(", ")
        );
        src += &main.replacen('{', &calls, 1);
        src += &format!(
            "fn digest() -> int {{ let s = g0 * 31 + g1 * 7 + g2; let i = 0; \
             while i < {BUF_LEN} {{ s = s * 31 + buf[i]; i = i + 1; }} i = 1; \
             while i < {LST_LEN} {{ s = s * 31 + lst[i]; i = i + 1; }} return s; }}\n"
        );
        src
    }
}

/// A run's outcome: a value, or the kind of trap (payloads such as the
/// offending index are compared by the dedicated trap tests).
#[derive(Debug, PartialEq)]
enum Outcome {
    Value(i64),
    Trap(std::mem::Discriminant<Trap>),
}

fn outcome(result: Result<i64, GraftError>) -> Outcome {
    match result {
        Ok(v) => Outcome::Value(v),
        Err(err) => match err.as_trap() {
            Some(trap) => Outcome::Trap(std::mem::discriminant(trap)),
            None => panic!("engine failed without a trap: {err}"),
        },
    }
}

/// Invokes `entry` on one mode's engines, one per tier. The machine
/// code and the decoded loop must agree exactly: on the value or the
/// whole error, on the fuel burned and on the SFI operations counted.
fn invoke_tiers(
    tiers: &mut [CompiledEngine],
    entry: &str,
    args: &[i64],
    ctx: &str,
) -> Result<i64, GraftError> {
    let mut runs = tiers.iter_mut().map(|e| {
        let out = e.invoke(entry, args);
        (e.tier(), out, e.fuel_used(), e.sfi_tally())
    });
    let (tier, out, fuel, tally) = runs.next().expect("at least one tier");
    for other in runs {
        assert_eq!(
            (&other.1, other.2, other.3),
            (&out, fuel, tally),
            "{:?} vs {tier:?}: {entry}{args:?}, {ctx}",
            other.0
        );
    }
    out
}

/// Property: on generated programs, the Modula-3 analogue and the
/// bytecode engine agree on every value or trap kind and on the state
/// they leave behind. On programs whose accesses stay in range, unsafe
/// C and both SFI configurations agree too, and the two metered
/// compiled technologies burn the same fuel, with a roomy budget and
/// with a budget small enough to preempt them. Every compiled mode runs
/// on every tier, and the tiers agree exactly, hostile programs
/// included (see [`invoke_tiers`]).
#[test]
fn engines_agree_on_generated_programs() {
    let regions = [
        RegionSpec::data("buf", BUF_LEN),
        RegionSpec::linked("lst", LST_LEN),
    ];
    // The first three are the metered technologies; the first is the
    // reference every other engine is held to.
    let modes = [
        SafetyMode::Safe { nil_checks: true },
        SafetyMode::Sfi {
            read_protect: false,
        },
        SafetyMode::Sfi { read_protect: true },
        SafetyMode::Safe { nil_checks: false },
        SafetyMode::Unchecked,
    ];
    const METERED: usize = 3;
    const ROOMY: u64 = 1 << 40;
    let mut hostile = 0;
    // Programs whose machine code inlined a call (`tiny`'s, mostly).
    let mut inlined = 0;
    for seed in 0..diff_seeds() {
        let mut gen = ProgramGen::new(0x6E4E_0000 + seed);
        let src = gen.program();
        let ctx = format!("seed {seed}, hostile {}:\n{src}", gen.hostile);
        hostile += gen.hostile as u32;
        let mut bytecode =
            BytecodeEngine::load_grail(&src, &regions).unwrap_or_else(|e| panic!("{e}\n{ctx}"));
        // Per mode, one engine per tier.
        let mut compiled: Vec<Vec<CompiledEngine>> = modes
            .iter()
            .map(|&mode| {
                Tier::AVAILABLE
                    .iter()
                    .map(|&tier| {
                        load_grail_on(&src, &regions, mode, tier)
                            .unwrap_or_else(|e| panic!("{mode:?} {tier:?}: {e}\n{ctx}"))
                    })
                    .collect()
            })
            .collect();
        inlined += compiled.iter().flatten().any(|e| e.inlined_calls() > 0) as u64;
        for round in 0..4 {
            let args = [
                gen.rng.gen_range(-50i64..50),
                gen.rng.next_u64() as u32 as i32 as i64,
                gen.rng.gen_range(0i64..20),
            ];
            // The last round runs on a budget small enough to preempt.
            let budget = if round == 3 {
                gen.rng.gen_range(0u64..64)
            } else {
                ROOMY
            };
            // Out-of-range programs: only the checked technologies agree.
            let agreeing = match (gen.hostile, round) {
                (true, _) => 1,
                (false, 3) => METERED,
                (false, _) => compiled.len(),
            };
            for e in compiled[..METERED].iter_mut().flatten() {
                e.set_fuel(Some(budget));
            }
            let outcomes: Vec<_> = modes
                .iter()
                .zip(&mut compiled)
                .map(|(mode, tiers)| {
                    let out = invoke_tiers(tiers, "main", &args, &ctx);
                    (mode, out, tiers[0].fuel_used())
                })
                .collect();
            // Confined or garbage past `agreeing`, but never a host panic.
            let want = outcome(outcomes[0].1.clone());
            for (mode, out, _) in &outcomes[1..agreeing] {
                assert_eq!(outcome(out.clone()), want, "{mode:?} main{args:?}, {ctx}");
            }
            if !gen.hostile {
                let fuel: Vec<_> = outcomes[..METERED].iter().map(|o| o.2).collect();
                assert!(
                    fuel.windows(2).all(|w| w[0] == w[1]),
                    "fuel {fuel:?}, {ctx}"
                );
            }
            for e in compiled[..METERED].iter_mut().flatten() {
                e.set_fuel(Some(ROOMY));
            }
            if round < 3 {
                // Unmetered, so its loop bounds alone decide.
                assert_eq!(
                    outcome(bytecode.invoke("main", &args)),
                    want,
                    "bytecode main{args:?}, {ctx}"
                );
            }
            let digests: Vec<_> = compiled
                .iter_mut()
                .map(|tiers| invoke_tiers(tiers, "digest", &[], &ctx).unwrap())
                .collect();
            for (mode, d) in modes.iter().zip(&digests).take(agreeing) {
                assert_eq!(*d, digests[0], "{mode:?} state, {ctx}");
            }
            if round < 3 {
                assert_eq!(
                    bytecode.invoke("digest", &[]).unwrap(),
                    digests[0],
                    "bytecode state, {ctx}"
                );
            }
        }
    }
    assert!(
        hostile > 0 || diff_seeds() < 8,
        "no hostile program generated"
    );
    if Tier::AVAILABLE.contains(&Tier::Jit) {
        assert!(
            inlined * 4 >= diff_seeds() * 3,
            "machine code inlined a call in {inlined} of {} programs",
            diff_seeds()
        );
    }
}

// ---------------------------------------------------------------------
// Two-phase ABI conformance: for every technology and graft, the
// bind-then-invoke fast path must compute exactly what the legacy
// string-keyed path computes, and bad handles must fail deterministically
// (a trap, never UB or a panic).
// ---------------------------------------------------------------------

use graftbench::api::{EntryId, GraftError, RegionId, Technology, Trap};
use graftbench::core::GraftManager;

/// Engines for every technology that can host `spec` (missing sources
/// are skipped, mirroring the paper's blank table cells).
fn engines_for(spec: &graftbench::api::GraftSpec) -> Vec<(Technology, Box<dyn ExtensionEngine>)> {
    let manager = GraftManager::new();
    Technology::ALL
        .into_iter()
        .filter_map(|tech| match manager.load(spec, tech) {
            Ok(engine) => Some((tech, engine)),
            Err(GraftError::Unavailable { .. }) => None,
            Err(err) => panic!("{tech:?}: unexpected load failure: {err}"),
        })
        .collect()
}

/// Property: `bind_entry` + `invoke_id` ≡ string `invoke`, and
/// `invoke_batch` ≡ the same calls one by one — for every technology,
/// on the paper's eviction graft.
#[test]
fn bind_then_invoke_matches_string_invoke_on_every_technology() {
    let spec = graftbench::grafts::eviction::spec();
    let scenario = graftbench::grafts::eviction::Scenario::paper_default(9);
    for (tech, mut engine) in engines_for(&spec) {
        let (lru, hot) = scenario.marshal(engine.as_mut()).unwrap();
        let via_string = engine.invoke("select_victim", &[lru, hot]).unwrap();
        let id = engine.bind_entry("select_victim").unwrap();
        assert_eq!(
            engine.bind_entry("select_victim").unwrap(),
            id,
            "{tech:?}: bind must be idempotent"
        );
        let via_id = engine.invoke_id(id, &[lru, hot]).unwrap();
        assert_eq!(via_id, via_string, "{tech:?}: handle path diverged");
        assert_eq!(via_id, scenario.reference_victim() as i64, "{tech:?}");

        // A batch of four identical calls returns four identical results.
        let args = [lru, hot, lru, hot, lru, hot, lru, hot];
        let mut out = Vec::new();
        engine.invoke_batch(id, 4, &args, &mut out).unwrap();
        assert_eq!(out, vec![via_id; 4], "{tech:?}: batch diverged");
    }
}

/// Property: the logdisk write stream produces identical bookkeeping
/// whether driven by string invokes or by handle-based batches.
#[test]
fn batched_writes_match_string_driven_writes() {
    let spec = graftbench::grafts::logdisk::spec_sized(512);
    let writes: Vec<i64> = graftbench::logdisk::workload::skewed(512, 512, 3)
        .map(|w| w as i64)
        .collect();
    for (tech, mut by_name) in engines_for(&spec) {
        let mut by_id = GraftManager::new().load(&spec, tech).unwrap();
        graftbench::grafts::logdisk::init_map(by_name.as_mut(), 512).unwrap();
        graftbench::grafts::logdisk::init_map(by_id.as_mut(), 512).unwrap();
        let mut flushes_name = 0i64;
        for &w in &writes {
            flushes_name += by_name.invoke("ld_write", &[w]).unwrap();
        }
        let wr = by_id.bind_entry("ld_write").unwrap();
        let mut out = Vec::new();
        for chunk in writes.chunks(32) {
            by_id.invoke_batch(wr, chunk.len(), chunk, &mut out).unwrap();
        }
        let flushes_id: i64 = out.iter().sum();
        assert_eq!(flushes_id, flushes_name, "{tech:?}: flush counts differ");
        for stat in 0..3 {
            assert_eq!(
                by_id.invoke("ld_stat", &[stat]).unwrap(),
                by_name.invoke("ld_stat", &[stat]).unwrap(),
                "{tech:?}: ld_stat({stat}) differs"
            );
        }
    }
}

/// Property: region handles and region names address the same storage.
#[test]
fn region_handles_alias_region_names_on_every_technology() {
    let spec = graftbench::grafts::md5::spec();
    for (tech, mut engine) in engines_for(&spec) {
        let msg = engine.bind_region("msg").unwrap();
        engine.load_region_id(msg, 0, &[7, 8, 9]).unwrap();
        assert_eq!(engine.read_region("msg", 1).unwrap(), 8, "{tech:?}");
        engine.write_region("msg", 1, 80).unwrap();
        assert_eq!(engine.read_region_id(msg, 1).unwrap(), 80, "{tech:?}");
        let mut out = [0i64; 3];
        engine.read_region_slice_id(msg, 0, &mut out).unwrap();
        assert_eq!(out, [7, 80, 9], "{tech:?}");
        assert!(engine.bind_region("no_such_region").is_err(), "{tech:?}");
    }
}

/// Negative: binding an undeclared entry fails at bind time — load-time
/// name resolution is part of the safety story for every technology.
#[test]
fn unknown_entries_fail_at_bind_on_every_technology() {
    let spec = graftbench::grafts::eviction::spec();
    for (tech, mut engine) in engines_for(&spec) {
        let err = engine
            .bind_entry("definitely_not_an_entry")
            .expect_err(&format!("{tech:?}: bind of unknown entry must fail"));
        assert!(
            matches!(
                err.as_trap(),
                Some(Trap::NoSuchFunction(_)) | Some(Trap::BadHandle { .. })
            ),
            "{tech:?}: wrong error: {err}"
        );
    }
}

/// Negative: stale or forged handles trap deterministically — the same
/// `BadHandle` shape on every technology, in-process or across the
/// upcall boundary. Never UB, never a panic.
#[test]
fn stale_handles_trap_deterministically_on_every_technology() {
    let spec = graftbench::grafts::eviction::spec();
    for (tech, mut engine) in engines_for(&spec) {
        let err = engine.invoke_id(EntryId(4_000), &[]).unwrap_err();
        assert!(
            matches!(err.as_trap(), Some(Trap::BadHandle { kind: "entry", .. })),
            "{tech:?}: invoke_id: {err}"
        );
        let mut out = Vec::new();
        let err = engine.invoke_batch(EntryId(4_000), 1, &[0], &mut out).unwrap_err();
        assert!(
            matches!(err.as_trap(), Some(Trap::BadHandle { kind: "entry", .. })),
            "{tech:?}: invoke_batch: {err}"
        );
        let err = engine.read_region_id(RegionId(9_999), 0).unwrap_err();
        assert!(
            matches!(err.as_trap(), Some(Trap::BadHandle { kind: "region", .. })),
            "{tech:?}: read_region_id: {err}"
        );
        let err = engine.write_region_id(RegionId(9_999), 0, 1).unwrap_err();
        assert!(
            matches!(err.as_trap(), Some(Trap::BadHandle { kind: "region", .. })),
            "{tech:?}: write_region_id: {err}"
        );
    }
}

/// Negative: a malformed batch (argument count not divisible by the
/// call count) is rejected before any call runs.
#[test]
fn malformed_batches_are_rejected_up_front() {
    let spec = graftbench::grafts::eviction::spec();
    for (tech, mut engine) in engines_for(&spec) {
        let id = engine.bind_entry("select_victim").unwrap();
        let mut out = Vec::new();
        let err = engine.invoke_batch(id, 3, &[1, 2, 3, 4], &mut out).unwrap_err();
        assert!(
            matches!(err, GraftError::Verify(_)),
            "{tech:?}: expected shape error, got {err}"
        );
        assert!(out.is_empty(), "{tech:?}: no call may have run");
    }
}

// ---------------------------------------------------------------------
// State-salvage seam conformance: snapshot_region / restore_region
// round-trips bit for bit on every technology, snapshots agree across
// technologies, and fork_for_shard replicas speak the same seam.
// ---------------------------------------------------------------------

const SALVAGE_BLOCKS: usize = 256;

fn salvage_writes() -> Vec<i64> {
    graftbench::logdisk::workload::skewed(SALVAGE_BLOCKS, 192, 0xEC0)
        .map(|w| w as i64)
        .collect()
}

/// Property: a salvaged region snapshot equals the graft's own lookups
/// word for word, survives later donor writes untouched, restores into
/// a fresh engine bit-exact, and a length-mismatched restore is
/// rejected before any word lands. Snapshots are also bit-identical
/// *across* technologies, so a salvaged map can re-seed a replacement
/// built on any other technology.
#[test]
fn region_snapshots_round_trip_bit_exact_on_every_technology() {
    let spec = graftbench::grafts::logdisk::spec_sized(SALVAGE_BLOCKS);
    let writes = salvage_writes();
    let mut snapshots: Vec<(Technology, Vec<i64>)> = Vec::new();
    for (tech, mut donor) in engines_for(&spec) {
        graftbench::grafts::logdisk::init_map(donor.as_mut(), SALVAGE_BLOCKS).unwrap();
        for &w in &writes {
            donor.invoke("ld_write", &[w]).unwrap();
        }
        let map = donor.bind_region("map").unwrap();
        let snap = donor.snapshot_region(map).unwrap();
        assert_eq!(snap.len(), SALVAGE_BLOCKS, "{tech:?}: one word per block");
        for (block, &word) in snap.iter().enumerate() {
            assert_eq!(
                donor.invoke("ld_lookup", &[block as i64]).unwrap(),
                word,
                "{tech:?}: snapshot diverges from the graft's own lookup at block {block}"
            );
        }

        // The snapshot is a copy: a write after the snapshot moves the
        // donor's mapping but must not reach the salvaged words.
        let touched = writes[0];
        donor.invoke("ld_write", &[touched]).unwrap();
        let after = donor.snapshot_region(map).unwrap();
        assert_ne!(
            after[touched as usize], snap[touched as usize],
            "{tech:?}: a fresh write must move the mapping"
        );

        // Restore into a fresh engine of the same technology.
        let mut fresh = GraftManager::new().load(&spec, tech).unwrap();
        graftbench::grafts::logdisk::init_map(fresh.as_mut(), SALVAGE_BLOCKS).unwrap();
        let fresh_map = fresh.bind_region("map").unwrap();

        // Wrong-length restores fail closed, before any word is written.
        let err = fresh
            .restore_region(fresh_map, &snap[..SALVAGE_BLOCKS - 1])
            .unwrap_err();
        assert!(matches!(err, GraftError::Verify(_)), "{tech:?}: {err}");
        assert_eq!(
            fresh.invoke("ld_lookup", &[touched]).unwrap(),
            -1,
            "{tech:?}: a rejected restore must not touch the region"
        );

        fresh.restore_region(fresh_map, &snap).unwrap();
        assert_eq!(fresh.snapshot_region(fresh_map).unwrap(), snap, "{tech:?}");
        for (block, &word) in snap.iter().enumerate() {
            assert_eq!(
                fresh.invoke("ld_lookup", &[block as i64]).unwrap(),
                word,
                "{tech:?}: restored lookup differs at block {block}"
            );
        }
        snapshots.push((tech, snap));
    }

    // Same workload, same bookkeeping: every technology salvages the
    // exact same words.
    let (first_tech, reference) = &snapshots[0];
    for (tech, snap) in &snapshots[1..] {
        assert_eq!(
            snap, reference,
            "{tech:?} and {first_tech:?} salvage different maps from the same workload"
        );
    }
}

/// Property: `fork_for_shard` replicas speak the same salvage seam —
/// a snapshot restores into a replica and reads back bit-exact, and
/// replica writes never leak into the donor's region. This is what
/// lets the sharded host re-seed any replica from a salvaged map.
#[test]
fn snapshots_restore_into_fork_replicas_bit_exact() {
    let spec = graftbench::grafts::logdisk::spec_sized(SALVAGE_BLOCKS);
    let writes = salvage_writes();
    let mut forked = 0usize;
    for (tech, mut donor) in engines_for(&spec) {
        graftbench::grafts::logdisk::init_map(donor.as_mut(), SALVAGE_BLOCKS).unwrap();
        for &w in &writes {
            donor.invoke("ld_write", &[w]).unwrap();
        }
        let map = donor.bind_region("map").unwrap();
        let snap = donor.snapshot_region(map).unwrap();
        let mut replica = match donor.fork_for_shard(1) {
            Ok(replica) => replica,
            Err(GraftError::Unavailable { .. }) => continue,
            Err(err) => panic!("{tech:?}: unexpected fork failure: {err}"),
        };
        forked += 1;
        graftbench::grafts::logdisk::init_map(replica.as_mut(), SALVAGE_BLOCKS).unwrap();
        let replica_map = replica.bind_region("map").unwrap();
        replica.restore_region(replica_map, &snap).unwrap();
        assert_eq!(
            replica.snapshot_region(replica_map).unwrap(),
            snap,
            "{tech:?}: replica round trip"
        );
        for (block, &word) in snap.iter().enumerate() {
            assert_eq!(
                replica.invoke("ld_lookup", &[block as i64]).unwrap(),
                word,
                "{tech:?}: replica lookup differs at block {block}"
            );
        }
        // Replica and donor regions stay independent after the restore.
        replica.invoke("ld_write", &[writes[0]]).unwrap();
        assert_eq!(
            donor.snapshot_region(map).unwrap(),
            snap,
            "{tech:?}: donor must not observe replica writes"
        );
    }
    assert!(forked > 0, "no technology exercised the fork path");
}

/// The MD5 graft matches the reference implementation on arbitrary
/// inputs and chunkings.
#[test]
fn md5_graft_matches_reference_on_random_bytes() {
    let mut rng = SmallRng::seed_from_u64(0x3D55);
    for _case in 0..24 {
        let len = rng.gen_range(0usize..400);
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let split = rng.gen_range(0usize..400).min(data.len());
        let spec = graftbench::grafts::md5::spec();
        let mut eng = load_grail(
            spec.grail.as_ref().unwrap(),
            &spec.regions,
            SafetyMode::Safe { nil_checks: true },
        )
        .unwrap();
        let mut g = graftbench::grafts::md5::Md5Graft::start(&mut eng).unwrap();
        g.update(&data[..split]).unwrap();
        g.update(&data[split..]).unwrap();
        assert_eq!(g.finish().unwrap(), graftbench::md5::digest(&data));
    }
}

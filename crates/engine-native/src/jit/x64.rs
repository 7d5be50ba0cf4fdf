//! A minimal x86-64 assembler: the instructions the templates in
//! [`super`] use, with 64-bit operands unless a name says otherwise,
//! and labels patched once the whole module is emitted.

/// A general-purpose register, numbered as the encoding does.
pub(crate) type R = u8;

pub(crate) const RAX: R = 0;
pub(crate) const RCX: R = 1;
pub(crate) const RDX: R = 2;
pub(crate) const RBX: R = 3;
pub(crate) const RSP: R = 4;
pub(crate) const RBP: R = 5;
pub(crate) const RSI: R = 6;
pub(crate) const RDI: R = 7;
pub(crate) const R8: R = 8;
pub(crate) const R9: R = 9;
pub(crate) const R10: R = 10;
pub(crate) const R11: R = 11;
pub(crate) const R12: R = 12;
pub(crate) const R13: R = 13;
pub(crate) const R14: R = 14;
pub(crate) const R15: R = 15;

/// A condition code, as the low nibble of `jcc` and `setcc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cc {
    /// Unsigned below (carry).
    B = 2,
    /// Unsigned above or equal.
    Ae = 3,
    E = 4,
    Ne = 5,
    /// Unsigned below or equal.
    Be = 6,
    /// Unsigned above.
    A = 7,
    L = 12,
    Ge = 13,
    Le = 14,
    G = 15,
}

impl Cc {
    /// The condition that holds exactly when `self` does not.
    pub(crate) fn not(self) -> Cc {
        match self {
            Cc::B => Cc::Ae,
            Cc::Ae => Cc::B,
            Cc::E => Cc::Ne,
            Cc::Ne => Cc::E,
            Cc::Be => Cc::A,
            Cc::A => Cc::Be,
            Cc::L => Cc::Ge,
            Cc::Ge => Cc::L,
            Cc::Le => Cc::G,
            Cc::G => Cc::Le,
        }
    }
}

/// The two-operand ALU group, by its `/digit` opcode extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Alu {
    Add = 0,
    Or = 1,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

/// A memory operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum M {
    /// `[base + disp]`
    Disp(R, i32),
    /// `[base + index * 8]`
    Index(R, R),
}

/// A jump target, bound to a code offset at most once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Label(u32);

#[derive(Default)]
pub(crate) struct Asm {
    buf: Vec<u8>,
    labels: Vec<Option<u32>>,
    /// `rel32` fields to patch: where, and which label they reach.
    fixups: Vec<(u32, Label)>,
}

pub(crate) fn fits_i32(v: i64) -> bool {
    i32::try_from(v).is_ok()
}

impl Asm {
    pub(crate) fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() as u32 - 1)
    }

    pub(crate) fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0 as usize].is_none(), "label bound twice");
        self.labels[l.0 as usize] = Some(self.buf.len() as u32);
    }

    /// The offset a label was bound to.
    pub(crate) fn offset(&self, l: Label) -> Option<u32> {
        self.labels[l.0 as usize]
    }

    /// Patches every jump and returns the code. Fails if a label that
    /// is jumped to was never bound.
    pub(crate) fn finish(mut self) -> Option<Vec<u8>> {
        for &(at, l) in &self.fixups {
            let to = self.labels[l.0 as usize]?;
            let rel = to as i64 - (at as i64 + 4);
            let at = at as usize;
            self.buf[at..at + 4].copy_from_slice(&(rel as i32).to_le_bytes());
        }
        Some(self.buf)
    }

    fn byte(&mut self, b: u8) {
        self.buf.push(b);
    }

    fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    fn imm32(&mut self, v: i32) {
        self.bytes(&v.to_le_bytes());
    }

    fn rel32(&mut self, l: Label) {
        self.fixups.push((self.buf.len() as u32, l));
        self.imm32(0);
    }

    fn rex(&mut self, w: bool, reg: R, index: R, base: R) {
        let rex = 0x40 | (w as u8) << 3 | (reg >> 3) << 2 | (index >> 3) << 1 | (base >> 3);
        if rex != 0x40 {
            self.byte(rex);
        }
    }

    /// `op` with ModRM `reg` and a register `rm`.
    fn op_rr(&mut self, w: bool, op: &[u8], reg: R, rm: R) {
        self.rex(w, reg, 0, rm);
        self.bytes(op);
        self.byte(0xC0 | (reg & 7) << 3 | (rm & 7));
    }

    /// `op` with ModRM `reg` and a memory `rm`.
    fn op_rm(&mut self, w: bool, op: &[u8], reg: R, m: M) {
        let r = (reg & 7) << 3;
        match m {
            M::Disp(base, disp) => {
                self.rex(w, reg, 0, base);
                self.bytes(op);
                // `[rbp]`/`[r13]` have no disp-less form.
                let md = if disp == 0 && base & 7 != 5 {
                    0x00
                } else if i8::try_from(disp).is_ok() {
                    0x40
                } else {
                    0x80
                };
                self.byte(md | r | (base & 7));
                // `[rsp]`/`[r12]` need a SIB byte.
                if base & 7 == 4 {
                    self.byte(0x24);
                }
                match md {
                    0x40 => self.byte(disp as i8 as u8),
                    0x80 => self.imm32(disp),
                    _ => {}
                }
            }
            M::Index(base, index) => {
                debug_assert!(index != RSP);
                self.rex(w, reg, index, base);
                self.bytes(op);
                let md = if base & 7 == 5 { 0x40 } else { 0x00 };
                self.byte(md | r | 4);
                self.byte(3 << 6 | (index & 7) << 3 | (base & 7));
                if md == 0x40 {
                    self.byte(0);
                }
            }
        }
    }

    pub(crate) fn mov_rm(&mut self, dst: R, m: M) {
        self.op_rm(true, &[0x8B], dst, m);
    }

    pub(crate) fn mov_mr(&mut self, m: M, src: R) {
        self.op_rm(true, &[0x89], src, m);
    }

    pub(crate) fn mov_rr(&mut self, dst: R, src: R) {
        self.op_rr(true, &[0x89], src, dst);
    }

    /// `mov r32, r32`: keeps the low 32 bits and zeroes the rest.
    pub(crate) fn mov_r32(&mut self, dst: R, src: R) {
        self.op_rr(false, &[0x89], src, dst);
    }

    /// Loads a constant in the shortest encoding.
    pub(crate) fn mov_ri(&mut self, dst: R, v: i64) {
        if v == 0 {
            self.op_rr(false, &[0x31], dst, dst);
        } else if u32::try_from(v).is_ok() {
            self.rex(false, 0, 0, dst);
            self.byte(0xB8 | (dst & 7));
            self.imm32(v as u32 as i32);
        } else if fits_i32(v) {
            self.op_rr(true, &[0xC7], 0, dst);
            self.imm32(v as i32);
        } else {
            self.rex(true, 0, 0, dst);
            self.byte(0xB8 | (dst & 7));
            self.bytes(&v.to_le_bytes());
        }
    }

    pub(crate) fn lea(&mut self, dst: R, m: M) {
        self.op_rm(true, &[0x8D], dst, m);
    }

    pub(crate) fn alu_rr(&mut self, op: Alu, dst: R, src: R) {
        self.op_rr(true, &[(op as u8) << 3 | 3], dst, src);
    }

    pub(crate) fn alu_rm(&mut self, op: Alu, dst: R, m: M) {
        self.op_rm(true, &[(op as u8) << 3 | 3], dst, m);
    }

    pub(crate) fn alu_ri(&mut self, op: Alu, dst: R, imm: i32) {
        if let Ok(imm) = i8::try_from(imm) {
            self.op_rr(true, &[0x83], op as u8, dst);
            self.byte(imm as u8);
        } else {
            self.op_rr(true, &[0x81], op as u8, dst);
            self.imm32(imm);
        }
    }

    /// `op qword [m], imm`.
    pub(crate) fn alu_mi(&mut self, op: Alu, m: M, imm: i32) {
        if let Ok(imm) = i8::try_from(imm) {
            self.op_rm(true, &[0x83], op as u8, m);
            self.byte(imm as u8);
        } else {
            self.op_rm(true, &[0x81], op as u8, m);
            self.imm32(imm);
        }
    }

    pub(crate) fn imul_rr(&mut self, dst: R, src: R) {
        self.op_rr(true, &[0x0F, 0xAF], dst, src);
    }

    pub(crate) fn imul_rm(&mut self, dst: R, m: M) {
        self.op_rm(true, &[0x0F, 0xAF], dst, m);
    }

    pub(crate) fn imul_rri(&mut self, dst: R, src: R, imm: i32) {
        self.op_rr(true, &[0x69], dst, src);
        self.imm32(imm);
    }

    pub(crate) fn neg(&mut self, r: R) {
        self.op_rr(true, &[0xF7], 3, r);
    }

    pub(crate) fn not(&mut self, r: R) {
        self.op_rr(true, &[0xF7], 2, r);
    }

    /// `rdx:rax / r`, quotient to `rax`, remainder to `rdx`.
    pub(crate) fn idiv(&mut self, r: R) {
        self.op_rr(true, &[0xF7], 7, r);
    }

    /// Sign-extends `rax` into `rdx`.
    pub(crate) fn cqo(&mut self) {
        self.bytes(&[0x48, 0x99]);
    }

    pub(crate) fn inc(&mut self, r: R) {
        self.op_rr(true, &[0xFF], 0, r);
    }

    pub(crate) fn inc_m(&mut self, m: M) {
        self.op_rm(true, &[0xFF], 0, m);
    }

    pub(crate) fn dec_m(&mut self, m: M) {
        self.op_rm(true, &[0xFF], 1, m);
    }

    /// `shl r, cl` (the hardware masks the count to 6 bits).
    pub(crate) fn shl_cl(&mut self, r: R) {
        self.op_rr(true, &[0xD3], 4, r);
    }

    /// `shr r, cl`: logical.
    pub(crate) fn shr_cl(&mut self, r: R) {
        self.op_rr(true, &[0xD3], 5, r);
    }

    pub(crate) fn shl_i(&mut self, r: R, n: u8) {
        self.op_rr(true, &[0xC1], 4, r);
        self.byte(n);
    }

    pub(crate) fn shr_i(&mut self, r: R, n: u8) {
        self.op_rr(true, &[0xC1], 5, r);
        self.byte(n);
    }

    /// `sar r, n`: arithmetic.
    pub(crate) fn sar_i(&mut self, r: R, n: u8) {
        self.op_rr(true, &[0xC1], 7, r);
        self.byte(n);
    }

    pub(crate) fn test_rr(&mut self, a: R, b: R) {
        self.op_rr(true, &[0x85], b, a);
    }

    /// `setcc al`.
    pub(crate) fn setcc_al(&mut self, cc: Cc) {
        self.bytes(&[0x0F, 0x90 | cc as u8, 0xC0]);
    }

    /// `movzx r32, al`: `al` zero-extended into `r`.
    pub(crate) fn movzx_al(&mut self, r: R) {
        self.op_rr(false, &[0x0F, 0xB6], r, RAX);
    }

    pub(crate) fn push(&mut self, r: R) {
        self.rex(false, 0, 0, r);
        self.byte(0x50 | (r & 7));
    }

    pub(crate) fn pop(&mut self, r: R) {
        self.rex(false, 0, 0, r);
        self.byte(0x58 | (r & 7));
    }

    pub(crate) fn ret(&mut self) {
        self.byte(0xC3);
    }

    pub(crate) fn call(&mut self, l: Label) {
        self.byte(0xE8);
        self.rel32(l);
    }

    pub(crate) fn call_r(&mut self, r: R) {
        self.op_rr(false, &[0xFF], 2, r);
    }

    pub(crate) fn call_m(&mut self, m: M) {
        self.op_rm(false, &[0xFF], 2, m);
    }

    /// A jump, short when it goes back a short way.
    pub(crate) fn jmp(&mut self, l: Label) {
        match self.back_rel8(l, 2) {
            Some(rel) => self.bytes(&[0xEB, rel as u8]),
            None => {
                self.byte(0xE9);
                self.rel32(l);
            }
        }
    }

    pub(crate) fn jcc(&mut self, cc: Cc, l: Label) {
        match self.back_rel8(l, 2) {
            Some(rel) => self.bytes(&[0x70 | cc as u8, rel as u8]),
            None => {
                self.bytes(&[0x0F, 0x80 | cc as u8]);
                self.rel32(l);
            }
        }
    }

    /// The `rel8` of a `len`-byte jump to an already bound label.
    fn back_rel8(&self, l: Label, len: usize) -> Option<i8> {
        let to = self.labels[l.0 as usize]? as i64;
        i8::try_from(to - (self.buf.len() + len) as i64).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn code(f: impl FnOnce(&mut Asm)) -> Vec<u8> {
        let mut asm = Asm::default();
        f(&mut asm);
        asm.finish().unwrap()
    }

    /// Encodings checked against a reference assembler, one per
    /// addressing quirk.
    #[test]
    fn encodings_match_the_reference() {
        // mov rax, [rbx + 8]
        assert_eq!(
            code(|a| a.mov_rm(RAX, M::Disp(RBX, 8))),
            [0x48, 0x8B, 0x43, 0x08]
        );
        // mov [r12 + 0x100], r15
        assert_eq!(
            code(|a| a.mov_mr(M::Disp(R12, 0x100), R15)),
            [0x4D, 0x89, 0xBC, 0x24, 0x00, 0x01, 0x00, 0x00]
        );
        // mov rax, [r13 + rax*8]
        assert_eq!(
            code(|a| a.mov_rm(RAX, M::Index(R13, RAX))),
            [0x49, 0x8B, 0x44, 0xC5, 0x00]
        );
        // mov [rdx + rax*8], rcx
        assert_eq!(
            code(|a| a.mov_mr(M::Index(RDX, RAX), RCX)),
            [0x48, 0x89, 0x0C, 0xC2]
        );
        // mov rsp, [rsp]
        assert_eq!(
            code(|a| a.mov_rm(RSP, M::Disp(RSP, 0))),
            [0x48, 0x8B, 0x24, 0x24]
        );
        // and rax, 0x7f ; and rsp, -16
        assert_eq!(
            code(|a| a.alu_ri(Alu::And, RAX, 0x7F)),
            [0x48, 0x83, 0xE0, 0x7F]
        );
        assert_eq!(
            code(|a| a.alu_ri(Alu::And, RSP, -16)),
            [0x48, 0x83, 0xE4, 0xF0]
        );
        // cmp rax, 1000
        assert_eq!(
            code(|a| a.alu_ri(Alu::Cmp, RAX, 1000)),
            [0x48, 0x81, 0xF8, 0xE8, 0x03, 0x00, 0x00]
        );
        // sub r15, 1
        assert_eq!(
            code(|a| a.alu_ri(Alu::Sub, R15, 1)),
            [0x49, 0x83, 0xEF, 0x01]
        );
        // xor eax, eax ; mov eax, 0xffffffff ; mov rax, -1 ; movabs
        assert_eq!(code(|a| a.mov_ri(RAX, 0)), [0x31, 0xC0]);
        assert_eq!(
            code(|a| a.mov_ri(RAX, 0xFFFF_FFFF)),
            [0xB8, 0xFF, 0xFF, 0xFF, 0xFF]
        );
        assert_eq!(
            code(|a| a.mov_ri(RAX, -1)),
            [0x48, 0xC7, 0xC0, 0xFF, 0xFF, 0xFF, 0xFF]
        );
        assert_eq!(code(|a| a.mov_ri(R9, 1 << 40)).len(), 10);
        // mov eax, eax ; imul rax, [rbx + 16] ; shl rax, cl ; sar rdx, 63
        assert_eq!(code(|a| a.mov_r32(RAX, RAX)), [0x89, 0xC0]);
        assert_eq!(
            code(|a| a.imul_rm(RAX, M::Disp(RBX, 16))),
            [0x48, 0x0F, 0xAF, 0x43, 0x10]
        );
        assert_eq!(code(|a| a.shl_cl(RAX)), [0x48, 0xD3, 0xE0]);
        assert_eq!(code(|a| a.sar_i(RDX, 63)), [0x48, 0xC1, 0xFA, 0x3F]);
        // call [r12 + 80] ; push r15 ; pop rbx ; setl al
        assert_eq!(
            code(|a| a.call_m(M::Disp(R12, 80))),
            [0x41, 0xFF, 0x54, 0x24, 0x50]
        );
        assert_eq!(code(|a| a.push(R15)), [0x41, 0x57]);
        assert_eq!(code(|a| a.pop(RBX)), [0x5B]);
        assert_eq!(code(|a| a.setcc_al(Cc::L)), [0x0F, 0x9C, 0xC0]);
        // movzx eax, al ; movzx r9d, al
        assert_eq!(code(|a| a.movzx_al(RAX)), [0x0F, 0xB6, 0xC0]);
        assert_eq!(code(|a| a.movzx_al(R9)), [0x44, 0x0F, 0xB6, 0xC8]);
        // cmp qword [r12 + 112], 191 ; mov rbp, [rbx + 8] ; push rbp
        assert_eq!(
            code(|a| a.alu_mi(Alu::Cmp, M::Disp(R12, 112), 191)),
            [0x49, 0x81, 0x7C, 0x24, 0x70, 0xBF, 0x00, 0x00, 0x00]
        );
        assert_eq!(
            code(|a| a.mov_rm(RBP, M::Disp(RBX, 8))),
            [0x48, 0x8B, 0x6B, 0x08]
        );
        assert_eq!(code(|a| a.push(RBP)), [0x55]);
        // mov esi, esi ; xor r11d, r11d
        assert_eq!(code(|a| a.mov_r32(RSI, RSI)), [0x89, 0xF6]);
        assert_eq!(code(|a| a.mov_ri(R11, 0)), [0x45, 0x31, 0xDB]);
    }

    #[test]
    fn jumps_resolve_forward_and_backward() {
        let bytes = code(|a| {
            let top = a.label();
            let out = a.label();
            a.bind(top);
            a.jcc(Cc::E, out); // 6 bytes, forward
            a.jmp(top); // 2 bytes, back
            a.bind(out);
        });
        assert_eq!(bytes, [0x0F, 0x84, 0x02, 0x00, 0x00, 0x00, 0xEB, 0xF8]);
    }
}

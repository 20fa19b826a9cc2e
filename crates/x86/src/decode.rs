//! x86-64 instruction decoder.
//!
//! A length decoder with semantic classification for the instructions the
//! study's analyzer cares about (constant loads, control flow, RIP-relative
//! address formation, and system call instructions). The decoder never
//! fails: byte sequences outside the supported set decode as
//! [`Insn::Unknown`] with length 1, giving the linear resynchronization
//! behaviour the paper assumes of its disassembler.
//!
//! Coverage: all legacy prefixes, REX, the common one-byte opcode map, and
//! the `0F` two-byte map entries that matter (`syscall`, `sysenter`,
//! long conditional branches, `movzx`/`movsx`, multi-byte NOPs, `setcc`).

use crate::insn::{Decoded, Insn, Reg};

/// Legacy prefixes we skip over.
fn is_legacy_prefix(b: u8) -> bool {
    matches!(
        b,
        0x66 | 0x67 | 0xf0 | 0xf2 | 0xf3 | 0x2e | 0x36 | 0x3e | 0x26 | 0x64 | 0x65
    )
}

#[derive(Debug, Clone, Copy, Default)]
struct Rex {
    w: bool,
    r: bool,
    b: bool,
}

/// Parsed ModRM information.
#[derive(Debug, Clone, Copy)]
struct ModRm {
    /// Total bytes consumed by ModRM + SIB + displacement.
    consumed: usize,
    /// The `mod` field.
    modb: u8,
    /// The `reg` field (without REX extension).
    reg: u8,
    /// The `rm` field (without REX extension).
    rm: u8,
    /// `Some(disp32)` when the operand is RIP-relative.
    rip_disp: Option<i32>,
}

fn parse_modrm(bytes: &[u8]) -> Option<ModRm> {
    let m = *bytes.first()?;
    let modb = m >> 6;
    let reg = (m >> 3) & 7;
    let rm = m & 7;
    let mut consumed = 1usize;
    let mut rip_disp = None;
    if modb != 3 {
        let mut disp_size = match modb {
            0 => 0usize,
            1 => 1,
            2 => 4,
            _ => unreachable!(),
        };
        if rm == 4 {
            // SIB byte.
            let sib = *bytes.get(consumed)?;
            consumed += 1;
            if modb == 0 && (sib & 7) == 5 {
                disp_size = 4;
            }
        } else if modb == 0 && rm == 5 {
            // RIP-relative disp32 in 64-bit mode.
            disp_size = 4;
            let d = bytes.get(consumed..consumed + 4)?;
            rip_disp = Some(i32::from_le_bytes([d[0], d[1], d[2], d[3]]));
        }
        if bytes.len() < consumed + disp_size {
            return None;
        }
        consumed += disp_size;
    }
    Some(ModRm { consumed, modb, reg, rm, rip_disp })
}

fn imm32(bytes: &[u8]) -> Option<u32> {
    let b = bytes.get(..4)?;
    Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn imm64(bytes: &[u8]) -> Option<u64> {
    let b = bytes.get(..8)?;
    Some(u64::from_le_bytes([
        b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
    ]))
}

/// The one-byte `int3` opcode, the padding toolchains put between
/// functions.
const INT3: u8 = 0xcc;

const UNKNOWN: fn(u64) -> Decoded =
    |addr| Decoded { addr, len: 1, insn: Insn::Unknown };

/// Decodes one instruction at `addr` from `bytes` (which starts at `addr`).
///
/// Always returns an instruction; undecodable input yields
/// [`Insn::Unknown`] of length 1.
pub fn decode(bytes: &[u8], addr: u64) -> Decoded {
    let mut i = 0usize;
    let mut opsize16 = false;
    // Legacy prefixes.
    while let Some(&b) = bytes.get(i) {
        if is_legacy_prefix(b) {
            if b == 0x66 {
                opsize16 = true;
            }
            i += 1;
            if i > 14 {
                return UNKNOWN(addr);
            }
        } else {
            break;
        }
    }
    // REX prefix.
    let mut rex = Rex::default();
    if let Some(&b) = bytes.get(i) {
        if (0x40..=0x4f).contains(&b) {
            rex = Rex { w: b & 8 != 0, r: b & 4 != 0, b: b & 1 != 0 };
            i += 1;
        }
    }
    let Some(&op) = bytes.get(i) else {
        return UNKNOWN(addr);
    };
    i += 1;
    let zimm = if opsize16 { 2usize } else { 4 };

    let done = |len: usize, insn: Insn| Decoded { addr, len, insn };
    let rest = &bytes[i..];

    // Helper: generic ModRM instruction with trailing immediate bytes.
    let with_modrm = |imm: usize, insn: Insn| -> Decoded {
        match parse_modrm(rest) {
            Some(m) if rest.len() >= m.consumed + imm => {
                done(i + m.consumed + imm, insn)
            }
            _ => UNKNOWN(addr),
        }
    };

    match op {
        // Two-byte map.
        0x0f => {
            let Some(&op2) = bytes.get(i) else {
                return UNKNOWN(addr);
            };
            i += 1;
            let rest = &bytes[i..];
            let with_modrm2 = |imm: usize, insn: Insn| -> Decoded {
                match parse_modrm(rest) {
                    Some(m) if rest.len() >= m.consumed + imm => {
                        done(i + m.consumed + imm, insn)
                    }
                    _ => UNKNOWN(addr),
                }
            };
            match op2 {
                0x05 => done(i, Insn::Syscall),
                0x34 => done(i, Insn::Sysenter),
                // endbr64/endbr32 (F3 0F 1E FA/FB) and the nop-class
                // 0F 1E group decode via ModRM.
                0x1e => with_modrm2(0, Insn::Other),
                0x31 | 0xa2 | 0x0b => done(i, Insn::Other), // rdtsc/cpuid/ud2
                0x1f => with_modrm2(0, Insn::Other),        // long NOP
                0x80..=0x8f => {
                    // jcc rel32.
                    let Some(d) = imm32(rest) else {
                        return UNKNOWN(addr);
                    };
                    let end = addr + (i + 4) as u64;
                    done(i + 4, Insn::Jcc {
                        target: end.wrapping_add(d as i32 as i64 as u64),
                    })
                }
                0x90..=0x9f => with_modrm2(0, Insn::Other), // setcc
                0xaf | 0xb6 | 0xb7 | 0xbe | 0xbf => with_modrm2(0, Insn::Other),
                0x10 | 0x11 | 0x28 | 0x29 | 0x2e | 0x2f | 0x57 | 0x6e
                | 0x7e | 0xd6 => with_modrm2(0, Insn::Other), // common SSE moves
                0xc8..=0xcf => done(i, Insn::Other),          // bswap
                _ => UNKNOWN(addr),
            }
        }

        // Arithmetic groups 0x00-0x3D (add/or/adc/sbb/and/sub/xor/cmp).
        // The invalid-in-64-bit 0x06/0x07/... column has (op & 7) > 5 and
        // falls through to Unknown; 0x0f was matched by the arm above.
        0x00..=0x3f if (op & 7) <= 5 => {
            match op & 7 {
                0..=3 => {
                    // XorSelf detection: `xor r, r` in the 0x30/0x31 forms.
                    match parse_modrm(rest) {
                        Some(m) if rest.len() >= m.consumed => {
                            let insn = if (op == 0x31 || op == 0x33)
                                && m.modb == 3
                                && m.reg == m.rm
                                && rex.r == rex.b
                            {
                                let full =
                                    m.rm | if rex.b { 8 } else { 0 };
                                Insn::XorSelf { reg: Reg(full) }
                            } else {
                                Insn::Other
                            };
                            done(i + m.consumed, insn)
                        }
                        _ => UNKNOWN(addr),
                    }
                }
                4 => {
                    if rest.is_empty() {
                        UNKNOWN(addr)
                    } else {
                        done(i + 1, Insn::Other)
                    }
                }
                5 => {
                    if rest.len() < zimm {
                        UNKNOWN(addr)
                    } else {
                        done(i + zimm, Insn::Other)
                    }
                }
                _ => UNKNOWN(addr),
            }
        }

        // push/pop r64.
        0x50..=0x5f => done(i, Insn::Other),
        // movsxd.
        0x63 => with_modrm(0, Insn::Other),
        // push imm.
        0x68 => {
            if rest.len() < zimm {
                UNKNOWN(addr)
            } else {
                done(i + zimm, Insn::Other)
            }
        }
        0x6a => {
            if rest.is_empty() {
                UNKNOWN(addr)
            } else {
                done(i + 1, Insn::Other)
            }
        }
        // imul with immediate.
        0x69 => with_modrm(zimm, Insn::Other),
        0x6b => with_modrm(1, Insn::Other),

        // jcc rel8.
        0x70..=0x7f => {
            let Some(&d) = rest.first() else {
                return UNKNOWN(addr);
            };
            let end = addr + (i + 1) as u64;
            done(i + 1, Insn::Jcc {
                target: end.wrapping_add(d as i8 as i64 as u64),
            })
        }

        // Group-1 immediates.
        0x80 => with_modrm(1, Insn::Other),
        0x81 => with_modrm(zimm, Insn::Other),
        0x83 => with_modrm(1, Insn::Other),

        // test/xchg/mov r/m.
        0x84..=0x8b => with_modrm(0, Insn::Other),

        // lea.
        0x8d => match parse_modrm(rest) {
            Some(m) if rest.len() >= m.consumed => {
                let insn = match m.rip_disp {
                    Some(disp) => {
                        let end = addr + (i + m.consumed) as u64;
                        let full = m.reg | if rex.r { 8 } else { 0 };
                        Insn::LeaRip {
                            reg: Reg(full),
                            target: end.wrapping_add(disp as i64 as u64),
                        }
                    }
                    None => Insn::Other,
                };
                done(i + m.consumed, insn)
            }
            _ => UNKNOWN(addr),
        },
        0x8f => with_modrm(0, Insn::Other),

        // nop / cwde / cdq.
        0x90 | 0x98 | 0x99 => done(i, Insn::Other),

        // test al/eax, imm.
        0xa8 => {
            if rest.is_empty() {
                UNKNOWN(addr)
            } else {
                done(i + 1, Insn::Other)
            }
        }
        0xa9 => {
            if rest.len() < zimm {
                UNKNOWN(addr)
            } else {
                done(i + zimm, Insn::Other)
            }
        }

        // mov r8, imm8.
        0xb0..=0xb7 => {
            if rest.is_empty() {
                UNKNOWN(addr)
            } else {
                done(i + 1, Insn::Other)
            }
        }

        // mov r32/r64, imm.
        0xb8..=0xbf => {
            let reg = Reg((op & 7) | if rex.b { 8 } else { 0 });
            if rex.w {
                let Some(v) = imm64(rest) else {
                    return UNKNOWN(addr);
                };
                done(i + 8, Insn::MovImm { reg, imm: v })
            } else if opsize16 {
                let Some(b2) = rest.get(..2) else {
                    return UNKNOWN(addr);
                };
                let v = u16::from_le_bytes([b2[0], b2[1]]);
                done(i + 2, Insn::MovImm { reg, imm: u64::from(v) })
            } else {
                let Some(v) = imm32(rest) else {
                    return UNKNOWN(addr);
                };
                done(i + 4, Insn::MovImm { reg, imm: u64::from(v) })
            }
        }

        // Shift groups with imm8.
        0xc0 | 0xc1 => with_modrm(1, Insn::Other),

        // ret.
        0xc2 => {
            if rest.len() < 2 {
                UNKNOWN(addr)
            } else {
                done(i + 2, Insn::Ret)
            }
        }
        0xc3 => done(i, Insn::Ret),

        // mov r/m, imm.
        0xc6 => with_modrm(1, Insn::Other),
        0xc7 => match parse_modrm(rest) {
            Some(m) if rest.len() >= m.consumed + zimm => {
                let insn = if m.modb == 3 && m.reg == 0 {
                    let v = imm32(&rest[m.consumed..]).unwrap_or(0);
                    let imm = if rex.w {
                        v as i32 as i64 as u64 // sign-extended to 64-bit
                    } else {
                        u64::from(v)
                    };
                    let full = m.rm | if rex.b { 8 } else { 0 };
                    Insn::MovImm { reg: Reg(full), imm }
                } else {
                    Insn::Other
                };
                done(i + m.consumed + zimm, insn)
            }
            _ => UNKNOWN(addr),
        },

        // leave / int3 / int imm8.
        0xc9 => done(i, Insn::Other),
        INT3 => done(i, Insn::Other),
        0xcd => {
            let Some(&v) = rest.first() else {
                return UNKNOWN(addr);
            };
            done(i + 1, Insn::Int { vector: v })
        }

        // Shift groups.
        0xd0..=0xd3 => with_modrm(0, Insn::Other),

        // call/jmp rel.
        0xe8 => {
            let Some(d) = imm32(rest) else {
                return UNKNOWN(addr);
            };
            let end = addr + (i + 4) as u64;
            done(i + 4, Insn::CallRel {
                target: end.wrapping_add(d as i32 as i64 as u64),
            })
        }
        0xe9 => {
            let Some(d) = imm32(rest) else {
                return UNKNOWN(addr);
            };
            let end = addr + (i + 4) as u64;
            done(i + 4, Insn::JmpRel {
                target: end.wrapping_add(d as i32 as i64 as u64),
            })
        }
        0xeb => {
            let Some(&d) = rest.first() else {
                return UNKNOWN(addr);
            };
            let end = addr + (i + 1) as u64;
            done(i + 1, Insn::JmpRel {
                target: end.wrapping_add(d as i8 as i64 as u64),
            })
        }

        // hlt.
        0xf4 => done(i, Insn::Other),

        // Group 3: test has an immediate, the rest do not.
        0xf6 => match parse_modrm(rest) {
            Some(m) => {
                let imm = if m.reg <= 1 { 1 } else { 0 };
                if rest.len() >= m.consumed + imm {
                    done(i + m.consumed + imm, Insn::Other)
                } else {
                    UNKNOWN(addr)
                }
            }
            None => UNKNOWN(addr),
        },
        0xf7 => match parse_modrm(rest) {
            Some(m) => {
                let imm = if m.reg <= 1 { zimm } else { 0 };
                if rest.len() >= m.consumed + imm {
                    done(i + m.consumed + imm, Insn::Other)
                } else {
                    UNKNOWN(addr)
                }
            }
            None => UNKNOWN(addr),
        },

        // Group 4/5.
        0xfe => with_modrm(0, Insn::Other),
        0xff => match parse_modrm(rest) {
            Some(m) if rest.len() >= m.consumed => {
                let insn = match m.reg {
                    2 | 3 => Insn::CallIndirect,
                    4 | 5 => Insn::JmpIndirect,
                    _ => Insn::Other,
                };
                done(i + m.consumed, insn)
            }
            _ => UNKNOWN(addr),
        },

        _ => UNKNOWN(addr),
    }
}

/// Iterates over the instructions of a code region.
#[derive(Debug, Clone)]
pub struct Decoder<'a> {
    bytes: &'a [u8],
    addr: u64,
    pos: usize,
    emitted: u64,
    limit: u64,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `bytes`, which begin at virtual address
    /// `addr`.
    pub fn new(bytes: &'a [u8], addr: u64) -> Self {
        Self { bytes, addr, pos: 0, emitted: 0, limit: u64::MAX }
    }

    /// Like [`Decoder::new`], but stops after at most `limit` instructions
    /// — a resource guard for hostile inputs, so a pathological byte
    /// stream can never hold a scan loop hostage. Use
    /// [`Decoder::hit_limit`] afterwards to tell a budget stop from a
    /// normal end of input.
    pub fn with_insn_limit(bytes: &'a [u8], addr: u64, limit: u64) -> Self {
        Self { bytes, addr, pos: 0, emitted: 0, limit }
    }

    /// True when iteration stopped because the instruction budget ran out
    /// while input remained.
    pub fn hit_limit(&self) -> bool {
        self.emitted >= self.limit && self.pos < self.bytes.len()
    }

    /// Instructions decoded so far.
    pub fn decoded(&self) -> u64 {
        self.emitted
    }

    /// Consumes the run of `int3` (`0xCC`) bytes at the current position
    /// in one step and returns its length. Each byte counts as one
    /// decoded instruction against the limit, so a run longer than the
    /// remaining budget stops exactly where iteration would, and
    /// [`Decoder::decoded`] and [`Decoder::hit_limit`] read the same
    /// afterwards.
    ///
    /// Between instructions a `0xCC` byte always decodes alone as `int3`,
    /// so a caller that ignores `int3` may call this at any instruction
    /// boundary: inter-function padding then costs one byte scan instead
    /// of one decode per byte.
    pub fn skip_int3_run(&mut self) -> u64 {
        let rest = self.bytes.get(self.pos..).unwrap_or(&[]);
        let budget = usize::try_from(self.limit.saturating_sub(self.emitted))
            .unwrap_or(usize::MAX);
        let run = rest.iter().take(budget).take_while(|&&b| b == INT3).count();
        self.pos += run;
        self.emitted += run as u64;
        run as u64
    }
}

impl Iterator for Decoder<'_> {
    type Item = Decoded;

    fn next(&mut self) -> Option<Decoded> {
        if self.pos >= self.bytes.len() || self.emitted >= self.limit {
            return None;
        }
        let d = decode(&self.bytes[self.pos..], self.addr + self.pos as u64);
        self.pos += d.len;
        self.emitted += 1;
        Some(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(bytes: &[u8]) -> Decoded {
        decode(bytes, 0x1000)
    }

    #[test]
    fn decodes_syscall() {
        let d = one(&[0x0f, 0x05]);
        assert_eq!(d.insn, Insn::Syscall);
        assert_eq!(d.len, 2);
    }

    #[test]
    fn decodes_int80() {
        let d = one(&[0xcd, 0x80]);
        assert_eq!(d.insn, Insn::Int { vector: 0x80 });
        assert_eq!(d.len, 2);
    }

    #[test]
    fn decodes_sysenter() {
        assert_eq!(one(&[0x0f, 0x34]).insn, Insn::Sysenter);
    }

    #[test]
    fn decodes_mov_eax_imm32() {
        // mov eax, 0x3c
        let d = one(&[0xb8, 0x3c, 0, 0, 0]);
        assert_eq!(d.insn, Insn::MovImm { reg: Reg::RAX, imm: 0x3c });
        assert_eq!(d.len, 5);
    }

    #[test]
    fn decodes_mov_r10d_imm32_with_rex() {
        // mov r10d, 7 (41 BA 07 00 00 00)
        let d = one(&[0x41, 0xba, 7, 0, 0, 0]);
        assert_eq!(d.insn, Insn::MovImm { reg: Reg::R10, imm: 7 });
        assert_eq!(d.len, 6);
    }

    #[test]
    fn decodes_mov_rax_imm64() {
        let d = one(&[0x48, 0xb8, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(
            d.insn,
            Insn::MovImm { reg: Reg::RAX, imm: 0x0807060504030201 }
        );
        assert_eq!(d.len, 10);
    }

    #[test]
    fn decodes_mov_rax_imm32_sign_extended() {
        // mov rax, -1 → 48 C7 C0 FF FF FF FF
        let d = one(&[0x48, 0xc7, 0xc0, 0xff, 0xff, 0xff, 0xff]);
        assert_eq!(d.insn, Insn::MovImm { reg: Reg::RAX, imm: u64::MAX });
        assert_eq!(d.len, 7);
    }

    #[test]
    fn decodes_xor_self() {
        // xor eax, eax → 31 C0
        let d = one(&[0x31, 0xc0]);
        assert_eq!(d.insn, Insn::XorSelf { reg: Reg::RAX });
        // xor edi, esi is NOT a self-xor.
        let d = one(&[0x31, 0xf7]);
        assert_eq!(d.insn, Insn::Other);
    }

    #[test]
    fn decodes_call_rel32() {
        // call +0x10 from 0x1000: E8 10 00 00 00; end = 0x1005.
        let d = one(&[0xe8, 0x10, 0, 0, 0]);
        assert_eq!(d.insn, Insn::CallRel { target: 0x1015 });
        assert_eq!(d.len, 5);
    }

    #[test]
    fn decodes_backward_call() {
        // call -5: E8 FB FF FF FF → target = start.
        let d = one(&[0xe8, 0xfb, 0xff, 0xff, 0xff]);
        assert_eq!(d.insn, Insn::CallRel { target: 0x1000 });
    }

    #[test]
    fn decodes_jmp_rel8_and_rel32() {
        let d = one(&[0xeb, 0x02]);
        assert_eq!(d.insn, Insn::JmpRel { target: 0x1004 });
        let d = one(&[0xe9, 0x00, 0x01, 0, 0]);
        assert_eq!(d.insn, Insn::JmpRel { target: 0x1105 });
    }

    #[test]
    fn decodes_jcc() {
        let d = one(&[0x74, 0x10]); // je +0x10
        assert_eq!(d.insn, Insn::Jcc { target: 0x1012 });
        let d = one(&[0x0f, 0x84, 0x10, 0, 0, 0]); // je rel32
        assert_eq!(d.insn, Insn::Jcc { target: 0x1016 });
    }

    #[test]
    fn decodes_lea_rip_relative() {
        // lea rdi, [rip+0x20] → 48 8D 3D 20 00 00 00; end = 0x1007.
        let d = one(&[0x48, 0x8d, 0x3d, 0x20, 0, 0, 0]);
        assert_eq!(d.insn, Insn::LeaRip { reg: Reg::RDI, target: 0x1027 });
        assert_eq!(d.len, 7);
    }

    #[test]
    fn decodes_lea_non_rip() {
        // lea rax, [rbx+8] → 48 8D 43 08
        let d = one(&[0x48, 0x8d, 0x43, 0x08]);
        assert_eq!(d.insn, Insn::Other);
        assert_eq!(d.len, 4);
    }

    #[test]
    fn decodes_indirect_call_and_jmp() {
        // call rax → FF D0
        let d = one(&[0xff, 0xd0]);
        assert_eq!(d.insn, Insn::CallIndirect);
        // jmp [rip+0] → FF 25 00 00 00 00 (the PLT stub shape)
        let d = one(&[0xff, 0x25, 0, 0, 0, 0]);
        assert_eq!(d.insn, Insn::JmpIndirect);
        assert_eq!(d.len, 6);
    }

    #[test]
    fn decodes_ret_and_prologue() {
        assert_eq!(one(&[0xc3]).insn, Insn::Ret);
        assert_eq!(one(&[0xc2, 0x08, 0x00]).insn, Insn::Ret);
        assert_eq!(one(&[0x55]).insn, Insn::Other); // push rbp
        let d = one(&[0x48, 0x89, 0xe5]); // mov rbp, rsp
        assert_eq!(d.insn, Insn::Other);
        assert_eq!(d.len, 3);
        let d = one(&[0x48, 0x83, 0xec, 0x10]); // sub rsp, 0x10
        assert_eq!(d.len, 4);
    }

    #[test]
    fn unknown_bytes_resync_one_byte() {
        let d = one(&[0x06]); // invalid in 64-bit mode
        assert_eq!(d.insn, Insn::Unknown);
        assert_eq!(d.len, 1);
    }

    #[test]
    fn truncated_instruction_is_unknown() {
        let d = one(&[0xb8, 0x01]); // mov eax, <truncated>
        assert_eq!(d.insn, Insn::Unknown);
        assert_eq!(d.len, 1);
    }

    #[test]
    fn operand_size_prefix_shrinks_immediate() {
        // 66 B8 34 12 → mov ax, 0x1234 (4 bytes total)
        let d = one(&[0x66, 0xb8, 0x34, 0x12]);
        assert_eq!(d.insn, Insn::MovImm { reg: Reg::RAX, imm: 0x1234 });
        assert_eq!(d.len, 4);
    }

    #[test]
    fn decodes_endbr64() {
        // F3 0F 1E FA.
        let d = one(&[0xf3, 0x0f, 0x1e, 0xfa]);
        assert_eq!(d.insn, Insn::Other);
        assert_eq!(d.len, 4);
    }

    #[test]
    fn decoder_iterates_and_advances() {
        // mov eax, 1; mov edi, 2; syscall; ret
        let code = [
            0xb8, 1, 0, 0, 0, //
            0xbf, 2, 0, 0, 0, //
            0x0f, 0x05, //
            0xc3,
        ];
        let insns: Vec<_> = Decoder::new(&code, 0x4000).collect();
        assert_eq!(insns.len(), 4);
        assert_eq!(insns[0].insn, Insn::MovImm { reg: Reg::RAX, imm: 1 });
        assert_eq!(insns[1].insn, Insn::MovImm { reg: Reg::RDI, imm: 2 });
        assert_eq!(insns[2].insn, Insn::Syscall);
        assert_eq!(insns[3].insn, Insn::Ret);
        assert_eq!(insns[3].addr, 0x4000 + 12);
    }

    #[test]
    fn modrm_with_sib_and_disp() {
        // mov rax, [rsp+0x10] → 48 8B 44 24 10
        let d = one(&[0x48, 0x8b, 0x44, 0x24, 0x10]);
        assert_eq!(d.insn, Insn::Other);
        assert_eq!(d.len, 5);
        // mov rax, [rbp-8] → 48 8B 45 F8
        let d = one(&[0x48, 0x8b, 0x45, 0xf8]);
        assert_eq!(d.len, 4);
        // mov rax, [rax+disp32] → 48 8B 80 44 33 22 11
        let d = one(&[0x48, 0x8b, 0x80, 0x44, 0x33, 0x22, 0x11]);
        assert_eq!(d.len, 7);
    }

    #[test]
    fn insn_limit_stops_iteration() {
        // Four instructions; a budget of two yields exactly two and
        // reports the budget stop.
        let code = [
            0xb8, 1, 0, 0, 0, //
            0xbf, 2, 0, 0, 0, //
            0x0f, 0x05, //
            0xc3,
        ];
        let mut d = Decoder::with_insn_limit(&code, 0x4000, 2);
        assert!(d.next().is_some());
        assert!(d.next().is_some());
        assert!(d.next().is_none(), "budget exhausted");
        assert!(d.hit_limit(), "input remained when the budget ran out");
        assert_eq!(d.decoded(), 2);

        // A budget larger than the stream never reports a limit stop.
        let mut d = Decoder::with_insn_limit(&code, 0x4000, 100);
        assert_eq!(d.by_ref().count(), 4);
        assert!(!d.hit_limit());
        assert_eq!(d.decoded(), 4);
    }

    #[test]
    fn int3_runs_are_skipped_against_the_budget() {
        // ret; int3 x 5; ret
        let code = [0xc3, 0xcc, 0xcc, 0xcc, 0xcc, 0xcc, 0xc3];
        let mut d = Decoder::new(&code, 0x4000);
        assert_eq!(d.skip_int3_run(), 0, "no run at a non-int3 byte");
        assert_eq!(d.next().map(|i| i.insn), Some(Insn::Ret));
        assert_eq!(d.skip_int3_run(), 5);
        assert_eq!(d.decoded(), 6);
        assert_eq!(d.next().map(|i| (i.insn, i.addr)), Some((Insn::Ret, 0x4006)));
        assert!(d.next().is_none());

        // A budget of three stops inside the run, as iteration would.
        let mut d = Decoder::with_insn_limit(&code, 0x4000, 3);
        d.next();
        assert_eq!(d.skip_int3_run(), 2);
        assert_eq!(d.decoded(), 3);
        assert!(d.hit_limit());
        assert!(d.next().is_none());
    }
}

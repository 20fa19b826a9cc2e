//! Per-binary static analysis.
//!
//! Implements the paper's §7 pipeline for one ELF object:
//!
//! 1. disassemble `.text`;
//! 2. split it into functions using the symbol table (falling back to a
//!    single region from the entry point for stripped binaries);
//! 3. per function, track register constants to recover system call
//!    numbers and vectored opcodes at call sites, and collect call-graph
//!    edges — direct calls, tail calls, PLT calls to imports, and
//!    RIP-relative function-pointer formation (the paper's deliberate
//!    over-approximation);
//! 4. resolve RIP-relative data references into `.rodata` strings to find
//!    hard-coded pseudo-file paths (including `sprintf`-style format
//!    patterns).
//!
//! Like the paper, the analysis is intra-procedural for data flow: a system
//! call number must be a constant in the issuing function, otherwise the
//! site is counted as unresolved.

use std::collections::{BTreeSet, HashMap};

use apistudy_elf::{BinaryClass, ElfError, ElfFile, PLT_STUB_SIZE};
use apistudy_x86::{Decoder, Insn, Reg};

use crate::facts::Footprint;

/// System call numbers of the vectored calls (x86-64).
const SYS_IOCTL: u64 = 16;
const SYS_FCNTL: u64 = 72;
const SYS_PRCTL: u64 = 157;

/// One analyzed function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncInfo {
    /// Symbol name (synthetic `sub_<addr>` when unnamed).
    pub name: String,
    /// Start virtual address.
    pub addr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Facts observed in this function's own body.
    pub facts: Footprint,
    /// Intra-binary call edges (indices into [`BinaryAnalysis::funcs`]).
    pub calls: BTreeSet<usize>,
}

/// The analysis result for one ELF binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryAnalysis {
    /// Figure 1 classification.
    pub class: BinaryClass,
    /// `DT_SONAME`, when a shared library.
    pub soname: Option<String>,
    /// `DT_NEEDED` dependencies, in order.
    pub needed: Vec<String>,
    /// All discovered functions, sorted by address.
    pub funcs: Vec<FuncInfo>,
    /// Exported (dynamic) function name → index into [`Self::funcs`].
    pub exports: HashMap<String, usize>,
    /// Index of the function containing the entry point.
    pub entry: Option<usize>,
    /// Instructions decoded while scanning this binary.
    pub instructions: u64,
}

struct TextView<'a> {
    bytes: &'a [u8],
    addr: u64,
}

impl TextView<'_> {
    /// One past the last address of `.text`, clamped to the address space
    /// (a hostile `sh_addr` near `u64::MAX` must not wrap).
    fn end(&self) -> u64 {
        self.addr.saturating_add(self.bytes.len() as u64)
    }

    fn contains(&self, a: u64) -> bool {
        a >= self.addr && a < self.end()
    }
}

/// The PLT: call targets in `.plt` resolve to imports by slot arithmetic.
struct Plt<'s> {
    addr: u64,
    end: u64,
    /// The import behind each stub, in stub order.
    imports: Vec<&'s str>,
}

impl Plt<'_> {
    fn contains(&self, a: u64) -> bool {
        a >= self.addr && a < self.end
    }

    /// The import whose stub starts at `a`, which lies in the PLT.
    fn import_at(&self, a: u64) -> Option<&str> {
        let (off, stub) = (a - self.addr, PLT_STUB_SIZE as u64);
        if !off.is_multiple_of(stub) {
            return None;
        }
        self.imports.get(usize::try_from(off / stub).ok()?).copied()
    }
}

/// Register constants known at the current instruction, by register
/// number.
#[derive(Default)]
struct Regs([Option<u64>; 16]);

impl Regs {
    fn get(&self, r: Reg) -> Option<u64> {
        self.0[usize::from(r.0 & 0xf)]
    }

    fn set(&mut self, r: Reg, value: u64) {
        self.0[usize::from(r.0 & 0xf)] = Some(value);
    }

    fn forget(&mut self, r: Reg) {
        self.0[usize::from(r.0 & 0xf)] = None;
    }

    fn clear(&mut self) {
        self.0 = [None; 16];
    }

    /// A call clobbers the caller-saved registers.
    fn clobber_call(&mut self) {
        for r in CALLER_SAVED {
            self.forget(Reg(r));
        }
    }
}

/// Records a referenced import, allocating its name only the first time.
fn note_import(facts: &mut Footprint, sym: &str) {
    if !facts.imports.contains(sym) {
        facts.imports.insert(sym.to_owned());
    }
}

/// Records the operand of a vectored call (`ioctl`, `fcntl`, `prctl`,
/// given by system call number) from its argument register, or counts
/// the site unresolved. Other numbers are not vectored.
fn record_vectored(facts: &mut Footprint, nr: u64, regs: &Regs) {
    let (codes, arg) = match nr {
        SYS_IOCTL => (&mut facts.ioctl_codes, Reg::RSI),
        SYS_FCNTL => (&mut facts.fcntl_codes, Reg::RSI),
        SYS_PRCTL => (&mut facts.prctl_codes, Reg::RDI),
        _ => return,
    };
    match regs.get(arg) {
        Some(code) => {
            codes.insert(code);
        }
        None => facts.unresolved_vectored_sites += 1,
    }
}

fn read_cstr_at(data: &[u8], base: u64, addr: u64) -> Option<&str> {
    let off = addr.checked_sub(base)? as usize;
    let rest = data.get(off..)?;
    let end = rest.iter().position(|&b| b == 0)?;
    let s = std::str::from_utf8(&rest[..end]).ok()?;
    s.chars().all(|c| c.is_ascii_graphic() || c == ' ').then_some(s)
}

/// Registers clobbered by a call under the System V AMD64 ABI.
const CALLER_SAVED: [u8; 9] = [0, 1, 2, 6, 7, 8, 9, 10, 11];

/// Stable 64-bit content hash over a binary's bytes — the identity half of
/// the incremental-analysis cache key (the other half is
/// [`AnalysisOptions::fingerprint`]).
///
/// xxhash-style word-at-a-time mixing with a splitmix finalizer: no
/// dependencies, deterministic across processes and platforms (the input
/// is read little-endian), and every single-bit change to the input — the
/// smallest mutation the fault injector performs — avalanches through the
/// final multiply-shift rounds. This is an integrity fingerprint for
/// dedup, not a cryptographic hash: collisions are astronomically unlikely
/// for corpus-sized inputs but an adversary could manufacture one.
pub fn content_hash(bytes: &[u8]) -> u64 {
    const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
    const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const SEED: u64 = 0x27D4_EB2F_1656_67C5;
    let mut h = SEED ^ (bytes.len() as u64).wrapping_mul(PRIME_1);
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        h ^= word.wrapping_mul(PRIME_2);
        h = h.rotate_left(31).wrapping_mul(PRIME_1);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut word = 0u64;
        for (i, &b) in tail.iter().enumerate() {
            word |= u64::from(b) << (8 * i);
        }
        // Mix the tail length in so "3 trailing bytes" and "3 trailing
        // bytes followed by removed zeros" cannot collide trivially.
        h ^= word.wrapping_mul(PRIME_2) ^ (tail.len() as u64);
        h = h.rotate_left(27).wrapping_mul(PRIME_1);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 29;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^ (h >> 32)
}

/// Tunable analysis choices — the knobs behind the paper's §7 design
/// decisions, exposed so their effect can be measured (ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Treat RIP-relative function-pointer formation as a call edge (the
    /// paper's deliberate over-approximation). Without it, code reached
    /// only through function pointers is invisible.
    pub function_pointer_edges: bool,
    /// Treat jumps leaving the current function as call edges (tail
    /// calls). Without it, tail-called helpers are invisible.
    pub tail_call_edges: bool,
    /// Recover `ioctl`/`fcntl`/`prctl` operand constants at call sites.
    pub track_vectored: bool,
    /// Resource guard: maximum number of call-graph nodes (discovered
    /// functions) per binary. A hostile symbol table claiming millions of
    /// functions degrades into a classified
    /// [`ElfError::ResourceLimit`] skip instead of an unbounded scan.
    pub max_functions: u32,
    /// Resource guard: maximum instructions decoded per binary. Bounds the
    /// disassembly work a single pathological `.text` can demand.
    pub decode_budget: u64,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            function_pointer_edges: true,
            tail_call_edges: true,
            track_vectored: true,
            // Far above anything the corpus generates (the paper's largest
            // binaries hold a few thousand functions), low enough that a
            // hostile input cannot run away with the worker.
            max_functions: 1 << 16,
            decode_budget: 1 << 24,
        }
    }
}

impl AnalysisOptions {
    /// Stable 64-bit fingerprint of every option that can change an
    /// analysis result — the configuration half of the incremental cache
    /// key. Two option sets with equal fingerprints must produce identical
    /// [`BinaryAnalysis`] values for the same input bytes, so every field
    /// is folded in; adding a field to this struct without extending this
    /// method is a cache-poisoning bug (the `fingerprint_covers_all_fields`
    /// test destructures the struct to force the compile error).
    pub fn fingerprint(&self) -> u64 {
        let Self {
            function_pointer_edges,
            tail_call_edges,
            track_vectored,
            max_functions,
            decode_budget,
        } = *self;
        let mut bytes = [0u8; 16];
        bytes[0] = u8::from(function_pointer_edges);
        bytes[1] = u8::from(tail_call_edges);
        bytes[2] = u8::from(track_vectored);
        bytes[4..8].copy_from_slice(&max_functions.to_le_bytes());
        bytes[8..16].copy_from_slice(&decode_budget.to_le_bytes());
        content_hash(&bytes)
    }
}

impl BinaryAnalysis {
    /// Analyzes a parsed ELF binary with the paper's default choices.
    pub fn analyze(elf: &ElfFile<'_>) -> Result<Self, ElfError> {
        Self::analyze_with(elf, AnalysisOptions::default())
    }

    /// Analyzes a parsed ELF binary with explicit [`AnalysisOptions`].
    pub fn analyze_with(
        elf: &ElfFile<'_>,
        options: AnalysisOptions,
    ) -> Result<Self, ElfError> {
        let class = elf.classify();
        let soname = elf.soname()?;
        let needed = elf.needed_libraries()?;

        let text = match elf.section_by_name(".text") {
            Some(s) => TextView { bytes: elf.section_data(s)?, addr: s.addr },
            None => TextView { bytes: &[], addr: 0 },
        };
        let (ro_bytes, ro_addr) = match elf.section_by_name(".rodata") {
            Some(s) => (elf.section_data(s)?, s.addr),
            None => (&[][..], 0),
        };
        // `.dynsym` is parsed once, for the PLT and the export table; a
        // parse error surfaces at the first of the two that needs it.
        let dynsyms = elf.dynsym();
        let plt = {
            let (addr, end) = elf
                .section_by_name(".plt")
                .map_or((0, 0), |s| (s.addr, s.addr.saturating_add(s.size)));
            let imports = elf.plt_imports(dynsyms.as_deref())?;
            Plt { addr, end, imports: imports.iter().map(|s| s.name.as_str()).collect() }
        };

        // ---- Function discovery -------------------------------------
        let mut starts: Vec<(u64, u64, String)> = Vec::new();
        for sym in elf.symtab()? {
            if sym.is_defined_func() && text.contains(sym.value) {
                starts.push((sym.value, sym.size, sym.name));
            }
        }
        if starts.is_empty() && !text.bytes.is_empty() {
            // Stripped binary: one region from the start of .text.
            starts.push((text.addr, text.bytes.len() as u64, "text".to_owned()));
        }
        starts.sort_by_key(|&(a, _, _)| a);
        starts.dedup_by_key(|e| e.0);
        if starts.len() as u64 > u64::from(options.max_functions) {
            return Err(ElfError::ResourceLimit {
                what: "call-graph nodes",
                limit: u64::from(options.max_functions),
                actual: starts.len() as u64,
            });
        }
        let addrs: Vec<u64> = starts.iter().map(|&(a, _, _)| a).collect();
        // Fix zero/overlapping sizes: clamp each function to the next
        // start. Saturating, so a hostile `st_size` cannot wrap the end
        // below the start.
        let ends: Vec<u64> = starts
            .iter()
            .enumerate()
            .map(|(i, &(a, sz, _))| {
                let next = addrs.get(i + 1).copied().unwrap_or_else(|| text.end());
                if sz == 0 {
                    next
                } else {
                    a.saturating_add(sz).min(next)
                }
            })
            .collect();
        let func_at = |target: u64| addrs.binary_search(&target).ok();

        // ---- Per-function scan --------------------------------------
        let mut instructions: u64 = 0;
        let mut funcs = Vec::with_capacity(starts.len());
        for (i, (addr, _, name)) in starts.into_iter().enumerate() {
            let end = ends[i];
            let lo = (addr - text.addr) as usize;
            let hi = ((end - text.addr) as usize).min(text.bytes.len());
            let body = &text.bytes[lo..hi.max(lo)];
            let mut facts = Footprint::new();
            let mut calls = BTreeSet::new();
            let mut regs = Regs::default();

            let record_call_target = |target: u64,
                                          regs: &Regs,
                                          facts: &mut Footprint,
                                          calls: &mut BTreeSet<usize>| {
                if plt.contains(target) {
                    let Some(sym) = plt.import_at(target) else { return };
                    note_import(facts, sym);
                    // Vectored libc wrappers: capture the opcode argument;
                    // `syscall(3)` takes the number in rdi.
                    if !options.track_vectored {
                        return;
                    }
                    match sym {
                        "ioctl" => record_vectored(facts, SYS_IOCTL, regs),
                        "fcntl" => record_vectored(facts, SYS_FCNTL, regs),
                        "prctl" => record_vectored(facts, SYS_PRCTL, regs),
                        "syscall" => match regs.get(Reg::RDI) {
                            Some(nr) => {
                                facts.syscalls.insert(nr as u32);
                            }
                            None => facts.unresolved_syscall_sites += 1,
                        },
                        _ => {}
                    }
                } else if let Some(idx) = func_at(target) {
                    calls.insert(idx);
                }
            };

            let mut decoder = Decoder::with_insn_limit(
                body,
                addr,
                options.decode_budget.saturating_sub(instructions),
            );
            while let Some(d) = decoder.next() {
                match d.insn {
                    Insn::MovImm { reg, imm } => regs.set(reg, imm),
                    Insn::XorSelf { reg } => regs.set(reg, 0),
                    Insn::Syscall | Insn::Int { vector: 0x80 } | Insn::Sysenter => {
                        match regs.get(Reg::RAX) {
                            Some(nr) => {
                                facts.syscalls.insert(nr as u32);
                                if options.track_vectored {
                                    record_vectored(&mut facts, nr, &regs);
                                }
                            }
                            None => facts.unresolved_syscall_sites += 1,
                        }
                        // The kernel clobbers rax (return value) and
                        // rcx/r11 (syscall instruction).
                        regs.forget(Reg::RAX);
                        regs.forget(Reg::RCX);
                        regs.forget(Reg::R11);
                    }
                    Insn::Int { .. } => {}
                    Insn::CallRel { target } => {
                        record_call_target(target, &regs, &mut facts, &mut calls);
                        regs.clobber_call();
                    }
                    Insn::JmpRel { target } | Insn::Jcc { target } => {
                        // Tail calls / shared epilogues: a jump that leaves
                        // the current function is treated as a call edge.
                        if options.tail_call_edges
                            && !(addr..end).contains(&target)
                        {
                            record_call_target(target, &regs, &mut facts, &mut calls);
                        }
                    }
                    Insn::LeaRip { reg, target } => {
                        if let Some(idx) = func_at(target) {
                            // Function-pointer formation: assume it will be
                            // called (paper's over-approximation).
                            if options.function_pointer_edges {
                                calls.insert(idx);
                            }
                        } else if plt.contains(target) {
                            if let Some(sym) = plt.import_at(target) {
                                note_import(&mut facts, sym);
                            }
                        } else if let Some(s) = read_cstr_at(ro_bytes, ro_addr, target) {
                            if s.starts_with('/') {
                                facts.paths.insert(s.to_owned());
                            }
                        }
                        regs.forget(reg);
                    }
                    Insn::CallIndirect => regs.clobber_call(),
                    Insn::JmpIndirect => {}
                    Insn::Other => {
                        // `int3` decodes as `Other`: consume the rest of an
                        // inter-function padding run in one step (each
                        // byte still counts against the decode budget).
                        decoder.skip_int3_run();
                    }
                    Insn::Ret => regs.clear(),
                    Insn::Unknown => {
                        // Lost instruction-stream sync: drop all knowledge.
                        regs.clear();
                    }
                }
            }
            instructions += decoder.decoded();
            if decoder.hit_limit() {
                return Err(ElfError::ResourceLimit {
                    what: "decoded instructions",
                    limit: options.decode_budget,
                    actual: instructions + 1,
                });
            }

            funcs.push(FuncInfo { name, addr, size: end - addr, facts, calls });
        }

        // ---- Exports and entry ---------------------------------------
        let mut exports = HashMap::new();
        for sym in dynsyms? {
            if sym.is_defined_func() {
                if let Some(idx) = func_at(sym.value) {
                    exports.insert(sym.name, idx);
                }
            }
        }
        let entry = if elf.header.entry != 0 {
            funcs
                .iter()
                .position(|f| {
                    elf.header.entry >= f.addr
                        && elf.header.entry < f.addr + f.size
                })
        } else {
            None
        };

        Ok(Self { class, soname, needed, funcs, exports, entry, instructions })
    }

    /// Unions the facts of everything reachable from `roots` through the
    /// intra-binary call graph. Import edges are recorded in the result's
    /// `imports`; resolving them across binaries is the linker's job.
    pub fn reachable_facts(&self, roots: impl IntoIterator<Item = usize>) -> Footprint {
        let mut seen = vec![false; self.funcs.len()];
        let mut stack: Vec<usize> = roots.into_iter().collect();
        let mut out = Footprint::new();
        while let Some(i) = stack.pop() {
            let Some(flag) = seen.get_mut(i) else { continue };
            if *flag {
                continue;
            }
            *flag = true;
            let f = &self.funcs[i];
            out.merge(&f.facts);
            stack.extend(f.calls.iter().copied());
        }
        out
    }

    /// Facts reachable from the entry point (empty for libraries).
    pub fn entry_facts(&self) -> Footprint {
        match self.entry {
            Some(e) => self.reachable_facts([e]),
            None => Footprint::new(),
        }
    }

    /// System call numbers issued directly by this binary's own code
    /// (no cross-binary resolution) — the paper's library-attribution
    /// signal (Tables 1 and 5).
    pub fn direct_syscalls(&self) -> BTreeSet<u32> {
        let mut out = BTreeSet::new();
        for f in &self.funcs {
            out.extend(f.facts.syscalls.iter().copied());
        }
        out
    }

    /// Function index for an exported name.
    pub fn export(&self, name: &str) -> Option<usize> {
        self.exports.get(name).copied()
    }

    /// Renders the intra-binary call graph in Graphviz DOT form, with the
    /// per-function system calls as labels — the analyzer as a standalone
    /// inspection tool.
    pub fn call_graph_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("digraph callgraph {\n");
        let _ = writeln!(out, "  rankdir=LR; node [shape=box];");
        for (i, f) in self.funcs.iter().enumerate() {
            let syscalls: Vec<String> =
                f.facts.syscalls.iter().map(|n| n.to_string()).collect();
            let label = if syscalls.is_empty() {
                f.name.clone()
            } else {
                format!("{}\\nsyscalls: {}", f.name, syscalls.join(","))
            };
            let _ = writeln!(out, "  f{i} [label=\"{label}\"];");
            for imp in &f.facts.imports {
                let _ = writeln!(
                    out,
                    "  f{i} -> \"{imp}@plt\" [style=dashed];"
                );
            }
        }
        for (i, f) in self.funcs.iter().enumerate() {
            for &callee in &f.calls {
                let _ = writeln!(out, "  f{i} -> f{callee};");
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_elf::ElfBuilder;
    use apistudy_x86::Asm;

    /// Builds an executable with:
    /// - `main` (entry): calls `helper` directly, references `/proc/cpuinfo`,
    ///   issues `write` (1) via inline syscall, calls imported `printf`;
    /// - `helper`: `ioctl` syscall with `TCGETS` in rsi;
    /// - `cold`: unreachable; issues `reboot` (169).
    fn build_sample() -> Vec<u8> {
        let mut b = ElfBuilder::executable();
        b.needed("libc.so.6");
        let printf = b.declare_import("printf");
        let main_id = b.declare_export("main");

        // Two-pass assembly: generate once with a dummy layout to learn
        // sizes, then with the real layout.
        let emit = |layout: apistudy_elf::Layout| -> (Vec<u8>, Vec<(u64, u64)>) {
            let mut a = Asm::new(layout.text_addr);
            let mut spans = Vec::new();
            // main
            let main_start = a.here();
            a.push_rbp();
            a.lea_rip(Reg::RDI, layout.rodata_addr); // "/proc/cpuinfo"
            a.mov_imm32(Reg::RAX, 1); // write
            a.syscall();
            a.call(layout.plt_stub_addr(printf));
            // call helper: placed right after main; we patch with a second
            // pass, so compute target from known sizes below. For the
            // sample we instead emit the call with a forward target that
            // both passes agree on: helper starts at a fixed offset.
            let helper_target = layout.text_addr + 0x40;
            a.call(helper_target);
            a.pop_rbp();
            a.ret();
            let main_end = a.here();
            spans.push((main_start, main_end - main_start));
            // helper at fixed offset 0x40.
            while a.here() < helper_target {
                a.int3_pad(1);
            }
            let helper_start = a.here();
            a.mov_imm32(Reg::RSI, 0x5401); // TCGETS
            a.mov_imm32(Reg::RAX, 16); // ioctl
            a.syscall();
            a.ret();
            spans.push((helper_start, a.here() - helper_start));
            // cold at next 16-byte boundary.
            a.align(16);
            let cold_start = a.here();
            a.mov_imm32(Reg::RAX, 169); // reboot
            a.syscall();
            a.ret();
            spans.push((cold_start, a.here() - cold_start));
            (a.finish(), spans)
        };

        // Pass 1: find text size with a throwaway layout.
        let probe = {
            let mut b2 = b.clone();
            let l = b2.layout(0x200, 32);
            emit(l).0.len() as u64
        };
        let rodata = b"/proc/cpuinfo\0".to_vec();
        let layout = b.layout(probe, rodata.len() as u64);
        let (text, spans) = emit(layout);
        assert_eq!(text.len() as u64, probe, "two-pass emission stable");
        b.set_text(text);
        b.set_rodata(rodata);
        b.bind_export(main_id, spans[0].0 - layout.text_addr, spans[0].1);
        b.local_symbol(
            "helper",
            spans[1].0 - layout.text_addr,
            spans[1].1,
        );
        b.local_symbol("cold", spans[2].0 - layout.text_addr, spans[2].1);
        b.set_entry(spans[0].0 - layout.text_addr);
        b.build().expect("build")
    }

    #[test]
    fn recovers_reachable_footprint() {
        let bytes = build_sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();

        assert_eq!(ba.funcs.len(), 3);
        let entry = ba.entry.expect("entry resolves to main");
        assert_eq!(ba.funcs[entry].name, "main");

        let fp = ba.entry_facts();
        // write (1) from main, ioctl (16) from helper; NOT reboot (169).
        assert!(fp.syscalls.contains(&1));
        assert!(fp.syscalls.contains(&16));
        assert!(!fp.syscalls.contains(&169));
        assert!(fp.ioctl_codes.contains(&0x5401));
        assert!(fp.imports.contains("printf"));
        assert!(fp.paths.contains("/proc/cpuinfo"));
        assert_eq!(fp.unresolved_syscall_sites, 0);
    }

    #[test]
    fn direct_syscalls_include_unreachable_code() {
        let bytes = build_sample();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let all = ba.direct_syscalls();
        assert!(all.contains(&169), "attribution sees the whole binary");
    }

    #[test]
    fn unresolved_syscall_number_is_counted() {
        // A function that issues `syscall` without a constant rax.
        let mut b = ElfBuilder::static_executable();
        let mut a = Asm::new(0);
        a.syscall();
        a.ret();
        let code = a.finish();
        let layout = b.layout(code.len() as u64, 0);
        let mut a = Asm::new(layout.text_addr);
        a.syscall();
        a.ret();
        b.set_text(a.finish());
        b.set_entry(0);
        b.local_symbol("f", 0, code.len() as u64);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let fp = ba.entry_facts();
        assert!(fp.syscalls.is_empty());
        assert_eq!(fp.unresolved_syscall_sites, 1);
    }

    #[test]
    fn call_clobbers_tracked_registers() {
        // mov eax, 1; call f; syscall  → rax unknown at the syscall.
        let mut b = ElfBuilder::static_executable();
        let emit = |base: u64, len_hint: u64| {
            let mut a = Asm::new(base);
            a.mov_imm32(Reg::RAX, 1);
            a.call(base + len_hint); // call the trailing ret
            a.syscall();
            a.ret();
            let f_off = a.here() - base;
            a.ret(); // callee
            (a.finish(), f_off)
        };
        let (probe, _) = emit(0, 0);
        let probe_f = {
            let mut a = Asm::new(0);
            a.mov_imm32(Reg::RAX, 1);
            a.call(0);
            a.syscall();
            a.ret();
            a.here()
        };
        let layout = b.layout(probe.len() as u64, 0);
        let (code, f_off) = emit(layout.text_addr, probe_f);
        b.set_text(code.clone());
        b.set_entry(0);
        b.local_symbol("main", 0, f_off);
        b.local_symbol("callee", f_off, code.len() as u64 - f_off);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let fp = ba.entry_facts();
        assert!(fp.syscalls.is_empty(), "constant must not survive the call");
        assert_eq!(fp.unresolved_syscall_sites, 1);
    }

    #[test]
    fn stripped_binary_falls_back_to_single_region() {
        // No .symtab function symbols: the analyzer scans one region from
        // the start of .text (paper §7 handles stripped binaries too).
        let mut b = apistudy_elf::ElfBuilder::static_executable();
        let emit = |base: u64| {
            let mut a = Asm::new(base);
            a.mov_imm32(Reg::RAX, 39); // getpid
            a.syscall();
            a.mov_imm32(Reg::RAX, 60); // exit
            a.syscall();
            a.ret();
            a.finish()
        };
        let probe = emit(0);
        let layout = b.layout(probe.len() as u64, 0);
        b.set_text(emit(layout.text_addr));
        b.set_entry(0);
        // Deliberately no local_symbol calls.
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        assert_eq!(ba.funcs.len(), 1, "single fallback region");
        assert_eq!(ba.funcs[0].name, "text");
        let fp = ba.entry_facts();
        assert!(fp.syscalls.contains(&39));
        assert!(fp.syscalls.contains(&60));
    }

    #[test]
    fn ablation_disabling_function_pointers_loses_coverage() {
        // Same binary as `function_pointer_over_approximation`, analyzed
        // without the over-approximation: the lea-only target vanishes.
        let mut b = apistudy_elf::ElfBuilder::static_executable();
        let emit = |base: u64, tgt: u64| {
            let mut a = Asm::new(base);
            a.lea_rip(Reg::RAX, tgt);
            a.ret();
            let off = a.here() - base;
            a.mov_imm32(Reg::RAX, 60);
            a.syscall();
            a.ret();
            (a.finish(), off)
        };
        let (probe, probe_off) = emit(0, 0);
        let layout = b.layout(probe.len() as u64, 0);
        let (code, off) = emit(layout.text_addr, layout.text_addr + probe_off);
        b.set_text(code.clone());
        b.set_entry(0);
        b.local_symbol("main", 0, off);
        b.local_symbol("target_fn", off, code.len() as u64 - off);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let opts = AnalysisOptions {
            function_pointer_edges: false,
            ..AnalysisOptions::default()
        };
        let ba = BinaryAnalysis::analyze_with(&elf, opts).unwrap();
        let fp = ba.entry_facts();
        assert!(
            !fp.syscalls.contains(&60),
            "without pointer edges the target is unreachable"
        );
    }

    #[test]
    fn ablation_vectored_tracking_off_drops_codes() {
        let mut b = apistudy_elf::ElfBuilder::static_executable();
        let emit = |base: u64| {
            let mut a = Asm::new(base);
            a.mov_imm32(Reg::RSI, 0x5401);
            a.mov_imm32(Reg::RAX, 16);
            a.syscall();
            a.ret();
            a.finish()
        };
        let probe = emit(0);
        let layout = b.layout(probe.len() as u64, 0);
        let code = emit(layout.text_addr);
        let len = code.len() as u64;
        b.set_text(code);
        b.set_entry(0);
        b.local_symbol("main", 0, len);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let opts = AnalysisOptions {
            track_vectored: false,
            ..AnalysisOptions::default()
        };
        let ba = BinaryAnalysis::analyze_with(&elf, opts).unwrap();
        let fp = ba.entry_facts();
        assert!(fp.syscalls.contains(&16), "the syscall itself is kept");
        assert!(fp.ioctl_codes.is_empty(), "opcodes are not recovered");
        // Default options recover the opcode.
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        assert!(ba.entry_facts().ioctl_codes.contains(&0x5401));
    }

    #[test]
    fn resource_guards_classify_pathological_binaries() {
        let bytes = build_sample();
        let elf = ElfFile::parse(&bytes).unwrap();

        // The sample has 3 functions; a 2-node cap trips the guard.
        let opts = AnalysisOptions {
            max_functions: 2,
            ..AnalysisOptions::default()
        };
        let err = BinaryAnalysis::analyze_with(&elf, opts).unwrap_err();
        assert_eq!(err.kind(), apistudy_elf::ErrorKind::ResourceLimit);
        assert!(matches!(
            err,
            ElfError::ResourceLimit { what: "call-graph nodes", .. }
        ));

        // A tiny decode budget trips the instruction guard.
        let opts = AnalysisOptions {
            decode_budget: 3,
            ..AnalysisOptions::default()
        };
        let err = BinaryAnalysis::analyze_with(&elf, opts).unwrap_err();
        assert!(matches!(
            err,
            ElfError::ResourceLimit { what: "decoded instructions", limit: 3, .. }
        ));

        // Default budgets analyze the same binary untouched.
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        assert_eq!(ba.funcs.len(), 3);
    }

    #[test]
    fn function_pointer_over_approximation() {
        // main lea's the address of `target_fn` but never calls it; the
        // analyzer still adds the edge (paper §7).
        let mut b = ElfBuilder::static_executable();
        let emit = |base: u64, tgt: u64| {
            let mut a = Asm::new(base);
            a.lea_rip(Reg::RAX, tgt);
            a.ret();
            let off = a.here() - base;
            a.mov_imm32(Reg::RAX, 60);
            a.syscall();
            a.ret();
            (a.finish(), off)
        };
        let (probe, probe_off) = emit(0, 0);
        let layout = b.layout(probe.len() as u64, 0);
        let (code, off) = emit(layout.text_addr, layout.text_addr + probe_off);
        b.set_text(code.clone());
        b.set_entry(0);
        b.local_symbol("main", 0, off);
        b.local_symbol("target_fn", off, code.len() as u64 - off);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();
        let fp = ba.entry_facts();
        assert!(fp.syscalls.contains(&60), "lea-formed pointer counts as a call");
    }
}

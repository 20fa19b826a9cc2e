//! Classic-BPF seccomp filter generation (paper §6).
//!
//! The paper observes that a statically recovered footprint is exactly the
//! allow-list an application sandbox needs, and that seccomp-BPF policy
//! generation "can be easily automated using our framework". This module
//! does that end to end: it assembles a real classic-BPF program (the
//! format `seccomp(2)` loads) from a footprint, and ships a small BPF
//! interpreter so filters are *executable and testable* in-process.
//!
//! Two code generators share the range coalescer:
//!
//! - [`BpfProgram::try_allow_tree`] — the production layout: a **balanced
//!   binary-search dispatch tree** over the coalesced ranges. Every
//!   internal node compares the syscall number against a pivot and
//!   descends; every leaf is a self-contained range test ending in its own
//!   `ret`. Evaluation executes O(log n) instructions, and because a
//!   conditional jump never needs to span more than one subtree — far
//!   hops use `BPF_JA`, whose offset is a full 32-bit word — the layout
//!   is structurally immune to classic BPF's 255-instruction conditional
//!   jump limit. Only a program genuinely longer than the kernel's
//!   `BPF_MAXINSNS` (4096) fails, classified.
//! - [`BpfProgram::try_allow_list`] — the legacy **linear chain**
//!   (`jeq`/`jge`+`jgt` checks falling through to a shared KILL), kept as
//!   the independently-written baseline that equivalence tests and the
//!   fleet report compare the tree against. Pathologically fragmented
//!   allow-lists overflow its 8-bit jump offsets, which is a classified
//!   error.
//!
//! The tree layout for ranges `r_0 < r_1 < … < r_{n-1}`:
//!
//! ```text
//!   ld  [offsetof(seccomp_data, arch)]
//!   jeq AUDIT_ARCH_X86_64 ? +1 : fall   ; fall = ret KILL
//!   ret KILL
//!   ld  [offsetof(seccomp_data, nr)]
//!   jge pivot ? right-subtree : fall    ; fall = left subtree
//!   ...                                  ; each leaf: jge lo / jgt hi /
//!   ...                                  ;   ret ALLOW / ret KILL
//! ```

use crate::pipeline::StudyData;

/// `AUDIT_ARCH_X86_64`.
pub const AUDIT_ARCH_X86_64: u32 = 0xC000_003E;
/// `SECCOMP_RET_ALLOW`.
pub const RET_ALLOW: u32 = 0x7FFF_0000;
/// `SECCOMP_RET_KILL` (kill the thread).
pub const RET_KILL: u32 = 0x0000_0000;
/// The kernel's hard cap on a classic-BPF program's instruction count
/// (`BPF_MAXINSNS` in `linux/bpf_common.h`). Both code generators enforce
/// it as a classified error, and the interpreter's step guard matches it:
/// classic BPF has no backward jumps, so no conforming program can
/// execute more instructions than it contains.
pub const BPF_MAXINSNS: usize = 4096;

/// Offset of `seccomp_data.nr`.
const OFF_NR: u32 = 0;
/// Offset of `seccomp_data.arch`.
const OFF_ARCH: u32 = 4;

// Classic BPF opcodes (the subset seccomp filters use).
const LD_W_ABS: u16 = 0x20; // BPF_LD | BPF_W | BPF_ABS
const JMP_JA: u16 = 0x05; // BPF_JMP | BPF_JA (unconditional, 32-bit k)
const JMP_JEQ_K: u16 = 0x15; // BPF_JMP | BPF_JEQ | BPF_K
const JMP_JGE_K: u16 = 0x35; // BPF_JMP | BPF_JGE | BPF_K
const JMP_JGT_K: u16 = 0x25; // BPF_JMP | BPF_JGT | BPF_K
const RET_K: u16 = 0x06; // BPF_RET | BPF_K

/// One classic-BPF instruction (`struct sock_filter`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BpfInsn {
    /// Opcode.
    pub code: u16,
    /// Jump-if-true offset.
    pub jt: u8,
    /// Jump-if-false offset.
    pub jf: u8,
    /// Operand.
    pub k: u32,
}

impl BpfInsn {
    fn new(code: u16, jt: u8, jf: u8, k: u32) -> Self {
        Self { code, jt, jf, k }
    }

    /// Serializes to the kernel's 8-byte `sock_filter` wire format
    /// (little-endian).
    pub fn to_bytes(self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[0..2].copy_from_slice(&self.code.to_le_bytes());
        out[2] = self.jt;
        out[3] = self.jf;
        out[4..8].copy_from_slice(&self.k.to_le_bytes());
        out
    }
}

/// Coalesces sorted, deduplicated syscall numbers into inclusive ranges.
pub(crate) fn coalesce(numbers: &[u32]) -> Vec<(u32, u32)> {
    debug_assert!(
        numbers.windows(2).all(|w| w[0] < w[1]),
        "numbers must be sorted and unique"
    );
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    for &n in numbers {
        match ranges.last_mut() {
            Some((_, hi)) if *hi + 1 == n => *hi = n,
            _ => ranges.push((n, n)),
        }
    }
    ranges
}

/// Instruction count of the dispatch tree over `ranges` (excluding the
/// 4-instruction prologue).
fn tree_size(ranges: &[(u32, u32)]) -> usize {
    match ranges {
        [] => 1,
        [(lo, hi)] => {
            if lo == hi {
                3
            } else {
                4
            }
        }
        _ => {
            let mid = ranges.len() / 2;
            let left = tree_size(&ranges[..mid]);
            // The node is a single `jge` when the hop over the left
            // subtree fits a conditional offset; otherwise `jge` + `ja`.
            let node = if left <= usize::from(u8::MAX) { 1 } else { 2 };
            node + left + tree_size(&ranges[mid..])
        }
    }
}

/// Emits the balanced binary-search dispatch over `ranges`. Every path
/// through the emitted block ends in a `ret`, so sibling subtrees can be
/// laid out back to back without patching.
fn emit_tree(insns: &mut Vec<BpfInsn>, ranges: &[(u32, u32)]) {
    match ranges {
        [] => insns.push(BpfInsn::new(RET_K, 0, 0, RET_KILL)),
        [(lo, hi)] => {
            if lo == hi {
                insns.push(BpfInsn::new(JMP_JEQ_K, 0, 1, *lo));
            } else {
                insns.push(BpfInsn::new(JMP_JGE_K, 0, 2, *lo));
                insns.push(BpfInsn::new(JMP_JGT_K, 1, 0, *hi));
            }
            insns.push(BpfInsn::new(RET_K, 0, 0, RET_ALLOW));
            insns.push(BpfInsn::new(RET_K, 0, 0, RET_KILL));
        }
        _ => {
            // nr >= ranges[mid].lo can only match the right half: ranges
            // are sorted and disjoint, so the pivot splits them exactly.
            let mid = ranges.len() / 2;
            let pivot = ranges[mid].0;
            let left = tree_size(&ranges[..mid]);
            if left <= usize::from(u8::MAX) {
                insns.push(BpfInsn::new(JMP_JGE_K, left as u8, 0, pivot));
            } else {
                insns.push(BpfInsn::new(JMP_JGE_K, 0, 1, pivot));
                insns.push(BpfInsn::new(JMP_JA, 0, 0, left as u32));
            }
            emit_tree(insns, &ranges[..mid]);
            emit_tree(insns, &ranges[mid..]);
        }
    }
}

/// A complete seccomp-BPF filter program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BpfProgram {
    /// The instructions, in order.
    pub insns: Vec<BpfInsn>,
}

impl BpfProgram {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    /// Serializes the whole program to the `sock_fprog` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.insns.iter().flat_map(|i| i.to_bytes()).collect()
    }

    /// [`BpfProgram::try_allow_list`] for trusted input: panics if the
    /// allow-list cannot be laid out (a jump span over 255 instructions).
    /// Footprints decoded from disk or the wire must go through
    /// `try_allow_list` instead, where the failure is a classified error.
    pub fn allow_list(numbers: &[u32]) -> Self {
        Self::try_allow_list(numbers)
            .expect("filter fits classic BPF offsets")
    }

    /// [`BpfProgram::try_allow_tree`] for trusted input: panics on the one
    /// remaining failure, a program genuinely over [`BPF_MAXINSNS`].
    pub fn allow_tree(numbers: &[u32]) -> Self {
        Self::try_allow_tree(numbers)
            .expect("filter fits the kernel program-length cap")
    }

    /// Builds the **linear-chain** allow-list filter from sorted,
    /// deduplicated syscall numbers. Consecutive runs become range
    /// checks. This is the legacy baseline layout: evaluation is O(n) in
    /// the number of coalesced ranges, and a pathologically fragmented
    /// allow-list needs a jump longer than classic BPF's 8-bit
    /// conditional offsets can express — the case a corrupt or hostile
    /// on-disk footprint could manufacture — which fails classified
    /// ([`FilterTooLarge::JumpSpan`]) instead of panicking. Production
    /// callers should prefer [`BpfProgram::try_allow_tree`].
    pub fn try_allow_list(numbers: &[u32]) -> Result<Self, FilterTooLarge> {
        let ranges = coalesce(numbers);

        let mut insns = Vec::new();
        // Architecture pinning.
        insns.push(BpfInsn::new(LD_W_ABS, 0, 0, OFF_ARCH));
        // jeq ARCH ? fall through : jump to the final KILL. The false
        // offset is patched after layout.
        let arch_check = insns.len();
        insns.push(BpfInsn::new(JMP_JEQ_K, 0, 0, AUDIT_ARCH_X86_64));
        insns.push(BpfInsn::new(LD_W_ABS, 0, 0, OFF_NR));

        // Range and singleton checks. Each block either jumps to ALLOW
        // (placed just before the final KILL) or falls through.
        #[derive(Clone, Copy)]
        enum Check {
            Single(u32),
            Range(u32, u32),
        }
        let checks: Vec<Check> = ranges
            .iter()
            .map(|&(lo, hi)| {
                if lo == hi {
                    Check::Single(lo)
                } else {
                    Check::Range(lo, hi)
                }
            })
            .collect();
        // Emit with placeholder jump targets, then patch: ALLOW sits at
        // index `allow_at`, KILL at `allow_at + 1`.
        let mut check_sites: Vec<(usize, bool)> = Vec::new(); // (idx, is_range_second)
        for c in &checks {
            match *c {
                Check::Single(n) => {
                    check_sites.push((insns.len(), false));
                    insns.push(BpfInsn::new(JMP_JEQ_K, 0, 0, n));
                }
                Check::Range(lo, hi) => {
                    // jge lo ? continue : skip past the pair.
                    insns.push(BpfInsn::new(JMP_JGE_K, 0, 1, lo));
                    // jgt hi ? fall through (not allowed) : ALLOW.
                    check_sites.push((insns.len(), true));
                    insns.push(BpfInsn::new(JMP_JGT_K, 0, 0, hi));
                }
            }
        }
        // KILL is the fall-through after the last check; ALLOW sits
        // behind it as the jump target of every successful check.
        let kill_at = insns.len();
        insns.push(BpfInsn::new(RET_K, 0, 0, RET_KILL));
        let allow_at = insns.len();
        insns.push(BpfInsn::new(RET_K, 0, 0, RET_ALLOW));

        // Patch jump offsets (relative to the *next* instruction).
        let rel = |from: usize, to: usize| -> Result<u8, FilterTooLarge> {
            let span = to - from - 1;
            u8::try_from(span).map_err(|_| FilterTooLarge::JumpSpan { span })
        };
        for (idx, is_range_second) in check_sites {
            if is_range_second {
                // jgt hi: true → fall through to next check (offset 0 means
                // next insn; but next insn is the next check) — we want
                // true = NOT allowed → continue scanning, false = ALLOW.
                insns[idx].jt = 0;
                insns[idx].jf = rel(idx, allow_at)?;
            } else {
                insns[idx].jt = rel(idx, allow_at)?;
                insns[idx].jf = 0;
            }
        }
        insns[arch_check].jf = rel(arch_check, kill_at)?;
        if insns.len() > BPF_MAXINSNS {
            return Err(FilterTooLarge::ProgramLength { len: insns.len() });
        }
        Ok(Self { insns })
    }

    /// Builds the **balanced binary-search** allow-list filter from
    /// sorted, deduplicated syscall numbers.
    ///
    /// The coalesced ranges become a dispatch tree: each internal node is
    /// one `jge pivot` that descends into the half that could contain the
    /// number, and each leaf tests one range and returns. Evaluation
    /// executes at most `2·⌈log₂ ranges⌉ + 8` instructions regardless of
    /// how fragmented the allow-list is, and no conditional jump ever
    /// spans more than one subtree (far hops use `BPF_JA`, whose offset
    /// is 32-bit), so the 8-bit-offset overflow that limits the linear
    /// layout cannot occur. The only classified failure left is a program
    /// genuinely exceeding the kernel's [`BPF_MAXINSNS`] cap
    /// ([`FilterTooLarge::ProgramLength`]), which takes ~800+ disjoint
    /// ranges.
    pub fn try_allow_tree(numbers: &[u32]) -> Result<Self, FilterTooLarge> {
        let ranges = coalesce(numbers);
        let mut insns = Vec::with_capacity(4 + tree_size(&ranges));
        // Architecture pinning: a local `ret KILL` keeps every jump short.
        insns.push(BpfInsn::new(LD_W_ABS, 0, 0, OFF_ARCH));
        insns.push(BpfInsn::new(JMP_JEQ_K, 1, 0, AUDIT_ARCH_X86_64));
        insns.push(BpfInsn::new(RET_K, 0, 0, RET_KILL));
        insns.push(BpfInsn::new(LD_W_ABS, 0, 0, OFF_NR));
        emit_tree(&mut insns, &ranges);
        if insns.len() > BPF_MAXINSNS {
            return Err(FilterTooLarge::ProgramLength { len: insns.len() });
        }
        Ok(Self { insns })
    }

    /// Renders a human-readable disassembly.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, insn) in self.insns.iter().enumerate() {
            let text = match insn.code {
                LD_W_ABS => format!(
                    "ld [{}]{}",
                    insn.k,
                    if insn.k == OFF_ARCH { "  ; arch" } else { "  ; nr" }
                ),
                JMP_JA => format!("ja +{}", insn.k),
                JMP_JEQ_K => format!(
                    "jeq #{:#x}, +{}, +{}",
                    insn.k, insn.jt, insn.jf
                ),
                JMP_JGE_K => format!("jge #{}, +{}, +{}", insn.k, insn.jt, insn.jf),
                JMP_JGT_K => format!("jgt #{}, +{}, +{}", insn.k, insn.jt, insn.jf),
                RET_K => {
                    if insn.k == RET_ALLOW {
                        "ret ALLOW".to_owned()
                    } else {
                        "ret KILL".to_owned()
                    }
                }
                other => format!("op {other:#x}"),
            };
            let _ = writeln!(out, "{i:4}: {text}");
        }
        out
    }
}

/// The `seccomp_data` view the filter evaluates.
#[derive(Debug, Clone, Copy)]
pub struct SeccompData {
    /// System call number.
    pub nr: u32,
    /// Audit architecture.
    pub arch: u32,
}

/// Executes a classic-BPF seccomp filter over one syscall event.
///
/// Returns the filter's return value (`RET_ALLOW` / `RET_KILL`), or `None`
/// when the program is malformed (falls off the end, bad offset — which
/// the kernel verifier would reject).
pub fn run_filter(program: &BpfProgram, data: SeccompData) -> Option<u32> {
    run_filter_traced(program, data).map(|(verdict, _)| verdict)
}

/// [`run_filter`], also counting executed instructions — the *eval depth*
/// the fleet report and the O(log n) CI gate measure. The step guard is
/// [`BPF_MAXINSNS`]: classic BPF has no backward jumps, so a conforming
/// program can never execute more instructions than the kernel allows it
/// to contain.
pub fn run_filter_traced(
    program: &BpfProgram,
    data: SeccompData,
) -> Option<(u32, u32)> {
    let mut acc: u32 = 0;
    let mut pc = 0usize;
    let mut steps = 0u32;
    while pc < program.insns.len() {
        steps += 1;
        if steps as usize > BPF_MAXINSNS {
            return None; // Classic BPF cannot loop, but guard anyway.
        }
        let insn = program.insns[pc];
        match insn.code {
            LD_W_ABS => {
                acc = match insn.k {
                    OFF_NR => data.nr,
                    OFF_ARCH => data.arch,
                    _ => return None,
                };
                pc += 1;
            }
            JMP_JA => {
                pc += 1 + insn.k as usize;
            }
            JMP_JEQ_K => {
                let taken = acc == insn.k;
                pc += 1 + usize::from(if taken { insn.jt } else { insn.jf });
            }
            JMP_JGE_K => {
                let taken = acc >= insn.k;
                pc += 1 + usize::from(if taken { insn.jt } else { insn.jf });
            }
            JMP_JGT_K => {
                let taken = acc > insn.k;
                pc += 1 + usize::from(if taken { insn.jt } else { insn.jf });
            }
            RET_K => return Some((insn.k, steps)),
            _ => return None,
        }
    }
    None
}

/// Executed-instruction statistics for one filter, probed over every
/// syscall number in `0..=max_nr` (matching architecture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthProfile {
    /// Deepest evaluation observed, in executed instructions.
    pub max: u32,
    /// Sum of executed instructions over all probes (for averages).
    pub total: u64,
    /// Number of probes (`max_nr + 1`).
    pub evals: u32,
}

impl DepthProfile {
    /// Mean executed instructions per evaluation.
    pub fn avg(&self) -> f64 {
        if self.evals == 0 {
            return 0.0;
        }
        self.total as f64 / f64::from(self.evals)
    }
}

/// Probes a filter's eval depth for every `nr` in `0..=max_nr`. Returns
/// `None` if any evaluation is malformed (which the generators never
/// produce), or if `max_nr` is `u32::MAX`, whose `2^32` probes do not fit
/// [`DepthProfile::evals`].
pub fn depth_profile(program: &BpfProgram, max_nr: u32) -> Option<DepthProfile> {
    probe_filter(program, max_nr, None).map(|probe| probe.profile)
}

/// What one pass of a filter over `0..=max_nr` found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FilterProbe {
    /// Executed-instruction statistics over the pass.
    pub(crate) profile: DepthProfile,
    /// The lowest `nr` whose verdict disagrees with the allow-set (allowed
    /// exactly when the filter returns [`RET_ALLOW`]); `None` when every
    /// verdict agrees or no allow-set was given.
    pub(crate) first_mismatch: Option<u32>,
}

/// Runs `program` through [`run_filter_traced`] once for every `nr` in
/// `0..=max_nr`: each step count feeds the depth profile and, given the
/// sorted allow-set, each verdict is checked against it. Returns `None`
/// if any evaluation is malformed, or, before evaluating anything, if
/// `max_nr + 1` probes do not fit [`DepthProfile::evals`].
pub(crate) fn probe_filter(
    program: &BpfProgram,
    max_nr: u32,
    allow: Option<&[u32]>,
) -> Option<FilterProbe> {
    let evals = max_nr.checked_add(1)?;
    let mut max = 0u32;
    let mut total = 0u64;
    let mut first_mismatch = None;
    // `allow[next]` is the smallest allowed number not below `nr`.
    let mut next = 0usize;
    for nr in 0..=max_nr {
        let (verdict, steps) = run_filter_traced(
            program,
            SeccompData { nr, arch: AUDIT_ARCH_X86_64 },
        )?;
        max = max.max(steps);
        total += u64::from(steps);
        if let (Some(allow), None) = (allow, first_mismatch) {
            while allow.get(next).is_some_and(|&a| a < nr) {
                next += 1;
            }
            if (verdict == RET_ALLOW) != (allow.get(next) == Some(&nr)) {
                first_mismatch = Some(nr);
            }
        }
    }
    let profile = DepthProfile { max, total, evals };
    Some(FilterProbe { profile, first_mismatch })
}

/// The allow-list cannot be laid out as a legal classic-BPF program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterTooLarge {
    /// The linear layout needs a conditional jump classic BPF's 8-bit
    /// offsets cannot express (a check more than 255 instructions from
    /// its ALLOW target). Ordinary footprints coalesce into far fewer
    /// checks; this arises from pathologically fragmented (corrupt or
    /// hostile) footprints. The tree layout is structurally immune.
    JumpSpan {
        /// The overflowing jump span, in instructions.
        span: usize,
    },
    /// The program exceeds the kernel's [`BPF_MAXINSNS`] cap — the
    /// filter genuinely cannot be loaded, whatever the layout.
    ProgramLength {
        /// The generated program's instruction count.
        len: usize,
    },
}

impl std::fmt::Display for FilterTooLarge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterTooLarge::JumpSpan { span } => write!(
                f,
                "allow-list needs a {span}-instruction jump; classic BPF \
                 offsets are 8-bit"
            ),
            FilterTooLarge::ProgramLength { len } => write!(
                f,
                "filter needs {len} instructions; the kernel caps classic \
                 BPF programs at {BPF_MAXINSNS}"
            ),
        }
    }
}

impl std::error::Error for FilterTooLarge {}

/// Why [`seccomp_filter`] could not produce a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeccompError {
    /// No package of that name in the dataset.
    UnknownPackage,
    /// The footprint's allow-list cannot be laid out as classic BPF.
    TooLarge(FilterTooLarge),
}

impl std::fmt::Display for SeccompError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SeccompError::UnknownPackage => write!(f, "unknown package"),
            SeccompError::TooLarge(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SeccompError {}

/// Builds the seccomp-BPF filter for a package's measured footprint,
/// using the binary-search tree layout. Total over its inputs: an unknown
/// package or a footprint over the kernel program-length cap (possible
/// with a corrupt on-disk store) is a classified error, never a panic.
pub fn seccomp_filter(
    data: &StudyData,
    package: &str,
) -> Result<BpfProgram, SeccompError> {
    let record = data.package(package).ok_or(SeccompError::UnknownPackage)?;
    let numbers: Vec<u32> = record.footprint.syscalls().collect();
    BpfProgram::try_allow_tree(&numbers).map_err(SeccompError::TooLarge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn allowed(program: &BpfProgram, nr: u32) -> bool {
        run_filter(program, SeccompData { nr, arch: AUDIT_ARCH_X86_64 })
            == Some(RET_ALLOW)
    }

    /// Both layouts, so every behavioral test pins both generators.
    fn both(numbers: &[u32]) -> [BpfProgram; 2] {
        [BpfProgram::allow_list(numbers), BpfProgram::allow_tree(numbers)]
    }

    #[test]
    fn empty_allow_list_kills_everything() {
        for p in both(&[]) {
            for nr in [0, 1, 59, 322] {
                assert!(!allowed(&p, nr));
            }
        }
    }

    #[test]
    fn singletons_allow_exactly_their_numbers() {
        for p in both(&[0, 3, 60]) {
            assert!(allowed(&p, 0));
            assert!(allowed(&p, 3));
            assert!(allowed(&p, 60));
            for nr in [1, 2, 4, 59, 61, 322] {
                assert!(!allowed(&p, nr), "{nr} must be killed");
            }
        }
    }

    #[test]
    fn ranges_are_coalesced_and_exact() {
        // 0..=4 and 10..=12 plus singleton 20.
        for p in both(&[0, 1, 2, 3, 4, 10, 11, 12, 20]) {
            for nr in 0..=4 {
                assert!(allowed(&p, nr));
            }
            for nr in 10..=12 {
                assert!(allowed(&p, nr));
            }
            assert!(allowed(&p, 20));
            for nr in [5, 9, 13, 19, 21] {
                assert!(!allowed(&p, nr), "{nr} must be killed");
            }
            // Three checks (two ranges + one singleton) rather than nine:
            // nine singleton leaves would cost 27+ instructions as a tree
            // and 9 checks in the chain; both layouts must come in under.
            assert!(
                p.len() < 19,
                "coalescing must shrink the filter: {}",
                p.len()
            );
        }
    }

    #[test]
    fn wrong_architecture_is_killed() {
        for p in both(&[0, 1, 2]) {
            let r = run_filter(&p, SeccompData { nr: 0, arch: 0x4000_0003 });
            assert_eq!(r, Some(RET_KILL));
        }
    }

    #[test]
    fn exhaustive_check_against_reference() {
        // Compare both layouts against the allow-set for every number the
        // study can see.
        let allow: Vec<u32> = vec![0, 1, 2, 3, 9, 10, 11, 12, 13, 14, 21,
                                   59, 60, 231, 257, 322];
        let set: std::collections::HashSet<u32> =
            allow.iter().copied().collect();
        for p in both(&allow) {
            for nr in 0..400 {
                assert_eq!(
                    allowed(&p, nr),
                    set.contains(&nr),
                    "mismatch at {nr}"
                );
            }
        }
    }

    #[test]
    fn tree_survives_fragmentation_that_overflows_the_linear_chain() {
        // 501 disjoint singletons: the linear chain needs jumps far over
        // 255 instructions and must fail classified; the tree is immune
        // and stays exact.
        let allow: Vec<u32> = (0..=1000).filter(|n| n % 2 == 0).collect();
        match BpfProgram::try_allow_list(&allow) {
            Err(FilterTooLarge::JumpSpan { span }) => assert!(span > 255),
            other => panic!("expected JumpSpan, got {other:?}"),
        }
        let p = BpfProgram::try_allow_tree(&allow).expect("tree is immune");
        for nr in 0..=1100u32 {
            assert_eq!(
                allowed(&p, nr),
                nr <= 1000 && nr % 2 == 0,
                "mismatch at {nr}"
            );
        }
        // The big tree exercises the far-hop path: at 501 ranges the left
        // subtree at the root is over 255 instructions, so `ja` must
        // appear.
        assert!(p.disassemble().contains("ja +"), "far hops must use BPF_JA");
    }

    #[test]
    fn genuinely_oversized_programs_fail_classified_in_both_layouts() {
        // ~1400 disjoint singletons need > 4096 instructions as a tree.
        let allow: Vec<u32> = (0..2800).filter(|n| n % 2 == 0).collect();
        match BpfProgram::try_allow_tree(&allow) {
            Err(FilterTooLarge::ProgramLength { len }) => {
                assert!(len > BPF_MAXINSNS)
            }
            other => panic!("expected ProgramLength, got {other:?}"),
        }
        // The linear chain fails too (its jump spans overflow first).
        assert!(BpfProgram::try_allow_list(&allow).is_err());
    }

    #[test]
    fn tree_eval_depth_is_logarithmic() {
        // Fragmented allow-lists of growing size: executed depth must stay
        // within 2·⌈log₂ ranges⌉ + 8 while the linear chain's grows
        // linearly.
        for singles in [1usize, 7, 64, 200, 501] {
            let allow: Vec<u32> =
                (0..singles as u32 * 2).filter(|n| n % 2 == 0).collect();
            let tree = BpfProgram::try_allow_tree(&allow).expect("tree");
            let ranges = singles as u32;
            let bound = 2 * (32 - (ranges - 1).leading_zeros()) + 8;
            let profile =
                depth_profile(&tree, allow.last().copied().unwrap_or(0) + 64)
                    .expect("well-formed");
            assert!(
                profile.max <= bound,
                "{singles} ranges: depth {} over bound {bound}",
                profile.max
            );
        }
    }

    #[test]
    fn traced_run_agrees_with_plain_run() {
        let allow: Vec<u32> = vec![0, 1, 2, 9, 14, 59, 60, 231];
        for p in both(&allow) {
            for nr in 0..300 {
                let data = SeccompData { nr, arch: AUDIT_ARCH_X86_64 };
                let plain = run_filter(&p, data);
                let traced = run_filter_traced(&p, data);
                assert_eq!(plain, traced.map(|(v, _)| v));
                let steps = traced.expect("well-formed").1;
                assert!(steps >= 1 && steps as usize <= p.len());
            }
        }
    }

    /// The two passes the probe folds into one: a depth sweep over
    /// `run_filter_traced`, then a `run_filter` scan that looks each nr
    /// up in the allow-set.
    fn two_pass(
        program: &BpfProgram,
        max_nr: u32,
        allow: &[u32],
    ) -> Option<(DepthProfile, Option<u32>)> {
        let mut max = 0u32;
        let mut total = 0u64;
        for nr in 0..=max_nr {
            let (_, steps) = run_filter_traced(
                program,
                SeccompData { nr, arch: AUDIT_ARCH_X86_64 },
            )?;
            max = max.max(steps);
            total += u64::from(steps);
        }
        let mismatch = (0..=max_nr).find(|&nr| {
            allowed(program, nr) != allow.binary_search(&nr).is_ok()
        });
        Some((DepthProfile { max, total, evals: max_nr + 1 }, mismatch))
    }

    /// Changes one field of one instruction: `kind` 1 an opcode, 2 an
    /// `ld` offset, 3 a jump offset. `at` picks the instruction among
    /// those the kind applies to, `value` the new field. Kind 0 leaves
    /// the program alone.
    fn mutate(program: &mut BpfProgram, kind: u32, at: u32, value: u32) {
        const OPCODES: [u16; 7] =
            [LD_W_ABS, JMP_JA, JMP_JEQ_K, JMP_JGE_K, JMP_JGT_K, RET_K, 0x07];
        let applies = |insn: &BpfInsn| match kind {
            1 => true,
            2 => insn.code == LD_W_ABS,
            3 => matches!(
                insn.code,
                JMP_JA | JMP_JEQ_K | JMP_JGE_K | JMP_JGT_K
            ),
            _ => false,
        };
        let sites: Vec<usize> = (0..program.len())
            .filter(|&i| applies(&program.insns[i]))
            .collect();
        if sites.is_empty() {
            return;
        }
        let insn = &mut program.insns[sites[at as usize % sites.len()]];
        // Mostly short hops, which keep the program in bounds but send
        // it down the wrong branch; sometimes far ones off its end.
        let offset = if value & 2 == 0 { (value >> 2) % 4 } else { value >> 2 };
        match kind {
            1 => insn.code = OPCODES[value as usize % OPCODES.len()],
            2 => insn.k = [OFF_NR, OFF_ARCH, 8, value][value as usize % 4],
            _ if insn.code == JMP_JA => insn.k = offset,
            _ if value & 1 == 0 => insn.jt = offset as u8,
            _ => insn.jf = offset as u8,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn probe_matches_the_two_pass_reference(
            runs in proptest::collection::vec((0u32..4200, 0u32..48), 0..24),
            singles in proptest::collection::btree_set(0u32..4200, 0..400),
            max_nr in 0u32..4300,
            mutation in (0u32..4, any::<u32>(), any::<u32>()),
        ) {
            // Runs coalesce into ranges; up to 400 singletons fragment the
            // set past what the linear chain's 8-bit offsets can assemble.
            let mut allow = singles;
            for (lo, len) in runs {
                allow.extend(lo..lo + len);
            }
            let allow: Vec<u32> = allow.into_iter().collect();
            let programs = [
                BpfProgram::try_allow_tree(&allow).ok(),
                BpfProgram::try_allow_list(&allow).ok(),
            ];
            for mut program in programs.into_iter().flatten() {
                let (kind, at, value) = mutation;
                mutate(&mut program, kind, at, value);
                let want = two_pass(&program, max_nr, &allow);
                let probe = probe_filter(&program, max_nr, Some(&allow));
                prop_assert_eq!(
                    probe.map(|p| (p.profile, p.first_mismatch)),
                    want,
                    "mutation {:?}", mutation
                );
                let profile = want.map(|(profile, _)| profile);
                prop_assert_eq!(
                    probe_filter(&program, max_nr, None),
                    profile.map(|profile| FilterProbe {
                        profile,
                        first_mismatch: None
                    })
                );
                prop_assert_eq!(depth_profile(&program, max_nr), profile);
            }
        }
    }

    #[test]
    fn probe_refuses_a_ceiling_whose_eval_count_overflows() {
        // `u32::MAX + 1` evaluations do not fit `DepthProfile::evals`; the
        // refusal comes before any of the 2^32 interpretations.
        let allow = [0, 1, 2, 59];
        for p in both(&allow) {
            assert_eq!(probe_filter(&p, u32::MAX, None), None);
            assert_eq!(probe_filter(&p, u32::MAX, Some(&allow)), None);
            assert_eq!(depth_profile(&p, u32::MAX), None);
            let one = probe_filter(&p, 0, Some(&allow)).expect("well-formed");
            assert_eq!(one.profile.evals, 1);
            assert_eq!(one.first_mismatch, None);
        }
    }

    #[test]
    fn wire_format_is_8_bytes_per_insn() {
        let p = BpfProgram::allow_list(&[0, 1]);
        assert_eq!(p.to_bytes().len(), p.len() * 8);
        let first = p.insns[0].to_bytes();
        assert_eq!(u16::from_le_bytes([first[0], first[1]]), 0x20);
        assert_eq!(
            u32::from_le_bytes([first[4], first[5], first[6], first[7]]),
            4, // arch offset
        );
    }

    #[test]
    fn disassembly_mentions_every_ret() {
        for p in both(&[5]) {
            let text = p.disassemble();
            assert!(text.contains("ret ALLOW"));
            assert!(text.contains("ret KILL"));
            assert!(text.contains("; arch"));
        }
    }

    #[test]
    fn full_footprint_filter_is_verified_end_to_end() {
        use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};
        let repo = SynthRepo::new(
            Scale { packages: 120, installations: 20_000 },
            CalibrationSpec::default(),
            3,
        );
        let data = crate::pipeline::StudyData::from_synth(&repo);
        let record = data.package("coreutils").unwrap();
        let allow: std::collections::HashSet<u32> =
            record.footprint.syscalls().collect();
        let p = seccomp_filter(&data, "coreutils").unwrap();
        let numbers: Vec<u32> = record.footprint.syscalls().collect();
        let linear = BpfProgram::try_allow_list(&numbers).unwrap();
        for nr in 0..=330u32 {
            assert_eq!(
                allowed(&p, nr),
                allow.contains(&nr),
                "filter and footprint disagree at {nr}"
            );
            assert_eq!(allowed(&linear, nr), allowed(&p, nr), "layouts at {nr}");
        }
        // Broad footprints must still produce compact filters: far fewer
        // leaves than allowed numbers.
        let ranges = coalesce(&numbers).len();
        assert!(ranges < allow.len() / 2, "ranges must coalesce: {ranges}");
        assert!(p.len() <= 5 * ranges + 4, "tree size bound: {}", p.len());
    }
}

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
//!   the independently written reference that equivalence tests, the
//!   smoke gate and the benches compare the tree against. Pathologically
//!   fragmented allow-lists overflow its 8-bit jump offsets, which is a
//!   classified error.
//!
//! The fleet report and the CLI still quote the chain's size and depth as
//! the baseline the tree beats, but never build it: [`linear_profile`]
//! computes both in closed form from the coalesced ranges, exactly what
//! building the chain and probing it with [`depth_profile`] gives.
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
pub fn coalesce(numbers: &[u32]) -> Vec<(u32, u32)> {
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
    /// code never builds it: filters are [`BpfProgram::try_allow_tree`]
    /// programs, and [`linear_profile`] gives the chain's figures. It is
    /// the reference that tests, the smoke gate and the benches build.
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
        Self::try_tree_over(&coalesce(numbers))
    }

    /// [`BpfProgram::try_allow_tree`] over ranges already coalesced by
    /// [`coalesce`].
    pub(crate) fn try_tree_over(
        ranges: &[(u32, u32)],
    ) -> Result<Self, FilterTooLarge> {
        let mut insns = Vec::with_capacity(4 + tree_size(ranges));
        // Architecture pinning: a local `ret KILL` keeps every jump short.
        insns.push(BpfInsn::new(LD_W_ABS, 0, 0, OFF_ARCH));
        insns.push(BpfInsn::new(JMP_JEQ_K, 1, 0, AUDIT_ARCH_X86_64));
        insns.push(BpfInsn::new(RET_K, 0, 0, RET_KILL));
        insns.push(BpfInsn::new(LD_W_ABS, 0, 0, OFF_NR));
        emit_tree(&mut insns, ranges);
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

/// Probes a filter's eval depth for every `nr` in `0..=max_nr`: exactly
/// what a [`run_filter_traced`] call per number would give, computed
/// over intervals of numbers that take the same path (see
/// [`probe_filter`]), so the cost stops growing with `max_nr` once it
/// is above every operand. Returns `None` if any number's evaluation is
/// malformed (which the generators never produce), or if `max_nr` is
/// `u32::MAX`, whose `2^32` probes do not fit [`DepthProfile::evals`].
pub fn depth_profile(program: &BpfProgram, max_nr: u32) -> Option<DepthProfile> {
    probe_filter(program, max_nr, None).map(|probe| probe.profile)
}

/// The legacy linear chain over some ranges, as [`linear_profile`]
/// computes it without building the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearChain {
    /// Program length, in instructions.
    pub len: u32,
    /// Executed-instruction statistics over `0..=max_nr`.
    pub profile: DepthProfile,
}

/// Instructions of the chain's check for one coalesced range: a `jeq` for
/// a singleton, `jge lo` + `jgt hi` for a wider range.
fn check_len(lo: u32, hi: u32) -> u32 {
    if lo == hi {
        1
    } else {
        2
    }
}

/// What [`BpfProgram::try_allow_list`] and then [`depth_profile`] over
/// `0..=max_nr` would give for the numbers whose coalesced `ranges` these
/// are, in closed form: the chain's length and depth profile, or the same
/// [`FilterTooLarge`] when its 8-bit jump offsets overflow.
///
/// The chain is a 3-instruction prologue (`ld arch`, `jeq`, `ld nr`), one
/// check per range of `c_j` instructions ([`check_len`]), then `ret KILL`
/// and `ret ALLOW`: `5 + Σ c_j` long. With `R` ranges and
/// `P_k = Σ_{j<k} c_j`, a number above range `j` runs all `c_j` of its
/// check and one below it only the first, so a number inside range `k`
/// executes `4 + P_k + c_k` instructions, and one in the gap below range
/// `k`, or past the last range (`k = R`), executes `4 + P_k + (R − k)`.
/// The longest conditional hops are the first check's to ALLOW and the
/// arch check's over every check to KILL, and the chain patches them in
/// that order; once both fit 255, the program is at most 260 long, far
/// under [`BPF_MAXINSNS`].
///
/// # Panics
/// If the chain fits and `max_nr` is `u32::MAX`, whose `2^32` probes do
/// not fit [`DepthProfile::evals`] (the fleet refuses that ceiling up
/// front).
pub fn linear_profile(
    ranges: &[(u32, u32)],
    max_nr: u32,
) -> Result<LinearChain, FilterTooLarge> {
    debug_assert!(
        ranges.iter().all(|&(lo, hi)| lo <= hi)
            && ranges
                .windows(2)
                .all(|w| u64::from(w[0].1) + 1 < u64::from(w[1].0)),
        "ranges must be coalesced"
    );
    let checks: usize =
        ranges.iter().map(|&(lo, hi)| check_len(lo, hi) as usize).sum();
    // The first check's hop to ALLOW, then the arch check's hop to KILL,
    // in the order the chain patches them; every later check hops less.
    let first = ranges.first().map_or(0, |&(lo, hi)| check_len(lo, hi));
    for span in [1 + checks - first as usize, 1 + checks] {
        if span > usize::from(u8::MAX) {
            return Err(FilterTooLarge::JumpSpan { span });
        }
    }
    let evals = max_nr
        .checked_add(1)
        .expect("probe_max_nr + 1 probes fit DepthProfile::evals");
    // Walk the intervals in number order, as half-open `[from, to)` over
    // u64 so the last range may end at `u32::MAX`, clipped to the probes.
    let end = u64::from(evals);
    let (mut max, mut total) = (0u32, 0u64);
    let mut account = |from: u64, to: u64, depth: u32| {
        let to = to.min(end);
        if from < to {
            max = max.max(depth);
            total += u64::from(depth) * (to - from);
        }
    };
    let r = ranges.len() as u32;
    let (mut passed, mut next) = (0u32, 0u64);
    for (k, &(lo, hi)) in (0u32..).zip(ranges) {
        let c = check_len(lo, hi);
        account(next, u64::from(lo), 4 + passed + (r - k));
        account(u64::from(lo), u64::from(hi) + 1, 4 + passed + c);
        passed += c;
        next = u64::from(hi) + 1;
    }
    account(next, end, 4 + passed);
    Ok(LinearChain {
        len: 5 + checks as u32,
        profile: DepthProfile { max, total, evals },
    })
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

/// The accumulator along one path of the walk in [`probe_filter`].
#[derive(Clone, Copy)]
enum Acc {
    /// A value every number of the path's interval shares.
    Const(u32),
    /// The syscall number itself.
    Nr,
}

/// One path of the walk in [`probe_filter`]: every number of `lo..=hi`
/// reaches `pc` after `steps` instructions with accumulator `acc`.
#[derive(Clone, Copy)]
struct Path {
    pc: usize,
    steps: u32,
    lo: u32,
    hi: u32,
    acc: Acc,
}

/// The numbers a conditional jump with operand `k` takes, as one
/// interval: `jeq` takes `k` alone, `jge` everything from `k` up, and
/// `jgt` everything above `k`, which for `k = u32::MAX` is nothing.
fn taken_interval(code: u16, k: u32) -> Option<(u32, u32)> {
    match code {
        JMP_JEQ_K => Some((k, k)),
        JMP_JGE_K => Some((k, u32::MAX)),
        _ => k.checked_add(1).map(|k| (k, u32::MAX)),
    }
}

/// The lowest number of `lo..=hi` whose membership in the sorted, unique
/// `allow` differs from `allowed`, the verdict every number of the
/// interval got.
fn first_disagreement(
    allow: &[u32],
    lo: u32,
    hi: u32,
    allowed: bool,
) -> Option<u32> {
    let rest = &allow[allow.partition_point(|&a| a < lo)..];
    if !allowed {
        // The first allowed number at or above `lo`, if it is in range.
        return rest.first().copied().filter(|&a| a <= hi);
    }
    // Entries are unique and ascending, so `rest[hi - lo] == hi` holds
    // exactly when `rest` starts with every number of `lo..=hi`.
    if rest.get((hi - lo) as usize) == Some(&hi) {
        return None;
    }
    let present =
        rest.iter().zip(lo..=hi).take_while(|(a, n)| *a == n).count();
    Some(lo + present as u32)
}

/// Computes what [`run_filter_traced`] would give for every `nr` in
/// `0..=max_nr` (matching architecture) in one walk over intervals of
/// numbers: each step count feeds the depth profile and, given the
/// sorted allow-set, each verdict is checked against it.
///
/// A filter only compares the loaded `nr` with constants, so every
/// number of an interval that takes the same branches gets the same
/// verdict after the same number of steps. The walk carries an interval
/// and the accumulator (a constant, or "equal to `nr`") down the
/// program on an explicit stack. A conditional jump on `nr` splits the
/// interval into the part that jumps and the part or parts that fall
/// through; a `ja`, or a jump on a constant, only moves `pc`. At a `ret`
/// the whole interval is accounted at once: `steps × len` into the
/// total, and the first number, if any, whose verdict disagrees with the
/// allow-set. The finished intervals partition `0..=max_nr`, and jumps
/// only go forward, so the walk executes no more instructions than the
/// per-number loop; for the generated layouts, how many it executes
/// depends on the coalesced ranges, not on `max_nr`.
///
/// Returns `None` if any number's evaluation is malformed (it runs off
/// the end, meets an unknown `ld` offset or opcode, or exceeds
/// [`BPF_MAXINSNS`] steps), or, before evaluating anything, if
/// `max_nr + 1` probes do not fit [`DepthProfile::evals`].
pub(crate) fn probe_filter(
    program: &BpfProgram,
    max_nr: u32,
    allow: Option<&[u32]>,
) -> Option<FilterProbe> {
    let evals = max_nr.checked_add(1)?;
    let mut max = 0u32;
    let mut total = 0u64;
    let mut first_mismatch: Option<u32> = None;
    let start = Path { pc: 0, steps: 0, lo: 0, hi: max_nr, acc: Acc::Const(0) };
    let mut stack = vec![start];
    while let Some(mut path) = stack.pop() {
        loop {
            let insn = *program.insns.get(path.pc)?;
            path.steps += 1;
            if path.steps as usize > BPF_MAXINSNS {
                return None;
            }
            match insn.code {
                LD_W_ABS => {
                    path.acc = match insn.k {
                        OFF_NR => Acc::Nr,
                        OFF_ARCH => Acc::Const(AUDIT_ARCH_X86_64),
                        _ => return None,
                    };
                    path.pc += 1;
                }
                JMP_JA => path.pc += 1 + insn.k as usize,
                JMP_JEQ_K | JMP_JGE_K | JMP_JGT_K => {
                    let jt = path.pc + 1 + usize::from(insn.jt);
                    let jf = path.pc + 1 + usize::from(insn.jf);
                    let taken = taken_interval(insn.code, insn.k);
                    match path.acc {
                        Acc::Const(c) => {
                            let hit = taken
                                .is_some_and(|(lo, hi)| (lo..=hi).contains(&c));
                            path.pc = if hit { jt } else { jf };
                        }
                        Acc::Nr => {
                            let Path { lo, hi, .. } = path;
                            let jumps = taken
                                .map(|(t_lo, t_hi)| (t_lo.max(lo), t_hi.min(hi)))
                                .filter(|(t_lo, t_hi)| t_lo <= t_hi);
                            let Some((t_lo, t_hi)) = jumps else {
                                path.pc = jf;
                                continue;
                            };
                            // Below and above the taken part fall through.
                            if t_lo > lo {
                                let hi = t_lo - 1;
                                stack.push(Path { pc: jf, hi, ..path });
                            }
                            if t_hi < hi {
                                let lo = t_hi + 1;
                                stack.push(Path { pc: jf, lo, ..path });
                            }
                            path = Path { pc: jt, lo: t_lo, hi: t_hi, ..path };
                        }
                    }
                }
                RET_K => break,
                _ => return None,
            }
        }
        let Path { pc, steps, lo, hi, .. } = path;
        max = max.max(steps);
        total += u64::from(steps) * (u64::from(hi - lo) + 1);
        let unsettled = first_mismatch.is_none_or(|m| m > lo);
        if let Some(allow) = allow.filter(|_| unsettled) {
            let allowed = program.insns[pc].k == RET_ALLOW;
            first_mismatch = first_mismatch
                .into_iter()
                .chain(first_disagreement(allow, lo, hi, allowed))
                .min();
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
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn allowed(program: &BpfProgram, nr: u32) -> bool {
        run_filter(program, SeccompData { nr, arch: AUDIT_ARCH_X86_64 })
            == Some(RET_ALLOW)
    }

    /// The reference chain for a set that fits its 8-bit offsets.
    fn chain(numbers: &[u32]) -> BpfProgram {
        BpfProgram::try_allow_list(numbers).expect("chain fits its offsets")
    }

    /// Both layouts, so every behavioral test pins both generators.
    fn both(numbers: &[u32]) -> [BpfProgram; 2] {
        [chain(numbers), BpfProgram::allow_tree(numbers)]
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

    /// The per-number reference the walk must reproduce: a depth sweep
    /// over `run_filter_traced`, then a `run_filter` scan that looks each
    /// nr up in the allow-set.
    pub(crate) fn two_pass(
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
    /// `ld` offset, 3 a jump offset, 4 a conditional jump's operand, set
    /// to an end of the probed range `0..=max_nr`, just past it, or the
    /// top of the number space (`jgt u32::MAX` is never taken). `at`
    /// picks the instruction among those the kind applies to, `value`
    /// the new field. Kind 0 leaves the program alone.
    fn mutate(
        program: &mut BpfProgram,
        kind: u32,
        at: u32,
        value: u32,
        max_nr: u32,
    ) {
        const OPCODES: [u16; 7] =
            [LD_W_ABS, JMP_JA, JMP_JEQ_K, JMP_JGE_K, JMP_JGT_K, RET_K, 0x07];
        let applies = |insn: &BpfInsn| match kind {
            1 => true,
            2 => insn.code == LD_W_ABS,
            3 => matches!(
                insn.code,
                JMP_JA | JMP_JEQ_K | JMP_JGE_K | JMP_JGT_K
            ),
            4 => matches!(insn.code, JMP_JEQ_K | JMP_JGE_K | JMP_JGT_K),
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
        let operands =
            [0, max_nr, max_nr.saturating_add(1), u32::MAX - 1, u32::MAX];
        match kind {
            1 => insn.code = OPCODES[value as usize % OPCODES.len()],
            2 => insn.k = [OFF_NR, OFF_ARCH, 8, value][value as usize % 4],
            4 => insn.k = operands[value as usize % operands.len()],
            _ if insn.code == JMP_JA => insn.k = offset,
            _ if value & 1 == 0 => insn.jt = offset as u8,
            _ => insn.jf = offset as u8,
        }
    }

    proptest! {
        // 256 cases take about 1.7 s in a debug build on a 2-core x86-64
        // machine, nearly all of it in the per-number reference.
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn probe_matches_the_two_pass_reference(
            runs in proptest::collection::vec((0u32..4200, 0u32..48), 0..24),
            singles in proptest::collection::btree_set(0u32..4200, 0..400),
            max_nr in 0u32..4300,
            mutation in (0u32..5, any::<u32>(), any::<u32>()),
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
                mutate(&mut program, kind, at, value, max_nr);
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

    /// The chain built by [`BpfProgram::try_allow_list`] and probed over
    /// `0..=max_nr`: what [`linear_profile`] must reproduce. The probe
    /// also checks every verdict against the allow-set.
    fn built_chain(
        allow: &[u32],
        max_nr: u32,
    ) -> Result<LinearChain, FilterTooLarge> {
        BpfProgram::try_allow_list(allow).map(|chain| {
            let probe = probe_filter(&chain, max_nr, Some(allow))
                .expect("the chain is well-formed");
            assert_eq!(probe.first_mismatch, None, "the chain allows its set");
            LinearChain { len: chain.len() as u32, profile: probe.profile }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn linear_profile_matches_the_probed_chain(
            runs in proptest::collection::vec((0u32..4200, 0u32..48), 0..24),
            singles in proptest::collection::btree_set(0u32..4200, 0..400),
            max_nr in 0u32..4300,
        ) {
            // As in the walk's proptest: up to 400 singletons fragment the
            // set past what the chain's 8-bit offsets can assemble.
            let mut allow = singles;
            for (lo, len) in runs {
                allow.extend(lo..lo + len);
            }
            let allow: Vec<u32> = allow.into_iter().collect();
            prop_assert_eq!(
                linear_profile(&coalesce(&allow), max_nr),
                built_chain(&allow, max_nr)
            );
        }
    }

    #[test]
    fn the_walk_catches_a_wrong_or_malformed_reference_chain() {
        // The chain's shared ALLOW turned into KILL disagrees first at 0;
        // an unknown opcode makes the chain malformed.
        let numbers = [0, 1, 2, 9, 14, 59, 60, 231];
        let reference = chain(&numbers);
        let mut wrong = reference.clone();
        wrong.insns.last_mut().unwrap().k = RET_KILL;
        let mut bad = reference.clone();
        bad.insns[0].code = 0x07;
        let first_mismatch = |p: &BpfProgram| {
            probe_filter(p, 300, Some(&numbers)).map(|p| p.first_mismatch)
        };
        assert_eq!(first_mismatch(&reference), Some(None));
        assert_eq!(first_mismatch(&wrong), Some(Some(0)));
        assert_eq!(first_mismatch(&bad), None);
        assert_eq!(probe_filter(&bad, 300, None), None);
    }

    #[test]
    fn linear_profile_matches_the_built_chain_at_the_edges() {
        // `n` singletons, so `n` checks, the first a singleton; and a
        // two-number range followed by `n` singletons, so `n + 2` checks,
        // the first a range.
        let singles = |n: u32| (0..n).map(|i| 2 * i).collect::<Vec<u32>>();
        let range_first = |n: u32| {
            [0, 1].into_iter().chain((0..n).map(|i| 3 + 2 * i)).collect()
        };
        let mut sets: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![322],
            vec![0, 322],
            vec![0, 1],
            vec![321, 322],
            vec![0, 1, 2, 322],
            (5..=10).collect(),
            (5..=15).collect(),
            vec![10],
            vec![11],
            vec![2, 7, 8, 9, 20],
            vec![u32::MAX],
            vec![u32::MAX - 1, u32::MAX],
        ];
        // Right at and past the 8-bit overflow. The arch check hops
        // 1 + checks; the first check hops `checks` with a singleton
        // first, `checks - 1` with a range first, and the chain reports
        // its overflow before the arch check's.
        sets.extend([254, 255, 256].map(singles));
        sets.extend([252, 253, 254, 255].map(range_first));
        for allow in &sets {
            for max_nr in [0, 1, 3, 10, 11, 322, 509, 4096, u32::MAX - 1] {
                assert_eq!(
                    linear_profile(&coalesce(allow), max_nr),
                    built_chain(allow, max_nr),
                    "max_nr {max_nr}, {} numbers from {:?}",
                    allow.len(),
                    allow.first()
                );
            }
        }
        let span = |allow: &[u32]| match linear_profile(&coalesce(allow), 4096)
        {
            Err(FilterTooLarge::JumpSpan { span }) => Some(span),
            _ => None,
        };
        assert_eq!(span(&singles(254)), None);
        assert_eq!(span(&singles(255)), Some(256));
        assert_eq!(span(&singles(256)), Some(256));
        assert_eq!(span(&range_first(252)), None);
        assert_eq!(span(&range_first(253)), Some(256));
        assert_eq!(span(&range_first(254)), Some(257));
        assert_eq!(span(&range_first(255)), Some(256));
        // The empty chain: prologue, then KILL, for every number.
        let empty = linear_profile(&[], 322).expect("fits");
        assert_eq!(empty.len, 5);
        let profile = DepthProfile { max: 4, total: 4 * 323, evals: 323 };
        assert_eq!(empty.profile, profile);
    }

    #[test]
    #[should_panic(expected = "fit DepthProfile::evals")]
    fn linear_profile_refuses_a_ceiling_whose_eval_count_overflows() {
        let _ = linear_profile(&[(0, 2)], u32::MAX);
    }

    #[test]
    fn walk_matches_the_reference_at_the_edges_of_the_number_space() {
        // One comparison, taken to ALLOW and falling through to KILL, with
        // the operands where splitting an interval can go wrong: the ends
        // of the probed range, just past it, and the top of the number
        // space, where `jgt u32::MAX` is never taken. Without the `ld`,
        // the comparison sees the accumulator's initial 0.
        for max_nr in [0, 1, 300] {
            let sets = [vec![], vec![1], (0..=max_nr).collect()];
            for code in [JMP_JEQ_K, JMP_JGE_K, JMP_JGT_K] {
                for k in [0, 1, max_nr, max_nr + 1, u32::MAX - 1, u32::MAX] {
                    for load in [true, false] {
                        let load = load
                            .then(|| BpfInsn::new(LD_W_ABS, 0, 0, OFF_NR));
                        let insns = load.into_iter().chain([
                            BpfInsn::new(code, 0, 1, k),
                            BpfInsn::new(RET_K, 0, 0, RET_ALLOW),
                            BpfInsn::new(RET_K, 0, 0, RET_KILL),
                        ]);
                        let program = BpfProgram { insns: insns.collect() };
                        for allow in &sets {
                            let probe =
                                probe_filter(&program, max_nr, Some(allow));
                            assert_eq!(
                                probe.map(|p| (p.profile, p.first_mismatch)),
                                two_pass(&program, max_nr, allow),
                                "max_nr {max_nr}, allow {allow:?}:\n{}",
                                program.disassemble()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn probe_refuses_a_ceiling_whose_eval_count_overflows() {
        // `u32::MAX + 1` evaluations do not fit `DepthProfile::evals`; the
        // probe refuses the ceiling before it walks anything.
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
    fn reference_filters_hold_over_the_whole_32_bit_number_space() {
        // The kernel hands a filter any 32-bit nr: x32 calls, for one,
        // arrive under AUDIT_ARCH_X86_64 with bit 0x4000_0000 set. Every
        // operand on `nr` lies below 4097, so every number from 4097 up
        // takes the same rightmost path, and the walk over
        // 0..=u32::MAX - 1 must equal the concrete total over 0..=4096
        // plus that path's steps for each number above.
        use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};
        let repo = SynthRepo::new(
            Scale { packages: 150, installations: 14_250 },
            CalibrationSpec::default(),
            2016,
        );
        let data = crate::pipeline::StudyData::from_synth(&repo);
        let top = u32::MAX - 1;
        let mut programs = 0;
        for record in &data.packages {
            let allow: Vec<u32> = record.footprint.syscalls().collect();
            let layouts = [
                BpfProgram::try_allow_tree(&allow).ok(),
                BpfProgram::try_allow_list(&allow).ok(),
            ];
            for program in layouts.into_iter().flatten() {
                let jumps = [JMP_JEQ_K, JMP_JGE_K, JMP_JGT_K];
                assert!(program
                    .insns
                    .iter()
                    .filter(|i| jumps.contains(&i.code))
                    .all(|i| i.k == AUDIT_ARCH_X86_64 || i.k <= 4096));
                let steps = |nr| {
                    let data = SeccompData { nr, arch: AUDIT_ARCH_X86_64 };
                    run_filter_traced(&program, data).expect("well-formed").1
                };
                let low: Vec<u32> = (0..=4096).map(steps).collect();
                let above = steps(4097);
                let profile = DepthProfile {
                    max: low.iter().copied().fold(above, u32::max),
                    total: low.iter().copied().map(u64::from).sum::<u64>()
                        + u64::from(top - 4096) * u64::from(above),
                    evals: u32::MAX,
                };
                assert_eq!(
                    probe_filter(&program, top, Some(&allow)),
                    Some(FilterProbe { profile, first_mismatch: None }),
                    "{}",
                    record.name
                );
                programs += 1;
            }
        }
        assert_eq!(programs, 2 * data.packages.len(), "every chain fits");
    }

    #[test]
    fn wire_format_is_8_bytes_per_insn() {
        let p = chain(&[0, 1]);
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

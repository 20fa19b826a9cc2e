//! Fleet-scale seccomp synthesis: a filter for every package in the
//! corpus (ROADMAP item 5, paper §6).
//!
//! The paper notes seccomp policy generation "can be easily automated
//! using our framework"; this module does it for the *whole fleet* at
//! once and measures what that buys:
//!
//! - **Content-hash dedup** — many packages share a footprint (identical
//!   allow-sets), so programs are built and measured once per *unique*
//!   allow-set, keyed by [`allow_set_hash`]. One serial pass in package
//!   order reads each footprint's syscall bits into a reused buffer and
//!   copies the numbers out only for a set it has not seen.
//! - **Batch synthesis** — every unique allow-set becomes a binary-search
//!   seccomp filter ([`BpfProgram::try_allow_tree`]), built and measured
//!   in parallel across the worker pool with the same panic containment
//!   the analysis pipeline uses.
//! - **Shared-prefix factoring** — the unique programs are sorted by
//!   their serialized instructions and adjacent longest-common-prefixes
//!   measured: the instructions a prefix-sharing filter bank would store
//!   once instead of per filter (every program shares at least the
//!   4-instruction arch prologue).
//! - **Eval-depth accounting** — each unique tree is probed over every
//!   syscall number in `0..=probe_max_nr`. The probe walks intervals of
//!   numbers that take the same path rather than interpreting one number
//!   at a time, so its cost follows the coalesced ranges, not the size
//!   of the number range. That one walk gives exact max/avg
//!   executed-instruction depths and, with [`FleetOptions::verify`],
//!   bit-verified equivalence against the reference allow-set. The
//!   legacy linear chain the report compares against is never built:
//!   [`linear_profile`] gives its length and depths in closed form.
//! - **Crash-safe resume** — the measurements are journaled per unique
//!   allow-set ([`JournalRecord::FleetFilter`], one batch and one fsync
//!   per run); a resumed run replays them (cross-checked against the
//!   rebuilt tree and the chain's computed length) and recomputes only
//!   what is missing, bit-identical to an uninterrupted run.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

use apistudy_analysis::AnalysisOptions;
use apistudy_corpus::SynthRepo;
use apistudy_report::{Align, TextTable};

use crate::cache::fold_hash;
use crate::journal::{
    catalog_fingerprint, corpus_fingerprint, Journal, JournalError,
    JournalRecord, JournalStats, RunFingerprint, RunKind,
};
use crate::pipeline::{par_map_indexed, StudyData};
use crate::seccomp_bpf::{
    coalesce, linear_profile, probe_filter, BpfProgram, DepthProfile,
    FilterTooLarge,
};

/// Knobs of a fleet synthesis run. Folded into the journal fingerprint:
/// changing either makes old measurements non-resumable rather than
/// silently mixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetOptions {
    /// Highest syscall number every filter is probed (and verified)
    /// against: depth profiles and equivalence checks cover every `nr`
    /// in `0..=probe_max_nr`. `u32::MAX` is refused
    /// ([`FleetError::ProbeRange`]): its `2^32` probes per filter do not
    /// fit the `u32` probe count.
    pub probe_max_nr: u32,
    /// Interpreter-verify that every tree filter agrees with its
    /// reference allow-set at every probed number. The linear chain is
    /// never built, so only the tree is verified.
    pub verify: bool,
}

impl Default for FleetOptions {
    fn default() -> Self {
        Self { probe_max_nr: 4096, verify: true }
    }
}

/// Content hash of a sorted allow-set — the fleet's dedup key.
pub fn allow_set_hash(numbers: &[u32]) -> u64 {
    let mut h = fold_hash(0, numbers.len() as u64);
    for &n in numbers {
        h = fold_hash(h, u64::from(n));
    }
    h
}

/// Everything measured about one unique allow-set.
#[derive(Debug, Clone, PartialEq)]
pub struct UniqueFilterStats {
    /// Dedup key ([`allow_set_hash`]).
    pub allow_hash: u64,
    /// Allowed syscall numbers.
    pub syscalls: u32,
    /// Coalesced inclusive ranges.
    pub ranges: u32,
    /// Packages sharing this allow-set.
    pub packages: u32,
    /// Summed installation probability of those packages.
    pub mass: f64,
    /// Binary-search tree program length, in instructions.
    pub tree_len: u32,
    /// Linear-chain program length, or `None` when the linear layout
    /// overflowed its 8-bit jump offsets (the tree is the product either
    /// way).
    pub linear_len: Option<u32>,
    /// Deepest tree evaluation over the probe range (executed
    /// instructions).
    pub tree_max_depth: u32,
    /// Summed executed tree instructions over all probes.
    pub tree_depth_total: u64,
    /// Deepest linear evaluation (0 when the linear layout failed).
    pub linear_max_depth: u32,
    /// Summed executed linear instructions over all probes.
    pub linear_depth_total: u64,
    /// Instructions shared with the neighboring program in the sorted
    /// filter bank (longest common instruction prefix).
    pub prefix_shared_insns: u32,
    /// Probes per depth profile (`probe_max_nr + 1`).
    pub probe_evals: u32,
    /// Whether the measurements were replayed from a journal.
    pub replayed: bool,
}

impl UniqueFilterStats {
    /// Mean executed instructions per tree evaluation.
    pub fn tree_avg_depth(&self) -> f64 {
        self.tree_depth_total as f64 / f64::from(self.probe_evals.max(1))
    }

    /// Mean executed instructions per linear evaluation (0 when the
    /// linear layout failed).
    pub fn linear_avg_depth(&self) -> f64 {
        self.linear_depth_total as f64 / f64::from(self.probe_evals.max(1))
    }
}

/// The fleet synthesis result: per-unique-filter measurements plus the
/// package → unique mapping. All summary numbers are derived, so two
/// reports over the same corpus compare bit-identically with `==`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Packages synthesized (every package in the corpus).
    pub packages: u32,
    /// For each package index, the index into [`FleetReport::unique`] of
    /// its filter.
    pub package_unique: Vec<u32>,
    /// Unique allow-sets in first-seen package order.
    pub unique: Vec<UniqueFilterStats>,
    /// Syscalls in the measured catalog (the pre-filter attack surface).
    pub catalog_syscalls: u32,
    /// The probe ceiling the depth profiles used.
    pub probe_max_nr: u32,
    /// Whether every fresh unique set's tree was interpreter-checked
    /// against its allow-set.
    pub verified: bool,
    /// Journal replay/append accounting, when journaled.
    pub journal: Option<JournalStats>,
}

impl FleetReport {
    /// Packages per unique filter (how much dedup bought).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique.is_empty() {
            return 0.0;
        }
        f64::from(self.packages) / self.unique.len() as f64
    }

    /// Total tree instructions if every package shipped its own program.
    pub fn total_tree_insns_naive(&self) -> u64 {
        self.package_unique
            .iter()
            .map(|&u| u64::from(self.unique[u as usize].tree_len))
            .sum()
    }

    /// Total tree instructions after content-hash dedup.
    pub fn total_tree_insns_deduped(&self) -> u64 {
        self.unique.iter().map(|u| u64::from(u.tree_len)).sum()
    }

    /// Instructions a prefix-sharing filter bank additionally avoids
    /// storing (summed adjacent common prefixes in the sorted bank).
    pub fn prefix_shared_insns(&self) -> u64 {
        self.unique.iter().map(|u| u64::from(u.prefix_shared_insns)).sum()
    }

    /// Deepest tree evaluation anywhere in the fleet.
    pub fn max_tree_depth(&self) -> u32 {
        self.unique.iter().map(|u| u.tree_max_depth).max().unwrap_or(0)
    }

    /// Deepest linear evaluation anywhere in the fleet (among sets where
    /// the linear layout could be built at all).
    pub fn max_linear_depth(&self) -> u32 {
        self.unique.iter().map(|u| u.linear_max_depth).max().unwrap_or(0)
    }

    /// Unique sets whose linear chain overflowed its 8-bit jump offsets.
    pub fn linear_failures(&self) -> u32 {
        self.unique.iter().filter(|u| u.linear_len.is_none()).count() as u32
    }

    /// Popularity-weighted mean allow-set size: the syscalls a random
    /// installation's package can still reach once filtered.
    pub fn weighted_allow_syscalls(&self) -> f64 {
        let mass: f64 = self.unique.iter().map(|u| u.mass).sum();
        if mass == 0.0 {
            return 0.0;
        }
        let weighted: f64 = self
            .unique
            .iter()
            .map(|u| u.mass * f64::from(u.syscalls))
            .sum();
        weighted / mass
    }

    /// Popularity-weighted attack-surface reduction: the fraction of the
    /// catalog's syscalls a filtered package can no longer reach,
    /// averaged over packages weighted by installation probability.
    pub fn weighted_attack_surface_reduction(&self) -> f64 {
        if self.catalog_syscalls == 0 {
            return 0.0;
        }
        1.0 - self.weighted_allow_syscalls() / f64::from(self.catalog_syscalls)
    }

    /// The most fragmented unique set (most coalesced ranges) — the
    /// worst case for both layouts and the one the O(log n) claim is
    /// gated on.
    pub fn widest(&self) -> Option<&UniqueFilterStats> {
        self.unique.iter().max_by_key(|u| u.ranges)
    }
}

/// Why a fleet synthesis run failed.
#[derive(Debug)]
pub enum FleetError {
    /// Journal create/resume/append failure (including fingerprint
    /// mismatches and replay divergence).
    Journal(JournalError),
    /// A package's footprint cannot be laid out even as a tree (over the
    /// kernel's program-length cap).
    Filter {
        /// The first package carrying the offending allow-set.
        package: String,
        /// The classified layout failure.
        err: FilterTooLarge,
    },
    /// A tree filter and its reference allow-set disagreed at a probed
    /// number — a code-generator bug, surfaced rather than shipped.
    Verification {
        /// The allow-set's content hash.
        allow_hash: u64,
        /// The lowest syscall number where they disagreed.
        nr: u32,
    },
    /// A synthesis work item panicked deterministically.
    Synthesis(String),
    /// [`FleetOptions::probe_max_nr`] is `u32::MAX`: `probe_max_nr + 1`
    /// probes per filter do not fit the `u32` probe count. Refused before
    /// any work.
    ProbeRange {
        /// The refused ceiling.
        probe_max_nr: u32,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Journal(e) => write!(f, "fleet journal: {e}"),
            FleetError::Filter { package, err } => {
                write!(f, "package {package}: {err}")
            }
            FleetError::Verification { allow_hash, nr } => write!(
                f,
                "filter {allow_hash:#018x} disagrees with its allow-set \
                 at nr {nr}"
            ),
            FleetError::Synthesis(why) => {
                write!(f, "fleet synthesis failed: {why}")
            }
            FleetError::ProbeRange { probe_max_nr } => write!(
                f,
                "probe_max_nr {probe_max_nr} needs more than u32::MAX \
                 probes per filter; the ceiling is {}",
                u32::MAX - 1
            ),
        }
    }
}

impl std::error::Error for FleetError {}

impl From<JournalError> for FleetError {
    fn from(e: JournalError) -> Self {
        FleetError::Journal(e)
    }
}

/// Probes per filter (`probe_max_nr + 1`), or the classified refusal of
/// a ceiling whose probe count does not fit `u32`.
fn probe_evals(opts: FleetOptions) -> Result<u32, FleetError> {
    opts.probe_max_nr.checked_add(1).ok_or(FleetError::ProbeRange {
        probe_max_nr: opts.probe_max_nr,
    })
}

/// Probes the tree over every probed nr: one walk gives its depth
/// profile and, with [`FleetOptions::verify`], its first verdict that
/// disagrees with the allow-set `numbers`. A malformed tree fails before
/// any [`FleetError::Verification`].
fn probe_tree(
    tree: &BpfProgram,
    numbers: &[u32],
    allow_hash: u64,
    opts: FleetOptions,
) -> Result<DepthProfile, FleetError> {
    let allow = opts.verify.then_some(numbers);
    let probe = probe_filter(tree, opts.probe_max_nr, allow).ok_or_else(|| {
        FleetError::Synthesis(format!(
            "tree filter {allow_hash:#018x} is malformed"
        ))
    })?;
    match probe.first_mismatch {
        Some(nr) => Err(FleetError::Verification { allow_hash, nr }),
        None => Ok(probe.profile),
    }
}

/// Replayed measurements for one allow-set, decoded from the journal.
#[derive(Clone, Copy)]
struct ReplayedFilter {
    tree_len: u32,
    linear_len: u32,
    tree_max_depth: u32,
    tree_depth_total: u64,
    linear_max_depth: u32,
    linear_depth_total: u64,
}

/// One measured unique set before prefix analysis: the stats plus the
/// serialized tree program (kept for the sorted-bank prefix pass).
struct Measured {
    stats: UniqueFilterStats,
    tree_bytes: Vec<u8>,
}

/// Synthesizes and measures the whole fleet, unjournaled.
pub fn synthesize_fleet(
    data: &StudyData,
    opts: FleetOptions,
) -> Result<FleetReport, FleetError> {
    synthesize_inner(data, opts, None, &HashMap::new())
}

/// [`synthesize_fleet`] with crash-safe resume: measurements are
/// journaled per unique allow-set under a [`RunKind::SeccompFleet`]
/// fingerprint (corpus ⊕ analysis options ⊕ catalog ⊕ fleet options).
/// With `resume`, a compatible journal's records are replayed —
/// cross-checked against the rebuilt tree and the chain's computed
/// length — and only missing sets are measured and appended; the report
/// is bit-identical to an uninterrupted run.
pub fn synthesize_fleet_journaled(
    data: &StudyData,
    repo: &SynthRepo,
    opts: FleetOptions,
    journal_path: &Path,
    resume: bool,
) -> Result<FleetReport, FleetError> {
    // Refused before the journal is created or resumed.
    probe_evals(opts)?;
    let fp = RunFingerprint {
        kind: RunKind::SeccompFleet,
        corpus: corpus_fingerprint(repo),
        options: AnalysisOptions::default().fingerprint(),
        catalog: catalog_fingerprint(&data.catalog),
        plan: {
            let h = fold_hash(0, u64::from(opts.probe_max_nr));
            fold_hash(h, u64::from(opts.verify))
        },
    };
    let (journal, records) = Journal::open(journal_path, &fp, resume)?;
    let mut replayed: HashMap<u64, ReplayedFilter> = HashMap::new();
    for rec in records {
        match rec {
            JournalRecord::FleetFilter {
                allow_hash,
                tree_len,
                linear_len,
                tree_max_depth,
                tree_depth_total,
                linear_max_depth,
                linear_depth_total,
            } => {
                replayed.insert(
                    allow_hash,
                    ReplayedFilter {
                        tree_len,
                        linear_len,
                        tree_max_depth,
                        tree_depth_total,
                        linear_max_depth,
                        linear_depth_total,
                    },
                );
            }
            other => {
                return Err(JournalError::Diverged(format!(
                    "fleet journal holds a non-fleet record: {other:?}"
                ))
                .into())
            }
        }
    }
    synthesize_inner(data, opts, Some(journal), &replayed)
}

fn synthesize_inner(
    data: &StudyData,
    opts: FleetOptions,
    mut journal: Option<Journal>,
    replayed: &HashMap<u64, ReplayedFilter>,
) -> Result<FleetReport, FleetError> {
    let probe_evals = probe_evals(opts)?;
    let n = data.packages.len();

    // Stage 1: dedup identical allow-sets by content hash, in one serial
    // pass in package order. Each footprint's syscall numbers go through
    // one reused buffer; only a first-seen set keeps a copy.
    let mut by_hash: HashMap<u64, u32> = HashMap::new();
    let mut sets: Vec<(Vec<u32>, u64)> = Vec::new();
    let mut first_member: Vec<usize> = Vec::new();
    let mut member_count: Vec<u32> = Vec::new();
    let mut member_mass: Vec<f64> = Vec::new();
    let mut package_unique = Vec::with_capacity(n);
    let mut numbers: Vec<u32> = Vec::new();
    for (i, package) in data.packages.iter().enumerate() {
        let hash = catch_unwind(AssertUnwindSafe(|| {
            numbers.clear();
            numbers.extend(package.footprint.syscalls());
            allow_set_hash(&numbers)
        }))
        .map_err(|_| {
            FleetError::Synthesis(format!(
                "footprint scan of package {} panicked",
                package.name
            ))
        })?;
        let u = *by_hash.entry(hash).or_insert_with(|| {
            sets.push((numbers.clone(), hash));
            first_member.push(i);
            member_count.push(0);
            member_mass.push(0.0);
            (sets.len() - 1) as u32
        });
        member_count[u as usize] += 1;
        member_mass[u as usize] += package.prob;
        package_unique.push(u);
    }

    // Stage 2: build + measure each unique set in parallel. The tree is
    // always rebuilt (it lets a resume cross-check the journal); its probe
    // is skipped for replayed sets. The ranges are coalesced once, for the
    // tree and the chain's closed form.
    let (measured, _) = par_map_indexed(
        sets.len(),
        None,
        |u| -> Result<Measured, FleetError> {
            let (numbers, hash) = &sets[u];
            let ranges = coalesce(numbers);
            let tree = BpfProgram::try_tree_over(&ranges).map_err(|err| {
                FleetError::Filter {
                    package: data.packages[first_member[u]].name.clone(),
                    err,
                }
            })?;
            let linear = linear_profile(&ranges, opts.probe_max_nr).ok();
            let base = UniqueFilterStats {
                allow_hash: *hash,
                syscalls: numbers.len() as u32,
                ranges: ranges.len() as u32,
                packages: member_count[u],
                mass: member_mass[u],
                tree_len: tree.len() as u32,
                linear_len: linear.map(|l| l.len),
                tree_max_depth: 0,
                tree_depth_total: 0,
                linear_max_depth: 0,
                linear_depth_total: 0,
                prefix_shared_insns: 0,
                probe_evals,
                replayed: false,
            };
            let stats = if let Some(rec) = replayed.get(hash) {
                // Replay must describe the very tree we just rebuilt and
                // the chain its ranges give.
                if rec.tree_len != base.tree_len
                    || rec.linear_len != base.linear_len.unwrap_or(0)
                {
                    return Err(JournalError::Diverged(format!(
                        "journaled filter {hash:#018x} has sizes {}/{}, \
                         rebuilt programs have {}/{}",
                        rec.tree_len,
                        rec.linear_len,
                        base.tree_len,
                        base.linear_len.unwrap_or(0)
                    ))
                    .into());
                }
                UniqueFilterStats {
                    tree_max_depth: rec.tree_max_depth,
                    tree_depth_total: rec.tree_depth_total,
                    linear_max_depth: rec.linear_max_depth,
                    linear_depth_total: rec.linear_depth_total,
                    replayed: true,
                    ..base
                }
            } else {
                let tp = probe_tree(&tree, numbers, *hash, opts)?;
                UniqueFilterStats {
                    tree_max_depth: tp.max,
                    tree_depth_total: tp.total,
                    linear_max_depth: linear.map_or(0, |l| l.profile.max),
                    linear_depth_total: linear.map_or(0, |l| l.profile.total),
                    ..base
                }
            };
            Ok(Measured { stats, tree_bytes: tree.to_bytes() })
        },
        |u, cause, msg| {
            Err(FleetError::Synthesis(format!(
                "unique set {u} aborted ({cause:?}): {msg}"
            )))
        },
    );
    let mut unique: Vec<UniqueFilterStats> = Vec::with_capacity(sets.len());
    let mut bank: Vec<Vec<u8>> = Vec::with_capacity(sets.len());
    for m in measured {
        let m = m?;
        unique.push(m.stats);
        bank.push(m.tree_bytes);
    }

    // Stage 3: journal every freshly measured set, in unique order, as
    // one batch (one write, one fsync): every set is measured by now, so
    // a crash loses at most that batch and a resume replays a
    // prefix-closed subset.
    if let Some(journal) = journal.as_mut() {
        let fresh: Vec<JournalRecord> = unique
            .iter()
            .filter(|u| !u.replayed)
            .map(|u| JournalRecord::FleetFilter {
                allow_hash: u.allow_hash,
                tree_len: u.tree_len,
                linear_len: u.linear_len.unwrap_or(0),
                tree_max_depth: u.tree_max_depth,
                tree_depth_total: u.tree_depth_total,
                linear_max_depth: u.linear_max_depth,
                linear_depth_total: u.linear_depth_total,
            })
            .collect();
        journal.append_all(&fresh)?;
    }

    // Stage 4: shared-prefix factoring over the sorted filter bank — the
    // longest common instruction prefix between each program and its
    // sorted neighbor is what a prefix-sharing store keeps once.
    let mut order: Vec<usize> = (0..bank.len()).collect();
    order.sort_by(|&a, &b| bank[a].cmp(&bank[b]));
    for w in order.windows(2) {
        let (a, b) = (&bank[w[0]], &bank[w[1]]);
        let bytes =
            a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
        unique[w[1]].prefix_shared_insns = (bytes / 8) as u32;
    }

    Ok(FleetReport {
        packages: n as u32,
        package_unique,
        unique,
        catalog_syscalls: data.catalog.syscalls.len() as u32,
        probe_max_nr: opts.probe_max_nr,
        verified: opts.verify,
        journal: journal.map(|j| j.stats()),
    })
}

/// Renders the fleet report: a summary block plus the top unique filters
/// by installation mass.
pub fn fleet_table(report: &FleetReport, top: usize) -> TextTable {
    let mut table = TextTable::new(
        "Fleet seccomp filters (top unique allow-sets by mass)",
        &[
            "pkgs",
            "mass",
            "syscalls",
            "ranges",
            "tree insns",
            "chain insns",
            "tree depth max/avg",
            "chain depth max/avg",
            "shared prefix",
        ],
    )
    .aligns(&[
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    let mut rows: Vec<&UniqueFilterStats> = report.unique.iter().collect();
    rows.sort_by(|a, b| {
        b.mass
            .total_cmp(&a.mass)
            .then_with(|| a.allow_hash.cmp(&b.allow_hash))
    });
    for u in rows.into_iter().take(top) {
        table.row(&[
            u.packages.to_string(),
            format!("{:.3}", u.mass),
            u.syscalls.to_string(),
            u.ranges.to_string(),
            u.tree_len.to_string(),
            u.linear_len
                .map_or_else(|| "overflow".to_owned(), |l| l.to_string()),
            format!("{}/{:.1}", u.tree_max_depth, u.tree_avg_depth()),
            if u.linear_len.is_some() {
                format!("{}/{:.1}", u.linear_max_depth, u.linear_avg_depth())
            } else {
                "-".to_owned()
            },
            u.prefix_shared_insns.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seccomp_bpf::tests::two_pass;
    use apistudy_corpus::{CalibrationSpec, Scale};

    fn small_study() -> (SynthRepo, StudyData) {
        let repo = SynthRepo::new(
            Scale { packages: 120, installations: 10_000 },
            CalibrationSpec::default(),
            0xBEEF,
        );
        let data = StudyData::from_synth(&repo);
        (repo, data)
    }

    fn small_opts() -> FleetOptions {
        // 512 probes keep the unit test fast; the smoke gate runs 4096.
        FleetOptions { probe_max_nr: 511, verify: true }
    }

    #[test]
    fn fleet_covers_every_package_and_dedups() {
        let (_, data) = small_study();
        let report = synthesize_fleet(&data, small_opts()).expect("fleet");
        assert_eq!(report.packages as usize, data.packages.len());
        assert_eq!(report.package_unique.len(), data.packages.len());
        assert!(!report.unique.is_empty());
        assert!(report.unique.len() <= data.packages.len());
        // Membership accounting adds back up.
        let total: u32 = report.unique.iter().map(|u| u.packages).sum();
        assert_eq!(total, report.packages);
        let mass: f64 = report.unique.iter().map(|u| u.mass).sum();
        let expect: f64 = data.packages.iter().map(|p| p.prob).sum();
        assert!((mass - expect).abs() < 1e-9);
        // Depth bound: every tree stays within 2·⌈log₂ ranges⌉ + 8.
        for u in &report.unique {
            let bound = if u.ranges <= 1 {
                8
            } else {
                2 * (32 - (u.ranges - 1).leading_zeros()) + 8
            };
            assert!(
                u.tree_max_depth <= bound,
                "{} ranges: depth {} over bound {bound}",
                u.ranges,
                u.tree_max_depth
            );
        }
        // The attack surface shrinks for real footprints.
        let reduction = report.weighted_attack_surface_reduction();
        assert!(
            (0.0..=1.0).contains(&reduction) && reduction > 0.1,
            "implausible reduction {reduction}"
        );
    }

    #[test]
    fn journaled_fleet_resumes_bit_identical() {
        let (repo, data) = small_study();
        let path = std::env::temp_dir().join(format!(
            "apistudy-fleet-{}.apsj",
            std::process::id()
        ));
        let control = synthesize_fleet(&data, small_opts()).expect("control");
        // Full journaled run, then resume with nothing missing: all
        // replayed, zero appended, and the report identical to the
        // unjournaled control (modulo the journal stats themselves).
        let first = synthesize_fleet_journaled(
            &data,
            &repo,
            small_opts(),
            &path,
            false,
        )
        .expect("journaled");
        assert_eq!(
            first.journal,
            Some(JournalStats {
                replayed: 0,
                appended: first.unique.len() as u64
            })
        );
        let resumed = synthesize_fleet_journaled(
            &data,
            &repo,
            small_opts(),
            &path,
            true,
        )
        .expect("resumed");
        assert_eq!(
            resumed.journal,
            Some(JournalStats {
                replayed: first.unique.len() as u64,
                appended: 0
            })
        );
        let strip = |mut r: FleetReport| {
            r.journal = None;
            for u in &mut r.unique {
                u.replayed = false;
            }
            r
        };
        assert_eq!(strip(first.clone()), strip(control));
        assert_eq!(strip(resumed), strip(first));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_journal_recomputes_only_the_tail() {
        let (repo, data) = small_study();
        let path = std::env::temp_dir().join(format!(
            "apistudy-fleet-trunc-{}.apsj",
            std::process::id()
        ));
        let full = synthesize_fleet_journaled(
            &data,
            &repo,
            small_opts(),
            &path,
            false,
        )
        .expect("full");
        // Chop the journal roughly in half at a byte boundary: the torn
        // tail recovery keeps a record prefix, the resume replays it and
        // recomputes the rest, bit-identical.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let resumed = synthesize_fleet_journaled(
            &data,
            &repo,
            small_opts(),
            &path,
            true,
        )
        .expect("resumed");
        let stats = resumed.journal.unwrap();
        assert!(stats.replayed > 0, "should replay a prefix");
        assert!(stats.appended > 0, "should recompute the tail");
        assert_eq!(
            stats.replayed + stats.appended,
            full.unique.len() as u64
        );
        let strip = |mut r: FleetReport| {
            r.journal = None;
            for u in &mut r.unique {
                u.replayed = false;
            }
            r
        };
        assert_eq!(strip(resumed), strip(full));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_mismatch_is_refused() {
        let (repo, data) = small_study();
        let path = std::env::temp_dir().join(format!(
            "apistudy-fleet-fp-{}.apsj",
            std::process::id()
        ));
        synthesize_fleet_journaled(&data, &repo, small_opts(), &path, false)
            .expect("first run");
        let other = FleetOptions { probe_max_nr: 767, verify: true };
        match synthesize_fleet_journaled(&data, &repo, other, &path, true) {
            Err(FleetError::Journal(
                JournalError::FingerprintMismatch { .. },
            )) => {}
            other => panic!("expected fingerprint mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn prefix_sharing_counts_at_least_the_prologue() {
        let (_, data) = small_study();
        let report = synthesize_fleet(&data, small_opts()).expect("fleet");
        if report.unique.len() < 2 {
            return; // nothing to share
        }
        // Every program begins with the same 4-instruction arch prologue,
        // so all but one program in the sorted bank share at least it.
        let sharing = report
            .unique
            .iter()
            .filter(|u| u.prefix_shared_insns >= 4)
            .count();
        assert!(
            sharing >= report.unique.len() - 1,
            "{sharing} of {} share the prologue",
            report.unique.len()
        );
    }

    /// The report rebuilt from the per-number interpreter: per unique
    /// allow-set, a `run_filter_traced` sweep for each layout's depths
    /// and, with `verify`, a `run_filter` check of every probed nr
    /// against the set.
    fn two_pass_report(data: &StudyData, opts: FleetOptions) -> FleetReport {
        let mut by_hash: HashMap<u64, u32> = HashMap::new();
        let mut unique: Vec<UniqueFilterStats> = Vec::new();
        let mut bank: Vec<Vec<u8>> = Vec::new();
        let mut package_unique = Vec::new();
        for package in &data.packages {
            let numbers: Vec<u32> = package.footprint.syscalls().collect();
            let allow_hash = allow_set_hash(&numbers);
            let u = *by_hash.entry(allow_hash).or_insert_with(|| {
                let tree = BpfProgram::try_allow_tree(&numbers).expect("tree");
                let linear = BpfProgram::try_allow_list(&numbers).ok();
                let reference = |p: &BpfProgram| {
                    let (profile, mismatch) =
                        two_pass(p, opts.probe_max_nr, &numbers)
                            .expect("well-formed filter");
                    if opts.verify {
                        assert_eq!(mismatch, None, "{}", p.disassemble());
                    }
                    profile
                };
                let tp = reference(&tree);
                let lp = linear.as_ref().map(reference);
                unique.push(UniqueFilterStats {
                    allow_hash,
                    syscalls: numbers.len() as u32,
                    ranges: coalesce(&numbers).len() as u32,
                    packages: 0,
                    mass: 0.0,
                    tree_len: tree.len() as u32,
                    linear_len: linear.as_ref().map(|p| p.len() as u32),
                    tree_max_depth: tp.max,
                    tree_depth_total: tp.total,
                    linear_max_depth: lp.map_or(0, |p| p.max),
                    linear_depth_total: lp.map_or(0, |p| p.total),
                    prefix_shared_insns: 0,
                    probe_evals: tp.evals,
                    replayed: false,
                });
                bank.push(tree.to_bytes());
                (unique.len() - 1) as u32
            });
            unique[u as usize].packages += 1;
            unique[u as usize].mass += package.prob;
            package_unique.push(u);
        }
        let mut order: Vec<usize> = (0..bank.len()).collect();
        order.sort_by(|&a, &b| bank[a].cmp(&bank[b]));
        for w in order.windows(2) {
            let (a, b) = (&bank[w[0]], &bank[w[1]]);
            let bytes = a.iter().zip(b).take_while(|(x, y)| x == y).count();
            unique[w[1]].prefix_shared_insns = (bytes / 8) as u32;
        }
        FleetReport {
            packages: data.packages.len() as u32,
            package_unique,
            unique,
            catalog_syscalls: data.catalog.syscalls.len() as u32,
            probe_max_nr: opts.probe_max_nr,
            verified: opts.verify,
            journal: None,
        }
    }

    #[test]
    fn report_equals_the_two_pass_reference() {
        let (_, data) = small_study();
        for verify in [true, false] {
            let opts = FleetOptions { verify, ..small_opts() };
            let report = synthesize_fleet(&data, opts).expect("fleet");
            assert_eq!(report, two_pass_report(&data, opts), "verify {verify}");
        }
    }

    #[test]
    fn probe_ceiling_without_a_u32_probe_count_is_refused_before_any_work() {
        let (repo, data) = small_study();
        let opts = FleetOptions { probe_max_nr: u32::MAX, verify: true };
        let refused = |r: Result<FleetReport, FleetError>| {
            matches!(
                r,
                Err(FleetError::ProbeRange { probe_max_nr: u32::MAX })
            )
        };
        assert!(refused(synthesize_fleet(&data, opts)));
        let path = std::env::temp_dir().join(format!(
            "apistudy-fleet-range-{}.apsj",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        for resume in [false, true] {
            assert!(refused(synthesize_fleet_journaled(
                &data, &repo, opts, &path, resume
            )));
            assert!(!path.exists(), "no journal is created");
        }
        // The highest ceiling that fits still gets past validation.
        assert_eq!(
            probe_evals(FleetOptions { probe_max_nr: u32::MAX - 1, ..opts })
                .ok(),
            Some(u32::MAX)
        );
    }

    #[test]
    fn tree_errors_come_malformed_then_lowest_mismatch() {
        let numbers = [0, 1, 2, 9, 14, 59, 60, 231];
        let opts = FleetOptions { probe_max_nr: 300, verify: true };
        let tree = BpfProgram::allow_tree(&numbers);
        let probe = |t: &BpfProgram, opts| probe_tree(t, &numbers, 7, opts);
        let tp = probe(&tree, opts).expect("exact");
        assert_eq!(tp.evals, 301);
        // The tree's singleton leaf for 231 (after the `jge 231` pivot)
        // tests 232 instead: it now disagrees first at 231.
        let mut wrong_tree = tree.clone();
        let leaf =
            wrong_tree.insns.iter_mut().rev().find(|i| i.k == 231).unwrap();
        leaf.k = 232;
        let mut bad_tree = tree.clone();
        bad_tree.insns[0].code = 0x07;
        let mut bad_wrong_tree = wrong_tree.clone();
        bad_wrong_tree.insns[0].code = 0x07;
        let malformed = |r: Result<_, FleetError>| {
            matches!(r, Err(FleetError::Synthesis(m)) if m.starts_with("tree"))
        };
        let at = |r: Result<_, FleetError>| match r {
            Err(FleetError::Verification { allow_hash: 7, nr }) => Some(nr),
            _ => None,
        };
        assert_eq!(at(probe(&wrong_tree, opts)), Some(231));
        assert!(malformed(probe(&bad_tree, opts)));
        assert!(malformed(probe(&bad_wrong_tree, opts)));
        // Without verify a wrong tree is only measured; a malformed one
        // still fails.
        let unverified = FleetOptions { verify: false, ..opts };
        assert!(probe(&wrong_tree, unverified).is_ok());
        assert!(malformed(probe(&bad_tree, unverified)));
    }

    #[test]
    fn report_table_renders() {
        let (_, data) = small_study();
        let report = synthesize_fleet(&data, small_opts()).expect("fleet");
        let text = fleet_table(&report, 10).render();
        assert!(text.contains("tree insns"));
    }
}

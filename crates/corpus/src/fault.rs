//! Deterministic corrupt-binary injection for robustness experiments.
//!
//! The study pipeline must survive the real world's malformed ELF objects:
//! truncated downloads, doctored headers, hostile symbol tables. This
//! module turns the pristine synthetic corpus into a controllably hostile
//! one. A [`FaultPlan`] — a seed plus a corruption rate — deterministically
//! selects `(package, file)` pairs and mutates their ELF bytes with one of
//! eight structural faults ([`FaultKind`]), producing a [`FaultRecord`]
//! ground-truth ledger the pipeline's quarantine accounting is verified
//! against.
//!
//! Two properties the degradation experiments rely on:
//!
//! - **Determinism.** Selection and mutation depend only on
//!   `(seed, package index, file index)` and the input bytes; the same plan
//!   applied to the same corpus yields byte-identical corruption.
//! - **Nesting.** Selection compares a per-file hash against a rate
//!   threshold, so the injected set at rate *r₁* is a subset of the set at
//!   *r₂ ≥ r₁* (same seed). Degradation curves over a rate sweep are
//!   therefore monotone: raising the rate only ever corrupts *more* files.
//!
//! Every kind except [`FaultKind::CyclicNeeded`] is *fatal*: parsing or
//! analyzing the mutated object must fail (the pipeline should quarantine
//! it). `CyclicNeeded` rewrites the `.dynamic` terminator into a
//! self-referential `DT_NEEDED`, producing a dependency cycle the linker
//! must tolerate without changing the binary's footprint.

use apistudy_elf::{
    types::{dt, DYN_SIZE, EHDR_SIZE, SHDR_SIZE, SYM_SIZE},
    ElfFile,
};

use crate::model::{Package, PackageFile};

/// A structural fault the corruptor can inject into an ELF image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Truncate the file inside the 64-byte ELF header.
    TruncateHeader,
    /// Truncate the file inside the section-header table.
    TruncateSections,
    /// Truncate the file inside the `.text` body (which also severs the
    /// section-header table, laid out at the end of the file).
    TruncateBody,
    /// Flip one bit in a load-bearing identification byte (magic, class,
    /// data encoding, or machine).
    HeaderBitFlip,
    /// Point `.text`'s `sh_offset` far past the end of the file.
    SectionOffsetOutOfRange,
    /// Point a symbol's `st_name` far outside its string table.
    StringTableOutOfRange,
    /// Set `.symtab`'s `sh_entsize` to a nonsense value.
    BogusSymtab,
    /// Overwrite the `.dynamic` `DT_NULL` terminator with a `DT_NEEDED`
    /// entry naming the object's own soname — a dependency cycle.
    CyclicNeeded,
}

impl FaultKind {
    /// Every kind, in stable order (index order matches plan selection).
    pub const ALL: [FaultKind; 8] = [
        FaultKind::TruncateHeader,
        FaultKind::TruncateSections,
        FaultKind::TruncateBody,
        FaultKind::HeaderBitFlip,
        FaultKind::SectionOffsetOutOfRange,
        FaultKind::StringTableOutOfRange,
        FaultKind::BogusSymtab,
        FaultKind::CyclicNeeded,
    ];

    /// Whether the fault must make parsing or analysis fail.
    ///
    /// `CyclicNeeded` is the one survivable fault: the linker tolerates
    /// dependency cycles, so the binary stays analyzable.
    pub fn is_fatal(self) -> bool {
        !matches!(self, FaultKind::CyclicNeeded)
    }

    /// A short stable label for tables and logs.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::TruncateHeader => "truncate-header",
            FaultKind::TruncateSections => "truncate-sections",
            FaultKind::TruncateBody => "truncate-body",
            FaultKind::HeaderBitFlip => "header-bit-flip",
            FaultKind::SectionOffsetOutOfRange => "section-offset-oob",
            FaultKind::StringTableOutOfRange => "strtab-oob",
            FaultKind::BogusSymtab => "bogus-symtab",
            FaultKind::CyclicNeeded => "cyclic-needed",
        }
    }
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Ground truth for one injected fault: which file was corrupted and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Index of the package in the repository plan.
    pub package_index: usize,
    /// Index of the file within the materialized package.
    pub file_index: usize,
    /// File name within the package.
    pub file: String,
    /// The fault that was actually applied (may differ from the planned
    /// kind when the planned mutation was inapplicable — e.g.
    /// [`FaultKind::CyclicNeeded`] on an object without a soname — and the
    /// corruptor fell back to [`FaultKind::HeaderBitFlip`]).
    pub kind: FaultKind,
    /// Whether the applied fault must cause a quarantine.
    pub fatal: bool,
}

/// A seeded, rate-parameterized corruption plan.
///
/// See the [module docs](self) for the determinism and nesting guarantees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    /// Selection threshold in basis points (0..=10_000).
    threshold_bp: u64,
}

/// splitmix64-style finalizer over the `(seed, package, file)` coordinates.
fn mix(seed: u64, pkg: u64, file: u64) -> u64 {
    let mut z = seed
        ^ pkg.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ file.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Creates a plan. `rate` is the fraction of ELF files to corrupt,
    /// clamped to `0.0..=1.0` and quantized to basis points (so rates
    /// below 0.0001 round to zero injections).
    pub fn new(seed: u64, rate: f64) -> Self {
        let clamped = rate.clamp(0.0, 1.0);
        Self { seed, threshold_bp: (clamped * 10_000.0).round() as u64 }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The effective corruption rate after quantization.
    pub fn rate(&self) -> f64 {
        self.threshold_bp as f64 / 10_000.0
    }

    /// The fault planned for `(package, file)`, or `None` when the file is
    /// not selected at this rate. Pure function of the plan coordinates:
    /// the injection ledger can be recomputed without the bytes.
    pub fn planned(&self, package_index: usize, file_index: usize) -> Option<FaultKind> {
        let h = mix(self.seed, package_index as u64, file_index as u64);
        if h % 10_000 >= self.threshold_bp {
            return None;
        }
        Some(FaultKind::ALL[((h >> 16) % FaultKind::ALL.len() as u64) as usize])
    }

    /// Corrupts one ELF image in place if the plan selects it.
    ///
    /// Returns the record of the fault actually applied, or `None` when
    /// the file is not selected (bytes untouched). When the planned
    /// mutation is inapplicable to this particular object, the corruptor
    /// falls back to [`FaultKind::HeaderBitFlip`] (always applicable to a
    /// parseable ELF) so a selected file is never silently left pristine.
    pub fn corrupt(
        &self,
        package_index: usize,
        file_index: usize,
        file: &str,
        bytes: &mut Vec<u8>,
    ) -> Option<FaultRecord> {
        let planned = self.planned(package_index, file_index)?;
        let h = mix(self.seed, package_index as u64, file_index as u64);
        let applied = inject(planned, h, bytes)
            .or_else(|| inject(FaultKind::HeaderBitFlip, h, bytes))?;
        Some(FaultRecord {
            package_index,
            file_index,
            file: file.to_owned(),
            kind: applied,
            fatal: applied.is_fatal(),
        })
    }

    /// Whether [`Self::corrupt_package`] would select any file of
    /// `package`: a caller holding a pristine package need not copy one
    /// the plan leaves untouched.
    pub fn selects_package(&self, package_index: usize, package: &Package) -> bool {
        package.files.iter().enumerate().any(|(file_index, f)| {
            matches!(f, PackageFile::Elf { .. })
                && self.planned(package_index, file_index).is_some()
        })
    }

    /// Corrupts every selected ELF file of a materialized package,
    /// returning the injection ledger (empty when nothing was selected).
    /// Scripts are never corrupted (the fault model is ELF-structural).
    pub fn corrupt_package(&self, package_index: usize, package: &mut Package) -> Vec<FaultRecord> {
        let mut records = Vec::new();
        for (file_index, f) in package.files.iter_mut().enumerate() {
            if let PackageFile::Elf { name, bytes } = f {
                if let Some(rec) = self.corrupt(package_index, file_index, name, bytes) {
                    records.push(rec);
                }
            }
        }
        records
    }
}

/// File offsets the mutators need, harvested from one parse of the
/// still-valid input. Keeping plain offsets (not parser borrows) lets the
/// mutators patch the owning buffer afterwards.
struct Landmarks {
    shoff: usize,
    shnum: usize,
    /// `(section header index, file offset, size)` of `.text`.
    text: Option<(usize, usize, usize)>,
    /// `(section header index, file offset, size)` of `.symtab`.
    symtab: Option<(usize, usize, usize)>,
    /// File offset of the `.dynamic` `DT_NULL` terminator entry.
    dt_null_off: Option<usize>,
    /// `DT_SONAME`'s `.dynstr` offset.
    soname_off: Option<u64>,
}

fn landmarks(bytes: &[u8]) -> Option<Landmarks> {
    let elf = ElfFile::parse(bytes).ok()?;
    let find = |name: &str| {
        elf.sections
            .iter()
            .enumerate()
            .find(|(_, s)| s.name == name)
            .map(|(i, s)| (i, s.offset as usize, s.size as usize))
    };
    let mut dt_null_off = None;
    let mut soname_off = None;
    if let Some((_, dyn_off, dyn_size)) = find(".dynamic") {
        let entries = bytes.get(dyn_off..dyn_off + dyn_size)?;
        for (i, chunk) in entries.chunks_exact(DYN_SIZE).enumerate() {
            let tag = i64::from_le_bytes(chunk[0..8].try_into().ok()?);
            let val = u64::from_le_bytes(chunk[8..16].try_into().ok()?);
            if tag == dt::SONAME {
                soname_off = Some(val);
            }
            if tag == dt::NULL {
                dt_null_off = Some(dyn_off + i * DYN_SIZE);
                break;
            }
        }
    }
    Some(Landmarks {
        shoff: elf.header.shoff as usize,
        shnum: elf.header.shnum as usize,
        text: find(".text"),
        symtab: find(".symtab"),
        dt_null_off,
        soname_off,
    })
}

fn patch_u32(bytes: &mut [u8], off: usize, value: u32) -> bool {
    match bytes.get_mut(off..off + 4) {
        Some(slot) => {
            slot.copy_from_slice(&value.to_le_bytes());
            true
        }
        None => false,
    }
}

fn patch_u64(bytes: &mut [u8], off: usize, value: u64) -> bool {
    match bytes.get_mut(off..off + 8) {
        Some(slot) => {
            slot.copy_from_slice(&value.to_le_bytes());
            true
        }
        None => false,
    }
}

/// Applies one specific fault to an ELF image, using `salt` to pick among
/// equivalent cut points / bit positions. Returns the kind actually
/// applied, or `None` when this object cannot host the fault (caller
/// falls back). Exposed so tests and experiments can force a kind rather
/// than go through plan selection.
pub fn inject(kind: FaultKind, salt: u64, bytes: &mut Vec<u8>) -> Option<FaultKind> {
    let lm = landmarks(bytes)?;
    let len = bytes.len();
    match kind {
        FaultKind::TruncateHeader => {
            // Any length below EHDR_SIZE fails the very first header read.
            bytes.truncate(1 + (salt as usize % (EHDR_SIZE - 1)));
            Some(kind)
        }
        FaultKind::TruncateSections => {
            let table = lm.shnum * SHDR_SIZE;
            if lm.shnum == 0 || lm.shoff >= len || table < 2 {
                return None;
            }
            let span = table.min(len - lm.shoff);
            bytes.truncate(lm.shoff + 1 + salt as usize % (span - 1));
            Some(kind)
        }
        FaultKind::TruncateBody => {
            let (_, off, size) = lm.text?;
            if size < 2 || off + size > len {
                return None;
            }
            bytes.truncate(off + 1 + salt as usize % (size - 1));
            Some(kind)
        }
        FaultKind::HeaderBitFlip => {
            // Bytes whose every bit is load-bearing for `ElfFile::parse`:
            // the four magic bytes, EI_CLASS, EI_DATA, and the low machine
            // byte (x86-64 == 62, and the high byte is zero).
            const TARGETS: [usize; 7] = [0, 1, 2, 3, 4, 5, 18];
            let byte = TARGETS[salt as usize % TARGETS.len()];
            let bit = (salt >> 8) % 8;
            *bytes.get_mut(byte)? ^= 1 << bit;
            Some(kind)
        }
        FaultKind::SectionOffsetOutOfRange => {
            let (idx, _, _) = lm.text?;
            let field = lm.shoff + idx * SHDR_SIZE + 24; // sh_offset
            patch_u64(bytes, field, len as u64 + 0x7fff_0000).then_some(kind)
        }
        FaultKind::StringTableOutOfRange => {
            let (_, off, size) = lm.symtab?;
            if size < 2 * SYM_SIZE {
                return None;
            }
            // st_name of symbol 1 (symbol 0 is the reserved null entry).
            patch_u32(bytes, off + SYM_SIZE, 0x7fff_fff0).then_some(kind)
        }
        FaultKind::BogusSymtab => {
            let (idx, _, _) = lm.symtab?;
            let field = lm.shoff + idx * SHDR_SIZE + 56; // sh_entsize
            patch_u64(bytes, field, 17).then_some(kind)
        }
        FaultKind::CyclicNeeded => {
            // Replace the DT_NULL terminator with DT_NEEDED -> own soname.
            // Only shared libraries carry DT_SONAME; for anything else the
            // caller falls back to a fatal fault.
            let null_off = lm.dt_null_off?;
            let soname = lm.soname_off?;
            patch_u64(bytes, null_off, dt::NEEDED as u64);
            patch_u64(bytes, null_off + 8, soname).then_some(kind)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{calibration::CalibrationSpec, generate::SynthRepo, Scale};
    use apistudy_analysis::BinaryAnalysis;

    fn tiny_repo() -> SynthRepo {
        SynthRepo::new(
            Scale { packages: 120, installations: 10_000 },
            CalibrationSpec::default(),
            0xFA017,
        )
    }

    /// First ELF file of the repo that has a soname (a shared library) and
    /// first executable, for forcing specific kinds.
    fn sample_lib_and_exec(repo: &SynthRepo) -> (Vec<u8>, Vec<u8>) {
        let mut lib = None;
        let mut exec = None;
        for i in 0..repo.package_count() {
            for f in repo.package(i).files {
                if let PackageFile::Elf { bytes, .. } = f {
                    let has_soname = ElfFile::parse(&bytes)
                        .ok()
                        .and_then(|e| e.soname().ok().flatten())
                        .is_some();
                    if has_soname && lib.is_none() {
                        lib = Some(bytes);
                    } else if !has_soname && exec.is_none() {
                        exec = Some(bytes);
                    }
                }
            }
            if lib.is_some() && exec.is_some() {
                break;
            }
        }
        (lib.expect("corpus has a library"), exec.expect("corpus has an executable"))
    }

    fn parse_or_analyze(bytes: &[u8]) -> Result<BinaryAnalysis, apistudy_elf::ElfError> {
        let elf = ElfFile::parse(bytes)?;
        BinaryAnalysis::analyze(&elf)
    }

    #[test]
    fn every_fatal_kind_actually_breaks_the_binary() {
        let repo = tiny_repo();
        let (lib, _) = sample_lib_and_exec(&repo);
        parse_or_analyze(&lib).expect("pristine library analyzes");
        for kind in FaultKind::ALL {
            if !kind.is_fatal() {
                continue;
            }
            for salt in [0u64, 0x1234_5678_9abc, u64::MAX / 3] {
                let mut mutated = lib.clone();
                let applied = inject(kind, salt, &mut mutated)
                    .unwrap_or_else(|| panic!("{kind} inapplicable to library"));
                assert_eq!(applied, kind);
                assert!(
                    parse_or_analyze(&mutated).is_err(),
                    "{kind} (salt {salt:#x}) did not break the binary"
                );
            }
        }
    }

    #[test]
    fn cyclic_needed_is_survivable_and_footprint_preserving() {
        let repo = tiny_repo();
        let (lib, exec) = sample_lib_and_exec(&repo);
        let clean = parse_or_analyze(&lib).expect("pristine library analyzes");

        let mut mutated = lib.clone();
        let applied = inject(FaultKind::CyclicNeeded, 7, &mut mutated)
            .expect("libraries have a soname");
        assert_eq!(applied, FaultKind::CyclicNeeded);
        assert_ne!(mutated, lib, "mutation must change the bytes");
        let cyclic = parse_or_analyze(&mutated).expect("cycle must stay analyzable");
        let soname = cyclic.soname.clone().expect("library keeps its soname");
        assert!(
            cyclic.needed.contains(&soname),
            "self-edge must appear in DT_NEEDED"
        );
        assert_eq!(cyclic.funcs.len(), clean.funcs.len());
        assert_eq!(cyclic.instructions, clean.instructions);
        assert_eq!(cyclic.direct_syscalls(), clean.direct_syscalls());
        let roots = 0..clean.funcs.len();
        assert_eq!(
            cyclic.reachable_facts(roots.clone()),
            clean.reachable_facts(roots)
        );

        // Executables carry no soname: the mutator must decline so the
        // corruptor can fall back to a fatal kind.
        let mut e = exec.clone();
        assert_eq!(inject(FaultKind::CyclicNeeded, 7, &mut e), None);
        assert_eq!(e, exec, "declined injection must not touch the bytes");
    }

    #[test]
    fn plan_is_deterministic_and_nested_across_rates() {
        let low = FaultPlan::new(99, 0.02);
        let high = FaultPlan::new(99, 0.10);
        let mut low_hits = 0;
        for pkg in 0..200 {
            for file in 0..8 {
                let a = low.planned(pkg, file);
                assert_eq!(a, low.planned(pkg, file), "planned() must be pure");
                if let Some(kind) = a {
                    low_hits += 1;
                    assert_eq!(
                        high.planned(pkg, file),
                        Some(kind),
                        "rate {} selection must nest inside rate {}",
                        low.rate(),
                        high.rate()
                    );
                }
            }
        }
        assert!(low_hits > 0, "2% of 1600 files should select something");
        assert_eq!(FaultPlan::new(99, 0.0).planned(0, 0), None);
        let different_seed = FaultPlan::new(100, 0.02);
        assert!(
            (0..200).any(|p| (0..8).any(|f| low.planned(p, f) != different_seed.planned(p, f))),
            "seed must matter"
        );
    }

    #[test]
    fn corrupt_package_matches_plan_and_is_deterministic() {
        let repo = tiny_repo();
        let plan = FaultPlan::new(0xBEEF, 0.25);
        let mut total = 0;
        for i in 0..repo.package_count() {
            let mut a = repo.package(i);
            let mut b = repo.package(i);
            let recs_a = plan.corrupt_package(i, &mut a);
            let recs_b = plan.corrupt_package(i, &mut b);
            assert_eq!(recs_a, recs_b, "corruption must be deterministic");
            for (fa, fb) in a.files.iter().zip(&b.files) {
                if let (
                    PackageFile::Elf { bytes: ba, .. },
                    PackageFile::Elf { bytes: bb, .. },
                ) = (fa, fb)
                {
                    assert_eq!(ba, bb);
                }
            }
            for rec in &recs_a {
                assert_eq!(rec.package_index, i);
                assert!(
                    plan.planned(i, rec.file_index).is_some(),
                    "record without plan selection"
                );
                assert_eq!(rec.fatal, rec.kind.is_fatal());
            }
            // Every selected ELF file produced a record.
            for (fi, f) in repo.package(i).files.iter().enumerate() {
                if matches!(f, PackageFile::Elf { .. })
                    && plan.planned(i, fi).is_some()
                {
                    assert!(
                        recs_a.iter().any(|r| r.file_index == fi),
                        "selected file {fi} of package {i} has no record"
                    );
                }
            }
            total += recs_a.len();
        }
        assert!(total > 0, "25% rate must inject faults somewhere");
    }

    #[test]
    fn rate_is_clamped_and_quantized() {
        assert_eq!(FaultPlan::new(1, -0.5).rate(), 0.0);
        assert_eq!(FaultPlan::new(1, 2.0).rate(), 1.0);
        assert_eq!(FaultPlan::new(1, 0.05).rate(), 0.05);
        // Rate 1.0 selects everything.
        let all = FaultPlan::new(1, 1.0);
        assert!((0..50).all(|p| all.planned(p, 0).is_some()));
    }
}

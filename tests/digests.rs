//! Golden digests of the generator and the analyzer.
//!
//! Every file the corpus generator writes for 150 packages at seed 2016,
//! and every `BinaryAnalysis` of those files under the default options and
//! under decode budgets of 3, 50 and 1000 instructions, each folded into
//! one 64-bit FNV-1a digest over a canonical encoding. Exports are encoded
//! in name order, so the digest does not depend on `HashMap` iteration
//! order; a failed analysis is encoded by its error message, so the
//! resource-limit counts are pinned too.
//!
//! The constants were recorded before the ELF writer, the reader and the
//! analyzer's scan loop were optimised. A change that moves one generated
//! byte, one analysis field or one decoded-instruction count fails here.
//!
//! The fleet seccomp report of the same corpus is pinned the same way,
//! every field of it, under three probe plans. Those constants were
//! recorded while each filter was still interpreted once per syscall
//! number, before the probe walked intervals of numbers instead.
//!
//! The study itself is pinned too: every resolved `PackageRecord`, the
//! attribution index and the census, under the default options and under
//! a decode budget of 50. Those constants were recorded while the linker
//! still closed footprints by merging string sets, before it interned
//! them; the digest is taken over one whole-corpus shard and over small
//! shards (which link against the shared system-library base), and both
//! must match.

use apistudy::analysis::{AnalysisOptions, BinaryAnalysis, Footprint};
use apistudy::core::{
    stream, synthesize_fleet, FleetOptions, FleetReport, JournalStats,
    PackageRecord, RunOptions, Shards, StudyData, UniqueFilterStats,
};
use apistudy::corpus::{CalibrationSpec, PackageFile, Scale, SynthRepo};
use apistudy::elf::{BinaryClass, ElfError, ElfFile};

const PACKAGES: usize = 150;
const SEED: u64 = 2016;

/// Digest of every generated file: package name, then each file's name
/// and bytes (ELF image or script shebang).
const FILES: u64 = 0x1556_1f00_3783_700d;

/// Digest of every analysis, per decode budget (`None` = the default).
const ANALYSES: [(Option<u64>, u64); 4] = [
    (None, 0xd8ae_aaae_24b8_e085),
    (Some(3), 0x39ef_ee2e_5f5c_498c),
    (Some(50), 0xc071_de9a_655b_a716),
    (Some(1000), 0x2bdc_74d0_f0a2_4d6a),
];

/// Digest of the fleet report, per `(probe_max_nr, verify)` plan.
const FLEETS: [(u32, bool, u64); 3] = [
    (4096, true, 0xb453_453e_9f2a_dc40),
    (4096, false, 0x0351_5b06_b23f_f481),
    (511, true, 0xad5e_2eaf_c1e7_7455),
];

/// Digest of the resolved study, per decode budget (`None` = the default).
const STUDIES: [(Option<u64>, u64); 2] = [
    (None, 0xf43d_e285_4a33_ac29),
    (Some(50), 0x9c93_f769_e198_e894),
];

/// 64-bit FNV-1a over length-prefixed little-endian fields.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(v) => {
                self.u64(1);
                self.u64(v);
            }
        }
    }

    fn footprint(&mut self, f: &Footprint) {
        self.len(f.syscalls.len());
        for &nr in &f.syscalls {
            self.u64(u64::from(nr));
        }
        for codes in [&f.ioctl_codes, &f.fcntl_codes, &f.prctl_codes] {
            self.len(codes.len());
            for &c in codes {
                self.u64(c);
            }
        }
        for names in [&f.imports, &f.paths] {
            self.len(names.len());
            for s in names {
                self.str(s);
            }
        }
        self.u64(u64::from(f.unresolved_syscall_sites));
        self.u64(u64::from(f.unresolved_vectored_sites));
    }

    fn analysis(&mut self, result: &Result<BinaryAnalysis, ElfError>) {
        let ba = match result {
            Ok(ba) => ba,
            Err(e) => {
                self.u64(0);
                self.str(&e.to_string());
                return;
            }
        };
        self.u64(1);
        self.u64(match ba.class {
            BinaryClass::StaticExec => 0,
            BinaryClass::DynExec => 1,
            BinaryClass::SharedLib => 2,
            BinaryClass::Other => 3,
        });
        match &ba.soname {
            None => self.u64(0),
            Some(s) => {
                self.u64(1);
                self.str(s);
            }
        }
        self.len(ba.needed.len());
        for n in &ba.needed {
            self.str(n);
        }
        self.len(ba.funcs.len());
        for f in &ba.funcs {
            self.str(&f.name);
            self.u64(f.addr);
            self.u64(f.size);
            self.footprint(&f.facts);
            self.len(f.calls.len());
            for &c in &f.calls {
                self.len(c);
            }
        }
        let mut exports: Vec<(&String, &usize)> = ba.exports.iter().collect();
        exports.sort();
        self.len(exports.len());
        for (name, &idx) in exports {
            self.str(name);
            self.len(idx);
        }
        self.opt(ba.entry.map(|e| e as u64));
        self.u64(ba.instructions);
    }

    /// Every field of a record, destructured so that a new field fails to
    /// compile here until it is hashed. APIs go in as interned ids, in
    /// ascending order.
    fn record(&mut self, rec: &PackageRecord) {
        let PackageRecord {
            name,
            prob,
            install_count,
            depends,
            footprint,
            script_interpreters,
            file_counts,
            unresolved_syscall_sites,
            skipped_binaries,
            partial_footprint,
        } = rec;
        self.str(name);
        self.u64(prob.to_bits());
        self.u64(*install_count);
        for names in [depends, script_interpreters] {
            self.len(names.len());
            for n in names {
                self.str(n);
            }
        }
        self.len(footprint.apis.len());
        for id in footprint.apis.ids() {
            self.u64(u64::from(id));
        }
        self.u64(u64::from(footprint.unresolved));
        self.len(file_counts.0);
        self.len(file_counts.1);
        self.len(file_counts.2);
        self.u64(u64::from(*unresolved_syscall_sites));
        self.u64(u64::from(*skipped_binaries));
        self.u64(u64::from(*partial_footprint));
    }

    /// The records, the attribution index (both maps in key order) and the
    /// census (classes and interpreters in `Debug`-name order).
    fn study(&mut self, data: &StudyData) {
        self.len(data.packages.len());
        for rec in &data.packages {
            self.record(rec);
        }
        let mut users: Vec<_> = data.attribution.direct_users.iter().collect();
        users.sort();
        self.len(users.len());
        for (&nr, files) in users {
            self.u64(u64::from(nr));
            self.len(files.len());
            for f in files {
                self.str(f);
            }
        }
        let mut owners: Vec<_> = data.attribution.binary_package.iter().collect();
        owners.sort();
        self.len(owners.len());
        for (file, package) in owners {
            self.str(file);
            self.str(package);
        }
        let census = &data.census;
        let mut elf: Vec<(String, usize)> =
            census.elf.iter().map(|(c, &n)| (format!("{c:?}"), n)).collect();
        let mut scripts: Vec<(String, usize)> = census
            .scripts
            .iter()
            .map(|(i, &n)| (format!("{i:?}"), n))
            .collect();
        elf.sort();
        scripts.sort();
        for counts in [&elf, &scripts] {
            self.len(counts.len());
            for (name, n) in counts {
                self.str(name);
                self.len(*n);
            }
        }
        self.len(census.unparsable);
        self.u64(data.total_installations);
        self.u64(data.unresolved_syscall_sites);
        self.u64(data.resolved_syscall_sites);
        self.u64(data.diagnostics.analyzed_binaries);
        self.len(data.diagnostics.skipped.len());
    }

    /// Every field of the report, destructured so that a new field fails
    /// to compile here until it is hashed.
    fn fleet(&mut self, report: &FleetReport) {
        let FleetReport {
            packages,
            package_unique,
            unique,
            catalog_syscalls,
            probe_max_nr,
            verified,
            journal,
        } = report;
        self.u64(u64::from(*packages));
        self.len(package_unique.len());
        for &u in package_unique {
            self.u64(u64::from(u));
        }
        self.len(unique.len());
        for u in unique {
            let UniqueFilterStats {
                allow_hash,
                syscalls,
                ranges,
                packages,
                mass,
                tree_len,
                linear_len,
                tree_max_depth,
                tree_depth_total,
                linear_max_depth,
                linear_depth_total,
                prefix_shared_insns,
                probe_evals,
                replayed,
            } = u;
            self.u64(*allow_hash);
            self.u64(u64::from(*syscalls));
            self.u64(u64::from(*ranges));
            self.u64(u64::from(*packages));
            self.u64(mass.to_bits());
            self.u64(u64::from(*tree_len));
            self.opt(linear_len.map(u64::from));
            self.u64(u64::from(*tree_max_depth));
            self.u64(*tree_depth_total);
            self.u64(u64::from(*linear_max_depth));
            self.u64(*linear_depth_total);
            self.u64(u64::from(*prefix_shared_insns));
            self.u64(u64::from(*probe_evals));
            self.u64(u64::from(*replayed));
        }
        self.u64(u64::from(*catalog_syscalls));
        self.u64(u64::from(*probe_max_nr));
        self.u64(u64::from(*verified));
        match journal {
            None => self.u64(0),
            Some(JournalStats { replayed, appended }) => {
                self.u64(1);
                self.u64(*replayed);
                self.u64(*appended);
            }
        }
    }
}

fn reference_repo() -> SynthRepo {
    SynthRepo::new(
        Scale {
            packages: PACKAGES,
            installations: PACKAGES as u64 * 95,
        },
        CalibrationSpec::default(),
        SEED,
    )
}

fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

#[test]
fn generated_bytes_and_analyses_match_their_golden_digests() {
    let repo = reference_repo();
    let options: Vec<AnalysisOptions> = ANALYSES
        .iter()
        .map(|&(budget, _)| match budget {
            None => AnalysisOptions::default(),
            Some(decode_budget) => AnalysisOptions {
                decode_budget,
                ..AnalysisOptions::default()
            },
        })
        .collect();
    let mut files = Digest::new();
    let mut analyses: Vec<Digest> = options.iter().map(|_| Digest::new()).collect();
    let mut elves = 0usize;
    for i in 0..repo.package_count() {
        let pkg = repo.package(i);
        files.str(&pkg.name);
        files.len(pkg.files.len());
        for file in &pkg.files {
            files.str(file.name());
            match file {
                PackageFile::Script { shebang, .. } => {
                    files.u64(0);
                    files.str(shebang);
                }
                PackageFile::Elf { bytes, .. } => {
                    files.u64(1);
                    files.len(bytes.len());
                    files.bytes(bytes);
                    let elf = ElfFile::parse(bytes).expect("generated ELF parses");
                    for (d, &opts) in analyses.iter_mut().zip(&options) {
                        d.analysis(&BinaryAnalysis::analyze_with(&elf, opts));
                    }
                    elves += 1;
                }
            }
        }
    }
    assert!(
        elves > PACKAGES,
        "the corpus ships more binaries than packages"
    );
    assert_eq!(hex(files.0), hex(FILES), "generated file bytes moved");
    for ((budget, want), got) in ANALYSES.iter().zip(&analyses) {
        assert_eq!(
            hex(got.0),
            hex(*want),
            "analyses moved (decode budget {budget:?})"
        );
    }
}

#[test]
fn fleet_reports_match_their_golden_digests() {
    let data = StudyData::from_synth(&reference_repo());
    let plan =
        |opts: FleetOptions, digest: u64| format!("{opts:?}: {}", hex(digest));
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (probe_max_nr, verify, digest) in FLEETS {
        let opts = FleetOptions { probe_max_nr, verify };
        let report = synthesize_fleet(&data, opts).expect("reference fleet");
        assert_eq!(report.packages as usize, PACKAGES);
        let mut d = Digest::new();
        d.fleet(&report);
        got.push(plan(opts, d.0));
        want.push(plan(opts, digest));
    }
    assert_eq!(got, want, "fleet reports moved");
}

#[test]
fn study_records_match_their_golden_digest() {
    let repo = reference_repo();
    let mut got = Vec::new();
    let mut want = Vec::new();
    for (budget, digest) in STUDIES {
        let analysis = match budget {
            None => AnalysisOptions::default(),
            Some(decode_budget) => AnalysisOptions {
                decode_budget,
                ..AnalysisOptions::default()
            },
        };
        // One whole-corpus shard, then shards of 40 packages: every shard
        // past the first links against the shared system-library base.
        for shard_size in [0, 40] {
            let opts = RunOptions {
                analysis,
                shards: Shards::Size(shard_size),
                ..RunOptions::default()
            };
            let (data, _) = stream::run(&repo, &opts, None).expect("no store, no I/O");
            assert_eq!(data.packages.len(), PACKAGES);
            // The corpus exercises out-of-catalog counts, and the tight
            // budget skipped binaries and partial footprints.
            assert!(data.packages.iter().any(|r| r.footprint.unresolved > 0));
            assert_eq!(
                data.packages.iter().any(|r| r.partial_footprint),
                budget.is_some()
            );
            let mut d = Digest::new();
            d.study(&data);
            let label = format!("budget {budget:?}, shard size {shard_size}");
            got.push(format!("{label}: {}", hex(d.0)));
            want.push(format!("{label}: {}", hex(digest)));
        }
    }
    assert_eq!(got, want, "study records moved");
}

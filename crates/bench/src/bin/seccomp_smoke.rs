//! CI smoke gate for fleet-scale seccomp synthesis.
//!
//! **Gate 1 — equivalence & depth** (150-package reference corpus):
//! synthesizes every package's filter in both layouts and requires
//!
//! - tree and linear verdicts bit-identical to the reference allow-set
//!   for **every** syscall number in `0..=4096` (the fleet verifier),
//! - every tree's executed depth within `2·⌈log₂ ranges⌉ + 8`,
//! - the widest (most fragmented) footprint's tree at least
//!   [`MIN_DEPTH_RATIO`]× shallower than its linear chain.
//!
//! **Gate 2 — batch scale & crash resume** (`--packages N`, default
//! 3000): a full batch synthesis must finish inside
//! [`MAX_BATCH_SECS`]; then the gate re-execs itself as a child whose
//! journaled run is killed mid-batch by `APISTUDY_JOURNAL_CRASH_AFTER`
//! (a `std::process::abort` after half the appends), resumes the torn
//! journal in-process, and requires the resumed report **bit-identical**
//! to the uninterrupted control with every record either replayed or
//! appended exactly once.
//!
//! Measured numbers land in BENCH_pipeline.json's `seccomp` section
//! (suppress with `--no-json`).
//!
//! **Check mode** (`--check`, used by CI): never rewrites
//! BENCH_pipeline.json; instead the batch time must stay within
//! [`CHECK_SLACK`]× the committed `seccomp_batch_synth_ms`. It refuses
//! to run unless `--packages` equals the committed
//! `seccomp_batch_packages`, so the two times measure the same batch.
//!
//! Usage: `seccomp_smoke [--packages N] [--no-json] [--check]`
//! (internal: `--child <journal>` runs the to-be-crashed batch).

use std::path::Path;
use std::process::Command;
use std::time::Instant;

use apistudy_bench::{check_against_recorded, record, recorded, Bound};
use apistudy_core::{
    synthesize_fleet, synthesize_fleet_journaled, FleetOptions, FleetReport,
    Study,
};
use apistudy_corpus::Scale;

/// The widest corpus footprint's linear max depth over its tree max
/// depth must clear this. Fragmented real footprints measure 6-8×; 4×
/// only trips when the tree degenerates.
const MIN_DEPTH_RATIO: f64 = 4.0;

/// Wall-clock budget for the batch synthesis itself (pipeline
/// measurement excluded). Only a backstop: since each filter is probed
/// over intervals of syscall numbers rather than once per number, the
/// 30,000-package batch takes about a third of a second, so this budget
/// would admit any regression. `--check` holds the batch to its
/// committed time instead.
const MAX_BATCH_SECS: f64 = 120.0;

/// A `--check` run's batch time may be at most this factor above the
/// committed `seccomp_batch_synth_ms`.
const CHECK_SLACK: f64 = 2.0;

fn reference_study() -> Study {
    Study::run(Scale { packages: 150, installations: 14_250 }, 2016)
}

fn batch_study(packages: usize) -> Study {
    let scale = Scale { packages, installations: 95 * packages as u64 };
    if packages > 1024 {
        // Shard-bounded memory; bit-identical to the in-memory path.
        Study::run_streamed(scale, 2016, 512)
    } else {
        Study::run(scale, 2016)
    }
}

/// Journal stats and replay flags differ by construction between a
/// control run and a crash-resumed run; everything else must not.
fn strip(mut r: FleetReport) -> FleetReport {
    r.journal = None;
    for u in &mut r.unique {
        u.replayed = false;
    }
    r
}

/// Child mode: run the journaled batch; the parent's
/// `APISTUDY_JOURNAL_CRASH_AFTER` aborts this process mid-append.
fn run_child(journal: &Path, packages: usize) -> ! {
    let study = batch_study(packages);
    match synthesize_fleet_journaled(
        study.data(),
        study.repo(),
        FleetOptions::default(),
        journal,
        false,
    ) {
        Ok(_) => std::process::exit(0),
        Err(e) => {
            eprintln!("child batch failed: {e}");
            std::process::exit(1)
        }
    }
}

fn equivalence_gate() -> (u32, u32, f64) {
    let study = reference_study();
    let report = synthesize_fleet(study.data(), FleetOptions::default())
        .expect("reference fleet synthesis (includes 0..=4096 bit-verify)");
    assert!(report.verified);
    for u in &report.unique {
        let bound = if u.ranges <= 1 {
            8
        } else {
            2 * (32 - (u.ranges - 1).leading_zeros()) + 8
        };
        assert!(
            u.tree_max_depth <= bound,
            "filter {:#018x}: {} ranges, depth {} over bound {bound}",
            u.allow_hash,
            u.ranges,
            u.tree_max_depth
        );
    }
    let widest = report.widest().expect("non-empty corpus");
    assert!(
        widest.linear_len.is_some(),
        "reference corpus' widest footprint must still fit the chain"
    );
    let ratio =
        f64::from(widest.linear_max_depth) / f64::from(widest.tree_max_depth);
    println!(
        "equivalence: {} packages, {} unique filters bit-verified for \
         every nr 0..=4096; widest footprint ({} ranges) tree depth {} \
         vs linear {} ({ratio:.1}x)",
        report.packages,
        report.unique.len(),
        widest.ranges,
        widest.tree_max_depth,
        widest.linear_max_depth,
    );
    assert!(
        ratio >= MIN_DEPTH_RATIO,
        "depth ratio {ratio:.1} under the {MIN_DEPTH_RATIO} gate"
    );
    (report.max_tree_depth(), report.max_linear_depth(), ratio)
}

fn crash_resume_gate(
    packages: usize,
    control: &FleetReport,
) -> apistudy_core::JournalStats {
    let dir = std::env::temp_dir()
        .join(format!("apistudy-seccomp-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let journal = dir.join("fleet.apsj");

    // Kill the child halfway through its appends: the torn journal must
    // hold a clean prefix and nothing else.
    let crash_after = (control.unique.len() / 2).max(1);
    let exe = std::env::current_exe().expect("own path");
    let status = Command::new(&exe)
        .arg("--child")
        .arg(&journal)
        .args(["--packages", &packages.to_string()])
        .env("APISTUDY_JOURNAL_CRASH_AFTER", crash_after.to_string())
        .status()
        .expect("spawn crash child");
    assert!(
        !status.success(),
        "child was supposed to abort mid-batch, exited {status}"
    );

    let study = batch_study(packages);
    let resumed = synthesize_fleet_journaled(
        study.data(),
        study.repo(),
        FleetOptions::default(),
        &journal,
        true,
    )
    .expect("resume the torn journal");
    let stats = resumed.journal.expect("journaled run reports stats");
    assert!(stats.replayed > 0, "crash left no replayable prefix");
    assert!(stats.appended > 0, "nothing left to recompute after crash");
    assert_eq!(
        stats.replayed + stats.appended,
        control.unique.len() as u64,
        "every unique filter exactly once"
    );
    assert_eq!(
        strip(resumed),
        strip(control.clone()),
        "crash-resumed report must be bit-identical to the control"
    );
    let _ = std::fs::remove_dir_all(&dir);
    stats
}

fn main() {
    let mut packages = 3000usize;
    let mut write_json = true;
    let mut check = false;
    let mut child: Option<String> = None;
    let mut args = std::env::args().skip(1);
    let parse = |v: Option<String>| -> usize {
        v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!(
                "usage: seccomp_smoke [--packages N] [--no-json] [--check]"
            );
            std::process::exit(2)
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--packages" => packages = parse(args.next()),
            "--no-json" => write_json = false,
            "--check" => {
                check = true;
                write_json = false;
            }
            "--child" => child = args.next(),
            _ => {
                parse(None);
            }
        }
    }
    if let Some(journal) = child {
        run_child(Path::new(&journal), packages);
    }
    let baseline = recorded("seccomp_batch_packages");
    if check && baseline != Some(packages as u128) {
        let committed = baseline.map_or("none".to_owned(), |n| n.to_string());
        eprintln!(
            "--check needs --packages equal to the committed \
             seccomp_batch_packages ({committed}), not {packages}"
        );
        std::process::exit(2);
    }

    let (tree_max, linear_max, ratio) = equivalence_gate();

    let study = batch_study(packages);
    let started = Instant::now();
    let control = synthesize_fleet(study.data(), FleetOptions::default())
        .expect("batch fleet synthesis");
    let elapsed = started.elapsed();
    let throughput = f64::from(control.packages) / elapsed.as_secs_f64();
    println!(
        "batch: {} packages -> {} unique filters ({:.1}x dedup) \
         synthesized + bit-verified in {:.2}s ({throughput:.0} packages/s), \
         {} tree insns deduped + {} prefix-shareable, attack surface \
         -{:.1}%",
        control.packages,
        control.unique.len(),
        control.dedup_ratio(),
        elapsed.as_secs_f64(),
        control.total_tree_insns_deduped(),
        control.prefix_shared_insns(),
        100.0 * control.weighted_attack_surface_reduction(),
    );
    assert!(
        elapsed.as_secs_f64() <= MAX_BATCH_SECS,
        "batch took {:.1}s, budget {MAX_BATCH_SECS}s",
        elapsed.as_secs_f64()
    );

    let stats = crash_resume_gate(packages, &control);
    println!(
        "crash resume: abort mid-batch -> {} replayed + {} appended, \
         bit-identical",
        stats.replayed, stats.appended
    );
    if check
        && !check_against_recorded(
            "seccomp_batch_synth_ms",
            elapsed.as_secs_f64() * 1e3,
            Bound::Ceiling,
            CHECK_SLACK,
        )
    {
        std::process::exit(1);
    }

    if write_json {
        if let Err(e) = record(&[
            ("seccomp_batch_packages", u128::from(control.packages)),
            ("seccomp_batch_unique", control.unique.len() as u128),
            ("seccomp_batch_synth_ms", elapsed.as_millis()),
            ("seccomp_batch_packages_per_s", throughput as u128),
            (
                "seccomp_dedup_ratio_x100",
                (control.dedup_ratio() * 100.0) as u128,
            ),
            (
                "seccomp_prefix_shared_insns",
                u128::from(control.prefix_shared_insns()),
            ),
            ("seccomp_tree_max_depth", u128::from(tree_max)),
            ("seccomp_linear_max_depth", u128::from(linear_max)),
            ("seccomp_depth_ratio_x100", (ratio * 100.0) as u128),
            (
                "seccomp_attack_surface_pct_x10",
                (control.weighted_attack_surface_reduction() * 1000.0)
                    as u128,
            ),
        ]) {
            eprintln!("could not update BENCH_pipeline.json: {e}");
        }
    }

    println!(
        "PASS: tree == linear == reference for all nr 0..=4096; depth \
         ratio >= {MIN_DEPTH_RATIO}; {packages}-package batch under \
         {MAX_BATCH_SECS}s; crash resume bit-identical"
    );
}

//! CI smoke gate and measurement harness for the streaming pipeline's
//! scaling curve.
//!
//! Two modes:
//!
//! - `scaling_smoke --measure N` — one sharded run (shard size 512) over
//!   an `N`-package corpus, printing a JSON line with the wall-clock time
//!   and the process peak RSS (`VmHWM`). Peak RSS is process-monotonic,
//!   so one scale per process: the driver runs this binary once per rep
//!   and takes medians across processes.
//!
//! - `scaling_smoke` (the CI gate) — first proves the sharded path
//!   bit-identical to the in-memory path at 600 packages (packages,
//!   attribution, per-syscall importance bits, weighted-completeness
//!   bits), then runs 3 000 packages sharded and fails unless it lands
//!   under both the wall-clock and the peak-RSS budget. The identity
//!   check runs first so the in-memory 600-package run's RSS is already
//!   counted in `VmHWM` — the budget covers the whole process.
//!
//! Corpus density follows one rule across every scale: 100 survey
//! installations per package, seed 2016 — so the recorded curve points
//! compose with each other.

use std::collections::HashSet;
use std::time::Instant;

use apistudy_catalog::Api;
use apistudy_core::{
    diagnostics::peak_rss_kb, stream, Metrics, RunOptions, Shards, StudyData,
};
use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

/// The production shard size (`DEFAULT_SHARD_SIZE` in `core::stream`).
const SHARD: usize = 512;
const SEED: u64 = 2016;

/// Gate corpus: large enough that a regression to whole-corpus
/// materialization shows in RSS, small enough for every CI push.
const GATE_PACKAGES: usize = 3_000;
/// Debug/CI machines are slow; the release-profile run is ~20× faster.
const WALL_BUDGET_MS: u128 = 120_000;
/// The paper-scale (30 976 package) budget, applied already at the
/// gate scale: the whole point of sharding is that RSS stops tracking
/// corpus size.
const RSS_BUDGET_KB: u64 = 1_500_000;

fn scale(packages: usize) -> Scale {
    Scale { packages, installations: packages as u64 * 100 }
}

fn run_sharded(packages: usize, shard_size: usize) -> StudyData {
    let repo =
        SynthRepo::new(scale(packages), CalibrationSpec::default(), SEED);
    sharded(&repo, shard_size)
}

fn sharded(repo: &SynthRepo, shard_size: usize) -> StudyData {
    let opts = RunOptions {
        shards: Shards::Size(shard_size),
        ..RunOptions::default()
    };
    let (data, _) = stream::run(repo, &opts, None).expect("no store, no I/O");
    data
}

/// One scaling-curve sample: run, then report the process peak.
fn measure(packages: usize) {
    let start = Instant::now();
    let data = run_sharded(packages, SHARD);
    let wall_ms = start.elapsed().as_millis();
    println!(
        "{{\"packages\": {}, \"wall_ms\": {}, \"peak_rss_kb\": {}, \
         \"analyzed_binaries\": {}}}",
        data.packages.len(),
        wall_ms,
        peak_rss_kb(),
        data.diagnostics.analyzed_binaries,
    );
}

fn assert_bit_identical(inmem: &StudyData, sharded: &StudyData) {
    assert_eq!(inmem.packages, sharded.packages, "package records diverged");
    assert_eq!(inmem.attribution, sharded.attribution, "attribution diverged");
    assert_eq!(&inmem.census, &sharded.census, "census diverged");
    assert_eq!(
        inmem.unresolved_syscall_sites, sharded.unresolved_syscall_sites,
        "unresolved totals diverged"
    );
    let mi = Metrics::new(inmem);
    let ms = Metrics::new(sharded);
    for def in inmem.catalog.syscalls.iter() {
        let api = Api::Syscall(def.number);
        assert_eq!(
            mi.importance(api).to_bits(),
            ms.importance(api).to_bits(),
            "importance bits diverged for {}",
            def.name
        );
    }
    for top in [50u32, 150, 250] {
        let supported: HashSet<u32> = (0..top).collect();
        assert_eq!(
            mi.syscall_completeness(&supported).to_bits(),
            ms.syscall_completeness(&supported).to_bits(),
            "weighted-completeness bits diverged at top-{top}"
        );
    }
}

fn check() {
    // 1. Bit-identity at 600 (shard size 256 → three shards, short tail).
    let repo =
        SynthRepo::new(scale(600), CalibrationSpec::default(), SEED);
    let inmem = StudyData::from_synth(&repo);
    let sharded = sharded(&repo, 256);
    assert_bit_identical(&inmem, &sharded);
    drop((inmem, sharded, repo));
    println!("identity: sharded == in-memory at 600 packages (bit-exact)");

    // 2. The gate corpus under budget.
    let start = Instant::now();
    let data = run_sharded(GATE_PACKAGES, SHARD);
    let wall_ms = start.elapsed().as_millis();
    let rss_kb = peak_rss_kb();
    println!(
        "gate: {} packages sharded-{SHARD} in {wall_ms} ms, \
         peak RSS {:.0} MiB",
        data.packages.len(),
        rss_kb as f64 / 1024.0
    );
    assert_eq!(data.packages.len(), GATE_PACKAGES);
    if wall_ms > WALL_BUDGET_MS {
        eprintln!(
            "FAIL: {GATE_PACKAGES} packages took {wall_ms} ms \
             (budget {WALL_BUDGET_MS} ms)"
        );
        std::process::exit(1);
    }
    // `VmHWM` reads 0 off Linux; the RSS leg of the gate is a no-op there.
    if rss_kb > RSS_BUDGET_KB {
        eprintln!(
            "FAIL: peak RSS {rss_kb} kB (budget {RSS_BUDGET_KB} kB) — \
             is the pipeline materializing more than one shard?"
        );
        std::process::exit(1);
    }
    println!(
        "PASS: streaming pipeline bit-identical at 600 and within \
         wall/RSS budget at {GATE_PACKAGES}"
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--measure") => {
            let packages = args
                .get(1)
                .and_then(|s| s.parse::<usize>().ok())
                .filter(|&n| n > 0)
                .unwrap_or_else(|| {
                    eprintln!("usage: scaling_smoke [--measure N]");
                    std::process::exit(2)
                });
            measure(packages);
        }
        None => check(),
        Some(_) => {
            eprintln!("usage: scaling_smoke [--measure N]");
            std::process::exit(2);
        }
    }
}

//! CI smoke gate for the incremental analysis cache.
//!
//! Runs the 11-point corruption sweep at 150 packages with the cache off
//! (cold) and through one shared in-memory cache (warm), plus a single
//! clean pipeline run for scale. After one sweep warms the cache, cold
//! and warm repetitions alternate, so drift on a shared machine lands on
//! both sides, and each side reports its median. Prints the medians,
//! appends them to `BENCH_pipeline.json` (keys `sweep_cold` /
//! `sweep_cached`), and exits non-zero when either gate fails:
//!
//! - **Ledger** (exact): in every warm repetition, the binary cache
//!   misses exactly the binaries the sweep skipped (a failed analysis is
//!   never cached), every other binary lookup hits, and every resolved
//!   footprint lookup hits. This is what the cache is for, and it does not
//!   depend on machine speed.
//! - **Speed-up**: the warm median is at least [`MIN_SPEEDUP`]× faster
//!   than the cold one, so a regression that quietly disables the cache
//!   fails the job instead of just slowing it.
//!
//! Usage: `cache_smoke [reps] [--no-json]` (reps defaults to 3).

use std::time::Instant;

use apistudy_analysis::AnalysisOptions;
use apistudy_bench::record;
use apistudy_core::{
    cache::{AnalysisCache, CacheMode},
    corruption_sweep,
    pipeline::StudyData,
    DegradationPoint,
};
use apistudy_corpus::{CalibrationSpec, PackageFile, Scale, SynthRepo};

/// The gate: cached sweep must beat the cold sweep by at least this
/// factor at 150 packages. The measured ratio is far higher (most of a
/// sweep point is byte-identical to the baseline); 3× leaves headroom
/// for noisy CI machines without letting a disabled cache pass.
const MIN_SPEEDUP: f64 = 3.0;

/// Same corpus as the `pipeline_150_packages` bench, so the recorded
/// numbers compose with the existing baseline.
fn repo() -> SynthRepo {
    SynthRepo::new(
        Scale { packages: 150, installations: 50_000 },
        CalibrationSpec::default(),
        5,
    )
}

/// Eleven rates, 0% → 10% in 1% steps — the CLI's `faults` grid.
fn rates() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 100.0).collect()
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_reps(reps: usize, mut f: impl FnMut()) -> u128 {
    median((0..reps).map(|_| timed(&mut f).1).collect())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos())
}

/// The warm sweep's cache traffic, checked against what a steady-state
/// cache must do: `None` when it balances, else what is off.
fn ledger_error(
    delta: (u64, u64, u64),
    points: &[DegradationPoint],
    lookups: u64,
) -> Option<String> {
    let (hits, misses, footprint_misses) = delta;
    let skipped: u64 = points.iter().map(|p| u64::from(p.skipped_binaries)).sum();
    (misses != skipped || hits + misses != lookups || footprint_misses != 0).then(|| {
        format!(
            "{hits} hits + {misses} misses over {lookups} binary lookups \
             ({skipped} skipped binaries), {footprint_misses} footprint misses"
        )
    })
}

fn main() {
    let mut reps = 3usize;
    let mut write_json = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-json" => write_json = false,
            other => {
                reps = other.parse().unwrap_or_else(|_| {
                    eprintln!("usage: cache_smoke [reps] [--no-json]");
                    std::process::exit(2)
                })
            }
        }
    }
    let repo = repo();
    let rates = rates();
    let options = AnalysisOptions::default();

    let sweep = |cache: &AnalysisCache| {
        corruption_sweep(&repo, options, 0x5EED, &rates, cache, None)
            .expect("a sweep without a journal does no I/O")
            .0
    };
    // Every run of the sweep (the clean baseline, then each rate) looks
    // every ELF file up once.
    let elf_files = (0..repo.package_count())
        .flat_map(|i| repo.package(i).files)
        .filter(|f| matches!(f, PackageFile::Elf { .. }))
        .count() as u64;
    let lookups = (rates.len() as u64 + 1) * elf_files;
    let single = time_reps(reps, || {
        std::hint::black_box(StudyData::from_synth(&repo));
    });
    // One cache across the repetitions, warmed by a first sweep: the warm
    // samples then measure the steady-state incremental sweep — the state
    // every run after the first sees in `mem` mode, and every run
    // including the first sees in `disk` mode after one prior process.
    let cache = AnalysisCache::new(CacheMode::Mem);
    std::hint::black_box(sweep(&cache));
    let (mut cold, mut cached) = (Vec::new(), Vec::new());
    let mut ledger = None;
    for _ in 0..reps {
        let off = AnalysisCache::new(CacheMode::Off);
        cold.push(timed(|| std::hint::black_box(sweep(&off))).1);
        let before = cache.stats();
        let (points, ns) = timed(|| sweep(&cache));
        cached.push(ns);
        let after = cache.stats();
        let delta = (
            after.hits - before.hits,
            after.misses - before.misses,
            after.footprint_misses - before.footprint_misses,
        );
        ledger = ledger.or(ledger_error(delta, &points, lookups));
    }
    let (cold, cached) = (median(cold), median(cached));

    let ms = |ns: u128| ns as f64 / 1e6;
    let speedup = cold as f64 / cached as f64;
    let vs_single = cached as f64 / single as f64;
    println!("pipeline_150_packages (single clean run): {:>9.1} ms", ms(single));
    println!("sweep_cold   (11 points + baseline, off): {:>9.1} ms", ms(cold));
    println!("sweep_cached (11 points + baseline, mem): {:>9.1} ms", ms(cached));
    println!("cached vs cold sweep: {speedup:.1}x");
    println!("cached sweep vs single clean run: {vs_single:.2}x");

    if write_json {
        if let Err(e) = record(&[
            ("sweep_cold", cold),
            ("sweep_cached", cached),
        ]) {
            eprintln!("could not update BENCH_pipeline.json: {e}");
        }
    }

    if let Some(error) = ledger {
        eprintln!("FAIL: the warm sweep's cache ledger is off: {error}");
        std::process::exit(1);
    }
    println!("PASS: every warm sweep missed exactly its skipped binaries");
    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: cached sweep only {speedup:.2}x faster than cold \
             (gate: {MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    println!("PASS: cached sweep >= {MIN_SPEEDUP}x faster than cold");
}

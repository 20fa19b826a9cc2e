//! CI smoke gate for the incremental analysis cache.
//!
//! Runs the 11-point corruption sweep at 150 packages twice — once with
//! the cache off (cold) and once with a shared in-memory cache (warm) —
//! plus a single clean pipeline run for scale, taking the median of
//! several repetitions of each. Prints the medians, appends them to
//! `BENCH_pipeline.json` (keys `sweep_cold` / `sweep_cached`), and exits
//! non-zero unless the cached sweep is at least [`MIN_SPEEDUP`]× faster
//! than the cold one, so a regression that quietly disables the cache
//! fails the job instead of just slowing it.
//!
//! Usage: `cache_smoke [reps] [--no-json]` (reps defaults to 3).

use std::time::Instant;

use apistudy_analysis::AnalysisOptions;
use apistudy_bench::record;
use apistudy_core::{
    cache::{AnalysisCache, CacheMode},
    corruption_sweep,
    pipeline::StudyData,
};
use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

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
    let samples = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    median(samples)
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
    };
    let single = time_reps(reps, || {
        std::hint::black_box(StudyData::from_synth(&repo));
    });
    let cold = time_reps(reps, || {
        std::hint::black_box(sweep(&AnalysisCache::new(CacheMode::Off)));
    });
    // One cache across the repetitions: the first rep warms it, the
    // median then measures the steady-state incremental sweep — the
    // state every run after the first sees in `mem` mode, and every run
    // including the first sees in `disk` mode after one prior process.
    let cache = AnalysisCache::new(CacheMode::Mem);
    let cached = time_reps(reps.max(2), || {
        std::hint::black_box(sweep(&cache));
    });

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

    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: cached sweep only {speedup:.2}x faster than cold \
             (gate: {MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    println!("PASS: cached sweep >= {MIN_SPEEDUP}x faster than cold");
}

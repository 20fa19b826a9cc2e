//! CI smoke gate for the incremental completeness engine.
//!
//! Runs the suggest sweep — the standalone completeness gain of every
//! unsupported syscall against a top-60 base — at 150 packages two ways:
//! from scratch (clone the support set and recompute weighted
//! completeness per candidate, the implementation the engine replaced)
//! and incrementally (one [`CompletenessEngine`], one `probe_gain` per
//! candidate). Takes the median of several repetitions, verifies the two
//! sweeps agree bit-for-bit, prints the medians, appends them to
//! `BENCH_pipeline.json` (keys `greedy_sweep_scratch` /
//! `greedy_sweep_incremental`), and exits non-zero unless the
//! incremental sweep is at least [`MIN_SPEEDUP`]× faster, so a
//! regression that quietly reverts to from-scratch evaluation fails the
//! job instead of just slowing it.
//!
//! Usage: `greedy_smoke [reps] [--no-json]` (reps defaults to 5).

use std::collections::HashSet;
use std::time::Instant;

use apistudy_bench::record;
use apistudy_catalog::{Api, ApiKind};
use apistudy_core::{CompletenessEngine, Metrics, StudyData};
use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

/// The gate: the incremental sweep must beat the from-scratch sweep by
/// at least this factor at 150 packages. The measured ratio is far
/// higher (most probes touch a handful of counters and short-circuit);
/// 10× leaves headroom for noisy CI machines without letting a reverted
/// engine pass.
const MIN_SPEEDUP: f64 = 10.0;

/// Same corpus as the `pipeline_150_packages` bench and `cache_smoke`,
/// so the recorded numbers compose with the existing baseline.
fn repo() -> SynthRepo {
    SynthRepo::new(
        Scale { packages: 150, installations: 50_000 },
        CalibrationSpec::default(),
        5,
    )
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
    let mut reps = 5usize;
    let mut write_json = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-json" => write_json = false,
            other => {
                reps = other.parse().unwrap_or_else(|_| {
                    eprintln!("usage: greedy_smoke [reps] [--no-json]");
                    std::process::exit(2)
                })
            }
        }
    }
    let repo = repo();
    let data = StudyData::from_synth(&repo);
    let metrics = Metrics::new(&data);

    let base: HashSet<u32> = metrics
        .importance_ranking(ApiKind::Syscall)
        .into_iter()
        .take(60)
        .filter_map(|(api, _)| match api {
            Api::Syscall(nr) => Some(nr),
            _ => None,
        })
        .collect();
    let candidates: Vec<u32> = data
        .catalog
        .syscalls
        .iter()
        .map(|d| d.number)
        .filter(|nr| !base.contains(nr))
        .collect();

    // Correctness first: the two sweeps must agree bit-for-bit before
    // their timings mean anything.
    let before = metrics.syscall_completeness(&base);
    let scratch_gains: Vec<f64> = candidates
        .iter()
        .map(|&nr| {
            let mut grown = base.clone();
            grown.insert(nr);
            metrics.syscall_completeness(&grown) - before
        })
        .collect();
    let mut engine = CompletenessEngine::for_syscalls(&metrics, &base);
    for (&nr, &scratch) in candidates.iter().zip(&scratch_gains) {
        let probed = engine.probe_gain(Api::Syscall(nr));
        if probed.to_bits() != scratch.to_bits() {
            eprintln!(
                "FAIL: gain mismatch for syscall {nr}: \
                 incremental {probed:e} vs scratch {scratch:e}"
            );
            std::process::exit(1);
        }
    }

    let scratch = time_reps(reps, || {
        let before = metrics.syscall_completeness(&base);
        let mut acc = 0.0;
        for &nr in &candidates {
            let mut grown = base.clone();
            grown.insert(nr);
            acc += metrics.syscall_completeness(&grown) - before;
        }
        std::hint::black_box(acc);
    });
    let incremental = time_reps(reps, || {
        let mut engine = CompletenessEngine::for_syscalls(&metrics, &base);
        let mut acc = 0.0;
        for &nr in &candidates {
            acc += engine.probe_gain(Api::Syscall(nr));
        }
        std::hint::black_box(acc);
    });

    let ms = |ns: u128| ns as f64 / 1e6;
    let speedup = scratch as f64 / incremental as f64;
    println!(
        "greedy_sweep_scratch     ({} candidates): {:>9.3} ms",
        candidates.len(),
        ms(scratch)
    );
    println!(
        "greedy_sweep_incremental ({} candidates): {:>9.3} ms",
        candidates.len(),
        ms(incremental)
    );
    println!("incremental vs scratch sweep: {speedup:.1}x");

    if write_json {
        if let Err(e) = record(&[
            ("greedy_sweep_scratch", scratch),
            ("greedy_sweep_incremental", incremental),
        ]) {
            eprintln!("could not update BENCH_pipeline.json: {e}");
        }
    }

    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: incremental sweep only {speedup:.2}x faster than scratch \
             (gate: {MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    println!("PASS: incremental sweep >= {MIN_SPEEDUP}x faster than scratch");
}

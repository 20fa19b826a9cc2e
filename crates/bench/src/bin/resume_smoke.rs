//! CI smoke gate for crash-safe sweep resume.
//!
//! Reconstructs the exact on-disk state a `faults --journal` run leaves
//! behind when it dies halfway through the 11-point corruption sweep at
//! 150 packages — a write-ahead journal holding the baseline support set
//! plus the first six sweep points, and a disk analysis cache warmed by
//! exactly those points — then measures three runs:
//!
//! - **cold**: the full sweep from nothing (no journal, cache off);
//! - **resume**: the same sweep resumed from the half journal + half-warm
//!   disk cache (replays 7 records, computes the 5-point tail);
//! - **full replay**: resuming a complete journal (no corpus re-measured).
//!
//! The gate fails unless resume is at least [`MIN_SPEEDUP`]× faster than
//! cold, the resumed stats are ledger-exact (7 replayed, 5 appended), and
//! every resumed point is bit-identical (f64 bit patterns included) to
//! the uninterrupted run — so a regression that silently recomputes, or
//! worse drifts, fails the job instead of just slowing it.
//!
//! Usage: `resume_smoke [reps] [--no-json]` (reps defaults to 3).

use std::path::Path;
use std::time::Instant;

use apistudy_analysis::AnalysisOptions;
use apistudy_bench::record;
use apistudy_core::{
    cache::{AnalysisCache, CacheMode},
    corruption_sweep, DegradationPoint,
};
use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

/// The gate: resuming a half-completed sweep must beat the cold sweep by
/// at least this factor. Resume skips the baseline pipeline and six of
/// eleven points outright, and the tail points warm-start from the disk
/// cache, so the measured ratio is far higher; 3× leaves headroom for
/// noisy CI machines without letting a broken resume path pass.
const MIN_SPEEDUP: f64 = 3.0;

/// Bytes before the first record: magic(4) + version(4) + kind(1) +
/// fingerprint(8) + header checksum(8). Kept in sync with
/// `core::journal`; the prepared journal is validated by actually
/// resuming it, so drift here fails loudly.
const JOURNAL_HEADER_LEN: usize = 25;

/// Same corpus as `cache_smoke` / the `pipeline_150_packages` bench, so
/// the recorded numbers compose with the existing baselines.
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

const FAULT_SEED: u64 = 0x5EED;

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

/// Truncates a copy of `full` after its first `keep` records, emulating
/// a crash between two appends (the torn-tail case is covered by the
/// journal proptests; here the cut lands exactly on a record boundary).
fn truncate_journal(full: &Path, half: &Path, keep: usize) {
    let bytes = std::fs::read(full).expect("read full journal");
    let mut at = JOURNAL_HEADER_LEN;
    for _ in 0..keep {
        let len = u32::from_le_bytes(
            bytes[at..at + 4].try_into().expect("record length"),
        ) as usize;
        at += 4 + 8 + len; // len + checksum + payload
    }
    assert!(at < bytes.len(), "journal shorter than {keep} records");
    std::fs::write(half, &bytes[..at]).expect("write half journal");
}

/// Copies the flat shard-file directory `src` over a fresh `dst`.
fn reset_dir_from(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).expect("create cache dir");
    for entry in std::fs::read_dir(src).expect("read cache snapshot") {
        let entry = entry.expect("snapshot entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name()))
            .expect("copy shard file");
    }
}

fn assert_bit_identical(resumed: &[DegradationPoint], cold: &[DegradationPoint]) {
    assert_eq!(resumed.len(), cold.len(), "point count diverged");
    for (r, c) in resumed.iter().zip(cold) {
        assert_eq!(
            r.rate.to_bits(),
            c.rate.to_bits(),
            "rate bits diverged at {}",
            c.rate
        );
        assert_eq!(
            r.completeness_top.to_bits(),
            c.completeness_top.to_bits(),
            "completeness bits diverged at rate {}",
            c.rate
        );
        assert_eq!(r, c, "point diverged at rate {}", c.rate);
    }
}

fn main() {
    let mut reps = 3usize;
    let mut write_json = true;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--no-json" => write_json = false,
            other => {
                reps = other.parse().unwrap_or_else(|_| {
                    eprintln!("usage: resume_smoke [reps] [--no-json]");
                    std::process::exit(2)
                })
            }
        }
    }
    let repo = repo();
    let rates = rates();
    let options = AnalysisOptions::default();
    let root = std::env::temp_dir()
        .join(format!("apistudy-resume-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create scratch dir");

    // --- Prepare the crash state -------------------------------------
    // A full journaled run yields the reference points and the complete
    // journal; the half journal is its first 7 records (support set +
    // 6 points), byte-identical to what an interrupted run commits.
    let full_journal = root.join("full.journal");
    let (reference, full_stats) = corruption_sweep(
        &repo,
        options,
        FAULT_SEED,
        &rates,
        &AnalysisCache::new(CacheMode::Off),
        Some((&full_journal, false)),
    )
    .expect("prepare full journal");
    assert_eq!((full_stats.replayed, full_stats.appended), (0, 12));
    let half_journal = root.join("half.journal");
    truncate_journal(&full_journal, &half_journal, 7);

    // The disk cache an interrupted run leaves behind holds exactly the
    // analyses of the baseline and the first six points — warm it with a
    // sweep over that prefix, then snapshot it so every timed rep starts
    // from the same bytes.
    let cache_snapshot = root.join("cache-snapshot");
    std::fs::create_dir_all(&cache_snapshot).expect("create snapshot dir");
    let warm =
        AnalysisCache::with_dir(CacheMode::Disk, cache_snapshot.clone());
    corruption_sweep(&repo, options, FAULT_SEED, &rates[..7], &warm, None)
        .expect("a sweep without a journal does no I/O");
    warm.persist().expect("persist warm cache");

    // --- Time the three runs -----------------------------------------
    let cold = time_reps(reps, || {
        let cache = AnalysisCache::new(CacheMode::Off);
        std::hint::black_box(
            corruption_sweep(&repo, options, FAULT_SEED, &rates, &cache, None)
                .expect("a sweep without a journal does no I/O"),
        );
    });

    let work_journal = root.join("work.journal");
    let work_cache = root.join("cache-work");
    let mut resumed_points = Vec::new();
    let mut resumed_stats = None;
    let resume = time_reps(reps, || {
        // Fresh crash state every rep: resuming appends the tail to the
        // journal and persists new analyses, so reuse would quietly turn
        // later reps into full replays.
        std::fs::copy(&half_journal, &work_journal).expect("reset journal");
        reset_dir_from(&cache_snapshot, &work_cache);
        let cache =
            AnalysisCache::with_dir(CacheMode::Disk, work_cache.clone());
        let (points, stats) = corruption_sweep(
            &repo,
            options,
            FAULT_SEED,
            &rates,
            &cache,
            Some((&work_journal, true)),
        )
        .expect("resume half journal");
        resumed_stats = Some(stats);
        resumed_points = points;
    });

    let replay = time_reps(reps, || {
        let cache = AnalysisCache::new(CacheMode::Off);
        let (points, stats) = corruption_sweep(
            &repo,
            options,
            FAULT_SEED,
            &rates,
            &cache,
            Some((&full_journal, true)),
        )
        .expect("replay full journal");
        assert_eq!((stats.replayed, stats.appended), (12, 0));
        assert_bit_identical(&points, &reference);
    });

    // --- The ledger and the bits, not just the clock ------------------
    let stats = resumed_stats.expect("resume ran");
    assert_eq!(
        (stats.replayed, stats.appended),
        (7, 5),
        "resume must replay support set + 6 points and append 5"
    );
    assert_bit_identical(&resumed_points, &reference);
    assert_eq!(
        std::fs::read(&work_journal).expect("read resumed journal"),
        std::fs::read(&full_journal).expect("read full journal"),
        "resumed journal must be byte-identical to the uninterrupted one"
    );

    let ms = |ns: u128| ns as f64 / 1e6;
    let speedup = cold as f64 / resume as f64;
    println!("sweep_resume_cold (11 points, no journal):   {:>9.1} ms", ms(cold));
    println!("sweep_resume_half (replay 7, compute 5):     {:>9.1} ms", ms(resume));
    println!("sweep_resume_replay (replay 12, compute 0):  {:>9.1} ms", ms(replay));
    println!("resume vs cold sweep: {speedup:.1}x");

    if write_json {
        if let Err(e) = record(&[
            ("sweep_resume_cold", cold),
            ("sweep_resume_half", resume),
            ("sweep_resume_replay", replay),
        ]) {
            eprintln!("could not update BENCH_pipeline.json: {e}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);

    if speedup < MIN_SPEEDUP {
        eprintln!(
            "FAIL: resumed sweep only {speedup:.2}x faster than cold \
             (gate: {MIN_SPEEDUP}x)"
        );
        std::process::exit(1);
    }
    println!(
        "PASS: resumed half-sweep bit-identical and >= {MIN_SPEEDUP}x \
         faster than cold"
    );
}

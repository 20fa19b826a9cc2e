//! CI smoke gate for crash-safe sweep resume.
//!
//! Reconstructs the exact on-disk state a `faults --journal` run leaves
//! behind when it dies halfway through the 11-point corruption sweep at
//! 150 packages — a write-ahead journal holding the baseline support set
//! plus the first six sweep points — then measures three runs:
//!
//! - **cold**: the full sweep from nothing (no journal, cache off);
//! - **resume**: the same sweep resumed from the half journal on a fresh
//!   in-memory cache, as a new `faults --resume` process has (replays 7
//!   records, computes the 5-point tail);
//! - **full replay**: resuming a complete journal (no corpus re-measured).
//!
//! Cold and resumed repetitions alternate, so drift on a shared machine
//! lands on both sides, and each side reports its median. The gate fails
//! unless every resumed repetition is ledger-exact and bit-identical, and
//! resume is at least [`MIN_SPEEDUP`]× faster than cold:
//!
//! - **Ledger** (exact): the journal replays 7 records and appends 5; the
//!   analysis cache is looked up once per ELF file in each of the 5
//!   computed runs and no more (nothing replayed is re-measured), and it
//!   misses exactly as often as an untimed resume of the same journal on
//!   a fresh cache does (the first computed point starts on an empty
//!   cache; a later one misses only the files its plan newly mutates);
//! - **Bits**: every resumed point is bit-identical (f64 bit patterns
//!   included) to the uninterrupted run, and so is the resumed journal;
//! - **Speed-up**: the median resume beats the median cold sweep.
//!
//! So a regression that silently recomputes, or worse drifts, fails the
//! job instead of just slowing it.
//!
//! Usage: `resume_smoke [reps] [--no-json]` (reps defaults to 3).

use std::path::Path;
use std::time::Instant;

use apistudy_analysis::AnalysisOptions;
use apistudy_bench::record;
use apistudy_core::{
    cache::{AnalysisCache, CacheMode, CacheStats},
    corruption_sweep, DegradationPoint, JournalStats,
};
use apistudy_corpus::{CalibrationSpec, PackageFile, Scale, SynthRepo};

/// The gate: resuming a half-completed sweep must beat the cold sweep by
/// at least this factor. Resume skips the baseline pipeline and six of
/// eleven points outright; the first tail point warms a fresh cache and
/// the other four hit it; a resume that recomputed everything would
/// read about 1× (and break the ledger). On a 2-core VM the ratio read
/// 3.1–3.8× over ten runs, so the bound has little headroom there.
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
    median((0..reps).map(|_| timed(&mut f).1).collect())
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, u128) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_nanos())
}

/// A resumed sweep's ledger, checked against what an exact resume must
/// do: `None` when it balances, else what is off. `lookups` is the
/// binary lookups of the computed tail (one per ELF file per run), and
/// `misses` the misses of an untimed resume of the same tail on a fresh
/// cache.
fn ledger_error(
    journal: &JournalStats,
    cache: &CacheStats,
    lookups: u64,
    misses: u64,
) -> Option<String> {
    let balanced = (journal.replayed, journal.appended) == (7, 5)
        && cache.hits + cache.misses == lookups
        && cache.misses == misses;
    (!balanced).then(|| {
        format!(
            "{} replayed + {} appended (want 7 + 5); {} hits + {} misses \
             over {lookups} binary lookups (want {misses} misses)",
            journal.replayed, journal.appended, cache.hits, cache.misses
        )
    })
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

    // Resumes `half_journal` from a fresh copy (resuming appends the
    // tail, so reuse would quietly turn later reps into full replays) on
    // a fresh in-memory cache, as a new `faults --resume` process does.
    let work_journal = root.join("work.journal");
    let resume_half = || {
        std::fs::copy(&half_journal, &work_journal).expect("reset journal");
        let cache = AnalysisCache::new(CacheMode::Mem);
        let (points, journal) = corruption_sweep(
            &repo,
            options,
            FAULT_SEED,
            &rates,
            &cache,
            Some((&work_journal, true)),
        )
        .expect("resume half journal");
        (points, journal, cache.stats())
    };

    // The ledger every resume must balance to, from one untimed resume:
    // the 5 computed runs look every ELF file up once each, and the
    // misses are whatever a fresh cache misses over that tail.
    let elf_files = (0..repo.package_count())
        .flat_map(|i| repo.package(i).files)
        .filter(|f| matches!(f, PackageFile::Elf { .. }))
        .count() as u64;
    let lookups = 5 * elf_files;
    let want_misses = {
        let (points, stats, cache) = resume_half();
        assert_bit_identical(&points, &reference);
        assert_eq!((stats.replayed, stats.appended), (7, 5));
        assert_eq!(cache.hits + cache.misses, lookups);
        cache.misses
    };

    // --- Time the runs: cold and resumed alternate --------------------
    let (mut cold, mut resume) = (Vec::new(), Vec::new());
    let mut ledger = None;
    for _ in 0..reps {
        let off = AnalysisCache::new(CacheMode::Off);
        let sweep = || {
            corruption_sweep(&repo, options, FAULT_SEED, &rates, &off, None)
                .expect("a sweep without a journal does no I/O")
        };
        cold.push(timed(|| std::hint::black_box(sweep())).1);
        let ((points, journal, cache), ns) = timed(resume_half);
        resume.push(ns);
        ledger =
            ledger.or(ledger_error(&journal, &cache, lookups, want_misses));
        // --- The bits, not just the clock ------------------------------
        assert_bit_identical(&points, &reference);
        assert_eq!(
            std::fs::read(&work_journal).expect("read resumed journal"),
            std::fs::read(&full_journal).expect("read full journal"),
            "resumed journal must be byte-identical to the uninterrupted one"
        );
    }
    let (cold, resume) = (median(cold), median(resume));

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

    if let Some(error) = ledger {
        eprintln!("FAIL: a resumed sweep's ledger is off: {error}");
        std::process::exit(1);
    }
    println!(
        "PASS: every resume replayed 7, appended 5 and missed exactly \
         {want_misses} of {lookups} binary lookups"
    );
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

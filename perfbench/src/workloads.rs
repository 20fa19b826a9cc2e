//! The four timed workloads (`--trace 0`).
//!
//! Each builds its inputs from the seed, times its section for the run's
//! window, checks every output outside the timed part, and returns the
//! end-to-end metrics.

use std::collections::HashSet;
use std::path::Path;
use std::time::Instant;

use apistudy_analysis::AnalysisOptions;
use apistudy_core::{
    study_sharded_stored, synthesize_fleet, FleetOptions, Metrics, ServeOptions, Server,
    Snapshot, StoreStats, Study, StudyData, DEFAULT_SHARD_SIZE,
};
use apistudy_corpus::{CalibrationSpec, SynthRepo};

use crate::check::{self, Headline, StudyDigest};
use crate::keys::ColdKeys;
use crate::load::{self, Mix};
use crate::report::{self, line, Outcome};
use crate::stats::{self, frac, median, ratio, Summary};
use crate::{scale, Ctx, Stop, PACKAGES};

/// The production shard size.
pub const SHARD: usize = DEFAULT_SHARD_SIZE;

/// Store replays per fleet pass; `setup_s` is the median over the run.
/// Taking set-ups throughout the window, not only before it, keeps a
/// burst of load from other processes from setting the median.
const REPLAYS_PER_PASS: usize = 3;

/// Set-ups per serve run; each runs the whole pipeline.
const SERVE_SETUP_REPS: usize = 3;

/// Passes a study or fleet run makes however short its window.
const MIN_PASSES: usize = 3;

/// The seeded corpus every workload uses.
pub fn corpus(seed: u64) -> SynthRepo {
    SynthRepo::new(scale(), CalibrationSpec::default(), seed)
}

/// Shards the corpus spans.
pub fn shard_count() -> u64 {
    PACKAGES.div_ceil(SHARD) as u64
}

/// Stops the run unless `ok`: the workload is no longer what it claims.
pub fn guard(ok: bool, why: impl FnOnce() -> String) -> Result<(), Stop> {
    if ok {
        Ok(())
    } else {
        Err(Stop::Guard(why()))
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

/// Packages the pipeline quarantined or skipped a binary of.
fn failed_packages(data: &StudyData) -> u64 {
    let names: HashSet<&str> =
        data.diagnostics.skipped.iter().map(|s| s.package.as_str()).collect();
    names.len() as u64
}

/// One study pass: its time, the digest of its outputs, its store traffic.
pub struct StudyPass {
    pub seconds: f64,
    pub digest: StudyDigest,
    pub stats: StoreStats,
    pub failed: u64,
}

/// Streams the corpus through `study_sharded_stored` into a fresh store at
/// `store` (one append and fsync per shard), then computes the headline
/// outputs. Only that is timed; the digest is taken afterwards.
pub fn study_pass(repo: &SynthRepo, store: &Path) -> Result<StudyPass, String> {
    let start = Instant::now();
    let (data, stats) =
        study_sharded_stored(repo, AnalysisOptions::default(), SHARD, None, store, false)
            .map_err(|e| format!("study pass: {e}"))?;
    let metrics = Metrics::new(&data);
    let headline = Headline::of(&metrics);
    let seconds = start.elapsed().as_secs_f64();
    Ok(StudyPass {
        seconds,
        digest: StudyDigest::of(&data, &metrics, &headline),
        stats,
        failed: failed_packages(&data),
    })
}

/// `study`: the streamed pipeline into a fresh store, then the paper's
/// headline metrics. Every pass sets up afresh.
pub fn study(ctx: &Ctx) -> Result<Outcome, Stop> {
    let reference = check::reference_digest(ctx.seed)?;
    let dir = ctx.work.join("study");
    let store = dir.join("footprints.apsf");
    let (mut setups, mut passes) = (Vec::new(), Vec::new());
    let (mut failed, mut identical) = (0u64, 0usize);
    let window = Instant::now();
    while passes.len() < MIN_PASSES || window.elapsed() < ctx.window {
        let start = Instant::now();
        fresh_dir(&dir)?;
        let repo = corpus(ctx.seed);
        setups.push(start.elapsed().as_secs_f64());
        let pass = study_pass(&repo, &store)?;
        guard(pass.stats.computed_shards == shard_count() && pass.stats.replayed_shards == 0, || {
            format!("a study pass must compute every shard and replay none: {:?}", pass.stats)
        })?;
        passes.push(pass.seconds * 1e6);
        if pass.digest == reference {
            identical += 1;
            failed += pass.failed;
        } else {
            let parts = pass.digest.differing(&reference).join(", ");
            eprintln!("study pass {} differs from the in-memory reference: {parts}", passes.len());
            failed += PACKAGES as u64;
        }
    }
    let peak_rss_mb = report::peak_rss_mb();
    let attempted = (passes.len() * PACKAGES) as u64;
    let pass = Summary::of(&passes).expect("MIN_PASSES is positive");
    let setup_s = median(&setups);
    let pkgs_per_s = PACKAGES as f64 / (pass.p50 / 1e6);
    line("setup_s", format!("{setup_s:.4} s"), format!("median of {} set-ups, one per pass: SynthRepo::new + store directory", setups.len()));
    line("pkgs_per_s (ops_per_s)", format!("{pkgs_per_s:.1} packages/s"), format!("{PACKAGES} packages / median pass"));
    line("pass (p50_us)", pass.describe(1e3, "ms"), "study_sharded_stored + Metrics::new + ranking + top-N completeness");
    line("failed_frac", ratio(failed, attempted), "packages quarantined or skipped, or in a pass unlike the reference");
    line("check", format!("{identical}/{} passes", passes.len()), "records, attribution, importance and completeness bits == in-memory reference");
    Ok(Outcome {
        correct: identical == passes.len(),
        attempted,
        failed,
        metrics: report::end_to_end(setup_s, pkgs_per_s, pass.p50, peak_rss_mb),
    })
}

/// `fleet`: a seccomp filter for every package of a study replayed from
/// its store. Every pass replays the store afresh.
pub fn fleet(ctx: &Ctx) -> Result<Outcome, Stop> {
    let repo = corpus(ctx.seed);
    let dir = ctx.work.join("fleet");
    fresh_dir(&dir)?;
    let store = dir.join("footprints.apsf");
    // The store every set-up replays, written before timing.
    let written = study_pass(&repo, &store)?;
    guard(written.stats.stored_shards == shard_count(), || {
        format!("the fleet's store must hold every shard: {:?}", written.stats)
    })?;
    // Writing the store ran the whole pipeline; the fleet's peak is its own.
    report::reset_peak_rss()?;
    let (mut setups, mut passes) = (Vec::new(), Vec::new());
    let (mut failed, mut first) = (0u64, None);
    let window = Instant::now();
    while passes.len() < MIN_PASSES || window.elapsed() < ctx.window {
        let mut data = None;
        for _ in 0..REPLAYS_PER_PASS {
            let start = Instant::now();
            let (replayed, stats) =
                study_sharded_stored(&repo, AnalysisOptions::default(), SHARD, None, &store, true)
                    .map_err(|e| format!("store replay: {e}"))?;
            setups.push(start.elapsed().as_secs_f64());
            guard(stats.replayed_shards == shard_count() && stats.computed_shards == 0, || {
                format!("fleet set-up must replay every shard and compute none: {stats:?}")
            })?;
            data = Some(replayed);
        }
        let data = data.expect("REPLAYS_PER_PASS is positive");
        let start = Instant::now();
        let report = synthesize_fleet(&data, FleetOptions::default());
        passes.push(start.elapsed().as_secs_f64() * 1e6);
        let replayed_ok = StudyDigest::of_data(&data) == written.digest;
        if !replayed_ok {
            eprintln!("fleet pass {}: the replayed study differs from the one that wrote the store", passes.len());
        }
        let ok = replayed_ok && match report {
            Ok(report) => {
                let ok = report.verified && first.as_ref().is_none_or(|f| *f == report);
                first.get_or_insert(report);
                ok
            }
            Err(e) => {
                eprintln!("fleet pass {}: {e}", passes.len());
                false
            }
        };
        if !ok {
            failed += PACKAGES as u64;
        }
    }
    let peak_rss_mb = report::peak_rss_mb();
    let attempted = (passes.len() * PACKAGES) as u64;
    let pass = Summary::of(&passes).expect("MIN_PASSES is positive");
    let setup_s = median(&setups);
    let pkgs_per_s = PACKAGES as f64 / (pass.p50 / 1e6);
    let unique = first.as_ref().map_or(0, |r| r.unique.len()) as u64;
    line("setup_s", format!("{setup_s:.4} s"), format!("median of {} set-ups, {REPLAYS_PER_PASS} per pass: store replay + fold", setups.len()));
    line("pkgs_per_s (ops_per_s)", format!("{pkgs_per_s:.1} packages/s"), format!("{PACKAGES} packages / median pass"));
    line("pass (p50_us)", pass.describe(1e3, "ms"), "synthesize_fleet, default FleetOptions (verify on)");
    line("packages per filter", ratio(PACKAGES as u64, unique), "packages / unique filters");
    line("failed_frac", ratio(failed, attempted), "packages of a pass with an error, a replay or report unlike the first, or an unverified report");
    line("check", format!("{}/{} passes", passes.len() as u64 - failed / PACKAGES as u64, passes.len()), "each pass: replayed study == written study; report verified and equal to the first");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: report::end_to_end(setup_s, pkgs_per_s, pass.p50, peak_rss_mb),
    })
}

/// `serve-hot` and `serve-cold`: closed-loop clients against an
/// in-process server.
pub fn serve(ctx: &Ctx, hot: bool) -> Result<Outcome, Stop> {
    // The cold keys follow the corpus's own ranking; the study that ranks
    // it is gone before the servers start.
    let cold = {
        let study = Study::run_streamed(scale(), ctx.seed, SHARD);
        ColdKeys::of(&Metrics::new(study.data()), ctx.seed)
    };
    let mut setups = Vec::with_capacity(SERVE_SETUP_REPS);
    let mut server: Option<Server> = None;
    for _ in 0..SERVE_SETUP_REPS {
        if let Some(previous) = server.take() {
            previous.shutdown();
            previous.wait();
        }
        let start = Instant::now();
        let study = Study::run_streamed(scale(), ctx.seed, SHARD);
        let started = Server::start(study, None, ServeOptions::default())
            .map_err(|e| format!("server start: {e}"))?;
        setups.push(start.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("SERVE_SETUP_REPS is positive");
    // The pipelines behind the servers have run; the peak is the daemon's.
    report::reset_peak_rss()?;
    let mix = if hot { Mix::Hot } else { Mix::Cold { keys: &cold, base: 0 } };
    let load = load::closed_loop(&server, ctx.nproc, ctx.window, mix, None);
    let peak_rss_mb = report::peak_rss_mb();
    let served = server.fingerprint();
    server.shutdown();
    let stats = server.wait();

    let (hits, misses) = load.cache();
    if hot {
        guard(frac(hits, hits + misses) >= 0.99, || {
            format!("serve-hot must answer from the cache: hits {}", ratio(hits, hits + misses))
        })?;
    } else {
        guard(hits == 0 && misses > 0, || {
            format!("serve-cold must miss the cache: hits {}", ratio(hits, hits + misses))
        })?;
        let masks: HashSet<u32> = load.served().map(|s| cold.mask(s.key)).collect();
        guard(masks.len() as u64 == load.answered(), || "a cold key repeated".to_owned())?;
    }
    guard(stats.rejected_busy == 0, || format!("{} connections rejected busy", stats.rejected_busy))?;
    guard(stats.connections as usize <= ctx.nproc, || {
        format!("{} connections on {} cores", stats.connections, ctx.nproc)
    })?;

    // Every reply, warm-up included, against the library's direct answer
    // on a snapshot sealed afresh from the same corpus, as `Server::start`
    // seals it.
    let snap = Snapshot::seal(Study::run_streamed(scale(), ctx.seed, SHARD), 0);
    guard(served == snap.fingerprint, || "the served snapshot is not the checked one".to_owned())?;
    let (bad, _) = check::verify(&snap, &load, ctx.nproc);
    for e in &load.errors {
        eprintln!("{e}");
    }
    let attempted = load.answered() + load.errors.len() as u64;
    let failed = bad + load.errors.len() as u64;
    let rtt_us = |suggest: Option<bool>| -> Vec<f64> {
        load.timed()
            .filter(|s| suggest.is_none_or(|want| ColdKeys::is_suggest(s.key) == want))
            .map(|s| s.rtt.as_secs_f64() * 1e6)
            .collect()
    };
    let all = rtt_us(None);
    let latency = Summary::of(&all).ok_or_else(|| "no request completed in the window".to_owned())?;
    // The metrics are medians over the window's slices.
    let slice_s = ctx.window.as_secs_f64() / load::SLICES as f64;
    let slices = load.slices_us();
    let qps = median(&slices.iter().map(|s| s.len() as f64 / slice_s).collect::<Vec<_>>());
    let summaries: Vec<Summary> = slices.iter().filter_map(|s| Summary::of(s)).collect();
    let p50 = median(&summaries.iter().map(|s| s.p50).collect::<Vec<_>>());
    let p99 = median(&summaries.iter().map(|s| s.p99).collect::<Vec<_>>());
    let fewest = slices.iter().map(Vec::len).min().unwrap_or(0);
    let setup_s = median(&setups);
    line("setup_s", format!("{setup_s:.4} s"), format!("median of {SERVE_SETUP_REPS} set-ups: Study::run_streamed + Server::start"));
    line("peak_rss_mb", format!("{peak_rss_mb:.1} MiB"), "VmHWM at the window's end, reset after the set-ups");
    line("qps (ops_per_s)", format!("{qps:.1} req/s"), format!("median over {} slices of {slice_s:.2} s; whole window {} requests / {:.3} s", load::SLICES, all.len(), load.wall.as_secs_f64()));
    line("p50_us", format!("{p50:.2} us"), format!("median of the {} slices' medians; at least {fewest} requests per slice", load::SLICES));
    line("p99_us", format!("{p99:.2} us"), format!("median of the slices' p99s, each with at least {} beyond it; reported, not bounded", stats::beyond(fewest.max(1), 990)));
    line("round trip", latency.describe(1.0, "us"), format!("whole window; {} clients = nproc, one connection each, closed loop", ctx.nproc));
    if !hot {
        line("cold keys", format!("stage cut-offs {:?}", cold.cuts()), "planner::stages I-IV on the run's ranking, each + a subset of the next 24");
        for (kind, suggest) in [("completeness", false), ("suggest", true)] {
            if let Some(s) = Summary::of(&rtt_us(Some(suggest))) {
                line(&format!("  {kind} round trip"), s.describe(1.0, "us"), "cold keys");
            }
        }
    }
    line("cache hits in window", ratio(hits, hits + misses), "ServeStats hits / (hits + misses)");
    line("failed_frac", ratio(failed, attempted), "transport failures + replies unlike the library's");
    line("check", format!("{}/{attempted} replies", attempted - failed), "identical to direct library calls on the same snapshot");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: report::end_to_end(setup_s, qps, p50, peak_rss_mb),
    })
}

//! `apistudy` — command-line front end to the study.
//!
//! ```text
//! apistudy [--scale test|medium|paper|N] [--seed N] [--cache off|mem]
//!          [--threads N] [--shard N] [--store <path> [--resume]]
//!          [--deadline-ms N] <command> [args]
//!
//! commands:
//!   importance <api>...      weighted + unweighted importance of syscalls
//!   dependents <api>         most-installed packages needing a syscall
//!   suggest <file> [--greedy] [--journal <path> [--resume]]
//!                            next syscalls for a prototype (one name or
//!                            number per line in <file>); with --greedy,
//!                            picks are in marginal-gain order — each line
//!                            is the best *next* addition given every line
//!                            above it, found by the lazy-greedy planner;
//!                            --journal write-ahead logs each pick so an
//!                            interrupted plan resumes bit-identically
//!   completeness <file>      weighted completeness of a syscall list
//!   workloads <api>...       packages exercising all the given syscalls
//!   seccomp <package>        seccomp allow-list + BPF filter for a package
//!                            (binary-search tree layout, with the legacy
//!                            linear chain's size/depth for comparison)
//!   seccomp --all [--journal <path> [--resume]] [--top N]
//!                            synthesize + bit-verify filters for every
//!                            package: content-hash dedup, shared-prefix
//!                            accounting, tree-vs-linear eval depth, and
//!                            popularity-weighted attack-surface reduction;
//!                            --journal write-ahead logs each unique
//!                            filter's measurements so an interrupted batch
//!                            resumes bit-identically
//!   export <path>            write the measured dataset as CSV
//!   summary                  headline numbers (Figures 2/3/7)
//!   faults [fault-seed] [--journal <path> [--resume]]
//!                            corruption-degradation sweep (0% → 10%,
//!                            11 points, incremental via the analysis
//!                            cache; footer reports hit/miss traffic);
//!                            --journal commits each completed point to a
//!                            crash-safe log, --resume replays a prior
//!                            log (fingerprint-checked) and computes only
//!                            the missing tail
//!   serve [--port N] [--max-conns N] [--request-deadline-ms N]
//!         [--idle-deadline-ms N]
//!                            run the hardened query daemon: seal the
//!                            measured study into an immutable snapshot
//!                            and answer queries over the checksummed
//!                            frame protocol (prints `serving on ADDR`
//!                            on stdout when ready)
//!   query <addr> <op>        talk to a running daemon:
//!                              ping
//!                              importance <api>...
//!                              completeness <file>
//!                              suggest <file> [limit]
//!                              probe <file> <api>...
//!                              reload
//!                              shutdown
//!                            (no local analysis: only the daemon works)
//! ```
//!
//! `--scale` also accepts a bare package count `N` (installations scale
//! along at 95·N), so experiments can dial corpus size precisely.
//!
//! `--cache` (default: the `APISTUDY_CACHE` environment variable, then
//! `mem`) selects the incremental analysis cache mode: `off` re-analyzes
//! everything, `mem` shares results within the process. Across processes,
//! `faults --journal … --resume` replays the finished sweep points instead.
//!
//! `--threads N` sets the pipeline worker count. Precedence: the flag
//! wins over the `APISTUDY_THREADS` environment variable, which wins
//! over the automatic default (available parallelism capped at 16).
//!
//! `--shard N` selects the streaming pipeline with N packages per shard
//! (0 forces the in-memory path). Without the flag, corpora over 1024
//! packages stream automatically at 512 packages per shard — only one
//! shard of binaries is ever materialized, so `--scale paper` runs in
//! shard-bounded memory. Results are bit-identical either way.
//!
//! `--store <path>` persists each completed clean shard to an on-disk
//! footprint store; a pre-command `--resume` replays shards already in a
//! fingerprint-matching store instead of recomputing them (the
//! post-command `--resume` of `suggest`/`faults` keeps its journal
//! meaning).
//!
//! `--deadline-ms N` (or the `APISTUDY_ITEM_DEADLINE_MS` environment
//! variable; the flag wins) arms a wall-clock watchdog in the pipeline:
//! any single package whose analysis exceeds the deadline is quarantined
//! (stage `deadline`) instead of stalling the run; the `faults` footer
//! counts such skips. `serve` arms a 30 000 ms default when neither the
//! flag nor the variable is set, so re-analysis triggered by `Reload`
//! can never wedge the daemon on one pathological package.

use std::collections::HashSet;
use std::path::Path;
use std::process::exit;

use apistudy::catalog::ApiKind;
use apistudy::core::{
    dataset::Dataset,
    footprints,
    planner::CompletenessCurve,
    seccomp_bpf::{
        coalesce, depth_profile, linear_profile, seccomp_filter,
        AUDIT_ARCH_X86_64,
    },
    serve::Rebuild,
    CacheMode, RunOptions, Shards, Study,
};
use apistudy::corpus::{CalibrationSpec, Scale, SynthRepo};

fn usage() -> ! {
    eprintln!(
        "usage: apistudy [--scale test|medium|paper|N] [--seed N]\n\
         \x20              [--cache off|mem] [--threads N]\n\
         \x20              [--shard N] [--store <path> [--resume]]\n\
         \x20              [--deadline-ms N] <command>\n\
         \x20  --threads:     worker count (flag > APISTUDY_THREADS env > auto)\n\
         \x20  --shard:       stream in N-package shards (0 = in-memory;\n\
         \x20                 default: auto-stream above 1024 packages)\n\
         \x20  --store:       persist clean shards; --resume replays them\n\
         \x20  --deadline-ms: per-package watchdog (flag >\n\
         \x20                 APISTUDY_ITEM_DEADLINE_MS env; serve defaults\n\
         \x20                 to 30000)\n\
         commands: importance <api>... | dependents <api>\n\
         \x20         | suggest <file> [--greedy] [--journal <path> [--resume]]\n\
         \x20         | completeness <file> | workloads <api>...\n\
         \x20         | seccomp <pkg> | export <path> | summary\n\
         \x20         | seccomp --all [--journal <path> [--resume]] [--top N]\n\
         \x20         | faults [fault-seed] [--journal <path> [--resume]]\n\
         \x20         | serve [--port N] [--max-conns N] [--workers N]\n\
         \x20                 [--request-deadline-ms N] [--idle-deadline-ms N]\n\
         \x20                 [--no-cache] [--self-audit] [--sys-faults SPEC]\n\
         \x20         | query <addr> ping|importance|completeness|suggest\n\
         \x20                        |probe|reload|shutdown ..."
    );
    exit(2)
}

/// Remove a boolean flag from the tail arguments, reporting presence.
fn take_flag(rest: &mut Vec<String>, name: &str) -> bool {
    match rest.iter().position(|a| a == name) {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    }
}

/// Remove a `--flag value` pair from the tail arguments.
fn take_opt(rest: &mut Vec<String>, name: &str) -> Option<String> {
    let i = rest.iter().position(|a| a == name)?;
    if i + 1 >= rest.len() {
        usage()
    }
    let value = rest.remove(i + 1);
    rest.remove(i);
    Some(value)
}

fn read_syscall_list(study: &Study, path: &str) -> HashSet<u32> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(1)
    });
    let mut out = HashSet::new();
    for token in text.split_whitespace() {
        let nr = token
            .parse::<u32>()
            .ok()
            .or_else(|| study.data().catalog.syscalls.number_of(token));
        match nr {
            Some(nr) => {
                out.insert(nr);
            }
            None => {
                eprintln!("unknown syscall {token:?}");
                exit(1)
            }
        }
    }
    out
}

/// Corpora above this size stream by default; smaller ones run in-memory
/// (identical results, less shard bookkeeping).
const AUTO_STREAM_THRESHOLD: usize = 1024;

fn main() {
    let mut scale = Scale::test();
    let mut seed = 2016u64;
    let mut cache_mode = CacheMode::from_env();
    let mut threads: Option<usize> = None;
    let mut shard: Option<usize> = None;
    let mut store_path: Option<String> = None;
    let mut store_resume = false;
    let mut deadline_ms: Option<u64> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("test") => Scale::test(),
                    Some("medium") => Scale::medium(),
                    Some("paper") => Scale::paper(),
                    Some(n) => match n.parse::<usize>() {
                        Ok(p) if p > 0 => Scale {
                            packages: p,
                            installations: p as u64 * 95,
                        },
                        _ => usage(),
                    },
                    None => usage(),
                }
            }
            "--seed" => {
                seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--cache" => {
                cache_mode = args
                    .next()
                    .as_deref()
                    .and_then(CacheMode::parse)
                    .unwrap_or_else(|| usage())
            }
            "--threads" => {
                threads = match args.next().and_then(|s| s.parse::<usize>().ok())
                {
                    Some(t) if t > 0 => Some(t),
                    _ => usage(),
                }
            }
            "--shard" => {
                shard = args
                    .next()
                    .and_then(|s| s.parse::<usize>().ok())
                    .map(Some)
                    .unwrap_or_else(|| usage())
            }
            "--store" => {
                store_path = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--resume" => store_resume = true,
            "--deadline-ms" => {
                deadline_ms =
                    match args.next().and_then(|s| s.parse::<u64>().ok()) {
                        Some(ms) if ms > 0 => Some(ms),
                        _ => usage(),
                    }
            }
            "--help" | "-h" => usage(),
            other => {
                rest.push(other.to_owned());
                rest.extend(args.by_ref());
            }
        }
    }
    if rest.is_empty() || (store_resume && store_path.is_none()) {
        usage();
    }
    let command = rest.remove(0);

    // `query` talks to a running daemon and never touches the pipeline;
    // handle it before any measurement work.
    if command == "query" {
        run_query(rest);
    }

    // The flag beats the environment, which beats the automatic default
    // (the pipeline's worker pool reads the variable).
    if let Some(t) = threads {
        std::env::set_var("APISTUDY_THREADS", t.to_string());
    }
    // Watchdog precedence: flag > env > (serve only) a 30 s default, so
    // daemon re-analysis can never wedge on one pathological package.
    if let Some(ms) = deadline_ms {
        std::env::set_var("APISTUDY_ITEM_DEADLINE_MS", ms.to_string());
    } else if command == "serve"
        && std::env::var_os("APISTUDY_ITEM_DEADLINE_MS").is_none()
    {
        std::env::set_var("APISTUDY_ITEM_DEADLINE_MS", "30000");
    }

    let shard_size = shard.unwrap_or(if store_path.is_some()
        || scale.packages > AUTO_STREAM_THRESHOLD
    {
        apistudy::core::DEFAULT_SHARD_SIZE
    } else {
        0
    });
    eprintln!(
        "measuring {} packages ({} installations, seed {seed}, {})...",
        scale.packages,
        scale.installations,
        if shard_size > 0 {
            format!("streaming in shards of {shard_size}")
        } else {
            "in-memory".to_owned()
        },
    );
    // Boot and a daemon `Reload` build the study the same way; a reload
    // resumes the store, so an unchanged corpus replays at file-read cost.
    let store_at = store_path.clone();
    let build = move |resume: bool| {
        let repo = SynthRepo::new(scale, CalibrationSpec::default(), seed);
        let opts = RunOptions {
            shards: Shards::Size(shard_size),
            ..RunOptions::default()
        };
        let store = store_at.as_deref().map(|p| (Path::new(p), resume));
        Study::run_on(repo, &opts, store)
    };
    let study = match build(store_resume) {
        Ok((study, st)) => {
            if let Some(path) = &store_path {
                eprintln!(
                    "store [{path}]: {} shards replayed ({} packages), \
                     {} computed, {} stored",
                    st.replayed_shards,
                    st.replayed_packages,
                    st.computed_shards,
                    st.stored_shards,
                );
            }
            study
        }
        Err(e) => {
            eprintln!("store error: {e}");
            exit(1)
        }
    };
    let peak_kb = study.data().diagnostics.peak_rss_kb;
    if peak_kb > 0 {
        eprintln!("peak RSS: {:.1} MiB", peak_kb as f64 / 1024.0);
    }

    // `serve` consumes the study whole (it becomes the daemon's sealed
    // snapshot), so it branches off before a Metrics view is borrowed.
    if command == "serve" {
        let rebuild: Box<Rebuild> = Box::new(move || {
            build(true).map(|(study, _)| study).map_err(|e| e.to_string())
        });
        run_serve(study, rest, rebuild);
    }
    let metrics = study.metrics();

    match command.as_str() {
        "importance" => {
            if rest.is_empty() {
                usage();
            }
            println!("{:<20} {:>10} {:>12}", "syscall", "importance", "unweighted");
            for name in &rest {
                match study.syscall(name) {
                    Some(api) => println!(
                        "{:<20} {:>9.2}% {:>11.2}%",
                        name,
                        100.0 * metrics.importance(api),
                        100.0 * metrics.unweighted_importance(api),
                    ),
                    None => println!("{name:<20} (unknown syscall)"),
                }
            }
        }
        "dependents" => {
            let Some(name) = rest.first() else { usage() };
            let Some(api) = study.syscall(name) else {
                eprintln!("unknown syscall {name:?}");
                exit(1)
            };
            for p in metrics.dependents(api).iter().take(15) {
                println!("{:<28} installed on {:>6.2}%", p.name, 100.0 * p.prob);
            }
        }
        "suggest" => {
            let greedy = take_flag(&mut rest, "--greedy");
            let journal = take_opt(&mut rest, "--journal");
            let resume = take_flag(&mut rest, "--resume");
            if (journal.is_some() && !greedy) || (resume && journal.is_none()) {
                usage()
            }
            let Some(path) = rest.first() else { usage() };
            let supported = read_syscall_list(&study, path);
            let completeness = metrics.syscall_completeness(&supported);
            println!(
                "supported: {} syscalls, weighted completeness {:.2}%",
                supported.len(),
                100.0 * completeness,
            );
            if greedy {
                // Each pick is the best *next* addition given all picks
                // above it; the gains therefore stack.
                println!("\ngreedy plan (each gain assumes the lines above):");
                let picks = match &journal {
                    Some(jpath) => {
                        use apistudy::analysis::AnalysisOptions;
                        use apistudy::core::{
                            corpus_fingerprint, greedy_suggestions_journaled,
                        };
                        let out = greedy_suggestions_journaled(
                            &metrics,
                            &supported,
                            10,
                            corpus_fingerprint(study.repo()),
                            AnalysisOptions::default().fingerprint(),
                            std::path::Path::new(jpath),
                            resume,
                        );
                        match out {
                            Ok((picks, jstats)) => {
                                eprintln!(
                                    "journal [{jpath}]: {} replayed, \
                                     {} appended",
                                    jstats.replayed, jstats.appended,
                                );
                                picks
                            }
                            Err(e) => {
                                eprintln!("journal error: {e}");
                                exit(1)
                            }
                        }
                    }
                    None => apistudy::core::greedy_suggestions(
                        &metrics, &supported, 10,
                    ),
                };
                let mut acc = completeness;
                for (nr, gain) in picks {
                    // A resumed journal could in principle carry a number
                    // outside this catalog; degrade the label, never panic.
                    let name = syscall_label(study.data(), nr);
                    acc += gain;
                    println!(
                        "  {name:<20} completeness +{:.2}% (cumulative {:.2}%)",
                        100.0 * gain,
                        100.0 * acc,
                    );
                }
            } else {
                // Standalone gains, importance-ordered. The incremental
                // engine probes each candidate in place of the old
                // clone-the-set-and-recompute evaluation.
                println!("\nmost valuable additions:");
                let mut engine = apistudy::core::CompletenessEngine::for_syscalls(
                    &metrics, &supported,
                );
                let ranking = metrics.importance_ranking(ApiKind::Syscall);
                let mut shown = 0;
                for (api, imp) in ranking {
                    let apistudy::catalog::Api::Syscall(nr) = api else {
                        continue;
                    };
                    if supported.contains(&nr) {
                        continue;
                    }
                    let name = syscall_label(study.data(), nr);
                    let gain = engine.probe_gain(api);
                    println!(
                        "  {name:<20} importance {:>6.2}%  completeness +{:.2}%",
                        100.0 * imp,
                        100.0 * gain,
                    );
                    shown += 1;
                    if shown >= 10 {
                        break;
                    }
                }
            }
        }
        "completeness" => {
            let Some(path) = rest.first() else { usage() };
            let supported = read_syscall_list(&study, path);
            println!(
                "{:.4}",
                metrics.weighted_completeness_masked(
                    &metrics.syscall_unsupported_mask(&supported)
                ),
            );
        }
        "workloads" => {
            if rest.is_empty() {
                usage();
            }
            let apis: Vec<apistudy::catalog::Api> = rest
                .iter()
                .map(|name| {
                    study.syscall(name).unwrap_or_else(|| {
                        eprintln!("unknown syscall {name:?}");
                        exit(1)
                    })
                })
                .collect();
            use apistudy::core::workloads::{exercised_mass, workloads_for, Match};
            let hits = workloads_for(&metrics, &apis, Match::All);
            println!(
                "packages exercising all of [{}] ({:.1}% of installed mass):",
                rest.join(", "),
                100.0 * exercised_mass(&metrics, &apis, Match::All),
            );
            for p in hits.iter().take(15) {
                println!("  {:<28} installed on {:>6.2}%", p.name, 100.0 * p.prob);
            }
        }
        "seccomp" => {
            use apistudy::core::seccomp_fleet::{
                fleet_table, synthesize_fleet, synthesize_fleet_journaled,
                FleetOptions,
            };
            if take_flag(&mut rest, "--all") {
                let journal = take_opt(&mut rest, "--journal");
                let resume = take_flag(&mut rest, "--resume");
                if resume && journal.is_none() {
                    usage()
                }
                let top = take_opt(&mut rest, "--top")
                    .map(|s| s.parse().unwrap_or_else(|_| usage()))
                    .unwrap_or(15);
                let opts = FleetOptions::default();
                eprintln!(
                    "synthesizing seccomp filters for {} packages...",
                    study.data().packages.len(),
                );
                let started = std::time::Instant::now();
                let report = match &journal {
                    Some(jpath) => synthesize_fleet_journaled(
                        study.data(),
                        study.repo(),
                        opts,
                        std::path::Path::new(jpath),
                        resume,
                    ),
                    None => synthesize_fleet(study.data(), opts),
                }
                .unwrap_or_else(|e| {
                    eprintln!("fleet synthesis failed: {e}");
                    exit(1)
                });
                let elapsed = started.elapsed();
                print!("{}", fleet_table(&report, top).render());
                println!(
                    "fleet: {} packages -> {} unique filters \
                     ({:.1}x dedup), {} tree insns deduped (naive {}), \
                     {} more shareable as prefixes",
                    report.packages,
                    report.unique.len(),
                    report.dedup_ratio(),
                    report.total_tree_insns_deduped(),
                    report.total_tree_insns_naive(),
                    report.prefix_shared_insns(),
                );
                println!(
                    "eval depth: tree max {} vs linear max {} \
                     ({} allow-sets overflow the linear chain)",
                    report.max_tree_depth(),
                    report.max_linear_depth(),
                    report.linear_failures(),
                );
                println!(
                    "attack surface: {:.1} of {} syscalls reachable by the \
                     weighted-average installation ({:.1}% reduction)",
                    report.weighted_allow_syscalls(),
                    report.catalog_syscalls,
                    100.0 * report.weighted_attack_surface_reduction(),
                );
                eprintln!(
                    "synthesized{} in {:.2}s ({:.0} packages/s)",
                    if report.verified { " + bit-verified" } else { "" },
                    elapsed.as_secs_f64(),
                    f64::from(report.packages) / elapsed.as_secs_f64().max(1e-9),
                );
                if let Some(stats) = report.journal {
                    eprintln!(
                        "journal: {} replayed, {} appended",
                        stats.replayed, stats.appended,
                    );
                }
            } else {
                let Some(pkg) = rest.first() else { usage() };
                let Some(profile) =
                    footprints::seccomp_profile(study.data(), pkg)
                else {
                    eprintln!("unknown package {pkg:?}");
                    exit(1)
                };
                println!("# {} allowed syscalls", profile.len());
                for name in &profile {
                    println!("allow {name}");
                }
                let filter = match seccomp_filter(study.data(), pkg) {
                    Ok(f) => f,
                    Err(e) => {
                        eprintln!("cannot build BPF filter for {pkg:?}: {e}");
                        exit(1)
                    }
                };
                let dp = depth_profile(&filter, 4096)
                    .expect("generated filter is well-formed");
                eprintln!(
                    "BPF filter: {} instructions ({} bytes), arch pin \
                     {AUDIT_ARCH_X86_64:#x}, eval depth max {} avg {:.1}",
                    filter.len(),
                    filter.to_bytes().len(),
                    dp.max,
                    dp.avg(),
                );
                let numbers: Vec<u32> = study
                    .data()
                    .package(pkg)
                    .map(|p| p.footprint.syscalls().collect())
                    .unwrap_or_default();
                match linear_profile(&coalesce(&numbers), 4096) {
                    Ok(chain) => eprintln!(
                        "legacy linear chain: {} instructions, eval depth \
                         max {} avg {:.1}",
                        chain.len,
                        chain.profile.max,
                        chain.profile.avg(),
                    ),
                    Err(e) => eprintln!("legacy linear chain: {e}"),
                }
            }
        }
        "export" => {
            let Some(path) = rest.first() else { usage() };
            let ds = Dataset::from_study(study.data());
            let text = ds.to_csv();
            std::fs::write(path, &text).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                exit(1)
            });
            eprintln!("wrote {} rows ({} bytes) to {path}", ds.rows.len(), text.len());
        }
        "faults" => {
            use apistudy::analysis::AnalysisOptions;
            use apistudy::core::{
                corruption_sweep, degradation_table, AnalysisCache,
            };
            let journal = take_opt(&mut rest, "--journal");
            let resume = take_flag(&mut rest, "--resume");
            if resume && journal.is_none() {
                usage()
            }
            let fault_seed = rest
                .first()
                .map(|s| s.parse().unwrap_or_else(|_| usage()))
                .unwrap_or(0x5EED);
            // 11 points, 0% → 10% in 1% steps: the cache makes the fine
            // grid affordable (only mutated binaries re-analyze per point).
            let rates: Vec<f64> = (0..=10).map(|i| i as f64 / 100.0).collect();
            eprintln!(
                "sweeping injected corruption (fault seed {fault_seed:#x}, \
                 cache {cache_mode})..."
            );
            let cache = AnalysisCache::new(cache_mode);
            let (points, jstats) = corruption_sweep(
                study.repo(),
                AnalysisOptions::default(),
                fault_seed,
                &rates,
                &cache,
                journal.as_deref().map(|p| (Path::new(p), resume)),
            )
            .unwrap_or_else(|e| {
                eprintln!("journal error: {e}");
                exit(1)
            });
            println!("{}", degradation_table(&points).render());
            let deadline_skips: u64 =
                points.iter().map(|p| p.deadline_skipped as u64).sum();
            eprintln!(
                "journal [{}]: {} replayed, {} appended; deadline skips: \
                 {deadline_skips}",
                journal.as_deref().unwrap_or("off"),
                jstats.replayed,
                jstats.appended,
            );
            let stats = cache.stats();
            eprintln!(
                "analysis cache [{}]: {} hits, {} misses, {} evictions, \
                 {} resident",
                cache.mode(),
                stats.hits,
                stats.misses,
                stats.evictions,
                stats.entries,
            );
            eprintln!(
                "footprint cache [{}]: {} hits, {} misses, {} resident",
                cache.mode(),
                stats.footprint_hits,
                stats.footprint_misses,
                stats.footprint_entries,
            );
            let sweep_peak = apistudy::core::diagnostics::peak_rss_kb();
            if sweep_peak > 0 {
                eprintln!(
                    "peak RSS: {:.1} MiB",
                    sweep_peak as f64 / 1024.0
                );
            }
        }
        "serve" | "query" => unreachable!("handled before the match"),
        "summary" => {
            let ranking = metrics.importance_ranking(ApiKind::Syscall);
            let indispensable =
                ranking.iter().filter(|&&(_, v)| v >= 0.9995).count();
            let unused = ranking.iter().filter(|&&(_, v)| v == 0.0).count();
            let curve = CompletenessCurve::compute(&metrics);
            let stats = footprints::uniqueness(study.data());
            println!("packages measured:        {}", study.data().packages.len());
            println!("indispensable syscalls:   {indispensable}");
            println!("unused syscalls:          {unused}");
            println!("syscalls for 50% support: {}", curve.calls_needed(0.5));
            println!("syscalls for 90% support: {}", curve.calls_needed(0.9));
            println!(
                "distinct footprints:      {} ({} unique)",
                stats.distinct, stats.unique
            );
        }
        _ => usage(),
    }
}

/// Display name for a syscall number. Journal-replayed or daemon-computed
/// picks could in principle carry a number outside this catalog; that
/// degrades to a placeholder label, never a panic.
fn syscall_label(data: &apistudy::core::StudyData, nr: u32) -> String {
    data.catalog
        .syscalls
        .by_number(nr)
        .map(|d| d.name.to_string())
        .unwrap_or_else(|| format!("syscall#{nr}"))
}

/// `apistudy serve`: seal the measured study into the daemon's snapshot
/// and answer queries until drained (via a `shutdown` query or a signal).
fn run_serve(study: Study, mut rest: Vec<String>, rebuild: Box<Rebuild>) -> ! {
    use apistudy::core::{Server, ServeOptions};
    use std::time::Duration;

    fn parsed<T: std::str::FromStr>(v: Option<String>, fallback: T) -> T {
        match v {
            Some(s) => s.parse().unwrap_or_else(|_| usage()),
            None => fallback,
        }
    }
    let defaults = ServeOptions::default();
    let self_audit = take_flag(&mut rest, "--self-audit");
    let opts = ServeOptions {
        port: parsed(take_opt(&mut rest, "--port"), 0u16),
        max_conns: parsed(
            take_opt(&mut rest, "--max-conns"),
            defaults.max_conns,
        ),
        request_deadline: Duration::from_millis(parsed(
            take_opt(&mut rest, "--request-deadline-ms"),
            defaults.request_deadline.as_millis() as u64,
        )),
        idle_deadline: Duration::from_millis(parsed(
            take_opt(&mut rest, "--idle-deadline-ms"),
            defaults.idle_deadline.as_millis() as u64,
        )),
        workers: parsed(take_opt(&mut rest, "--workers"), 0usize),
        cache: !take_flag(&mut rest, "--no-cache"),
    };
    // Deterministic syscall-fault injection (chaos harnesses): the flag
    // wins over the APISTUDY_SYS_FAULTS environment variable, matching
    // the precedence of every other knob. Disarmed, the shim is a
    // single atomic load per syscall.
    let fault_spec = take_opt(&mut rest, "--sys-faults")
        .or_else(|| std::env::var("APISTUDY_SYS_FAULTS").ok())
        .filter(|s| !s.trim().is_empty());
    if !rest.is_empty() || opts.max_conns == 0 {
        usage();
    }
    if let Some(spec) = &fault_spec {
        match apistudy::core::SysFaultPlan::parse(spec) {
            Ok(plan) => {
                apistudy::core::sysfault::install(plan);
                eprintln!("sys-faults armed: {spec}");
            }
            Err(why) => {
                eprintln!("bad --sys-faults spec: {why}");
                exit(2)
            }
        }
    }
    let packages = study.data().packages.len();
    let server = match Server::start(study, Some(rebuild), opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start server: {e}");
            exit(1)
        }
    };
    if self_audit {
        // The paper's methodology applied to ourselves: which catalog
        // syscalls the daemon's own serving path exercises, and how
        // important the served corpus says each one is.
        println!("self-audit: serving-path syscalls vs the served catalog");
        println!("  {:<14} {:>5}  {:>10}", "syscall", "nr", "importance");
        for entry in server.self_audit() {
            let nr = entry
                .nr
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into());
            let importance = entry
                .importance_bits
                .map(|bits| format!("{:.6}", f64::from_bits(bits)))
                .unwrap_or_else(|| "-".into());
            println!("  {:<14} {nr:>5}  {importance:>10}", entry.name);
        }
    }
    // Machine-parseable readiness line (tests and scripts wait for it).
    println!(
        "serving on {} (fingerprint {:#018x}, {packages} packages)",
        server.addr(),
        server.fingerprint(),
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let stats = server.wait();
    eprintln!(
        "drained: {} connections, {} requests served, {} busy-rejected, \
         {} malformed, {} deadline-closed, {} reloads; \
         cache {} hits / {} misses; batch {} frames / {} sub-requests; \
         {} io-errors, {} accept-pauses",
        stats.connections,
        stats.served,
        stats.rejected_busy,
        stats.malformed,
        stats.deadline_closed,
        stats.reloads,
        stats.cache_hits,
        stats.cache_misses,
        stats.batch_frames,
        stats.batch_requests,
        stats.io_errors,
        stats.accept_pauses,
    );
    if fault_spec.is_some() {
        let injected = apistudy::core::sysfault::clear();
        eprintln!("sys-faults injected: {}", injected.len());
    }
    exit(0)
}

/// `apistudy query`: the daemon client. Resolves syscall names against
/// the local catalog, never runs the pipeline.
fn run_query(mut rest: Vec<String>) -> ! {
    use apistudy::catalog::Catalog;
    use apistudy::core::{
        Client, ClientError, Request, Response, RetryPolicy,
    };
    use std::time::Duration;

    if rest.len() < 2 {
        usage();
    }
    let addr: std::net::SocketAddr =
        rest.remove(0).parse().unwrap_or_else(|_| usage());
    let op = rest.remove(0);
    let catalog = Catalog::linux_3_19();

    let resolve = |token: &str| -> u32 {
        token
            .parse::<u32>()
            .ok()
            .or_else(|| catalog.syscalls.number_of(token))
            .unwrap_or_else(|| {
                eprintln!("unknown syscall {token:?}");
                exit(1)
            })
    };
    let list_from_file = |path: &str| -> Vec<u32> {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1)
        });
        text.split_whitespace().map(resolve).collect()
    };
    let fail = |e: ClientError| -> ! {
        eprintln!("query failed: {e}");
        exit(1)
    };
    // Server-side classified errors exit nonzero with the code's label.
    let ok = |resp: Result<Response, ClientError>| -> Response {
        match resp {
            Ok(Response::Err { code, msg }) => {
                eprintln!("daemon refused [{}]: {msg}", code.label());
                exit(1)
            }
            Ok(resp) => resp,
            Err(e) => fail(e),
        }
    };
    let mut client =
        Client::connect(addr, RetryPolicy::default(), Duration::from_secs(10))
            .unwrap_or_else(|e| fail(e));

    match op.as_str() {
        "ping" => {
            let Response::Pong { fingerprint, generation, packages } =
                ok(client.call_retrying(&Request::Ping))
            else {
                eprintln!("unexpected reply to ping");
                exit(1)
            };
            println!(
                "pong: fingerprint {fingerprint:#018x}, generation \
                 {generation}, {packages} packages"
            );
        }
        "importance" => {
            if rest.is_empty() {
                usage();
            }
            println!(
                "{:<20} {:>10} {:>12}",
                "syscall", "importance", "unweighted"
            );
            for token in &rest {
                let nr = resolve(token);
                let Response::Importance { importance_bits, unweighted_bits } =
                    ok(client.call_retrying(&Request::Importance { nr }))
                else {
                    eprintln!("unexpected reply to importance");
                    exit(1)
                };
                println!(
                    "{token:<20} {:>9.2}% {:>11.2}%",
                    100.0 * f64::from_bits(importance_bits),
                    100.0 * f64::from_bits(unweighted_bits),
                );
            }
        }
        "completeness" => {
            let Some(path) = rest.first() else { usage() };
            let supported = list_from_file(path);
            let Response::Completeness { bits } =
                ok(client.call_retrying(&Request::Completeness { supported }))
            else {
                eprintln!("unexpected reply to completeness");
                exit(1)
            };
            println!("{:.4}", f64::from_bits(bits));
        }
        "suggest" => {
            let Some(path) = rest.first() else { usage() };
            let supported = list_from_file(path);
            let limit = rest
                .get(1)
                .map(|s| s.parse::<u32>().unwrap_or_else(|_| usage()))
                .unwrap_or(10);
            let Response::Suggest { picks } = ok(client.call_retrying(
                &Request::Suggest { supported, limit },
            )) else {
                eprintln!("unexpected reply to suggest");
                exit(1)
            };
            println!("greedy plan (each gain assumes the lines above):");
            for (nr, gain_bits) in picks {
                let name = catalog
                    .syscalls
                    .by_number(nr)
                    .map(|d| d.name.to_string())
                    .unwrap_or_else(|| format!("syscall#{nr}"));
                println!(
                    "  {name:<20} completeness +{:.2}%",
                    100.0 * f64::from_bits(gain_bits),
                );
            }
        }
        "probe" => {
            // Session requests are connection-pinned: no retrying wrapper
            // (a reconnect would silently drop the session).
            if rest.len() < 2 {
                usage();
            }
            let supported = list_from_file(&rest[0]);
            let Response::Session { completeness_bits, .. } = ok(client
                .call(&Request::SessionOpen { supported }))
            else {
                eprintln!("unexpected reply to session open");
                exit(1)
            };
            println!(
                "session open: completeness {:.2}%",
                100.0 * f64::from_bits(completeness_bits),
            );
            for token in &rest[1..] {
                let nr = resolve(token);
                let Response::Session { delta_bits, .. } =
                    ok(client.call(&Request::SessionProbe { nr }))
                else {
                    eprintln!("unexpected reply to probe");
                    exit(1)
                };
                println!(
                    "  {token:<20} completeness +{:.2}%",
                    100.0 * f64::from_bits(delta_bits),
                );
            }
        }
        "reload" => {
            // Compare-and-swap against the live fingerprint.
            let Response::Pong { fingerprint, .. } =
                ok(client.call_retrying(&Request::Ping))
            else {
                eprintln!("unexpected reply to ping");
                exit(1)
            };
            let Response::Reload { fingerprint: new_fp, generation } =
                ok(client.call(&Request::Reload {
                    expect_fingerprint: fingerprint,
                }))
            else {
                eprintln!("unexpected reply to reload");
                exit(1)
            };
            println!(
                "reloaded: fingerprint {new_fp:#018x}, generation \
                 {generation}"
            );
        }
        "shutdown" => {
            let Response::Bye = ok(client.call(&Request::Shutdown)) else {
                eprintln!("unexpected reply to shutdown");
                exit(1)
            };
            println!("daemon draining");
        }
        _ => usage(),
    }
    exit(0)
}

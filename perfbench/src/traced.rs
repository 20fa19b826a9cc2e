//! The traced run (`--trace 1`).
//!
//! One sweep through every layer. Each call into a layer's public
//! functions is wrapped in a span recorded here, in the benchmark; spans
//! inside the library are a later change. Whatever workload is named, the
//! sweep covers all layers, so every per-layer metric has a value; the
//! named workload's work is also timed untraced, and `trace.*` reconcile
//! its layer self times against that untraced time.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use apistudy_analysis::{AnalysisOptions, BinaryAnalysis, Linker};
use apistudy_catalog::Catalog;
use apistudy_core::seccomp_bpf::{AUDIT_ARCH_X86_64, RET_ALLOW};
use apistudy_core::{
    allow_set_hash, depth_profile, encode_frame, fold_partials, run_filter, scan_frame,
    shard_partials, shard_ranges, sharded_fingerprint, study_sharded_stored, synthesize_fleet,
    BpfProgram, FleetOptions, FleetReport, FootprintStore, Metrics, MetricsIndex, Request,
    Response, SeccompData, ServeOptions, ServeStats, Server, Snapshot, Study, StudyData,
    FRAME_HEADER,
};
use apistudy_corpus::{libc_gen, PackageFile, SynthRepo};
use apistudy_elf::{BinaryClass, ElfFile};
use apistudy_x86::Decoder;

use crate::check::{self, Headline, StudyDigest};
use crate::keys::{self, ColdKeys};
use crate::load::{self, Load, Mix};
use crate::report::{line, Metric, Outcome};
use crate::stats::{frac, ratio, Summary};
use crate::trace::{self, Span, Tracer};
use crate::workloads::{corpus, guard, shard_count, study_pass, SHARD};
use crate::{scale, Ctx, Stop, Workload, PACKAGES};

/// Traced windows per serve mix; the named serve workload gets as many
/// untraced twins.
const ROUNDS: u32 = 6;

/// Each traced serve window, and each untraced twin.
const SERVE_WINDOW: Duration = Duration::from_millis(400);

/// Calls per proto micro-loop.
const PROTO_REPS: u64 = 20_000;

/// Cold keys per serve window: the window numbered `w` draws keys from
/// `w * WINDOW_KEYS` on, so no key repeats within the run.
const WINDOW_KEYS: u32 = 1 << 20;

/// Highest syscall number the per-filter pass probes, as the fleet does.
const PROBE_MAX: u32 = 4096;

/// The reconciliation tolerance: the layers' self times must come within
/// this share of the untraced end-to-end time.
const TOLERANCE: f64 = 0.25;

/// Output checks made along the sweep.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn count(&mut self, what: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed: {what} ({failed} of {attempted})");
        }
    }

    fn expect(&mut self, what: &str, attempted: u64, ok: bool) {
        self.count(what, attempted, if ok { 0 } else { attempted });
    }
}

pub fn run(ctx: &Ctx) -> Result<Outcome, Stop> {
    let mut t = Tracer::new(Instant::now());
    let mut checks = Checks::default();
    let named = ctx.workload;
    let repo = t.span("corpus.plan", |_| corpus(ctx.seed));
    let store = ctx.work.join("traced.apsf");
    let untraced_store = ctx.work.join("untraced.apsf");

    // 1. The pipeline reassembled from its public parts, checked against an
    //    untraced pass of the same work; when study is named, a second
    //    untraced pass brackets the traced one.
    let before = study_pass(&repo, &untraced_store)?;
    let pipeline = traced_pipeline(&mut t, &repo, &store)?;
    checks.expect("traced pipeline == study_sharded_stored", PACKAGES as u64, pipeline.digest == before.digest);
    let study_untraced = if named == Workload::Study {
        (before.seconds + study_pass(&repo, &untraced_store)?.seconds) / 2.0
    } else {
        before.seconds
    };

    // 2. Every binary through the layers inside a shard.
    let binaries = t.span("binaries", |t| per_binary_pass(t, &repo))?;

    // 3. The fleet, over the store the traced pipeline wrote.
    let fleet_untraced =
        if named == Workload::Fleet { Some(fleet_pass(&repo, &store)?) } else { None };
    let fleet = traced_fleet(&mut t, &repo, &store)?;
    checks.expect("replayed study == traced pipeline", PACKAGES as u64, fleet.replay_digest == pipeline.digest);
    let report_ok = fleet.report.verified
        && fleet_untraced.as_ref().is_none_or(|(_, r)| *r == fleet.report);
    checks.expect("fleet report verified, equal to the untraced one", PACKAGES as u64, report_ok);
    let filters_ok = fleet.bad_filters == 0
        && fleet.sets == fleet.report.unique.len()
        && fleet.tree_insns == fleet.report.total_tree_insns_deduped();
    checks.expect("per-filter pass agrees with the fleet report", fleet.sets as u64, filters_ok);

    // 4. The daemon.
    let serve = traced_serve(&mut t, ctx, &mut checks)?;

    let spans = t.spans();
    let selfs = trace::self_times(spans);
    let durs = |name: &str| trace::durations(spans, name);
    let (unresolved, resolved) = pipeline.sites;
    let (hot_hits, hot_misses) = serve.hot_cache;
    let (cold_hits, cold_misses) = serve.cold_cache;
    let (packages, unique) = (fleet.report.packages, fleet.report.unique.len());
    println!("layers:");
    let mut metrics = vec![
        timing("corpus.generate_us", "us", &trace::self_of(spans, &selfs, "corpus.package"), "per package: SynthRepo::package"),
        timing("elf.parse_us", "us", &durs("elf.parse"), "per binary: ElfFile::parse"),
        count("elf.binaries", binaries.binaries, "binaries parsed and analyzed"),
        per_call("x86.decode_ns_per_insn", spans, "x86.decode", "Decoder over .text, per instruction"),
        count("x86.insns", trace::ops(spans, "x86.decode"), "instructions decoded"),
        timing("analysis.analyze_us", "us", &binaries.analyze_self_ns, "per binary: analyze_with minus its own decode"),
        fraction("analysis.unresolved_frac", unresolved, unresolved + resolved, "unresolved / all syscall sites"),
        timing("analysis.link_ms", "ms", &durs("analysis.link"), "per shard: Linker add_library + seal + resolve_executable"),
        timing("stream.shards_ms", "ms", &durs("stream.shards"), "shard_partials"),
        timing("stream.fold_ms", "ms", &durs("stream.fold"), "fold_partials, computed (study) and replayed (fleet)"),
        timing("store.append_ms", "ms", &durs("store.append"), "per shard: FootprintStore::append_shard"),
        value("store.bytes_per_pkg", pipeline.store_bytes as f64 / PACKAGES as f64, "B", format!("{} bytes / {PACKAGES} packages", pipeline.store_bytes)),
        timing("store.replay_ms", "ms", &durs("store.replay"), "FootprintStore::resume_or_create"),
        timing("metrics.index_ms", "ms", &durs("metrics.index"), "MetricsIndex::build"),
        timing("metrics.ranking_ms", "ms", &durs("metrics.ranking"), "importance_ranking"),
        timing("metrics.completeness_us", "us", &durs("metrics.completeness"), "per cold key: syscall_completeness"),
        timing("planner.suggest_ms", "ms", &durs("planner.suggest"), "per cold key: greedy_suggestions"),
        count("seccomp_fleet.unique_sets", unique as u64, "unique allow-sets"),
        value("seccomp_fleet.dedup_ratio", fleet.report.dedup_ratio(), "ratio", format!("{packages} packages / {unique} unique sets")),
        timing("seccomp_bpf.tree_build_us", "us", &durs("seccomp_bpf.tree_build"), "per filter: BpfProgram::try_allow_tree"),
        timing("seccomp_bpf.profile_us", "us", &durs("seccomp_bpf.profile"), "per filter: depth_profile over 0..=4096"),
        timing("seccomp_bpf.verify_us", "us", &durs("seccomp_bpf.verify"), "per filter: run_filter over 0..=4096"),
        count("seccomp_bpf.tree_insns", fleet.tree_insns, "tree instructions, summed over unique filters"),
        per_call("proto.encode_ns", spans, "proto.encode", "Request::encode + encode_frame"),
        per_call("proto.decode_ns", spans, "proto.decode", "scan_frame + Response::decode"),
        value("proto.frame_bytes", serve.frame_bytes, "B", "request + reply frame, mean over the mix".to_owned()),
        timing("serve.ping_p50_us", "us", &durs("serve.ping"), "ping round trip, traced hot windows"),
        fraction("serve.cache_hit_frac_hot", hot_hits, hot_hits + hot_misses, "cache hits / pure queries, traced hot windows"),
        fraction("serve.cache_hit_frac_cold", cold_hits, cold_hits + cold_misses, "cache hits / pure queries, traced cold windows"),
        timing("serve.overhead_us", "us", &serve.overhead_ns, "cold round trip minus direct compute of the same key"),
        timing("serve.seal_ms", "ms", &durs("serve.seal"), "Snapshot::seal"),
        timing("serve.start_ms", "ms", &durs("serve.start"), "Server::start"),
        count("serve.rejected_busy", serve.stats.rejected_busy, "Server::stats"),
        count("serve.io_errors", serve.stats.io_errors, "Server::stats"),
        count("serve.deadline_closed", serve.stats.deadline_closed, "Server::stats"),
        count("serve.malformed", serve.stats.malformed, "Server::stats"),
    ];

    // Reconciliation: the layers on the named workload's path against the
    // untraced end-to-end time of the same work.
    let root = |name: &str| -> Result<(f64, f64), String> {
        let i = trace::find(spans, name).ok_or_else(|| format!("no {name} span"))?;
        Ok((secs(spans[i].dur()), secs(spans[i].dur() - selfs[i])))
    };
    let (untraced, traced, layers, path) = match named {
        Workload::Study => {
            let (traced, layers) = root("study")?;
            (study_untraced, traced, layers, "spans under `study` vs study_sharded_stored + metrics (mean of the passes around it)".to_owned())
        }
        Workload::Fleet => {
            let (traced, layers) = root("fleet")?;
            let untraced = fleet_untraced.as_ref().map_or(f64::NAN, |(s, _)| *s);
            (untraced, traced, layers, "spans under `fleet` vs untraced replay + fold + synthesize_fleet".to_owned())
        }
        Workload::ServeHot | Workload::ServeCold => {
            // Per request: the reactor floor (an untraced ping's round
            // trip, no cache lookup), the request's proto calls, and for a
            // cold key its direct computation. Hot replies come from the
            // cache, whose lookup is not timed on its own.
            let floor = mean(&serve.untraced_ping_rtt);
            let proto = serve.proto_ns / 1e9;
            let compute = mean(&serve.untraced_compute_ns) / 1e9;
            let (traced, untraced) = (mean(&serve.traced_rtt), mean(&serve.untraced_rtt));
            let path = format!(
                "ping floor {:.2} us + proto {:.3} us + direct compute {:.2} us per request vs the untraced twin windows' mean round trip",
                floor * 1e6,
                proto * 1e6,
                compute * 1e6
            );
            (untraced, traced, floor + proto + compute, path)
        }
    };
    let coverage = layers / untraced;
    let overhead = (traced - untraced) / untraced;
    println!("reconciliation ({}):", named.name());
    line("trace.coverage_frac", format!("{coverage:.4}"), format!("layers {:.3} ms / untraced {:.3} ms: {path}; tolerance ±{:.0}%", layers * 1e3, untraced * 1e3, TOLERANCE * 100.0));
    line("trace.overhead_frac", format!("{overhead:+.4}"), format!("traced {:.3} ms vs untraced {:.3} ms", traced * 1e3, untraced * 1e3));
    checks.expect("layer self times account for the untraced time", 1, (coverage - 1.0).abs() <= TOLERANCE);
    metrics.push(Metric::new("trace.coverage_frac", coverage, "fraction"));
    metrics.push(Metric::new("trace.overhead_frac", overhead, "fraction"));

    let file = ctx.out.join(format!("trace-{}-seed{}.tsv", named.name(), ctx.seed));
    let header = format!(
        "perfbench traced run: workload {}, seed {}, {PACKAGES} packages, nproc {}",
        named.name(),
        ctx.seed,
        ctx.nproc
    );
    t.write(&file, &header).map_err(|e| format!("{}: {e}", file.display()))?;
    line("spans", t.spans().len(), format!("written to {}", file.display()));
    Ok(Outcome { correct: checks.failed == 0, attempted: checks.attempted, failed: checks.failed, metrics })
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A timing metric: the median of `samples_ns` in `unit`, with its line.
fn timing(name: &'static str, unit: &'static str, samples_ns: &[f64], what: &str) -> Metric {
    let scale = match unit {
        "ms" => 1e6,
        "us" => 1e3,
        _ => 1.0,
    };
    let value = match Summary::of(samples_ns) {
        Some(s) => {
            line(name, s.describe(scale, unit), what);
            s.p50 / scale
        }
        None => {
            line(name, "no samples", what);
            f64::NAN
        }
    };
    Metric::new(name, value, unit)
}

fn count(name: &'static str, n: u64, what: &str) -> Metric {
    line(name, n, what);
    Metric::new(name, n as f64, "count")
}

fn fraction(name: &'static str, num: u64, den: u64, what: &str) -> Metric {
    line(name, ratio(num, den), what);
    Metric::new(name, frac(num, den), "fraction")
}

fn value(name: &'static str, v: f64, unit: &'static str, what: String) -> Metric {
    line(name, format!("{v:.2} {unit}"), what);
    Metric::new(name, v, unit)
}

/// Nanoseconds per call over the spans named `span`.
fn per_call(name: &'static str, spans: &[Span], span: &str, what: &str) -> Metric {
    let calls = trace::ops(spans, span);
    let ns: f64 = trace::durations(spans, span).iter().sum();
    let v = ns / calls as f64;
    line(name, format!("{v:.2} ns"), format!("{what}: {ns:.0} ns / {calls} calls"));
    Metric::new(name, v, "ns")
}

/// What the reassembled pipeline produced beyond its spans.
struct PipelineTrace {
    digest: StudyDigest,
    /// Unresolved and resolved syscall sites, summed over the shards.
    sites: (u64, u64),
    store_bytes: u64,
}

/// `study_sharded_stored` reassembled from its public parts, each a span:
/// `shard_partials`, a store with one `append_shard` per partial,
/// `fold_partials`, then the metrics.
fn traced_pipeline(t: &mut Tracer, repo: &SynthRepo, store: &Path) -> Result<PipelineTrace, String> {
    let opts = AnalysisOptions::default();
    let (data, index, headline, sites) = t.span("study", |t| -> Result<_, String> {
        let partials = t.span("stream.shards", |_| shard_partials(repo, opts, SHARD, None));
        let sites = partials
            .iter()
            .fold((0, 0), |(u, r), p| (u + p.unresolved_sites, r + p.resolved_sites));
        let mut fs = t
            .span("store.create", |_| {
                FootprintStore::create(store, &sharded_fingerprint(repo, opts, SHARD))
            })
            .map_err(|e| format!("store create: {e}"))?;
        for p in &partials {
            t.span("store.append", |_| fs.append_shard(p))
                .map_err(|e| format!("store append: {e}"))?;
        }
        drop(fs);
        let data = t.span("stream.fold", |_| {
            fold_partials(repo.plan.popcon.total_installations, partials)
        });
        let index = t.span("metrics.index", |_| Arc::new(MetricsIndex::build(&data)));
        let m = Metrics::with_index(&data, Arc::clone(&index));
        let ranking = t.span("metrics.ranking", |_| check::ranking(&m));
        let completeness = t.span("metrics.topn", |_| check::completeness(&m, &ranking));
        drop(m);
        Ok((data, index, Headline { ranking, completeness }, sites))
    })?;
    let digest = StudyDigest::of(&data, &Metrics::with_index(&data, index), &headline);
    let store_bytes =
        std::fs::metadata(store).map_err(|e| format!("{}: {e}", store.display()))?.len();
    Ok(PipelineTrace { digest, sites, store_bytes })
}

/// Per-binary layer samples.
#[derive(Default)]
struct BinaryTrace {
    binaries: u64,
    /// `analyze_with` minus the same binary's decode, per binary (ns).
    analyze_self_ns: Vec<f64>,
}

/// Every binary of every shard through parse, decode and analysis, then
/// each shard's libraries and executables through a `Linker`: the work
/// `shard_partials` does in parallel, here serial so each call is a span.
fn per_binary_pass(t: &mut Tracer, repo: &SynthRepo) -> Result<BinaryTrace, String> {
    let opts = AnalysisOptions::default();
    let base = t.span("analysis.system_base", |_| system_base(opts))?;
    let mut out = BinaryTrace::default();
    for (shard, range) in shard_ranges(repo.package_count(), SHARD).into_iter().enumerate() {
        let (mut libs, mut execs) = (Vec::new(), Vec::new());
        for i in range {
            let pkg = t.span("corpus.package", |_| repo.package(i));
            for file in &pkg.files {
                let PackageFile::Elf { name, bytes } = file else { continue };
                let t0 = Instant::now();
                let elf = ElfFile::parse(bytes);
                let t1 = Instant::now();
                let elf = elf.map_err(|e| format!("{}/{name}: {e}", pkg.name))?;
                let insns = decode_text(&elf);
                let t2 = Instant::now();
                let ba = BinaryAnalysis::analyze_with(&elf, opts);
                let t3 = Instant::now();
                let ba = ba.map_err(|e| format!("{}/{name}: {e}", pkg.name))?;
                t.record("elf.parse", t0, t1, None, 1);
                t.record("x86.decode", t1, t2, None, insns);
                t.record("analysis.analyze", t2, t3, None, 1);
                // analyze_with decodes .text itself; its self time
                // excludes that share.
                out.analyze_self_ns.push((t3 - t2).saturating_sub(t2 - t1).as_nanos() as f64);
                out.binaries += 1;
                match ba.class {
                    BinaryClass::SharedLib => libs.push((name.clone(), ba)),
                    _ => execs.push(ba),
                }
            }
        }
        t.span("analysis.link", |_| {
            let mut linker = Linker::new();
            // The first shard ships the system libraries in libc6; every
            // other shard links against the once-analyzed base, as the
            // pipeline does.
            if shard > 0 {
                for (name, ba) in &base {
                    linker.add_library(name, Arc::clone(ba));
                }
            }
            for (name, ba) in libs {
                linker.add_library(&name, ba);
            }
            linker.seal();
            for ba in &execs {
                black_box(linker.resolve_executable(ba));
            }
        });
    }
    Ok(out)
}

/// The four system libraries, parsed and analyzed once.
fn system_base(opts: AnalysisOptions) -> Result<Vec<(String, Arc<BinaryAnalysis>)>, String> {
    libc_gen::generate_system_libraries(&Catalog::linux_3_19())
        .into_iter()
        .map(|(name, bytes)| {
            let elf = ElfFile::parse(&bytes).map_err(|e| format!("{name}: {e}"))?;
            let ba = BinaryAnalysis::analyze_with(&elf, opts).map_err(|e| format!("{name}: {e}"))?;
            Ok((name, Arc::new(ba)))
        })
        .collect()
}

/// A `Decoder` sweep over `.text`; returns the instructions decoded.
fn decode_text(elf: &ElfFile<'_>) -> u64 {
    let Some(text) = elf.section_by_name(".text") else { return 0 };
    let Ok(bytes) = elf.section_data(text) else { return 0 };
    Decoder::new(bytes, text.addr).map(black_box).count() as u64
}

/// What the traced fleet produced beyond its spans.
struct FleetTrace {
    report: FleetReport,
    replay_digest: StudyDigest,
    sets: usize,
    tree_insns: u64,
    bad_filters: u64,
}

/// The fleet's set-up and synthesis, each public call a span, then every
/// unique allow-set through the tree-layout calls the fleet makes for it.
fn traced_fleet(t: &mut Tracer, repo: &SynthRepo, store: &Path) -> Result<FleetTrace, Stop> {
    let fp = sharded_fingerprint(repo, AnalysisOptions::default(), SHARD);
    let (data, report) = t.span("fleet", |t| -> Result<_, Stop> {
        let (fs, replayed) = t
            .span("store.replay", |_| FootprintStore::resume_or_create(store, &fp))
            .map_err(|e| format!("store replay: {e}"))?;
        drop(fs);
        guard(replayed.len() as u64 == shard_count(), || {
            format!("the traced store replayed {} of {} shards", replayed.len(), shard_count())
        })?;
        let partials = replayed.into_values().collect();
        let data = t.span("stream.fold", |_| {
            fold_partials(repo.plan.popcon.total_installations, partials)
        });
        let report = t
            .span("seccomp_fleet.synthesize", |_| synthesize_fleet(&data, FleetOptions::default()))
            .map_err(|e| format!("fleet: {e}"))?;
        Ok((data, report))
    })?;
    let replay_digest = StudyDigest::of_data(&data);
    let sets = unique_allow_sets(&data);
    let (mut tree_insns, mut bad_filters) = (0u64, 0u64);
    t.span("filters", |t| {
        for numbers in &sets {
            let t0 = Instant::now();
            let tree = BpfProgram::try_allow_tree(numbers);
            let t1 = Instant::now();
            let Ok(tree) = tree else {
                bad_filters += 1;
                continue;
            };
            let profile = depth_profile(&tree, PROBE_MAX);
            let t2 = Instant::now();
            let verified = allows_exactly(&tree, numbers);
            let t3 = Instant::now();
            t.record("seccomp_bpf.tree_build", t0, t1, None, 1);
            t.record("seccomp_bpf.profile", t1, t2, None, 1);
            t.record("seccomp_bpf.verify", t2, t3, None, 1);
            tree_insns += tree.len() as u64;
            if profile.is_none() || !verified {
                bad_filters += 1;
            }
        }
    });
    Ok(FleetTrace { report, replay_digest, sets: sets.len(), tree_insns, bad_filters })
}

/// Every distinct package allow-set, first-seen order, keyed as the
/// fleet keys them.
fn unique_allow_sets(data: &StudyData) -> Vec<Vec<u32>> {
    let mut seen = HashSet::new();
    data.packages
        .iter()
        .map(|p| p.footprint.syscalls().collect::<Vec<u32>>())
        .filter(|numbers| seen.insert(allow_set_hash(numbers)))
        .collect()
}

/// Whether `program` allows exactly `numbers` over 0..=PROBE_MAX.
fn allows_exactly(program: &BpfProgram, numbers: &[u32]) -> bool {
    (0..=PROBE_MAX).all(|nr| {
        let allowed = run_filter(program, SeccompData { nr, arch: AUDIT_ARCH_X86_64 })
            == Some(RET_ALLOW);
        allowed == numbers.binary_search(&nr).is_ok()
    })
}

/// The fleet workload's work, untraced: replay and fold the store, then
/// synthesize.
fn fleet_pass(repo: &SynthRepo, store: &Path) -> Result<(f64, FleetReport), String> {
    let start = Instant::now();
    let (data, _) =
        study_sharded_stored(repo, AnalysisOptions::default(), SHARD, None, store, true)
            .map_err(|e| format!("store replay: {e}"))?;
    let report =
        synthesize_fleet(&data, FleetOptions::default()).map_err(|e| format!("fleet: {e}"))?;
    Ok((start.elapsed().as_secs_f64(), report))
}

/// The serve layers and what they produced.
#[derive(Default)]
struct ServeTrace {
    /// Cache hits and misses over the traced hot windows, and over the
    /// traced cold windows.
    hot_cache: (u64, u64),
    cold_cache: (u64, u64),
    /// Round trips (s) of the named serve workload's traced windows, and
    /// of its untraced twins.
    traced_rtt: Vec<f64>,
    untraced_rtt: Vec<f64>,
    /// Ping round trips (s) of the untraced hot twin windows.
    untraced_ping_rtt: Vec<f64>,
    /// Direct computation (ns) of each untraced twin request's key: zero
    /// for a hot key, answered from the cache.
    untraced_compute_ns: Vec<f64>,
    /// `proto.encode` + `proto.decode` per request (ns), mean over the
    /// named serve workload's part of the mix.
    proto_ns: f64,
    /// Per traced cold request: round trip minus its direct computation.
    overhead_ns: Vec<f64>,
    frame_bytes: f64,
    stats: ServeStats,
}

/// Seals one study and serves another from the same corpus, then runs
/// the proto micro-loops and the traced windows.
fn traced_serve(t: &mut Tracer, ctx: &Ctx, checks: &mut Checks) -> Result<ServeTrace, Stop> {
    let study = t.span("serve.pipeline", |_| Study::run_streamed(scale(), ctx.seed, SHARD));
    let snap = t.span("serve.seal", |_| Snapshot::seal(study, 0));
    let study = t.span("serve.pipeline", |_| Study::run_streamed(scale(), ctx.seed, SHARD));
    let server = t
        .span("serve.start", |_| Server::start(study, None, ServeOptions::default()))
        .map_err(|e| format!("server start: {e}"))?;
    let phases = serve_phases(t, ctx, &snap, &server, checks);
    server.shutdown();
    let stats = server.wait();
    let mut serve = phases?;
    guard(stats.rejected_busy == 0, || format!("{} connections rejected busy", stats.rejected_busy))?;
    serve.stats = stats;
    Ok(serve)
}

fn serve_phases(
    t: &mut Tracer,
    ctx: &Ctx,
    snap: &Snapshot,
    server: &Server,
    checks: &mut Checks,
) -> Result<ServeTrace, Stop> {
    guard(server.fingerprint() == snap.fingerprint, || {
        "the served snapshot is not the checked one".to_owned()
    })?;
    let m = snap.metrics();
    let cold = ColdKeys::of(&m, ctx.seed);
    let mut out = ServeTrace::default();

    // Proto: encode every request of the mix, decode the library's reply.
    let mut mix: Vec<Request> = (0..8).map(keys::hot).collect();
    mix.extend((0..8).map(|k| cold.request(k)));
    let (mut frame_bytes, mut decoded) = (0, 0u64);
    let mut per_call_ns = Vec::with_capacity(mix.len());
    t.span("proto", |t| {
        for req in &mix {
            let reply = check::direct(snap, &m, req).0;
            let frame = encode_frame(&reply.encode());
            frame_bytes += encode_frame(&req.encode()).len() + frame.len();
            let t0 = Instant::now();
            for _ in 0..PROTO_REPS {
                black_box(encode_frame(&black_box(req).encode()));
            }
            let t1 = Instant::now();
            for _ in 0..PROTO_REPS {
                black_box(decode_reply(black_box(&frame)));
            }
            let t2 = Instant::now();
            t.record("proto.encode", t0, t1, None, PROTO_REPS);
            t.record("proto.decode", t1, t2, None, PROTO_REPS);
            per_call_ns.push((t2 - t0).as_nanos() as f64 / PROTO_REPS as f64);
            decoded += u64::from(decode_reply(&frame).as_ref() == Some(&reply));
        }
    });
    let framed = mix.len() as u64;
    checks.count("proto frames decode to the encoded reply", framed, framed - decoded);
    out.frame_bytes = frame_bytes as f64 / mix.len() as f64;
    // The first half of the mix is the hot cycle, the second cold keys.
    let (hot_ns, cold_ns) = per_call_ns.split_at(8);
    out.proto_ns = mean(if ctx.workload == Workload::ServeHot { hot_ns } else { cold_ns });

    // Traced windows of each mix; for the named serve workload each has
    // an untraced twin, and the pair's order alternates, so drift in the
    // machine's load falls on both sides alike. When serve-cold is named
    // the hot windows get twins too: their pings give the untraced
    // reactor floor. Every reply is checked, and each traced cold key is
    // also computed directly, its library call a span under the request's
    // id.
    let clients = ctx.nproc;
    let serve_named = matches!(ctx.workload, Workload::ServeHot | Workload::ServeCold);
    let mut masks = Vec::new();
    for hot in [true, false] {
        let named = ctx.workload == if hot { Workload::ServeHot } else { Workload::ServeCold };
        let twins = named || (hot && serve_named);
        let (what, span) = if hot { ("hot", "serve.hot") } else { ("cold", "serve.cold") };
        for round in 0..ROUNDS {
            for traced in [round % 2 == 0, round % 2 == 1] {
                if !traced && !twins {
                    continue;
                }
                let mix = if hot {
                    Mix::Hot
                } else {
                    Mix::Cold { keys: &cold, base: (2 * round + u32::from(traced)) * WINDOW_KEYS }
                };
                let load = if traced {
                    traced_window(t, span, server, clients, mix)
                } else {
                    load::closed_loop(server, clients, SERVE_WINDOW, mix, None)
                };
                let side = if traced { "traced" } else { "untraced" };
                let calls = verify_window(snap, &load, clients, checks, &format!("{side} {what} replies == library"));
                if !hot {
                    masks.extend(load.served().map(|s| cold.mask(s.key)));
                }
                let rtts = load.timed().map(|s| s.rtt.as_secs_f64());
                if !traced {
                    if hot {
                        out.untraced_ping_rtt.extend(
                            load.timed()
                                .filter(|s| matches!(mix.request(s.key), Request::Ping))
                                .map(|s| s.rtt.as_secs_f64()),
                        );
                    }
                    if named {
                        out.untraced_rtt.extend(rtts);
                        out.untraced_compute_ns.extend(load.timed().map(|s| {
                            if hot {
                                0.0
                            } else {
                                let (a, b) = calls[&s.key];
                                (b - a).as_nanos() as f64
                            }
                        }));
                    }
                    continue;
                }
                if named {
                    out.traced_rtt.extend(rtts);
                }
                let (hits, misses) = load.cache();
                let cache = if hot { &mut out.hot_cache } else { &mut out.cold_cache };
                *cache = (cache.0 + hits, cache.1 + misses);
                if hot {
                    continue;
                }
                for s in load.timed() {
                    let (a, b) = calls[&s.key];
                    let name = if ColdKeys::is_suggest(s.key) { "planner.suggest" } else { "metrics.completeness" };
                    t.record(name, a, b, Some(s.id), 1);
                    out.overhead_ns.push(s.rtt.as_nanos() as f64 - (b - a).as_nanos() as f64);
                }
            }
        }
    }

    let (hits, misses) = out.hot_cache;
    guard(frac(hits, hits + misses) >= 0.99, || {
        format!("the hot windows must answer from the cache: hits {}", ratio(hits, hits + misses))
    })?;
    let (hits, misses) = out.cold_cache;
    guard(hits == 0 && misses > 0, || {
        format!("the cold windows must miss the cache: hits {}", ratio(hits, hits + misses))
    })?;
    let distinct: HashSet<u32> = masks.iter().copied().collect();
    guard(distinct.len() == masks.len(), || "a cold key repeated".to_owned())?;
    Ok(out)
}

/// Checks every reply of one window and counts the result; returns each
/// key's direct library call.
fn verify_window(
    snap: &Snapshot,
    load: &Load<'_>,
    threads: usize,
    checks: &mut Checks,
    what: &str,
) -> HashMap<u32, (Instant, Instant)> {
    let (bad, calls) = check::verify(snap, load, threads);
    for e in &load.errors {
        eprintln!("{e}");
    }
    let errors = load.errors.len() as u64;
    checks.count(what, load.answered() + errors, bad + errors);
    calls
}

/// A closed-loop window with every timed request a span, all under one
/// span named `name`.
fn traced_window<'a>(
    t: &mut Tracer,
    name: &'static str,
    server: &Server,
    clients: usize,
    mix: Mix<'a>,
) -> Load<'a> {
    t.span(name, |t| {
        let mut load = load::closed_loop(server, clients, SERVE_WINDOW, mix, Some(t.epoch()));
        for client in std::mem::take(&mut load.tracers) {
            t.absorb(client);
        }
        load
    })
}

/// `scan_frame` then `Response::decode`, as a client reads a reply frame.
fn decode_reply(frame: &[u8]) -> Option<Response> {
    match scan_frame(frame) {
        Ok(Some(total)) => Response::decode(&frame[FRAME_HEADER..total]),
        _ => None,
    }
}

/// The mean of `values`.
fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

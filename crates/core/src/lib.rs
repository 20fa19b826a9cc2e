//! # apistudy-core
//!
//! The primary contribution of the EuroSys'16 study, as a library. One
//! runner, [`stream::run`], computes the study; every other way to get a
//! [`StudyData`] ([`StudyData::from_synth`], the [`Study`] facade, the
//! corruption sweep) is one call into it with a [`RunOptions`].
//!
//! - [`pipeline::StudyData`] — the repository-scale measurement dataset
//!   (parse → analyze → link → aggregate), replacing the paper's Postgres
//!   database;
//! - [`metrics::Metrics`] — **API importance**, **unweighted API
//!   importance**, and **weighted completeness** with APT dependency
//!   closure (paper §2, Appendix A);
//! - [`depgraph::Condensation`] — one-shot Tarjan SCC condensation of
//!   the package `depends` graph; every dependency fixed point becomes a
//!   single bottom-up pass;
//! - [`engine::CompletenessEngine`] — incremental completeness: add or
//!   remove one API and get the exact (bit-identical) delta in
//!   O(edges touched);
//! - [`planner`] — the Figure 3 completeness curve and Table 4
//!   implementation stages ("from Hello World to qemu");
//! - [`libc_restructure`] — the §3.5 libc stripping/reordering analysis;
//! - [`footprints`] — §6 footprint uniqueness and seccomp profile
//!   generation;
//! - [`seccomp_bpf`] — classic-BPF seccomp filter assembly: an O(log n)
//!   binary-search dispatch tree plus the legacy linear chain, with an
//!   in-process interpreter for verification and depth profiling;
//! - [`seccomp_fleet`] — batch filter synthesis for every package in the
//!   corpus: content-hash dedup, shared-prefix factoring, eval-depth
//!   accounting, and journaled crash-safe resume;
//! - [`dataset`] — CSV export/import of the measured dataset;
//! - [`diagnostics`] — degradation accounting: skipped binaries,
//!   contained panics, quarantined packages, injected-fault ground truth;
//! - [`degradation`] — the corruption sweep ([`corruption_sweep`], with
//!   an optional write-ahead journal): rerunning the pipeline at rising
//!   injected-corruption rates and tabulating the metric fallout;
//! - [`journal`] — the crash-safety layer: an append-only, checksummed
//!   write-ahead journal of completed work units, with fingerprint-bound
//!   bit-identical resume;
//! - [`stream`] — the pipeline runner: fixed-size shards analyzed with
//!   only one shard's binaries resident, folded into bit-identical
//!   [`pipeline::StudyData`], optionally cached, materialized, faulted,
//!   or persisted to a store;
//! - [`store`] — the on-disk [`store::FootprintStore`]: clean shards
//!   persisted on the same framed log as the journal, so interrupted
//!   sharded runs resume at file-read cost;
//! - [`diff`] — study-to-study comparison (releases / what-if scenarios);
//! - [`workloads`] — evaluation-workload matching for modified APIs;
//! - [`sys`] — classified `extern "C"` wrappers over the event-driven
//!   syscall surface (epoll / accept4 / eventfd) the serve reactor uses;
//! - [`sysfault`] — deterministic syscall-fault injection: a seeded,
//!   ledgered errno-chaos plan behind every [`sys`] wrapper and the
//!   journal/store append paths, a no-op when disarmed;
//! - [`study::Study`] — the one-call facade.

// Unsafe is denied crate-wide; the only carve-outs are `sys` (the FFI
// boundary) and the pinned-snapshot session holder in `serve`, each with
// stated invariants at every site.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dataset;
pub mod degradation;
pub mod depgraph;
pub mod diagnostics;
pub mod diff;
pub mod engine;
pub mod footprints;
mod frame;
pub mod journal;
pub mod libc_restructure;
pub mod metrics;
pub mod pipeline;
pub mod planner;
pub mod proto;
pub mod seccomp_bpf;
pub mod seccomp_fleet;
pub mod serve;
pub mod store;
pub mod stream;
pub mod study;
pub mod sys;
pub mod sysfault;
pub mod workloads;

pub use cache::{AnalysisCache, CacheKey, CacheMode, CacheStats};
pub use dataset::{Dataset, DatasetRow};
pub use degradation::{corruption_sweep, degradation_table, DegradationPoint};
pub use depgraph::Condensation;
pub use diagnostics::{RunDiagnostics, SkipStage, SkippedBinary};
pub use diff::{ApiShift, StudyDiff};
pub use engine::CompletenessEngine;
pub use apistudy_analysis::ApiFootprint;
pub use footprints::{seccomp_profile, uniqueness, UniquenessStats};
pub use journal::{
    catalog_fingerprint, corpus_fingerprint, Journal, JournalError,
    JournalRecord, JournalStats, RunFingerprint, RunKind,
};
pub use libc_restructure::{restructure, RestructureReport};
pub use metrics::{Metrics, MetricsIndex};
pub use pipeline::{Attribution, PackageRecord, StudyData};
pub use planner::{
    greedy_suggestions, greedy_suggestions_journaled, stages,
    CompletenessCurve, Stage,
};
pub use proto::{
    encode_frame, read_frame_by, scan_frame, ErrorCode, FrameError,
    Request, Response, FRAME_HEADER, MAX_BATCH, MAX_FRAME,
};
pub use seccomp_bpf::{
    depth_profile, run_filter, run_filter_traced, seccomp_filter,
    BpfProgram, DepthProfile, FilterTooLarge, SeccompData, SeccompError,
    BPF_MAXINSNS,
};
pub use seccomp_fleet::{
    allow_set_hash, fleet_table, synthesize_fleet,
    synthesize_fleet_journaled, FleetError, FleetOptions, FleetReport,
    UniqueFilterStats,
};
pub use serve::{
    self_audit, snapshot_fingerprint, AuditEntry, Client, ClientError,
    RetryPolicy, Server, ServeOptions, ServeStats, Snapshot,
};
pub use store::{FootprintStore, StoreStats};
pub use sysfault::{
    FaultTrigger, FireAt, SysFaultKind, SysFaultPlan, SysFaultRecord,
};
pub use stream::{
    fold_partials, shard_partials, shard_ranges, sharded_fingerprint,
    study_sharded_stored, PackageAttribution, RunOptions, ShardPartial,
    Shards, DEFAULT_SHARD_SIZE,
};
pub use study::Study;
pub use workloads::{exercised_mass, workloads_for, Match};

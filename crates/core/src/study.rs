//! The end-to-end [`Study`] facade.
//!
//! Bundles corpus generation, the analysis pipeline, and the metric engine
//! behind one entry point — the library's quickstart surface:
//!
//! ```no_run
//! use apistudy_core::Study;
//! use apistudy_corpus::Scale;
//!
//! let study = Study::run(Scale::test(), 42);
//! let m = study.metrics();
//! let read = study.syscall("read").unwrap();
//! println!("read importance: {:.1}%", 100.0 * m.importance(read));
//! ```

use std::path::Path;

use apistudy_catalog::Api;
use apistudy_corpus::{CalibrationSpec, Scale, SynthRepo};

use crate::{
    journal::JournalError,
    metrics::Metrics,
    pipeline::StudyData,
    planner::{stages, CompletenessCurve, Stage},
    store::StoreStats,
    stream::{self, RunOptions, Shards},
};

/// A completed study over a (synthetic) distribution.
pub struct Study {
    repo: SynthRepo,
    data: StudyData,
}

impl Study {
    /// Generates a corpus at `scale` and runs the full measurement
    /// pipeline over it.
    pub fn run(scale: Scale, seed: u64) -> Self {
        Self::run_streamed(scale, seed, 0)
    }

    /// [`Study::run`] through `shard_size`-package shards: only one shard
    /// of binaries is ever materialized, so paper-scale corpora run in
    /// shard-bounded memory. Bit-identical to [`Study::run`] for any
    /// `shard_size` (0 means one shard over the whole corpus).
    pub fn run_streamed(scale: Scale, seed: u64, shard_size: usize) -> Self {
        let repo = SynthRepo::new(scale, CalibrationSpec::default(), seed);
        let opts = RunOptions {
            shards: Shards::Size(shard_size),
            ..RunOptions::default()
        };
        let (study, _) = Self::run_on(repo, &opts, None)
            .expect("a run without a store does no I/O");
        study
    }

    /// Runs the pipeline over `repo` ([`stream::run`] with `opts` and
    /// `store`) and keeps the corpus beside the measured dataset.
    pub fn run_on(
        repo: SynthRepo,
        opts: &RunOptions<'_>,
        store: Option<(&Path, bool)>,
    ) -> Result<(Self, StoreStats), JournalError> {
        let (data, stats) = stream::run(&repo, opts, store)?;
        Ok((Self { repo, data }, stats))
    }

    /// The measured dataset.
    pub fn data(&self) -> &StudyData {
        &self.data
    }

    /// The generated corpus (plans are the generator's ground truth).
    pub fn repo(&self) -> &SynthRepo {
        &self.repo
    }

    /// A fresh metric engine over the dataset.
    pub fn metrics(&self) -> Metrics<'_> {
        Metrics::new(&self.data)
    }

    /// The [`Api`] for a kernel syscall name.
    pub fn syscall(&self, name: &str) -> Option<Api> {
        self.data.catalog.syscall(name)
    }

    /// The Figure 3 completeness curve and Table 4 stages.
    pub fn implementation_plan(&self) -> (CompletenessCurve, Vec<Stage>) {
        let metrics = self.metrics();
        let curve = CompletenessCurve::compute(&metrics);
        let st = stages(&metrics, &curve);
        (curve, st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_runs_end_to_end() {
        let study = Study::run(
            Scale { packages: 120, installations: 20_000 },
            3,
        );
        let m = study.metrics();
        let read = study.syscall("read").expect("read exists");
        assert!(m.importance(read) > 0.99);
        let (curve, stages) = study.implementation_plan();
        assert_eq!(stages.len(), 5);
        assert!(curve.at(200) > curve.at(50));
    }
}

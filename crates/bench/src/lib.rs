//! # apistudy-bench
//!
//! The reproduction harness: [`artifacts`] regenerates every table and
//! figure of the paper from a completed study; the `repro` binary prints
//! them; the Criterion benches measure the pipeline and per-artifact
//! regeneration cost; the smoke gates record their medians with
//! [`bench_json`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod bench_json;

pub use artifacts::{render, Ctx, ARTIFACT_IDS};
pub use bench_json::{check_against_recorded, record, recorded, Bound};

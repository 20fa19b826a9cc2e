//! # apistudy-analysis
//!
//! The study's static-analysis framework (paper §7), from scratch:
//!
//! - [`binary::BinaryAnalysis`] — per-binary pipeline: disassembly,
//!   function discovery, register-constant tracking for system call
//!   numbers and vectored opcodes (`ioctl`/`fcntl`/`prctl`), call-graph
//!   construction (including the paper's function-pointer
//!   over-approximation), PLT resolution, and hard-coded pseudo-file path
//!   extraction;
//! - [`linker::Linker`] — cross-binary resolution over `DT_NEEDED`
//!   closures, replacing the paper's recursive SQL aggregation with an SCC
//!   condensation of the global function graph over facts interned against
//!   the catalog ([`intern`]);
//! - [`facts::Footprint`] — the analysis output unit, and
//!   [`api_footprint::ApiFootprint`], its catalog-resolved form.
//!
//! Like the paper, the analysis requires no source code and no execution:
//! it recovers footprints purely from instruction bytes and ELF metadata,
//! counting the sites it cannot resolve (§2.4).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api_footprint;
pub mod binary;
pub mod facts;
pub mod intern;
pub mod linker;

pub use api_footprint::ApiFootprint;
pub use binary::{content_hash, AnalysisOptions, BinaryAnalysis, FuncInfo};
pub use facts::Footprint;
pub use linker::Linker;

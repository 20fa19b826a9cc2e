//! Catalog-resolved API footprints.
//!
//! [`ApiFootprint`] lives beside the linker that produces it
//! ([`apistudy_analysis::api_footprint`]); the study's records, caches and
//! metrics use it through this path.

pub use apistudy_analysis::ApiFootprint;

//! The study's metrics: API importance, unweighted API importance, and
//! weighted completeness (paper §2 and Appendix A).
//!
//! - **API importance** — the probability that a random installation
//!   includes at least one package whose footprint requires the API:
//!   `1 − ∏ (1 − p_pkg)` over the API's dependent packages (A.1).
//! - **Unweighted API importance** — the fraction of *packages* using the
//!   API, ignoring installation frequency (§5).
//! - **Weighted completeness** — for a system supporting a set of APIs,
//!   the expected fraction of an installation's packages that work:
//!   `Σ_supported p / Σ_all p`, with APT dependency closure (a package
//!   whose dependency is unsupported is unsupported too) (A.2).

use std::collections::HashSet;
use std::ops::Deref;
use std::sync::Arc;

use apistudy_catalog::{Api, ApiInterner, ApiKind, ApiSet};

use crate::depgraph::Condensation;
use crate::pipeline::{PackageRecord, StudyData};

/// The owned, borrow-free derived state every metric reads: per-API
/// dependent indices, the SCC condensation, per-component footprint
/// unions and closures, and the installation mass. Building it is the
/// expensive part of [`Metrics::new`] (~1 ms at 150 packages, growing
/// with the corpus), and it is deterministic in `StudyData` — so it can
/// be built **once** and shared across threads behind an [`Arc`] (the
/// serve daemon builds it at snapshot-seal time instead of per
/// connection). [`Metrics`] derefs to it.
pub struct MetricsIndex {
    /// Dependent package indices, indexed by interned API id.
    pub(crate) dependents: Vec<Vec<usize>>,
    /// How many packages *transitively* need each API (by interned id): a
    /// package needs its dependencies' APIs too (you cannot run anything
    /// without libc6's and the dynamic linker's calls). Used to order ties
    /// among the many APIs whose importance is exactly 1 (the paper's
    /// Figure 3 greedy order).
    pub(crate) closure_users: Vec<u32>,
    /// SCC condensation of the resolved `depends` graph.
    pub(crate) condensation: Condensation,
    /// Union of member footprints per component.
    pub(crate) comp_own: Vec<ApiSet>,
    /// Dependency-closed footprint per component (own union ∪ closures of
    /// every dependency component).
    pub(crate) comp_closure: Vec<ApiSet>,
    /// Components whose own footprint union contains each API, indexed by
    /// interned API id (deduplicated, ascending).
    pub(crate) comp_dependents: Vec<Vec<u32>>,
    pub(crate) total_mass: f64,
    /// The package count the index was built from, to catch pairing an
    /// index with the wrong data set.
    packages: usize,
}

/// Metric engine over a [`StudyData`] set.
///
/// Construction indexes dependent packages per interned API id and
/// condenses the dependency graph (Tarjan SCC, [`Condensation`]) once;
/// every closure the metrics need — dependency-closed footprints, failure
/// propagation, max-rank — is then a single bottom-up pass over the
/// condensation DAG instead of an iterated fixed point. Footprints stay
/// word-packed [`ApiSet`]s, so each propagation step is a word-wise OR.
///
/// All derived state lives in a shared [`MetricsIndex`]; a `Metrics` is a
/// thin handle pairing that index with the `StudyData` borrow, so callers
/// holding a prebuilt index ([`Metrics::with_index`]) pay nothing at
/// construction.
pub struct Metrics<'a> {
    data: &'a StudyData,
    index: Arc<MetricsIndex>,
}

impl Deref for Metrics<'_> {
    type Target = MetricsIndex;

    fn deref(&self) -> &MetricsIndex {
        &self.index
    }
}

impl MetricsIndex {
    /// Builds the per-API dependent index and the graph condensation.
    pub fn build(data: &StudyData) -> Self {
        let interner = ApiInterner::global();
        let universe = interner.universe();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); universe];
        for (i, p) in data.packages.iter().enumerate() {
            for id in p.footprint.apis.ids() {
                dependents[id as usize].push(i);
            }
        }
        let condensation = dependency_condensation(data);
        let ncomp = condensation.len();
        // Union of member footprints per component: within an SCC every
        // package transitively depends on every other, so the closure is
        // shared and starts from this union.
        let mut comp_own: Vec<ApiSet> = vec![ApiSet::new(); ncomp];
        for (i, p) in data.packages.iter().enumerate() {
            comp_own[condensation.comp_of(i) as usize]
                .union_with(&p.footprint.apis);
        }
        // Dependency-closed footprints in one bottom-up pass: component
        // ids are topological (dependencies first), so by the time `c` is
        // processed every dependency's closure is final.
        let mut comp_closure = comp_own.clone();
        for c in 0..ncomp {
            for &d in condensation.deps(c as u32) {
                let (lo, hi) = comp_closure.split_at_mut(c);
                hi[0].union_with(&lo[d as usize]);
            }
        }
        let mut closure_users = vec![0u32; universe];
        for (c, closed) in comp_closure.iter().enumerate() {
            let weight = condensation.members(c as u32).len() as u32;
            for id in closed.ids() {
                closure_users[id as usize] += weight;
            }
        }
        let mut comp_dependents: Vec<Vec<u32>> = vec![Vec::new(); universe];
        for (id, pkgs) in dependents.iter().enumerate() {
            let mut comps: Vec<u32> =
                pkgs.iter().map(|&i| condensation.comp_of(i)).collect();
            comps.sort_unstable();
            comps.dedup();
            comp_dependents[id] = comps;
        }
        let total_mass = data.total_mass();
        Self {
            dependents,
            closure_users,
            condensation,
            comp_own,
            comp_closure,
            comp_dependents,
            total_mass,
            packages: data.packages.len(),
        }
    }
}

/// The SCC condensation of `data`'s resolved `depends` graph (unknown
/// names and self-dependencies dropped).
fn dependency_condensation(data: &StudyData) -> Condensation {
    let dep_indices: Vec<Vec<usize>> = data
        .packages
        .iter()
        .enumerate()
        .map(|(i, p)| {
            p.depends
                .iter()
                .filter_map(|dep| data.by_name.get(dep).copied())
                .filter(|&d| d != i)
                .collect()
        })
        .collect();
    Condensation::new(&dep_indices)
}

/// Weighted completeness when `blocked(c)` says whether component `c`'s
/// own footprint uses an unsupported API: one bottom-up pass over the
/// condensation (component ids are topological, so each dependency
/// verdict is final when read), then the supported packages' mass.
fn completeness_unblocked(
    data: &StudyData,
    condensation: &Condensation,
    total_mass: f64,
    blocked: impl Fn(usize) -> bool,
) -> f64 {
    if total_mass == 0.0 {
        return 0.0;
    }
    let ncomp = condensation.len();
    let mut comp_ok = vec![false; ncomp];
    for c in 0..ncomp {
        comp_ok[c] = !blocked(c)
            && condensation.deps(c as u32).iter().all(|&d| comp_ok[d as usize]);
    }
    // Summed in package order — the canonical reduction every
    // completeness path (from-scratch or incremental) shares, so
    // results are bit-identical across them.
    let supported_mass: f64 = data
        .packages
        .iter()
        .enumerate()
        .filter(|&(i, _)| comp_ok[condensation.comp_of(i) as usize])
        .map(|(_, p)| p.prob)
        .sum();
    supported_mass / total_mass
}

/// [`Metrics::weighted_completeness_masked`] without building the
/// metrics index: it condenses the dependency graph and tests each
/// package's own footprint, which is all a single measurement needs (a
/// corruption-sweep point measures each data set once). A component's
/// footprint union meets the mask exactly when one of its members'
/// footprints does, so the result is bit-identical.
pub(crate) fn weighted_completeness_unindexed(
    data: &StudyData,
    unsupported: &ApiSet,
) -> f64 {
    let condensation = dependency_condensation(data);
    let mut blocked = vec![false; condensation.len()];
    for (i, p) in data.packages.iter().enumerate() {
        if p.footprint.apis.intersects(unsupported) {
            blocked[condensation.comp_of(i) as usize] = true;
        }
    }
    completeness_unblocked(data, &condensation, data.total_mass(), |c| blocked[c])
}

impl<'a> Metrics<'a> {
    /// Builds the full [`MetricsIndex`] for `data` and wraps it.
    pub fn new(data: &'a StudyData) -> Self {
        Self { data, index: Arc::new(MetricsIndex::build(data)) }
    }

    /// Wraps a prebuilt shared index. The index must have been built from
    /// this exact `data` (the serve snapshot guarantees it by sealing
    /// both together); pairing it with a different data set is a logic
    /// error and panics on the cheap package-count check.
    pub fn with_index(data: &'a StudyData, index: Arc<MetricsIndex>) -> Self {
        assert_eq!(
            index.packages,
            data.packages.len(),
            "metrics index was built from a different data set"
        );
        Self { data, index }
    }

    /// The shared derived-state index (for sealing alongside the data).
    pub fn index(&self) -> &Arc<MetricsIndex> {
        &self.index
    }

    /// The SCC condensation of the package dependency graph.
    pub fn condensation(&self) -> &Condensation {
        &self.index.condensation
    }

    /// A package's dependency-closed footprint: its own APIs plus every
    /// API of every package in its dependency closure.
    pub fn closed_footprint(&self, package: usize) -> &ApiSet {
        &self.comp_closure[self.condensation.comp_of(package) as usize]
    }

    /// Fraction of packages that transitively need an API (their own
    /// footprint or any dependency's).
    pub fn closure_unweighted_importance(&self, api: Api) -> f64 {
        let users = ApiInterner::global()
            .intern(api)
            .map_or(0, |id| self.closure_users[id as usize]);
        if self.data.packages.is_empty() {
            return 0.0;
        }
        f64::from(users) / self.data.packages.len() as f64
    }

    /// The underlying data set.
    pub fn data(&self) -> &StudyData {
        self.data
    }

    /// The dependent-package slice for an API (empty when unused or
    /// outside the interned universe).
    fn dependent_indices(&self, api: Api) -> &[usize] {
        ApiInterner::global()
            .intern(api)
            .map_or(&[][..], |id| &self.dependents[id as usize])
    }

    /// API importance (Appendix A.1).
    pub fn importance(&self, api: Api) -> f64 {
        let pkgs = self.dependent_indices(api);
        if pkgs.is_empty() {
            return 0.0;
        }
        let miss: f64 = pkgs
            .iter()
            .map(|&i| 1.0 - self.data.packages[i].prob)
            .product();
        1.0 - miss
    }

    /// Unweighted API importance (§5): fraction of packages using the API.
    pub fn unweighted_importance(&self, api: Api) -> f64 {
        let users = self.dependent_indices(api).len();
        if self.data.packages.is_empty() {
            return 0.0;
        }
        users as f64 / self.data.packages.len() as f64
    }

    /// The packages whose footprint requires an API, most-installed first.
    pub fn dependents(&self, api: Api) -> Vec<&PackageRecord> {
        let mut out: Vec<&PackageRecord> = self
            .dependent_indices(api)
            .iter()
            .map(|&i| &self.data.packages[i])
            .collect();
        out.sort_by(|a, b| b.prob.total_cmp(&a.prob).then(a.name.cmp(&b.name)));
        out
    }

    /// Importance of every catalog API of one kind, descending.
    pub fn importance_ranking(&self, kind: ApiKind) -> Vec<(Api, f64)> {
        let apis: Vec<Api> = match kind {
            ApiKind::Syscall => self
                .data
                .catalog
                .syscalls
                .iter()
                .map(|d| Api::Syscall(d.number))
                .collect(),
            ApiKind::Ioctl => (0..self.data.catalog.ioctl_ops.len() as u32)
                .map(Api::Ioctl)
                .collect(),
            ApiKind::Fcntl => (0..apistudy_catalog::FCNTL_OPS.len() as u32)
                .map(Api::Fcntl)
                .collect(),
            ApiKind::Prctl => (0..apistudy_catalog::PRCTL_OPS.len() as u32)
                .map(Api::Prctl)
                .collect(),
            ApiKind::PseudoFile => (0..self.data.catalog.pseudo_files.len() as u32)
                .map(Api::PseudoFile)
                .collect(),
            ApiKind::LibcSymbol => (0..self.data.catalog.libc.len() as u32)
                .map(Api::LibcSymbol)
                .collect(),
        };
        // Precompute every sort key once: the comparator runs O(n log n)
        // times, and the tie-break keys each cost an interner lookup. The
        // raw user counts order exactly like the fractions the public
        // accessors expose (same positive divisor).
        let interner = ApiInterner::global();
        let mut rows: Vec<(Api, f64, u32, u32)> = apis
            .into_iter()
            .map(|a| {
                let (closure, direct) = interner.intern(a).map_or((0, 0), |id| {
                    (
                        self.closure_users[id as usize],
                        self.dependents[id as usize].len() as u32,
                    )
                });
                (a, self.importance(a), closure, direct)
            })
            .collect();
        rows.sort_by(|x, y| {
            y.1.total_cmp(&x.1)
                // Greedy tie-break among equally important APIs: first by
                // how many packages transitively need them, then by direct
                // usage (paper §3.2's ordering).
                .then_with(|| y.2.cmp(&x.2))
                .then_with(|| y.3.cmp(&x.3))
                .then_with(|| x.0.cmp(&y.0))
        });
        rows.into_iter().map(|(a, imp, _, _)| (a, imp)).collect()
    }

    /// Weighted completeness of a system supporting `supported`, measured
    /// over the APIs selected by `scope` (Appendix A.2).
    ///
    /// A package is supported when every in-scope API of its footprint is
    /// in `supported` and all of its dependencies are supported. Builds
    /// the in-scope unsupported mask in one pass over the (small, fixed)
    /// API universe, then delegates to the mask fast path.
    pub fn weighted_completeness<F>(&self, supported: &HashSet<Api>, scope: F) -> f64
    where
        F: Fn(Api) -> bool,
    {
        let interner = ApiInterner::global();
        let mut unsupported = ApiSet::new();
        for id in 0..interner.universe() as u32 {
            let api = interner.resolve(id);
            if scope(api) && !supported.contains(&api) {
                unsupported.insert(api);
            }
        }
        self.weighted_completeness_masked(&unsupported)
    }

    /// Weighted completeness given a prebuilt mask of in-scope
    /// **unsupported** APIs — the fast path for sweep callers that would
    /// otherwise rebuild the mask by iterating the interner universe per
    /// call.
    ///
    /// One bottom-up pass over the condensation: a component is supported
    /// when no member footprint intersects the mask and every dependency
    /// component is supported (component ids are topological, so each
    /// dependency verdict is final when read).
    pub fn weighted_completeness_masked(&self, unsupported: &ApiSet) -> f64 {
        completeness_unblocked(self.data, &self.condensation, self.total_mass, |c| {
            self.comp_own[c].intersects(unsupported)
        })
    }

    /// The mask of syscall APIs **not** in `supported_numbers` — the
    /// reusable input to [`Metrics::weighted_completeness_masked`] for
    /// syscall-scoped sweeps.
    pub fn syscall_unsupported_mask(
        &self,
        supported_numbers: &HashSet<u32>,
    ) -> ApiSet {
        let mut unsupported = ApiSet::new();
        for d in self.data.catalog.syscalls.iter() {
            if !supported_numbers.contains(&d.number) {
                unsupported.insert(Api::Syscall(d.number));
            }
        }
        unsupported
    }

    /// Weighted completeness over system calls only, given supported
    /// syscall numbers — the Table 6 evaluation.
    pub fn syscall_completeness(&self, supported_numbers: &HashSet<u32>) -> f64 {
        self.weighted_completeness_masked(
            &self.syscall_unsupported_mask(supported_numbers),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_analysis::ApiFootprint;
    use apistudy_catalog::Catalog;
    use apistudy_corpus::MixCensus;
    use crate::pipeline::Attribution;

    /// Hand-built StudyData with known packages.
    fn fixture() -> StudyData {
        let catalog = Catalog::linux_3_19();
        let mk = |name: &str, prob: f64, apis: &[Api], deps: &[&str]| {
            let mut fp = ApiFootprint::default();
            fp.apis.extend(apis.iter().copied());
            PackageRecord {
                name: name.into(),
                prob,
                install_count: (prob * 1000.0) as u64,
                depends: deps.iter().map(|s| s.to_string()).collect(),
                footprint: fp,
                script_interpreters: vec![],
                file_counts: (1, 0, 0),
                unresolved_syscall_sites: 0,
                skipped_binaries: 0,
                partial_footprint: false,
            }
        };
        let packages = vec![
            mk("base", 1.0, &[Api::Syscall(0), Api::Syscall(1)], &[]),
            mk("half", 0.5, &[Api::Syscall(0), Api::Syscall(2)], &["base"]),
            mk("rare", 0.01, &[Api::Syscall(3)], &["half"]),
            mk("scripted", 0.2, &[Api::Syscall(0)], &["base"]),
        ];
        let by_name = packages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        StudyData {
            catalog,
            packages,
            by_name,
            total_installations: 1000,
            census: MixCensus::default(),
            attribution: Attribution::default(),
            unresolved_syscall_sites: 0,
            resolved_syscall_sites: 100,
            diagnostics: crate::diagnostics::RunDiagnostics::default(),
        }
    }

    #[test]
    fn importance_formula() {
        let data = fixture();
        let m = Metrics::new(&data);
        // syscall 0: used by base (1.0) → importance 1.
        assert_eq!(m.importance(Api::Syscall(0)), 1.0);
        // syscall 2: only `half` (0.5).
        assert_eq!(m.importance(Api::Syscall(2)), 0.5);
        // syscall 3: only `rare` (0.01).
        assert!((m.importance(Api::Syscall(3)) - 0.01).abs() < 1e-12);
        // unused syscall.
        assert_eq!(m.importance(Api::Syscall(100)), 0.0);
    }

    #[test]
    fn unweighted_importance_is_package_fraction() {
        let data = fixture();
        let m = Metrics::new(&data);
        assert_eq!(m.unweighted_importance(Api::Syscall(0)), 0.75);
        assert_eq!(m.unweighted_importance(Api::Syscall(3)), 0.25);
        assert_eq!(m.unweighted_importance(Api::Syscall(100)), 0.0);
    }

    #[test]
    fn dependents_sorted_by_popularity() {
        let data = fixture();
        let m = Metrics::new(&data);
        let deps = m.dependents(Api::Syscall(0));
        let names: Vec<&str> = deps.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, vec!["base", "half", "scripted"]);
    }

    #[test]
    fn completeness_counts_supported_mass() {
        let data = fixture();
        let m = Metrics::new(&data);
        // Support syscalls {0,1}: base ✓, scripted ✓, half ✗ (needs 2),
        // rare ✗ (needs 3 and its dep `half` fails anyway).
        let supported: HashSet<u32> = [0u32, 1].into_iter().collect();
        let c = m.syscall_completeness(&supported);
        let expect = (1.0 + 0.2) / (1.0 + 0.5 + 0.01 + 0.2);
        assert!((c - expect).abs() < 1e-12, "{c} vs {expect}");
    }

    #[test]
    fn dependency_failure_propagates() {
        let data = fixture();
        let m = Metrics::new(&data);
        // Support {0,2,3} but not 1: base fails → everything fails through
        // the dependency chain.
        let supported: HashSet<u32> = [0u32, 2, 3].into_iter().collect();
        let c = m.syscall_completeness(&supported);
        assert_eq!(c, 0.0);
    }

    #[test]
    fn full_support_is_total() {
        let data = fixture();
        let m = Metrics::new(&data);
        let supported: HashSet<u32> = (0..10).collect();
        assert!((m.syscall_completeness(&supported) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adding_an_api_never_lowers_completeness() {
        let data = fixture();
        let m = Metrics::new(&data);
        let mut supported: HashSet<u32> = HashSet::new();
        let mut last = m.syscall_completeness(&supported);
        for nr in 0..5 {
            supported.insert(nr);
            let now = m.syscall_completeness(&supported);
            assert!(now >= last);
            last = now;
        }
    }

    /// The pre-condensation closure: iterate OR-propagation over the raw
    /// dependency edges until nothing grows. Kept as the oracle the
    /// single-pass SCC closure is pinned against.
    fn fixpoint_closure_oracle(data: &StudyData) -> Vec<ApiSet> {
        let dep_indices: Vec<Vec<usize>> = data
            .packages
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.depends
                    .iter()
                    .filter_map(|dep| data.by_name.get(dep).copied())
                    .filter(|&d| d != i)
                    .collect()
            })
            .collect();
        let mut closed: Vec<ApiSet> = data
            .packages
            .iter()
            .map(|p| p.footprint.apis.clone())
            .collect();
        loop {
            let mut changed = false;
            for (i, deps) in dep_indices.iter().enumerate() {
                for &d in deps {
                    if d == i {
                        continue;
                    }
                    let src = closed[d].clone();
                    changed |= closed[i].union_with(&src);
                }
            }
            if !changed {
                break;
            }
        }
        closed
    }

    /// The pre-condensation completeness: per-package intersection test,
    /// then failure propagation iterated to fixed point, then the
    /// package-order mass sum. The oracle the one-pass path is pinned
    /// against (bit-identically).
    fn fixpoint_completeness_oracle(
        data: &StudyData,
        unsupported: &ApiSet,
    ) -> f64 {
        let total_mass = data.total_mass();
        if total_mass == 0.0 {
            return 0.0;
        }
        let dep_indices: Vec<Vec<usize>> = data
            .packages
            .iter()
            .enumerate()
            .map(|(i, p)| {
                p.depends
                    .iter()
                    .filter_map(|dep| data.by_name.get(dep).copied())
                    .filter(|&d| d != i)
                    .collect()
            })
            .collect();
        let mut ok: Vec<bool> = data
            .packages
            .iter()
            .map(|p| !p.footprint.apis.intersects(unsupported))
            .collect();
        loop {
            let mut changed = false;
            for i in 0..ok.len() {
                if ok[i] && dep_indices[i].iter().any(|&d| !ok[d]) {
                    ok[i] = false;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let supported_mass: f64 = data
            .packages
            .iter()
            .zip(&ok)
            .filter(|&(_, &s)| s)
            .map(|(p, _)| p.prob)
            .sum();
        supported_mass / total_mass
    }

    /// A fixture with a dependency cycle (a ↔ b) hanging off the chain,
    /// so the SCC paths see a non-trivial component.
    fn cyclic_fixture() -> StudyData {
        let catalog = Catalog::linux_3_19();
        let mk = |name: &str, prob: f64, apis: &[Api], deps: &[&str]| {
            let mut fp = ApiFootprint::default();
            fp.apis.extend(apis.iter().copied());
            PackageRecord {
                name: name.into(),
                prob,
                install_count: (prob * 1000.0) as u64,
                depends: deps.iter().map(|s| s.to_string()).collect(),
                footprint: fp,
                script_interpreters: vec![],
                file_counts: (1, 0, 0),
                unresolved_syscall_sites: 0,
                skipped_binaries: 0,
                partial_footprint: false,
            }
        };
        let packages = vec![
            mk("a", 0.9, &[Api::Syscall(0)], &["b"]),
            mk("b", 0.8, &[Api::Syscall(1)], &["a", "base"]),
            mk("base", 1.0, &[Api::Syscall(2)], &[]),
            mk("leaf", 0.3, &[Api::Syscall(3)], &["a"]),
        ];
        let by_name = packages
            .iter()
            .enumerate()
            .map(|(i, p)| (p.name.clone(), i))
            .collect();
        StudyData {
            catalog,
            packages,
            by_name,
            total_installations: 1000,
            census: MixCensus::default(),
            attribution: Attribution::default(),
            unresolved_syscall_sites: 0,
            resolved_syscall_sites: 100,
            diagnostics: crate::diagnostics::RunDiagnostics::default(),
        }
    }

    #[test]
    fn scc_closure_matches_fixpoint_oracle() {
        for data in [fixture(), cyclic_fixture()] {
            let m = Metrics::new(&data);
            let oracle = fixpoint_closure_oracle(&data);
            for (i, expected) in oracle.iter().enumerate() {
                assert_eq!(
                    m.closed_footprint(i),
                    expected,
                    "closure of package {i} ({})",
                    data.packages[i].name
                );
            }
        }
    }

    #[test]
    fn single_pass_completeness_matches_fixpoint_oracle_bitwise() {
        for data in [fixture(), cyclic_fixture()] {
            let m = Metrics::new(&data);
            // Every subset of the first 4 syscalls, cycles included.
            for mask in 0u32..16 {
                let supported: HashSet<u32> =
                    (0..4).filter(|&n| mask & (1 << n) != 0).collect();
                let unsupported = m.syscall_unsupported_mask(&supported);
                let fast = m.weighted_completeness_masked(&unsupported);
                let oracle = fixpoint_completeness_oracle(&data, &unsupported);
                assert_eq!(
                    fast.to_bits(),
                    oracle.to_bits(),
                    "mask {mask:04b}: {fast} vs {oracle}"
                );
                let unindexed =
                    weighted_completeness_unindexed(&data, &unsupported);
                assert_eq!(
                    unindexed.to_bits(),
                    oracle.to_bits(),
                    "mask {mask:04b}, unindexed: {unindexed} vs {oracle}"
                );
            }
        }
    }

    #[test]
    fn cycle_members_share_their_closure() {
        let data = cyclic_fixture();
        let m = Metrics::new(&data);
        // a and b are mutually dependent: identical closures containing
        // both footprints plus base's.
        assert_eq!(m.closed_footprint(0), m.closed_footprint(1));
        for nr in [0, 1, 2] {
            assert!(m.closed_footprint(0).contains(Api::Syscall(nr)));
        }
        // Supporting everything but syscall 1 fails the whole cycle and
        // leaf, leaving only base.
        let supported: HashSet<u32> = [0u32, 2, 3].into_iter().collect();
        let c = m.syscall_completeness(&supported);
        let expect = 1.0 / (0.9 + 0.8 + 1.0 + 0.3);
        assert!((c - expect).abs() < 1e-12, "{c} vs {expect}");
    }

    #[test]
    fn ranking_is_descending() {
        let data = fixture();
        let m = Metrics::new(&data);
        let ranking = m.importance_ranking(ApiKind::Syscall);
        assert_eq!(ranking.len(), data.catalog.syscalls.len());
        for w in ranking.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
        assert_eq!(ranking[0].0, Api::Syscall(0));
    }
}

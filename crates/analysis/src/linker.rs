//! Cross-binary footprint resolution.
//!
//! A binary's own code is only part of its footprint: most applications
//! reach the kernel through shared libraries (paper §2.3). The [`Linker`]
//! registers every analyzed shared library, resolves import references
//! through `DT_NEEDED` closures, and computes *closed* footprints — the
//! union of everything reachable through the cross-binary call graph —
//! as catalog-resolved [`ApiFootprint`]s.
//!
//! The paper implements this step as recursive SQL aggregation over a
//! Postgres database; here it is an explicit strongly-connected-component
//! condensation over the global function graph, computed once, on the
//! first query, after which every executable resolves in time proportional
//! to its own reachable set.
//!
//! Nothing is merged as strings. The first query interns every library
//! once ([`LinkUnit`]): catalog APIs become bits of the global
//! [`ApiInterner`], every other value an index that the linker numbers
//! into its own side table. A closed set is one row of words, the
//! catalog's followed by the side table's, and every SCC has one. The
//! condensation resolves each library's distinct imports once through
//! the analyses' own export tables and ORs rows per SCC; an executable's
//! footprint is its own interned facts ORed with the closed rows of its
//! imports. `unresolved` counts the distinct uncataloged values in the
//! union: the side table's bits, plus the executable's own values that no
//! library shares.
//!
//! A linker can extend a sealed base ([`Linker::over`]). The base's
//! libraries come first and keep the rows the base closed, so libraries
//! every shard links against are interned and closed once.

use std::collections::HashMap;
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

use apistudy_catalog::{ApiInterner, ApiSet};

use crate::api_footprint::ApiFootprint;
use crate::binary::BinaryAnalysis;
use crate::intern::{
    intern_values, libc_bit, Fact, Interned, LinkUnit, Uncataloged,
};

/// Node id in the global function graph.
type Node = u32;

/// An import no library in the search order exports.
const NO_NODE: Node = Node::MAX;

/// The cross-binary resolver.
///
/// Usage: [`Linker::add_library`] every shared library, then [`Linker::seal`]
/// once, then query [`Linker::resolve_executable`] /
/// [`Linker::resolve_export`] any number of times. The first query
/// condenses the function graph; a sealed linker nobody queries (a run
/// whose every footprint came from a cache) never builds it.
#[derive(Debug, Default)]
pub struct Linker {
    /// The sealed linker this one extends, if any ([`Linker::over`]).
    base: Option<Arc<Linker>>,
    units: Vec<LinkUnit>,
    by_soname: HashMap<String, usize>,
    /// Per-library node-id base offset.
    node_base: Vec<Node>,
    /// Number of nodes (library functions).
    nodes: Node,
    /// `DT_NEEDED` list → its closure, memoized once sealed.
    closures: RwLock<HashMap<Vec<String>, Arc<[usize]>>>,
    /// The closed rows, computed by the first query after
    /// [`Linker::seal`].
    closed: OnceLock<Closed>,
    sealed: bool,
}

/// The condensed graph: one closed row per SCC.
#[derive(Debug)]
struct Closed {
    /// Nodes below this one belong to the base and keep its rows.
    first: Node,
    /// Words in a row: the catalog's, then the side table's.
    width: usize,
    /// Uncataloged value → side id, numbered in registration order (the
    /// base's first). A row holds side id `k` at bit `k` past the
    /// catalog's words.
    side: HashMap<Uncataloged<Box<str>>, u32>,
    /// SCC of every node from `first` on.
    scc_of: Vec<u32>,
    /// Every SCC's row, in Tarjan emission order: SCC `s` owns words
    /// `s * width..(s + 1) * width`.
    rows: Vec<u64>,
}

impl Closed {
    fn row(&self, scc: usize) -> &[u64] {
        &self.rows[scc * self.width..(scc + 1) * self.width]
    }
}

fn set_bit(words: &mut [u64], bit: usize) {
    words[bit / 64] |= 1 << (bit % 64);
}

/// ORs a row into another (a base row's side ids are a prefix of this
/// linker's, so a base row is at most as wide).
fn or_row(dst: &mut [u64], row: &[u64]) {
    for (d, &word) in dst.iter_mut().zip(row) {
        *d |= word;
    }
}

impl Linker {
    /// Creates an empty linker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a linker whose first libraries are a sealed `base`'s, in
    /// the base's order. The base's closed rows are reused unless a library
    /// registered here takes a soname one of the base's libraries needs
    /// (its closure would change); then the whole graph is condensed
    /// afresh. Either way every query answers as it would on a linker that
    /// registered the base's libraries itself.
    pub fn over(base: Arc<Linker>) -> Self {
        assert!(base.sealed, "seal() the base first");
        Self {
            units: base.units.clone(),
            by_soname: base.by_soname.clone(),
            node_base: base.node_base.clone(),
            nodes: base.nodes,
            base: Some(base),
            ..Self::default()
        }
    }

    /// Registers a shared library by its `DT_SONAME` (falling back to the
    /// given name when the binary has none). Accepts either an owned
    /// analysis or a shared `Arc` (the incremental cache hands out the
    /// latter); the first query interns its facts with the rest of the
    /// graph. Must be called before [`Linker::seal`].
    pub fn add_library(
        &mut self,
        name_fallback: &str,
        ba: impl Into<Arc<BinaryAnalysis>>,
    ) -> usize {
        assert!(!self.sealed, "cannot add libraries after seal()");
        let unit = LinkUnit::new(ba.into());
        let ba = unit.analysis();
        let name = ba
            .soname
            .clone()
            .unwrap_or_else(|| name_fallback.to_owned());
        self.node_base.push(self.nodes);
        self.nodes += ba.funcs.len() as Node;
        let idx = self.units.len();
        self.units.push(unit);
        self.by_soname.insert(name, idx);
        idx
    }

    /// Number of registered libraries.
    pub fn library_count(&self) -> usize {
        self.units.len()
    }

    /// The analysis of a registered library, by soname.
    pub fn library(&self, soname: &str) -> Option<&BinaryAnalysis> {
        self.by_soname
            .get(soname)
            .map(|&i| &**self.units[i].analysis())
    }

    /// Iterates every registered `(soname, analysis)` pair (the pipeline's
    /// degradation-taint propagation walks `DT_NEEDED` edges through this).
    pub fn libraries_iter(
        &self,
    ) -> impl Iterator<Item = (&str, &BinaryAnalysis)> {
        self.by_soname
            .iter()
            .map(|(name, &i)| (name.as_str(), &**self.units[i].analysis()))
    }

    /// BFS over `DT_NEEDED` starting from the given sonames, returning
    /// library indices (as handed out by [`Linker::add_library`]) in
    /// search order. Unknown sonames are skipped. This is the exact
    /// closure [`Linker::resolve_executable`] resolves symbols through,
    /// which is why the incremental footprint cache derives its keys from
    /// it: a resolved footprint is a pure function of the executable and
    /// the libraries this walk visits. Once the linker is sealed, each
    /// distinct list is walked once (the condensation asks for every
    /// library's list, and libraries share lists).
    pub fn needed_closure(&self, roots: &[String]) -> Arc<[usize]> {
        if !self.sealed {
            return self.walk_needed(roots).into();
        }
        // Footprint-cache keys are derived on every worker at once:
        // readers share the lock.
        let memo = self.closures.read().unwrap_or_else(PoisonError::into_inner);
        if let Some(closure) = memo.get(roots) {
            return Arc::clone(closure);
        }
        drop(memo);
        let closure: Arc<[usize]> = self.walk_needed(roots).into();
        let mut memo =
            self.closures.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(memo.entry(roots.to_vec()).or_insert(closure))
    }

    fn walk_needed(&self, roots: &[String]) -> Vec<usize> {
        let mut order = Vec::new();
        let mut seen = vec![false; self.units.len()];
        let mut queue: Vec<&str> = roots.iter().map(String::as_str).collect();
        let mut qi = 0;
        while qi < queue.len() {
            let name = queue[qi];
            qi += 1;
            let Some(&idx) = self.by_soname.get(name) else {
                continue;
            };
            if std::mem::replace(&mut seen[idx], true) {
                continue;
            }
            order.push(idx);
            queue.extend(
                self.units[idx].analysis().needed.iter().map(String::as_str),
            );
        }
        order
    }

    /// Resolves an imported symbol through a needed-closure search order:
    /// the node of the first export by that name.
    fn resolve_symbol(&self, closure: &[usize], name: &str) -> Option<Node> {
        closure.iter().find_map(|&lib| {
            let func = self.units[lib].analysis().export(name)?;
            Some(self.node_base[lib] + func as Node)
        })
    }

    /// Ends registration. The function graph is built and condensed by
    /// the first query.
    pub fn seal(&mut self) {
        assert!(!self.sealed, "seal() called twice");
        self.sealed = true;
    }

    /// The condensed graph, computed once, by whichever query comes first.
    fn closed(&self) -> &Closed {
        assert!(self.sealed, "seal() the linker first");
        self.closed.get_or_init(|| self.condense())
    }

    /// The closed row of a node.
    fn row<'a>(&'a self, closed: &'a Closed, node: Node) -> &'a [u64] {
        if node < closed.first {
            let base = self
                .base
                .as_deref()
                .expect("nodes below first are the base's");
            return base.row(base.closed(), node);
        }
        closed.row(closed.scc_of[(node - closed.first) as usize] as usize)
    }

    /// Whether every soname the base's libraries need still names the
    /// same library here, so that the base's closures, and with them its
    /// closed rows, still hold.
    fn keeps_base_rows(&self, base: &Linker) -> bool {
        base.units
            .iter()
            .flat_map(|u| &u.analysis().needed)
            .all(|name| self.by_soname.get(name) == base.by_soname.get(name))
    }

    /// Builds the function graph past the base, condenses it (iterative
    /// Tarjan), and folds a closed row per SCC.
    fn condense(&self) -> Closed {
        let catalog_words = ApiInterner::global().words();
        let (first_lib, mut side) = match &self.base {
            Some(base) if self.keeps_base_rows(base) => {
                (base.units.len(), base.closed().side.clone())
            }
            _ => (0, HashMap::new()),
        };
        let side_ids: Vec<Box<[u32]>> = self.units[first_lib..]
            .iter()
            .map(|unit| {
                let values = &unit.facts().values;
                values
                    .iter()
                    .map(|value| {
                        let next = side.len() as u32;
                        *side.entry(value.clone()).or_insert(next)
                    })
                    .collect()
            })
            .collect();
        let width = catalog_words + side.len().div_ceil(64);
        let first =
            self.node_base.get(first_lib).copied().unwrap_or(self.nodes);

        // Edges, as one flat list: internal calls, then resolved imports,
        // each library's distinct imports resolved once.
        let n = (self.nodes - first) as usize;
        let mut owner: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut edge_start: Vec<u32> = Vec::with_capacity(n + 1);
        let mut targets: Vec<Node> = Vec::new();
        for li in first_lib..self.units.len() {
            let analysis = self.units[li].analysis();
            let unit = self.units[li].facts();
            let closure = self.needed_closure(&analysis.needed);
            // The node each distinct import resolves to, once resolved.
            let mut imported: Vec<Option<Node>> =
                vec![None; unit.imports as usize];
            let base = self.node_base[li];
            for (fi, f) in analysis.funcs.iter().enumerate() {
                owner.push((li as u32, fi as u32));
                edge_start.push(targets.len() as u32);
                targets.extend(
                    f.calls.iter().map(|&callee| base + callee as Node),
                );
                // Import facts follow the function's `imports` set in order.
                let mut names = f.facts.imports.iter();
                for fact in unit.of(fi) {
                    let Fact::Import(i) = *fact else { continue };
                    let name = names.next().expect("a fact per imported name");
                    let node = *imported[i as usize].get_or_insert_with(|| {
                        let node = self.resolve_symbol(&closure, name);
                        node.unwrap_or(NO_NODE)
                    });
                    if node != NO_NODE {
                        targets.push(node);
                    }
                }
            }
        }
        edge_start.push(targets.len() as u32);
        let edges = |v: usize| {
            &targets[edge_start[v] as usize..edge_start[v + 1] as usize]
        };

        // Iterative Tarjan over the nodes from `first` on (local index
        // `node - first`); edges into the base lead to closed rows.
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_of = vec![u32::MAX; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        // SCCs come out in reverse topological order (roots of the
        // condensation last), which is exactly the order we can fold
        // closed rows in. Members are listed flat, per SCC.
        let mut members: Vec<u32> = Vec::with_capacity(n);
        let mut scc_start: Vec<usize> = Vec::new();

        #[derive(Clone, Copy)]
        struct Frame {
            v: u32,
            edge: u32,
        }
        for start in 0..n as u32 {
            if index[start as usize] != u32::MAX {
                continue;
            }
            let mut frames = vec![Frame { v: start, edge: 0 }];
            index[start as usize] = next_index;
            lowlink[start as usize] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start as usize] = true;

            while let Some(frame) = frames.last_mut() {
                let v = frame.v as usize;
                if let Some(&t) = edges(v).get(frame.edge as usize) {
                    frame.edge += 1;
                    if t < first {
                        continue;
                    }
                    let w = t - first;
                    let wu = w as usize;
                    if index[wu] == u32::MAX {
                        index[wu] = next_index;
                        lowlink[wu] = next_index;
                        next_index += 1;
                        stack.push(w);
                        on_stack[wu] = true;
                        frames.push(Frame { v: w, edge: 0 });
                    } else if on_stack[wu] {
                        lowlink[v] = lowlink[v].min(index[wu]);
                    }
                } else {
                    // Finished v.
                    if lowlink[v] == index[v] {
                        let scc = scc_start.len() as u32;
                        scc_start.push(members.len());
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w as usize] = false;
                            scc_of[w as usize] = scc;
                            members.push(w);
                            if w as usize == v {
                                break;
                            }
                        }
                    }
                    let finished = frames.pop().expect("frame");
                    if let Some(parent) = frames.last() {
                        let p = parent.v as usize;
                        lowlink[p] =
                            lowlink[p].min(lowlink[finished.v as usize]);
                    }
                }
            }
        }

        // Closed row per SCC, folded in emission order (callees come out
        // of Tarjan before callers).
        let sccs = scc_start.len();
        scc_start.push(members.len());
        let base = self.base.as_deref().map(|b| (b, b.closed()));
        let mut rows = vec![0u64; sccs * width];
        for scc in 0..sccs {
            let (done, rest) = rows.split_at_mut(scc * width);
            let row = &mut rest[..width];
            for &v in &members[scc_start[scc]..scc_start[scc + 1]] {
                let v = v as usize;
                let (li, fi) = owner[v];
                let side_ids = &side_ids[li as usize - first_lib];
                for fact in self.units[li as usize].facts().of(fi as usize) {
                    match *fact {
                        Fact::Api(bit) => set_bit(row, bit as usize),
                        Fact::Value(value) => {
                            let id = side_ids[value as usize] as usize;
                            set_bit(row, catalog_words * 64 + id);
                        }
                        Fact::Import(_) => {}
                    }
                }
                for &t in edges(v) {
                    if t < first {
                        let (base, base_closed) =
                            base.expect("nodes below first are the base's");
                        or_row(row, base.row(base_closed, t));
                        continue;
                    }
                    let ts = scc_of[(t - first) as usize] as usize;
                    if ts != scc {
                        debug_assert!(ts < scc, "condensation order violated");
                        or_row(row, &done[ts * width..(ts + 1) * width]);
                    }
                }
            }
        }
        Closed {
            first,
            width,
            side,
            scc_of,
            rows,
        }
    }

    /// The footprint of dense row words, plus `own` uncataloged values no
    /// library shares.
    fn footprint(mut words: Vec<u64>, own: usize) -> ApiFootprint {
        let catalog_words = ApiInterner::global().words();
        let side: u32 =
            words[catalog_words..].iter().map(|w| w.count_ones()).sum();
        words.truncate(catalog_words);
        ApiFootprint {
            apis: ApiSet::from_words(words),
            unresolved: side + own as u32,
        }
    }

    /// The closed footprint of a library export: everything reachable from
    /// it across the whole library graph. `None` when unknown.
    pub fn resolve_export(
        &self,
        soname: &str,
        symbol: &str,
    ) -> Option<ApiFootprint> {
        let closed = self.closed();
        let &li = self.by_soname.get(soname)?;
        let node = self.node_base[li]
            + self.units[li].analysis().export(symbol)? as Node;
        let mut words = vec![0u64; closed.width];
        or_row(&mut words, self.row(closed, node));
        Some(Self::footprint(words, 0))
    }

    /// The closed footprint of an executable: its entry-reachable own facts
    /// plus the closed rows of every import it references, resolved
    /// through its `DT_NEEDED` closure.
    ///
    /// Every referenced dynamic symbol (from the executable and the
    /// libraries it pulls in) is a value of the footprint: a libc export
    /// as its catalog API, any other name counted in `unresolved`.
    ///
    /// The closure is walked here, not looked up in the memo: most
    /// executables' `DT_NEEDED` lists name their own package's libraries,
    /// so a memo entry would cost an insert and hardly ever be reused.
    pub fn resolve_executable(&self, ba: &BinaryAnalysis) -> ApiFootprint {
        let closed = self.closed();
        let closure = self.walk_needed(&ba.needed);
        let mut words = vec![0u64; closed.width];
        let mut own: Vec<Uncataloged<&str>> = Vec::new();
        let mut seen = vec![false; ba.funcs.len()];
        let mut stack: Vec<usize> = ba.entry.into_iter().collect();
        while let Some(i) = stack.pop() {
            let Some(flag) = seen.get_mut(i) else {
                continue;
            };
            if std::mem::replace(flag, true) {
                continue;
            }
            let f = &ba.funcs[i];
            intern_values(&f.facts, |v| match v {
                Interned::Api(bit) => set_bit(&mut words, bit as usize),
                Interned::Other(value) => own.push(value),
            });
            for name in &f.facts.imports {
                if let Some(node) = self.resolve_symbol(&closure, name) {
                    or_row(&mut words, self.row(closed, node));
                }
                match libc_bit(name) {
                    Some(bit) => set_bit(&mut words, bit as usize),
                    None => own.push(Uncataloged::Import(name)),
                }
            }
            stack.extend(f.calls.iter().copied());
        }
        own.sort_unstable();
        own.dedup();
        if !closed.side.is_empty() {
            // A value some library also uses counts once, as its side bit.
            let catalog_words = ApiInterner::global().words();
            own.retain(|value| match closed.side.get(&value.to_boxed()) {
                Some(&id) => {
                    set_bit(&mut words, catalog_words * 64 + id as usize);
                    false
                }
                None => true,
            });
        }
        Self::footprint(words, own.len())
    }

    /// The closed footprint of a whole library: union over all its exports
    /// (used when an interpreter package's footprint stands in for its
    /// scripts, paper §2.3).
    pub fn resolve_whole_library(&self, soname: &str) -> Option<ApiFootprint> {
        let closed = self.closed();
        let &li = self.by_soname.get(soname)?;
        let mut words = vec![0u64; closed.width];
        for &func in self.units[li].analysis().exports.values() {
            let node = self.node_base[li] + func as Node;
            or_row(&mut words, self.row(closed, node));
        }
        Some(Self::footprint(words, 0))
    }
}

/// The string-merge linker the interned one replaced, kept as the
/// reference its differential tests compare against: closed footprints
/// are `BTreeSet` unions, resolved against the catalog afterwards.
#[cfg(test)]
mod reference {
    use std::collections::{BTreeSet, HashMap};
    use std::sync::Arc;

    use crate::binary::BinaryAnalysis;
    use crate::facts::Footprint;

    type Node = u32;

    #[derive(Default)]
    pub(super) struct StringLinker {
        libs: Vec<Arc<BinaryAnalysis>>,
        by_soname: HashMap<String, usize>,
        node_base: Vec<u32>,
        closed: Vec<Arc<Footprint>>,
    }

    impl StringLinker {
        pub(super) fn add_library(
            &mut self,
            name_fallback: &str,
            ba: Arc<BinaryAnalysis>,
        ) {
            let name = ba
                .soname
                .clone()
                .unwrap_or_else(|| name_fallback.to_owned());
            let idx = self.libs.len();
            self.libs.push(ba);
            self.by_soname.insert(name, idx);
        }

        pub(super) fn needed_closure(&self, roots: &[String]) -> Vec<usize> {
            let mut order = Vec::new();
            let mut seen = BTreeSet::new();
            let mut queue: Vec<&str> =
                roots.iter().map(String::as_str).collect();
            let mut qi = 0;
            while qi < queue.len() {
                let name = queue[qi];
                qi += 1;
                let Some(&idx) = self.by_soname.get(name) else {
                    continue;
                };
                if !seen.insert(idx) {
                    continue;
                }
                order.push(idx);
                for dep in &self.libs[idx].needed {
                    queue.push(dep);
                }
            }
            order
        }

        fn resolve_symbol(
            &self,
            closure: &[usize],
            name: &str,
        ) -> Option<(usize, usize)> {
            for &lib in closure {
                if let Some(func) = self.libs[lib].export(name) {
                    return Some((lib, func));
                }
            }
            None
        }

        /// Numbers the nodes and condenses the graph at once.
        pub(super) fn seal(&mut self) {
            let mut total: u32 = 0;
            for lib in &self.libs {
                self.node_base.push(total);
                total += lib.funcs.len() as u32;
            }
            self.closed = self.condense();
        }

        fn condense(&self) -> Vec<Arc<Footprint>> {
            let total: u32 =
                self.libs.iter().map(|lib| lib.funcs.len() as u32).sum();
            let node_of = |lib: usize, func: usize| -> Node {
                self.node_base[lib] + func as u32
            };
            let closures: Vec<Vec<usize>> = self
                .libs
                .iter()
                .map(|lib| self.needed_closure(&lib.needed))
                .collect();
            let mut edges: Vec<Vec<Node>> = vec![Vec::new(); total as usize];
            for (li, lib) in self.libs.iter().enumerate() {
                for (fi, f) in lib.funcs.iter().enumerate() {
                    let n = node_of(li, fi) as usize;
                    for &callee in &f.calls {
                        edges[n].push(node_of(li, callee));
                    }
                    for imp in &f.facts.imports {
                        if let Some((tl, tf)) =
                            self.resolve_symbol(&closures[li], imp)
                        {
                            edges[n].push(node_of(tl, tf));
                        }
                    }
                }
            }
            let n = total as usize;
            let mut index = vec![u32::MAX; n];
            let mut lowlink = vec![0u32; n];
            let mut on_stack = vec![false; n];
            let mut scc_of = vec![u32::MAX; n];
            let mut stack: Vec<u32> = Vec::new();
            let mut next_index = 0u32;
            let mut scc_count = 0u32;
            let mut scc_members: Vec<Vec<u32>> = Vec::new();
            for start in 0..n as u32 {
                if index[start as usize] != u32::MAX {
                    continue;
                }
                let mut frames = vec![(start, 0usize)];
                index[start as usize] = next_index;
                lowlink[start as usize] = next_index;
                next_index += 1;
                stack.push(start);
                on_stack[start as usize] = true;
                while let Some(frame) = frames.last_mut() {
                    let v = frame.0 as usize;
                    if frame.1 < edges[v].len() {
                        let w = edges[v][frame.1];
                        frame.1 += 1;
                        let wu = w as usize;
                        if index[wu] == u32::MAX {
                            index[wu] = next_index;
                            lowlink[wu] = next_index;
                            next_index += 1;
                            stack.push(w);
                            on_stack[wu] = true;
                            frames.push((w, 0));
                        } else if on_stack[wu] {
                            lowlink[v] = lowlink[v].min(index[wu]);
                        }
                    } else {
                        if lowlink[v] == index[v] {
                            let mut members = Vec::new();
                            loop {
                                let w = stack.pop().expect("tarjan stack");
                                on_stack[w as usize] = false;
                                scc_of[w as usize] = scc_count;
                                members.push(w);
                                if w as usize == v {
                                    break;
                                }
                            }
                            scc_members.push(members);
                            scc_count += 1;
                        }
                        let finished = frames.pop().expect("frame");
                        if let Some(parent) = frames.last() {
                            let p = parent.0 as usize;
                            lowlink[p] =
                                lowlink[p].min(lowlink[finished.0 as usize]);
                        }
                    }
                }
            }
            let mut scc_closed: Vec<Arc<Footprint>> =
                Vec::with_capacity(scc_count as usize);
            for members in &scc_members {
                let mut fp = Footprint::new();
                for &m in members {
                    let (li, fi) = self.locate(m);
                    fp.merge(&self.libs[li].funcs[fi].facts);
                    for &w in &edges[m as usize] {
                        let ws = scc_of[w as usize];
                        if ws != scc_of[m as usize] {
                            fp.merge(&scc_closed[ws as usize]);
                        }
                    }
                }
                scc_closed.push(Arc::new(fp));
            }
            (0..n)
                .map(|v| Arc::clone(&scc_closed[scc_of[v] as usize]))
                .collect()
        }

        fn locate(&self, node: Node) -> (usize, usize) {
            let li = match self.node_base.binary_search(&node) {
                Ok(i) => {
                    let mut i = i;
                    while i + 1 < self.node_base.len()
                        && self.node_base[i + 1] == node
                    {
                        i += 1;
                    }
                    i
                }
                Err(i) => i - 1,
            };
            (li, (node - self.node_base[li]) as usize)
        }

        pub(super) fn resolve_export(
            &self,
            soname: &str,
            symbol: &str,
        ) -> Option<&Footprint> {
            let &li = self.by_soname.get(soname)?;
            let fi = self.libs[li].export(symbol)?;
            Some(&self.closed[(self.node_base[li] + fi as u32) as usize])
        }

        pub(super) fn resolve_executable(
            &self,
            ba: &BinaryAnalysis,
        ) -> Footprint {
            let mut out = ba.entry_facts();
            let closure = self.needed_closure(&ba.needed);
            let imports: Vec<String> = out.imports.iter().cloned().collect();
            for imp in imports {
                if let Some((li, fi)) = self.resolve_symbol(&closure, &imp) {
                    let node = (self.node_base[li] + fi as u32) as usize;
                    out.merge(&self.closed[node]);
                }
            }
            out
        }

        pub(super) fn resolve_whole_library(
            &self,
            soname: &str,
        ) -> Option<Footprint> {
            let &li = self.by_soname.get(soname)?;
            let lib = &self.libs[li];
            let mut out = Footprint::new();
            for &fi in lib.exports.values() {
                let node = (self.node_base[li] + fi as u32) as usize;
                out.merge(&self.closed[node]);
            }
            Some(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_catalog::{Api, Catalog};
    use apistudy_elf::{ElfBuilder, ElfFile};
    use apistudy_x86::{Asm, Reg};

    /// Builds a tiny libc exposing `do_write` (write syscall) and `do_open`
    /// (open syscall) where `do_open` also calls `do_write` internally.
    fn build_libc() -> BinaryAnalysis {
        let mut b = ElfBuilder::shared_library("libc.so.6");
        let w = b.declare_export("do_write");
        let o = b.declare_export("do_open");
        let emit = |base: u64| {
            let mut a = Asm::new(base);
            let w_start = a.here();
            a.mov_imm32(Reg::RAX, 1);
            a.syscall();
            a.ret();
            let w_len = a.here() - w_start;
            a.align(16);
            let o_start = a.here();
            a.mov_imm32(Reg::RAX, 2);
            a.syscall();
            a.call(w_start);
            a.ret();
            let o_len = a.here() - o_start;
            (a.finish(), (w_start, w_len), (o_start, o_len))
        };
        let probe = emit(0).0.len() as u64;
        let layout = b.layout(probe, 0);
        let (code, wspan, ospan) = emit(layout.text_addr);
        b.set_text(code);
        b.bind_export(w, wspan.0 - layout.text_addr, wspan.1);
        b.bind_export(o, ospan.0 - layout.text_addr, ospan.1);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        BinaryAnalysis::analyze(&elf).unwrap()
    }

    /// Builds an executable calling `do_open` from the libc above.
    fn build_exec(import: &str) -> BinaryAnalysis {
        let mut b = ElfBuilder::executable();
        b.needed("libc.so.6");
        let imp = b.declare_import(import);
        let emit = |base: u64, plt: u64| {
            let mut a = Asm::new(base);
            a.call(plt);
            a.ret();
            a.finish()
        };
        let probe = emit(0x1000, 0x1000).len() as u64;
        let layout = b.layout(probe, 0);
        let code = emit(layout.text_addr, layout.plt_stub_addr(imp));
        let len = code.len() as u64;
        b.set_text(code);
        b.set_entry(0);
        b.local_symbol("_start", 0, len);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        BinaryAnalysis::analyze(&elf).unwrap()
    }

    fn syscalls(fp: &ApiFootprint) -> Vec<u32> {
        fp.syscalls().collect()
    }

    #[test]
    fn export_footprints_are_closed_over_internal_calls() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let w = linker.resolve_export("libc.so.6", "do_write").unwrap();
        assert_eq!(syscalls(&w), vec![1]);
        assert_eq!(w.unresolved, 0, "no syscall past the table");
        let o = linker.resolve_export("libc.so.6", "do_open").unwrap();
        assert_eq!(
            syscalls(&o),
            vec![1, 2],
            "do_open reaches write through the internal call"
        );
        assert_eq!(o.unresolved, 0, "no syscall past the table");
    }

    #[test]
    fn executable_resolution_pulls_library_syscalls() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let exe = build_exec("do_open");
        let fp = linker.resolve_executable(&exe);
        assert!(fp.contains(Api::Syscall(1)));
        assert!(fp.contains(Api::Syscall(2)));
        assert_eq!(
            fp.unresolved, 1,
            "do_open is recorded, as a non-libc import"
        );
    }

    #[test]
    fn only_reachable_exports_contribute() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let exe = build_exec("do_write");
        let fp = linker.resolve_executable(&exe);
        assert!(fp.contains(Api::Syscall(1)));
        assert!(
            !fp.contains(Api::Syscall(2)),
            "open is not reachable from do_write"
        );
    }

    #[test]
    fn unknown_import_is_tolerated() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let exe = build_exec("no_such_symbol");
        let fp = linker.resolve_executable(&exe);
        assert_eq!(fp.syscalls().count(), 0);
        assert_eq!(
            fp.unresolved, 1,
            "no_such_symbol is recorded, and no syscall past the table"
        );
    }

    #[test]
    fn whole_library_union() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let fp = linker.resolve_whole_library("libc.so.6").unwrap();
        assert_eq!(syscalls(&fp), vec![1, 2]);
        assert_eq!(fp.unresolved, 0, "no syscall past the table");
        assert!(linker.resolve_whole_library("nope.so").is_none());
    }

    #[test]
    fn mutual_recursion_across_functions_terminates() {
        // Library with two mutually recursive exports; SCC handling must
        // union their facts.
        let mut b = ElfBuilder::shared_library("librec.so");
        let f = b.declare_export("f");
        let g = b.declare_export("g");
        let emit = |base: u64, f_at: u64, g_at: u64| {
            let mut a = Asm::new(base);
            // f: syscall 10; call g; ret
            a.mov_imm32(Reg::RAX, 10);
            a.syscall();
            a.call(g_at);
            a.ret();
            a.align(16);
            let g_start = a.here();
            a.mov_imm32(Reg::RAX, 11);
            a.syscall();
            a.call(f_at);
            a.ret();
            (a.finish(), g_start)
        };
        let (probe, g_probe) = emit(0x100, 0x100, 0x100);
        let _ = g_probe;
        let layout = b.layout(probe.len() as u64, 0);
        // Two-pass: g's offset is stable because code size doesn't depend
        // on targets (rel32 always).
        let (_, g_at) =
            emit(layout.text_addr, layout.text_addr, layout.text_addr);
        let (code, g_at2) = emit(layout.text_addr, layout.text_addr, g_at);
        assert_eq!(g_at, g_at2);
        let glen = code.len() as u64 - (g_at - layout.text_addr);
        b.set_text(code);
        b.bind_export(f, 0, g_at - layout.text_addr);
        b.bind_export(g, g_at - layout.text_addr, glen);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ba = BinaryAnalysis::analyze(&elf).unwrap();

        let mut linker = Linker::new();
        linker.add_library("librec.so", ba);
        linker.seal();
        let f_fp = linker.resolve_export("librec.so", "f").unwrap();
        let g_fp = linker.resolve_export("librec.so", "g").unwrap();
        assert_eq!(f_fp, g_fp, "SCC members share the closure");
        assert!(
            f_fp.contains(Api::Syscall(10)) && f_fp.contains(Api::Syscall(11))
        );
    }

    #[test]
    fn a_base_is_closed_once_and_shared() {
        let mut base = Linker::new();
        base.add_library("libc.so.6", build_libc());
        base.seal();
        let base = Arc::new(base);
        let exe = build_exec("do_open");
        let want = base.resolve_executable(&exe);
        assert_eq!((syscalls(&want), want.unresolved), (vec![1, 2], 1));
        for _ in 0..2 {
            let mut shard = Linker::over(Arc::clone(&base));
            shard.seal();
            assert_eq!(shard.resolve_executable(&exe), want);
            assert_eq!(shard.closed().first, base.nodes, "base rows reused");
        }
        let libc = ["libc.so.6".to_owned()];
        assert!(
            Arc::ptr_eq(
                &base.needed_closure(&libc),
                &base.needed_closure(&libc)
            ),
            "each distinct needed list is walked once"
        );

        // A shard library that imports from the kept base closes over the
        // base's rows: `f0` imports libc's `printf` (syscall 1).
        let libc: LibSpec = (
            2,
            vec![],
            vec![([0b10, 0, 0, 0, 0, 0], vec![])],
            vec![(3, 0)],
        );
        let uses_printf: LibSpec = (
            0,
            vec![2],
            vec![([0, 0, 0, 0, 0b1000, 0], vec![])],
            vec![(0, 0)],
        );
        let libs = [build_lib(&libc), build_lib(&uses_printf)];
        let exe = build_exec_spec(&(
            vec![0],
            vec![([0, 0, 0, 0, 0b1, 0], vec![])],
            Some(0),
        ));
        let mut base = Linker::new();
        base.add_library("fallback.so", Arc::clone(&libs[0]));
        base.seal();
        let mut shard = Linker::over(Arc::new(base));
        shard.add_library("fallback.so", Arc::clone(&libs[1]));
        shard.seal();
        assert_eq!(syscalls(&shard.resolve_executable(&exe)), vec![1]);
        assert_eq!(shard.closed().first, 1, "base rows reused");
        check_graph(&libs, 1, &[exe]).unwrap();

        // A shard library named like a soname a base library needs changes
        // that library's closure: the shard condenses the whole graph.
        let needs_d: LibSpec = (
            0,
            vec![3],
            vec![([0b1, 0, 0, 0, 0, 0], vec![])],
            vec![(0, 0)],
        );
        let d: LibSpec = (
            3,
            vec![],
            vec![([0b10, 0, 0, 0, 0, 0], vec![])],
            vec![(1, 0)],
        );
        let mut base = Linker::new();
        base.add_library("fallback.so", build_lib(&needs_d));
        base.seal();
        let mut shard = Linker::over(Arc::new(base));
        shard.add_library("fallback.so", build_lib(&d));
        shard.seal();
        assert_eq!(shard.closed().first, 0, "base rows recomputed");
        let f0 = shard.resolve_export("liba.so", "f0").unwrap();
        assert_eq!(syscalls(&f0), vec![0], "f0 does not import from libd");
    }

    // --- Differential tests against the string-merge reference ---------

    use proptest::prelude::*;
    use reference::StringLinker;

    const SONAMES: [&str; 4] = ["liba.so", "libb.so", "libc.so.6", "libd.so"];
    /// Needed lists draw from the sonames plus one nobody registers.
    const NEEDED: [&str; 5] =
        ["liba.so", "libb.so", "libc.so.6", "libd.so", "libgone.so"];
    /// Export names: library-private ones, and two libc symbols that a
    /// package library may shadow by search order.
    const EXPORTS: [&str; 5] = ["f0", "f1", "f2", "printf", "read"];
    /// Import names: the exports, a non-libc helper nobody exports, and a
    /// libc symbol nobody exports.
    const IMPORTS: [&str; 7] =
        ["f0", "f1", "f2", "printf", "read", "helper", "malloc"];
    /// Syscall 448 is past the 3.19 table.
    const SYSCALLS: [u32; 5] = [0, 1, 2, 231, 448];
    /// One known ioctl (TCGETS), one unknown.
    const IOCTLS: [u64; 2] = [0x5401, 0xDEAD_BEEF];
    const FCNTLS: [u64; 2] = [1, 0x7777];
    const PRCTLS: [u64; 2] = [22, 0x7777];
    /// One tracked pseudo-file, one format pattern's instance, one
    /// untracked path.
    const PATHS: [&str; 3] = ["/dev/null", "/proc/1/stat", "/untracked/path"];

    fn pick<T: Copy>(pool: &[T], mask: u8) -> impl Iterator<Item = T> + '_ {
        pool.iter()
            .enumerate()
            .filter(move |(i, _)| mask >> i & 1 == 1)
            .map(|(_, &v)| v)
    }

    /// Per pool (syscalls, ioctls, fcntls, prctls, imports, paths), a mask
    /// whose bit `i` selects element `i`; then raw call targets (taken
    /// modulo the function count).
    type FuncSpec = ([u8; 6], Vec<usize>);

    /// A splitmix64 stream: every choice of a random graph.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn list(&mut self, max_len: usize, bound: usize) -> Vec<usize> {
            let len = self.below(max_len + 1);
            (0..len).map(|_| self.below(bound)).collect()
        }

        fn func(&mut self) -> FuncSpec {
            // AND-ing two random masks keeps about one value in four.
            let masks =
                std::array::from_fn(|_| (self.next() & self.next()) as u8);
            (masks, self.list(2, 8))
        }

        fn lib(&mut self) -> LibSpec {
            let soname = self.below(SONAMES.len());
            let needed = self.list(2, NEEDED.len());
            // Zero functions is the empty library.
            let funcs = (0..self.below(5)).map(|_| self.func()).collect();
            let exports = (0..self.below(4))
                .map(|_| (self.below(EXPORTS.len()), self.below(8)))
                .collect();
            (soname, needed, funcs, exports)
        }

        fn exec(&mut self) -> ExecSpec {
            let needed = self.list(3, NEEDED.len());
            let funcs = (0..1 + self.below(3)).map(|_| self.func()).collect();
            let entry = (self.below(10) > 0).then(|| self.below(4));
            (needed, funcs, entry)
        }
    }

    fn facts(masks: [u8; 6]) -> crate::Footprint {
        let mut f = crate::Footprint::new();
        f.syscalls.extend(pick(&SYSCALLS, masks[0]));
        f.ioctl_codes.extend(pick(&IOCTLS, masks[1]));
        f.fcntl_codes.extend(pick(&FCNTLS, masks[2]));
        f.prctl_codes.extend(pick(&PRCTLS, masks[3]));
        f.imports
            .extend(pick(&IMPORTS, masks[4]).map(str::to_owned));
        f.paths.extend(pick(&PATHS, masks[5]).map(str::to_owned));
        f
    }

    fn binary(
        class: apistudy_elf::BinaryClass,
        soname: Option<&str>,
        needed: &[usize],
        funcs: &[FuncSpec],
        exports: &[(usize, usize)],
        entry: Option<usize>,
    ) -> BinaryAnalysis {
        let n = funcs.len();
        BinaryAnalysis {
            class,
            soname: soname.map(str::to_owned),
            needed: needed.iter().map(|&i| NEEDED[i].to_owned()).collect(),
            funcs: funcs
                .iter()
                .enumerate()
                .map(|(i, (masks, calls))| crate::FuncInfo {
                    name: format!("sub_{i}"),
                    addr: i as u64,
                    size: 1,
                    facts: facts(*masks),
                    calls: calls.iter().map(|&c| c % n).collect(),
                })
                .collect(),
            exports: if n == 0 {
                HashMap::new()
            } else {
                exports
                    .iter()
                    .map(|&(s, f)| (EXPORTS[s].to_owned(), f % n))
                    .collect()
            },
            entry: entry.filter(|_| n > 0).map(|e| e % n),
            instructions: 0,
        }
    }

    type LibSpec = (usize, Vec<usize>, Vec<FuncSpec>, Vec<(usize, usize)>);

    type ExecSpec = (Vec<usize>, Vec<FuncSpec>, Option<usize>);

    fn build_lib(
        (soname, needed, funcs, exports): &LibSpec,
    ) -> Arc<BinaryAnalysis> {
        Arc::new(binary(
            apistudy_elf::BinaryClass::SharedLib,
            Some(SONAMES[*soname]),
            needed,
            funcs,
            exports,
            None,
        ))
    }

    fn build_exec_spec((needed, funcs, entry): &ExecSpec) -> BinaryAnalysis {
        binary(
            apistudy_elf::BinaryClass::DynExec,
            None,
            needed,
            funcs,
            &[],
            *entry,
        )
    }

    /// Checks every query of `linker` against the reference over the same
    /// libraries.
    fn assert_matches_reference(
        linker: &Linker,
        reference: &StringLinker,
        execs: &[BinaryAnalysis],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let catalog = Catalog::linux_3_19();
        for (i, exe) in execs.iter().enumerate() {
            prop_assert_eq!(
                &*linker.needed_closure(&exe.needed),
                &reference.needed_closure(&exe.needed)[..]
            );
            let want = ApiFootprint::resolve(
                &catalog,
                &reference.resolve_executable(exe),
            );
            prop_assert_eq!(
                linker.resolve_executable(exe),
                want,
                "executable {}",
                i
            );
        }
        for soname in NEEDED {
            let want = reference
                .resolve_whole_library(soname)
                .map(|raw| ApiFootprint::resolve(&catalog, &raw));
            prop_assert_eq!(
                linker.resolve_whole_library(soname),
                want,
                "library {}",
                soname
            );
            for symbol in EXPORTS {
                let want = reference
                    .resolve_export(soname, symbol)
                    .map(|raw| ApiFootprint::resolve(&catalog, raw));
                prop_assert_eq!(
                    linker.resolve_export(soname, symbol),
                    want,
                    "{}:{}",
                    soname,
                    symbol
                );
            }
        }
        Ok(())
    }

    /// Links `libs` three ways: the reference, one interned linker over all
    /// of them, and an interned linker over a sealed base of the first
    /// `split` (whose rows a later library can invalidate by taking a
    /// soname the base needs).
    fn check_graph(
        libs: &[Arc<BinaryAnalysis>],
        split: usize,
        execs: &[BinaryAnalysis],
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let mut reference = StringLinker::default();
        let mut whole = Linker::new();
        let mut base = Linker::new();
        for (i, ba) in libs.iter().enumerate() {
            reference.add_library("fallback.so", Arc::clone(ba));
            whole.add_library("fallback.so", Arc::clone(ba));
            if i < split {
                base.add_library("fallback.so", Arc::clone(ba));
            }
        }
        reference.seal();
        whole.seal();
        base.seal();
        assert_matches_reference(&whole, &reference, execs)?;
        let base = Arc::new(base);
        // Close the base first, as a run's earlier shard would.
        let _ = base.resolve_whole_library(SONAMES[0]);
        let mut over = Linker::over(base);
        for ba in &libs[split..] {
            over.add_library("fallback.so", Arc::clone(ba));
        }
        over.seal();
        assert_matches_reference(&over, &reference, execs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Random library graphs: cycles within and across libraries,
        // exports shadowed by search order, reused sonames (the last
        // registration wins), an unknown soname in DT_NEEDED, empty
        // libraries, syscall 448, unknown vectored codes, non-libc imports
        // and untracked paths reached through several imports, and
        // executables whose own uncataloged values libraries share. Every
        // query answers as the string-merge reference does.
        #[test]
        fn interned_linker_matches_the_string_merge_reference(seed in any::<u64>()) {
            let mut draw = Draw(seed);
            let libs: Vec<_> = (0..draw.below(7)).map(|_| build_lib(&draw.lib())).collect();
            let execs: Vec<_> =
                (0..1 + draw.below(3)).map(|_| build_exec_spec(&draw.exec())).collect();
            let split = draw.below(libs.len() + 1);
            check_graph(&libs, split, &execs)?;
        }
    }

    /// Every case the differential test names, in one fixed graph (masks
    /// index the pools above):
    /// - `libd.f1` imports `liba`'s `f0` and `liba.f0` imports `libd`'s
    ///   `f1`: a cycle across libraries, beside `liba`'s internal one;
    /// - `liba` exports `read`, shadowing libc's for whoever searches
    ///   `liba` first;
    /// - `libb.so` and `libc.so.6` are each registered twice (the last
    ///   registration wins), the first `libc.so.6` an empty library;
    /// - `libd` needs `libgone.so`, which nobody registers;
    /// - `helper` (a non-libc import nobody exports) and `/untracked/path`
    ///   are in both `liba.f0` and `libd.f1`, which the executable reaches
    ///   through two imports;
    /// - syscall 448 and an unknown ioctl code are in `libd.f1` and in the
    ///   executable's own code.
    #[test]
    fn the_listed_cases_match_the_reference() {
        let f = |masks: [u8; 6], calls: &[usize]| (masks, calls.to_vec());
        let specs: [LibSpec; 6] = [
            // libd.so: needs liba.so and libgone.so; f1 → func 0.
            (
                3,
                vec![0, 4],
                vec![f([0b1_0000, 0b10, 0, 0, 0b10_0001, 0b100], &[])],
                vec![(1, 0)],
            ),
            // liba.so: needs libd.so and libc.so.6; f0 → func 0, read → func 1.
            (
                0,
                vec![3, 2],
                vec![
                    f([0, 0, 0, 0, 0b10_0010, 0b100], &[1]),
                    f([0b1, 0, 0, 0, 0, 0], &[0]),
                ],
                vec![(0, 0), (4, 1)],
            ),
            // An empty libc.so.6, shadowed below.
            (2, vec![], vec![], vec![]),
            // libb.so twice: syscall 2, then syscall 231; f2 → func 0.
            (
                1,
                vec![0],
                vec![f([0b100, 0, 0, 0, 0, 0], &[])],
                vec![(2, 0)],
            ),
            (
                1,
                vec![0],
                vec![f([0b1000, 0, 0, 0, 0, 0], &[])],
                vec![(2, 0)],
            ),
            // libc.so.6: printf and read → func 0 (syscall 1).
            (
                2,
                vec![],
                vec![f([0b10, 0, 0, 0, 0, 0], &[])],
                vec![(3, 0), (4, 0)],
            ),
        ];
        let libs: Vec<_> = specs.iter().map(build_lib).collect();
        // Needs libb.so, liba.so and libgone.so; imports f0, f1, f2 and
        // read, and calls a helper that imports f2 again.
        let exe: ExecSpec = (
            vec![1, 0, 4],
            vec![
                f([0b1_0000, 0b10, 0, 0, 0b1_0111, 0], &[1]),
                f([0, 0, 0, 0, 0b100, 0], &[]),
            ],
            Some(0),
        );
        let execs = vec![build_exec_spec(&exe)];
        let catalog = Catalog::linux_3_19();
        let mut reference = StringLinker::default();
        for ba in &libs {
            reference.add_library("fallback.so", Arc::clone(ba));
        }
        reference.seal();
        let raw = reference.resolve_executable(&execs[0]);
        assert!(
            raw.imports.contains("helper")
                && raw.paths.contains("/untracked/path")
        );
        assert_eq!(
            ApiFootprint::resolve(&catalog, &raw).unresolved,
            7,
            "448, the unknown ioctl, f0, f1, f2, helper and /untracked/path, each once"
        );
        for split in 0..=libs.len() {
            check_graph(&libs, split, &execs).unwrap();
        }
    }
}

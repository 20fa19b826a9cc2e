//! Cross-binary footprint resolution.
//!
//! A binary's own code is only part of its footprint: most applications
//! reach the kernel through shared libraries (paper §2.3). The [`Linker`]
//! registers every analyzed shared library, resolves import references
//! through `DT_NEEDED` closures, and computes *closed* footprints — the
//! union of everything reachable through the cross-binary call graph.
//!
//! The paper implements this step as recursive SQL aggregation over a
//! Postgres database; here it is an explicit strongly-connected-component
//! condensation over the global function graph, computed once, on the
//! first query, after which every executable resolves in time proportional
//! to its own reachable set.

use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, OnceLock};

use crate::binary::BinaryAnalysis;
use crate::facts::Footprint;

/// Node id in the global function graph.
type Node = u32;

/// The cross-binary resolver.
///
/// Usage: [`Linker::add_library`] every shared library, then [`Linker::seal`]
/// once, then query [`Linker::resolve_executable`] /
/// [`Linker::resolve_export`] any number of times. The first query
/// condenses the function graph; a sealed linker nobody queries (a run
/// whose every footprint came from a cache) never builds it.
#[derive(Debug, Default)]
pub struct Linker {
    libs: Vec<Arc<BinaryAnalysis>>,
    by_soname: HashMap<String, usize>,
    /// Per-library node-id base offset.
    node_base: Vec<u32>,
    /// Closed footprint per node (shared within an SCC), computed by the
    /// first query after [`Linker::seal`].
    closed: OnceLock<Vec<Arc<Footprint>>>,
    sealed: bool,
}

impl Linker {
    /// Creates an empty linker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a shared library by its `DT_SONAME` (falling back to the
    /// given name when the binary has none). Accepts either an owned
    /// analysis or a shared `Arc` (the incremental cache hands out the
    /// latter). Must be called before [`Linker::seal`].
    pub fn add_library(
        &mut self,
        name_fallback: &str,
        ba: impl Into<Arc<BinaryAnalysis>>,
    ) -> usize {
        assert!(!self.sealed, "cannot add libraries after seal()");
        let ba = ba.into();
        let name = ba.soname.clone().unwrap_or_else(|| name_fallback.to_owned());
        let idx = self.libs.len();
        self.libs.push(ba);
        self.by_soname.insert(name, idx);
        idx
    }

    /// Number of registered libraries.
    pub fn library_count(&self) -> usize {
        self.libs.len()
    }

    /// The analysis of a registered library, by soname.
    pub fn library(&self, soname: &str) -> Option<&BinaryAnalysis> {
        self.by_soname.get(soname).map(|&i| &*self.libs[i])
    }

    /// Iterates every registered `(soname, analysis)` pair (the pipeline's
    /// degradation-taint propagation walks `DT_NEEDED` edges through this).
    pub fn libraries_iter(&self) -> impl Iterator<Item = (&str, &BinaryAnalysis)> {
        self.by_soname.iter().map(|(name, &i)| (name.as_str(), &*self.libs[i]))
    }

    /// BFS over `DT_NEEDED` starting from the given sonames, returning
    /// library indices (as handed out by [`Linker::add_library`]) in
    /// search order. Unknown sonames are skipped. This is the exact
    /// closure [`Linker::resolve_executable`] resolves symbols through,
    /// which is why the incremental footprint cache derives its keys from
    /// it: a resolved footprint is a pure function of the executable and
    /// the libraries this walk visits.
    pub fn needed_closure(&self, roots: &[String]) -> Vec<usize> {
        let mut order = Vec::new();
        let mut seen = BTreeSet::new();
        let mut queue: Vec<&str> = roots.iter().map(String::as_str).collect();
        let mut qi = 0;
        while qi < queue.len() {
            let name = queue[qi];
            qi += 1;
            let Some(&idx) = self.by_soname.get(name) else { continue };
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

    /// Resolves an imported symbol through a needed-closure search order.
    fn resolve_symbol(&self, closure: &[usize], name: &str) -> Option<(usize, usize)> {
        for &lib in closure {
            if let Some(func) = self.libs[lib].export(name) {
                return Some((lib, func));
            }
        }
        None
    }

    /// Ends registration and numbers the global function graph's nodes.
    /// The graph itself is built and condensed by the first query.
    pub fn seal(&mut self) {
        assert!(!self.sealed, "seal() called twice");
        self.sealed = true;
        self.node_base = Vec::with_capacity(self.libs.len());
        let mut total: u32 = 0;
        for lib in &self.libs {
            self.node_base.push(total);
            total += lib.funcs.len() as u32;
        }
    }

    /// The closed footprint of every node, computed once, by whichever
    /// query comes first.
    fn closed(&self) -> &[Arc<Footprint>] {
        assert!(self.sealed, "seal() the linker first");
        self.closed.get_or_init(|| self.condense())
    }

    /// Builds the global function graph, condenses it (iterative Tarjan),
    /// and computes the closed footprint of every library function.
    fn condense(&self) -> Vec<Arc<Footprint>> {
        let total: u32 = self.libs.iter().map(|lib| lib.funcs.len() as u32).sum();
        let node_of = |lib: usize, func: usize| -> Node {
            self.node_base[lib] + func as u32
        };

        // Edges: internal calls + resolved imports.
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
                    if let Some((tl, tf)) = self.resolve_symbol(&closures[li], imp)
                    {
                        edges[n].push(node_of(tl, tf));
                    }
                }
            }
        }

        // Iterative Tarjan SCC.
        let n = total as usize;
        let mut index = vec![u32::MAX; n];
        let mut lowlink = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut scc_of = vec![u32::MAX; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next_index = 0u32;
        let mut scc_count = 0u32;
        // SCCs come out in reverse topological order (roots of the
        // condensation last), which is exactly the order we can fold
        // closed footprints in.
        let mut scc_members: Vec<Vec<u32>> = Vec::new();

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
                if (frame.edge as usize) < edges[v].len() {
                    let w = edges[v][frame.edge as usize];
                    frame.edge += 1;
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
                        let p = parent.v as usize;
                        lowlink[p] =
                            lowlink[p].min(lowlink[finished.v as usize]);
                    }
                }
            }
        }

        // Closed footprint per SCC, folded in emission order (callees come
        // out of Tarjan before callers).
        let mut scc_closed: Vec<Arc<Footprint>> =
            Vec::with_capacity(scc_count as usize);
        for members in &scc_members {
            let mut fp = Footprint::new();
            for &m in members {
                // Own facts: find the owning library/function.
                let (li, fi) = self.locate(m);
                fp.merge(&self.libs[li].funcs[fi].facts);
                // Cross-SCC edges: already computed (lower SCC ids).
                for &w in &edges[m as usize] {
                    let ws = scc_of[w as usize];
                    if ws != scc_of[m as usize] {
                        debug_assert!(
                            (ws as usize) < scc_closed.len(),
                            "condensation order violated"
                        );
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

    /// Maps a node id back to `(library index, function index)`.
    fn locate(&self, node: Node) -> (usize, usize) {
        let li = match self.node_base.binary_search(&node) {
            Ok(i) => {
                // Several empty libraries can share a base; take the last
                // one whose base equals the node and has functions.
                let mut i = i;
                while i + 1 < self.node_base.len() && self.node_base[i + 1] == node
                {
                    i += 1;
                }
                i
            }
            Err(i) => i - 1,
        };
        (li, (node - self.node_base[li]) as usize)
    }

    /// The closed footprint of a library export: everything reachable from
    /// it across the whole library graph. `None` when unknown.
    pub fn resolve_export(&self, soname: &str, symbol: &str) -> Option<&Footprint> {
        let closed = self.closed();
        let &li = self.by_soname.get(soname)?;
        let fi = self.libs[li].export(symbol)?;
        Some(&closed[(self.node_base[li] + fi as u32) as usize])
    }

    /// The closed footprint of an executable: its entry-reachable own facts
    /// plus the closed footprints of every import it references, resolved
    /// through its `DT_NEEDED` closure.
    ///
    /// The returned footprint's `imports` records every referenced dynamic
    /// symbol (from the executable and the libraries it pulls in).
    pub fn resolve_executable(&self, ba: &BinaryAnalysis) -> Footprint {
        let closed = self.closed();
        let mut out = ba.entry_facts();
        let closure = self.needed_closure(&ba.needed);
        let imports: Vec<String> = out.imports.iter().cloned().collect();
        for imp in imports {
            if let Some((li, fi)) = self.resolve_symbol(&closure, &imp) {
                let node = (self.node_base[li] + fi as u32) as usize;
                out.merge(&closed[node]);
            }
        }
        out
    }

    /// The closed footprint of a whole library: union over all its exports
    /// (used when an interpreter package's footprint stands in for its
    /// scripts, paper §2.3).
    pub fn resolve_whole_library(&self, soname: &str) -> Option<Footprint> {
        let closed = self.closed();
        let &li = self.by_soname.get(soname)?;
        let lib = &self.libs[li];
        let mut out = Footprint::new();
        for &fi in lib.exports.values() {
            let node = (self.node_base[li] + fi as u32) as usize;
            out.merge(&closed[node]);
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn export_footprints_are_closed_over_internal_calls() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let w = linker.resolve_export("libc.so.6", "do_write").unwrap();
        assert_eq!(w.syscalls.iter().copied().collect::<Vec<_>>(), vec![1]);
        let o = linker.resolve_export("libc.so.6", "do_open").unwrap();
        assert_eq!(
            o.syscalls.iter().copied().collect::<Vec<_>>(),
            vec![1, 2],
            "do_open reaches write through the internal call"
        );
    }

    #[test]
    fn executable_resolution_pulls_library_syscalls() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let exe = build_exec("do_open");
        let fp = linker.resolve_executable(&exe);
        assert!(fp.syscalls.contains(&1));
        assert!(fp.syscalls.contains(&2));
        assert!(fp.imports.contains("do_open"));
    }

    #[test]
    fn only_reachable_exports_contribute() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let exe = build_exec("do_write");
        let fp = linker.resolve_executable(&exe);
        assert!(fp.syscalls.contains(&1));
        assert!(
            !fp.syscalls.contains(&2),
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
        assert!(fp.syscalls.is_empty());
        assert!(fp.imports.contains("no_such_symbol"));
    }

    #[test]
    fn whole_library_union() {
        let mut linker = Linker::new();
        linker.add_library("libc.so.6", build_libc());
        linker.seal();
        let fp = linker.resolve_whole_library("libc.so.6").unwrap();
        assert_eq!(fp.syscalls.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
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
        let (_, g_at) = emit(layout.text_addr, layout.text_addr, layout.text_addr);
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
        assert_eq!(f_fp.syscalls, g_fp.syscalls);
        assert!(f_fp.syscalls.contains(&10) && f_fp.syscalls.contains(&11));
    }
}

//! Property-based tests on the substrates and the metric algebra.

use std::collections::HashSet;

use proptest::prelude::*;

use apistudy::catalog::Api;
use apistudy::core::{Metrics, Study, StudyData};
use apistudy::corpus::codegen::{
    generate_executable, generate_library, ExecSpec, ExportSpec, LibSpec,
    VectoredVia,
};
use apistudy::corpus::Scale;
use apistudy::elf::ElfFile;
use apistudy::x86::{decode, Asm, Decoder, Insn, Reg};

// ---------------------------------------------------------------------
// x86: the decoder never panics and always makes progress.
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn decoder_total_on_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut consumed = 0usize;
        for d in Decoder::new(&bytes, 0x1000) {
            prop_assert!(d.len >= 1, "decoder must make progress");
            consumed += d.len;
        }
        prop_assert_eq!(consumed, bytes.len(), "decoder must consume everything");
    }

    // Encoder output decodes back to the same semantics.
    #[test]
    fn mov_imm_roundtrip(reg in 0u8..12, imm in any::<u32>()) {
        let mut a = Asm::new(0x4000);
        a.mov_imm32(Reg(reg), imm);
        let code = a.finish();
        let d = decode(&code, 0x4000);
        prop_assert_eq!(d.insn, Insn::MovImm { reg: Reg(reg), imm: u64::from(imm) });
        prop_assert_eq!(d.len, code.len());
    }

    #[test]
    fn call_roundtrip(base in 0x1000u64..0x10_0000, off in -200_000i64..200_000) {
        let target = base.wrapping_add(off as u64);
        let mut a = Asm::new(base);
        a.call(target);
        let code = a.finish();
        let d = decode(&code, base);
        prop_assert_eq!(d.insn, Insn::CallRel { target });
    }

    #[test]
    fn lea_roundtrip(base in 0x10_000u64..0x20_000, reg in 0u8..12, off in -30_000i64..30_000) {
        let target = base.wrapping_add(off as u64);
        let mut a = Asm::new(base);
        a.lea_rip(Reg(reg), target);
        let code = a.finish();
        let d = decode(&code, base);
        prop_assert_eq!(d.insn, Insn::LeaRip { reg: Reg(reg), target });
    }

    // Mixed emission streams decode with no Unknown instructions.
    #[test]
    fn emitted_streams_have_no_unknown(ops in proptest::collection::vec(0u8..8, 1..64)) {
        let mut a = Asm::new(0x7000);
        for op in &ops {
            match op {
                0 => a.mov_imm32(Reg::RAX, 7),
                1 => a.syscall(),
                2 => a.push_rbp(),
                3 => a.pop_rbp(),
                4 => a.xor_self(Reg::RDI),
                5 => a.sub_rsp(16),
                6 => a.nops(3),
                _ => a.ret(),
            }
        }
        let code = a.finish();
        for d in Decoder::new(&code, 0x7000) {
            prop_assert!(d.insn != Insn::Unknown, "emitted byte stream must decode");
        }
    }
}

// ---------------------------------------------------------------------
// ELF + codegen: generated objects always parse, and footprint-relevant
// content round-trips.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn generated_executables_roundtrip(
        seed in any::<u64>(),
        n_calls in 0usize..20,
        n_syscalls in 0usize..20,
        helpers in 1u32..6,
        is_static in any::<bool>(),
    ) {
        let spec = ExecSpec {
            is_static,
            needed: if is_static { vec![] } else { vec!["libc.so.6".into()] },
            libc_calls: if is_static {
                vec![]
            } else {
                (0..n_calls).map(|i| format!("fn_{i}")).collect()
            },
            direct_syscalls: (0..n_syscalls as u32).collect(),
            ioctl_codes: vec![(0x5401, VectoredVia::Inline)],
            paths: vec!["/dev/null".into()],
            helpers,
            seed,
            ..Default::default()
        };
        let bytes = generate_executable(&spec);
        let elf = ElfFile::parse(&bytes).expect("generated ELF parses");
        let ba = apistudy::analysis::BinaryAnalysis::analyze(&elf).expect("analyzes");
        let fp = ba.entry_facts();
        for nr in 0..n_syscalls as u32 {
            let have = fp.syscalls.contains(&nr);
            prop_assert!(have, "syscall {} lost", nr);
        }
        prop_assert!(fp.ioctl_codes.contains(&0x5401));
        prop_assert!(fp.paths.contains("/dev/null"));
        if !is_static {
            for i in 0..n_calls {
                let name = format!("fn_{i}");
                prop_assert!(fp.imports.contains(&name));
            }
        }
        prop_assert_eq!(fp.unresolved_syscall_sites, 0);
    }

    #[test]
    fn generated_libraries_roundtrip(
        n_exports in 1usize..12,
        n_syscalls in 0u32..8,
    ) {
        let spec = LibSpec {
            soname: "libprop.so.1".into(),
            needed: vec![],
            exports: (0..n_exports)
                .map(|i| ExportSpec {
                    name: format!("export_{i}"),
                    direct_syscalls: (0..n_syscalls).collect(),
                    pad_to: 64 * (i as u32 % 4),
                    ..Default::default()
                })
                .collect(),
        };
        let bytes = generate_library(&spec);
        let elf = ElfFile::parse(&bytes).expect("parses");
        let ba = apistudy::analysis::BinaryAnalysis::analyze(&elf).expect("analyzes");
        for i in 0..n_exports {
            let idx = ba.export(&format!("export_{i}")).expect("export found");
            let fp = ba.reachable_facts([idx]);
            prop_assert_eq!(fp.syscalls.len(), n_syscalls as usize);
        }
    }
}

// ---------------------------------------------------------------------
// Metric algebra over a real (small) study.
// ---------------------------------------------------------------------

fn small_study() -> &'static StudyData {
    use std::sync::OnceLock;
    static STUDY: OnceLock<Box<Study>> = OnceLock::new();
    STUDY
        .get_or_init(|| {
            Box::new(Study::run(
                Scale { packages: 120, installations: 20_000 },
                9,
            ))
        })
        .data()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Weighted completeness is monotone under adding supported APIs.
    #[test]
    fn completeness_monotone(mut supported in proptest::collection::hash_set(0u32..323, 0..200),
                             extra in 0u32..323) {
        let data = small_study();
        let metrics = Metrics::new(data);
        let before = metrics.syscall_completeness(&supported);
        supported.insert(extra);
        let after = metrics.syscall_completeness(&supported);
        prop_assert!(after >= before - 1e-12);
    }

    // Importance is bounded and consistent with dependents.
    #[test]
    fn importance_bounds(nr in 0u32..323) {
        let data = small_study();
        let metrics = Metrics::new(data);
        let api = Api::Syscall(nr);
        let imp = metrics.importance(api);
        prop_assert!((0.0..=1.0).contains(&imp));
        let deps = metrics.dependents(api);
        if deps.is_empty() {
            prop_assert_eq!(imp, 0.0);
        } else {
            // Importance is at least the best single dependent's probability.
            let best = deps.iter().map(|p| p.prob).fold(0.0, f64::max);
            prop_assert!(imp >= best - 1e-12);
        }
        let unweighted = metrics.unweighted_importance(api);
        prop_assert!((0.0..=1.0).contains(&unweighted));
        prop_assert_eq!(
            unweighted == 0.0,
            imp == 0.0,
            "weighted and unweighted agree on zero"
        );
    }
}

#[test]
fn full_and_empty_support_bound_the_metric() {
    let data = small_study();
    let metrics = Metrics::new(data);
    let all: HashSet<u32> = (0..400).collect();
    assert!((metrics.syscall_completeness(&all) - 1.0).abs() < 1e-9);
    let none: HashSet<u32> = HashSet::new();
    let c = metrics.syscall_completeness(&none);
    assert!(c < 0.05, "no syscalls -> (almost) nothing works: {c}");
}

// ---------------------------------------------------------------------
// Condensation and the incremental completeness engine over *random*
// dependency graphs, cycles very much included. The oracles are the
// pre-condensation fixed-point loops, re-implemented here verbatim; the
// single-pass and incremental paths must match them bit-for-bit.
// ---------------------------------------------------------------------

/// Builds a study whose package `i` has weight `weights[i]`, own
/// footprint = the syscalls of `masks[i]`'s set bits (numbers 0..8), and
/// the dependency edges of `edges` (taken mod the package count;
/// self-edges and duplicates are left in deliberately).
fn random_dep_study(
    weights: &[u32],
    masks: &[u8],
    edges: &[(usize, usize)],
) -> StudyData {
    use apistudy::core::{ApiFootprint, Attribution, PackageRecord};
    let n = weights.len();
    let packages: Vec<PackageRecord> = (0..n)
        .map(|i| {
            let mut fp = ApiFootprint::default();
            for bit in 0..8u32 {
                if masks[i] & (1 << bit) != 0 {
                    fp.apis.insert(Api::Syscall(bit));
                }
            }
            let depends: Vec<String> = edges
                .iter()
                .filter(|&&(from, _)| from % n == i)
                .map(|&(_, to)| format!("pkg{}", to % n))
                .collect();
            PackageRecord {
                name: format!("pkg{i}"),
                prob: f64::from(weights[i]) / 100.0,
                install_count: u64::from(weights[i]),
                depends,
                footprint: fp,
                script_interpreters: vec![],
                file_counts: (1, 0, 0),
                unresolved_syscall_sites: 0,
                skipped_binaries: 0,
                partial_footprint: false,
            }
        })
        .collect();
    let by_name = packages
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.clone(), i))
        .collect();
    StudyData {
        catalog: apistudy::catalog::Catalog::linux_3_19(),
        packages,
        by_name,
        total_installations: 100,
        census: apistudy::corpus::MixCensus::default(),
        attribution: Attribution::default(),
        unresolved_syscall_sites: 0,
        resolved_syscall_sites: 1,
        diagnostics: apistudy::core::RunDiagnostics::default(),
    }
}

/// The replaced implementation of weighted completeness: per-package
/// support flags, dependency-failure propagation iterated to a fixed
/// point, then the canonical package-order mass sum.
fn fixpoint_completeness(data: &StudyData, supported: &HashSet<u32>) -> f64 {
    let n = data.packages.len();
    let mut ok: Vec<bool> = data
        .packages
        .iter()
        .map(|p| p.footprint.syscalls().all(|nr| supported.contains(&nr)))
        .collect();
    loop {
        let mut changed = false;
        for i in 0..n {
            if !ok[i] {
                continue;
            }
            let broken_dep = data.packages[i].depends.iter().any(|dep| {
                data.by_name.get(dep).is_some_and(|&d| !ok[d])
            });
            if broken_dep {
                ok[i] = false;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let total_mass = data.total_mass();
    if total_mass == 0.0 {
        return 0.0;
    }
    let supported_mass: f64 = data
        .packages
        .iter()
        .enumerate()
        .filter(|&(i, _)| ok[i])
        .map(|(_, p)| p.prob)
        .sum();
    supported_mass / total_mass
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // The condensation single pass equals the fixed point, bitwise, on
    // arbitrary graphs (cycles, self-edges, duplicate edges).
    #[test]
    fn single_pass_completeness_matches_fixpoint_on_random_graphs(
        weights in proptest::collection::vec(1u32..100, 2..10),
        masks in proptest::collection::vec(any::<u8>(), 10..11),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25),
        supported_mask in any::<u8>(),
    ) {
        let data = random_dep_study(&weights, &masks, &edges);
        let metrics = Metrics::new(&data);
        let supported: HashSet<u32> = (0..8u32)
            .filter(|bit| supported_mask & (1 << bit) != 0)
            .collect();
        let fast = metrics.syscall_completeness(&supported);
        let oracle = fixpoint_completeness(&data, &supported);
        prop_assert_eq!(
            fast.to_bits(), oracle.to_bits(),
            "single-pass {} vs fixpoint {}", fast, oracle
        );
    }

    // The SCC single-pass closure equals the OR fixed point it replaced.
    #[test]
    fn scc_closure_matches_or_fixpoint_on_random_graphs(
        weights in proptest::collection::vec(1u32..100, 2..10),
        masks in proptest::collection::vec(any::<u8>(), 10..11),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25),
    ) {
        use apistudy::catalog::ApiSet;
        let data = random_dep_study(&weights, &masks, &edges);
        let metrics = Metrics::new(&data);
        let n = data.packages.len();
        let mut closed: Vec<ApiSet> = data
            .packages
            .iter()
            .map(|p| p.footprint.apis.clone())
            .collect();
        loop {
            let mut changed = false;
            for i in 0..n {
                for dep in &data.packages[i].depends {
                    let Some(&d) = data.by_name.get(dep) else { continue };
                    if d == i {
                        continue;
                    }
                    let dep_set = closed[d].clone();
                    changed |= closed[i].union_with(&dep_set);
                }
            }
            if !changed {
                break;
            }
        }
        for (i, expected) in closed.iter().enumerate() {
            prop_assert!(
                *metrics.closed_footprint(i) == *expected,
                "closure of package {} diverges from the OR fixed point", i
            );
        }
    }

    // An engine driven through an arbitrary add/remove sequence reports
    // exactly what a from-scratch evaluation of the final set reports —
    // after every single operation, and each op's delta accounts for the
    // completeness movement exactly.
    #[test]
    fn engine_matches_scratch_after_every_op(
        weights in proptest::collection::vec(1u32..100, 2..10),
        masks in proptest::collection::vec(any::<u8>(), 10..11),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25),
        ops in proptest::collection::vec((any::<bool>(), 0u32..8), 1..30),
    ) {
        use apistudy::core::CompletenessEngine;
        let data = random_dep_study(&weights, &masks, &edges);
        let metrics = Metrics::new(&data);
        let mut supported: HashSet<u32> = HashSet::new();
        let mut engine = CompletenessEngine::for_syscalls(&metrics, &supported);
        for &(add, nr) in &ops {
            let before = engine.completeness();
            let delta = if add {
                supported.insert(nr);
                engine.add_api(Api::Syscall(nr))
            } else {
                supported.remove(&nr);
                engine.remove_api(Api::Syscall(nr))
            };
            let scratch = metrics.syscall_completeness(&supported);
            prop_assert_eq!(
                engine.completeness().to_bits(), scratch.to_bits(),
                "after {} {}: engine {} vs scratch {}",
                if add { "add" } else { "remove" }, nr,
                engine.completeness(), scratch
            );
            prop_assert_eq!(
                (engine.completeness() - before).to_bits(), delta.to_bits(),
                "delta must account for the movement"
            );
        }
    }

    // Probing never perturbs the engine: an add/remove round trip lands
    // on the exact starting bit pattern.
    #[test]
    fn probe_round_trip_is_bitwise_exact(
        weights in proptest::collection::vec(1u32..100, 2..10),
        masks in proptest::collection::vec(any::<u8>(), 10..11),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..25),
        supported_mask in any::<u8>(),
        probes in proptest::collection::vec(0u32..10, 1..20),
    ) {
        use apistudy::core::CompletenessEngine;
        let data = random_dep_study(&weights, &masks, &edges);
        let metrics = Metrics::new(&data);
        let supported: HashSet<u32> = (0..8u32)
            .filter(|bit| supported_mask & (1 << bit) != 0)
            .collect();
        let mut engine = CompletenessEngine::for_syscalls(&metrics, &supported);
        let start = engine.completeness().to_bits();
        for &nr in &probes {
            let gain = engine.probe_gain(Api::Syscall(nr));
            prop_assert!(gain >= 0.0);
            prop_assert_eq!(engine.completeness().to_bits(), start);
        }
    }
}

// ---------------------------------------------------------------------
// ELF robustness: the parser is total over corrupted inputs — it returns
// an error or a harmless parse, never panics (the paper's trust-the-
// disassembler assumption must not extend to trusting the container).
// ---------------------------------------------------------------------

fn valid_elf_bytes() -> Vec<u8> {
    let spec = ExecSpec {
        needed: vec!["libc.so.6".into()],
        libc_calls: vec!["printf".into(), "open".into()],
        direct_syscalls: vec![0, 1, 2],
        paths: vec!["/dev/null".into()],
        helpers: 2,
        seed: 5,
        ..Default::default()
    };
    generate_executable(&spec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn parser_survives_truncation(cut in 0usize..4096) {
        let bytes = valid_elf_bytes();
        let cut = cut.min(bytes.len());
        let truncated = &bytes[..cut];
        // Must not panic; errors are fine. A successful parse must also
        // survive the full analysis path.
        if let Ok(elf) = ElfFile::parse(truncated) {
            let _ = apistudy::analysis::BinaryAnalysis::analyze(&elf);
        }
    }

    #[test]
    fn parser_survives_byte_flips(
        flips in proptest::collection::vec((0usize..4096, any::<u8>()), 1..16)
    ) {
        let mut bytes = valid_elf_bytes();
        for (pos, val) in flips {
            let n = bytes.len();
            bytes[pos % n] = val;
        }
        if let Ok(elf) = ElfFile::parse(&bytes) {
            let _ = elf.symtab();
            let _ = elf.dynsym();
            let _ = elf.needed_libraries();
            let _ = elf.plt_map();
            let _ = apistudy::analysis::BinaryAnalysis::analyze(&elf);
        }
    }

    #[test]
    fn parser_survives_random_header_fields(
        words in proptest::collection::vec(any::<u8>(), 64..256)
    ) {
        let mut bytes = words;
        bytes[0..4].copy_from_slice(&[0x7f, b'E', b'L', b'F']);
        bytes[4] = 2;
        bytes[5] = 1;
        bytes[18] = 62; // EM_X86_64
        bytes[19] = 0;
        if let Ok(elf) = ElfFile::parse(&bytes) {
            let _ = apistudy::analysis::BinaryAnalysis::analyze(&elf);
        }
    }

    // The fault corruptor's own mutations are a biased sampler of exactly
    // the corruption the robustness pipeline must absorb: no kind, salt,
    // or kind-combination may panic the parser, the analyzer, or the
    // decoder underneath them.
    #[test]
    fn injected_faults_never_panic_parse_or_analysis(
        kinds in proptest::collection::vec(0usize..8, 1..4),
        salt in any::<u64>(),
    ) {
        use apistudy::corpus::fault::{inject, FaultKind};
        let mut bytes = valid_elf_bytes();
        for k in kinds {
            let _ = inject(FaultKind::ALL[k], salt, &mut bytes);
        }
        if let Ok(elf) = ElfFile::parse(&bytes) {
            let _ = elf.symtab();
            let _ = elf.dynsym();
            let _ = elf.needed_libraries();
            let _ = elf.plt_map();
            let _ = apistudy::analysis::BinaryAnalysis::analyze(&elf);
        }
    }

    // Resource guards are total: arbitrarily tiny budgets classify the
    // binary (ResourceLimit errors), never panic or hang.
    #[test]
    fn tiny_resource_budgets_never_panic(
        max_functions in 0u32..8,
        decode_budget in 0u64..16,
    ) {
        let bytes = valid_elf_bytes();
        let elf = ElfFile::parse(&bytes).expect("pristine ELF parses");
        let options = apistudy::analysis::AnalysisOptions {
            max_functions,
            decode_budget,
            ..Default::default()
        };
        match apistudy::analysis::BinaryAnalysis::analyze_with(&elf, options) {
            Ok(ba) => prop_assert!(ba.instructions <= decode_budget),
            Err(e) => prop_assert_eq!(
                e.kind(),
                apistudy::elf::ErrorKind::ResourceLimit
            ),
        }
    }
}

// ---------------------------------------------------------------------
// Content hash: the incremental cache's identity function must be a
// pure, thread-independent function of the bytes, and every mutation the
// fault injector records must move it (otherwise a corrupted binary
// could silently reuse the clean baseline's analysis).
// ---------------------------------------------------------------------
proptest! {
    #[test]
    fn content_hash_is_deterministic_across_threads(
        bytes in proptest::collection::vec(any::<u8>(), 0..2048)
    ) {
        use apistudy::analysis::content_hash;
        let serial = content_hash(&bytes);
        let concurrent: Vec<u64> = std::thread::scope(|scope| {
            (0..4)
                .map(|_| scope.spawn(|| content_hash(&bytes)))
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("hash thread"))
                .collect()
        });
        for h in concurrent {
            prop_assert_eq!(h, serial);
        }
    }

    #[test]
    fn content_hash_separates_lengths_and_tails(
        bytes in proptest::collection::vec(any::<u8>(), 1..512)
    ) {
        use apistudy::analysis::content_hash;
        let full = content_hash(&bytes);
        let truncated = content_hash(&bytes[..bytes.len() - 1]);
        prop_assert!(full != truncated, "dropping the tail byte must move the hash");
        let mut flipped = bytes.clone();
        *flipped.last_mut().unwrap() ^= 0x01;
        prop_assert!(full != content_hash(&flipped), "one tail bit must move the hash");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // Whenever the injector reports a mutation (the same signal the
    // pipeline's FaultRecord ledger is built from), the corrupted image
    // must hash differently from the clean one — for every FaultKind.
    #[test]
    fn every_recorded_fault_kind_moves_the_content_hash(
        kind_index in 0usize..8,
        salt in any::<u64>(),
    ) {
        use apistudy::analysis::content_hash;
        use apistudy::corpus::fault::{inject, FaultKind};
        let clean = valid_elf_bytes();
        let clean_hash = content_hash(&clean);
        let mut mutated = clean.clone();
        if inject(FaultKind::ALL[kind_index], salt, &mut mutated).is_some() {
            prop_assert!(
                mutated != clean,
                "a recorded injection must change the bytes"
            );
            prop_assert!(
                content_hash(&mutated) != clean_hash,
                "kind {:?} salt {:#x} mutated the bytes without moving the hash",
                FaultKind::ALL[kind_index], salt
            );
        } else {
            prop_assert!(mutated == clean, "a refused injection must not mutate");
        }
    }
}

#[test]
fn legacy_int80_binaries_are_analyzed() {
    // A legacy binary issuing syscalls through `int $0x80` is measured
    // exactly like one using the `syscall` instruction.
    use apistudy::elf::ElfBuilder;
    let mut b = ElfBuilder::static_executable();
    let emit = |base: u64| {
        let mut a = Asm::new(base);
        a.mov_imm32(Reg::RAX, 1);
        a.int80();
        a.mov_imm32(Reg::RAX, 60);
        a.int80();
        a.ret();
        a.finish()
    };
    let probe = emit(0);
    let layout = b.layout(probe.len() as u64, 0);
    let code = emit(layout.text_addr);
    let len = code.len() as u64;
    b.set_text(code);
    b.set_entry(0);
    b.local_symbol("main", 0, len);
    let bytes = b.build().unwrap();
    let elf = ElfFile::parse(&bytes).unwrap();
    let ba = apistudy::analysis::BinaryAnalysis::analyze(&elf).unwrap();
    let fp = ba.entry_facts();
    assert!(fp.syscalls.contains(&1));
    assert!(fp.syscalls.contains(&60));
}

// ---------------------------------------------------------------------
// seccomp-BPF: for arbitrary allow-sets, the assembled filter agrees with
// set membership for every syscall number.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn bpf_filter_matches_set_semantics(
        allow in proptest::collection::btree_set(0u32..330, 0..120)
    ) {
        use apistudy::core::seccomp_bpf::{
            run_filter, BpfProgram, SeccompData, AUDIT_ARCH_X86_64,
            RET_ALLOW, RET_KILL,
        };
        let sorted: Vec<u32> = allow.iter().copied().collect();
        // At most 120 numbers make at most 120 checks: the chain fits.
        let program = BpfProgram::try_allow_list(&sorted).expect("fits");
        for nr in 0..340u32 {
            let verdict = run_filter(
                &program,
                SeccompData { nr, arch: AUDIT_ARCH_X86_64 },
            );
            let expected = if allow.contains(&nr) { RET_ALLOW } else { RET_KILL };
            prop_assert_eq!(verdict, Some(expected), "nr {}", nr);
        }
        // Wrong architecture is always killed.
        let foreign = run_filter(
            &program,
            SeccompData { nr: sorted.first().copied().unwrap_or(0), arch: 1 },
        );
        prop_assert_eq!(foreign, Some(RET_KILL));
    }
}

// ---------------------------------------------------------------------
// seccomp-BPF: the binary-search tree layout agrees with the linear
// chain and with reference set membership for EVERY syscall number in
// 0..=4096, over random fragmented allow-lists — including ones whose
// fragmentation overflows the linear chain's 8-bit jump offsets (the
// former FilterTooLarge trigger), where the tree must still be exact.
// The executed depth must also stay logarithmic.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn bpf_tree_matches_linear_and_reference_up_to_4096(
        allow in proptest::collection::btree_set(0u32..4097, 0..700)
    ) {
        use apistudy::core::seccomp_bpf::{
            run_filter_traced, BpfProgram, FilterTooLarge, SeccompData,
            AUDIT_ARCH_X86_64, RET_ALLOW, RET_KILL,
        };
        let sorted: Vec<u32> = allow.iter().copied().collect();
        let tree = BpfProgram::try_allow_tree(&sorted).unwrap();
        let linear = match BpfProgram::try_allow_list(&sorted) {
            Ok(p) => Some(p),
            // Fragmentation past the 8-bit offsets is exactly the case
            // the tree exists for; the error stays classified.
            Err(FilterTooLarge::JumpSpan { span }) => {
                prop_assert!(span > 255, "unclassified span {}", span);
                None
            }
            Err(e) => return Err(proptest::test_runner::TestCaseError::fail(
                format!("unexpected linear failure: {e}"),
            )),
        };
        let ranges = {
            let mut r = 0u32;
            let mut prev = None::<u32>;
            for &n in &sorted {
                if prev != Some(n.wrapping_sub(1)) {
                    r += 1;
                }
                prev = Some(n);
            }
            r.max(1)
        };
        let bound = 2 * (32 - (ranges - 1).max(1).leading_zeros()) + 8;
        let mut max_depth = 0u32;
        for nr in 0..=4096u32 {
            let data = SeccompData { nr, arch: AUDIT_ARCH_X86_64 };
            let expected =
                if allow.contains(&nr) { RET_ALLOW } else { RET_KILL };
            let (tv, steps) = run_filter_traced(&tree, data)
                .expect("well-formed tree");
            prop_assert_eq!(tv, expected, "tree at nr {}", nr);
            max_depth = max_depth.max(steps);
            if let Some(lin) = &linear {
                let (lv, _) = run_filter_traced(lin, data)
                    .expect("well-formed chain");
                prop_assert_eq!(lv, expected, "linear at nr {}", nr);
            }
        }
        prop_assert!(
            max_depth <= bound,
            "depth {} over bound {} at {} ranges", max_depth, bound, ranges
        );
        // Wrong architecture is always killed, both layouts.
        let foreign = SeccompData { nr: 0, arch: 1 };
        prop_assert_eq!(run_filter_traced(&tree, foreign).unwrap().0, RET_KILL);
        if let Some(lin) = &linear {
            prop_assert_eq!(
                run_filter_traced(lin, foreign).unwrap().0, RET_KILL);
        }
    }
}

// ---------------------------------------------------------------------
// Streaming: shard-fold determinism. Whatever the shard geometry and
// whatever order the partials are handed to the fold, the result — and
// every metric computed from it — is bit-identical to the in-memory
// pipeline over the same corpus.
// ---------------------------------------------------------------------

fn stream_baseline() -> &'static Study {
    use std::sync::OnceLock;
    static STUDY: OnceLock<Box<Study>> = OnceLock::new();
    STUDY.get_or_init(|| {
        Box::new(Study::run(
            Scale { packages: 150, installations: 30_000 },
            2016,
        ))
    })
}

proptest! {
    // Each case re-analyzes the 150-package corpus; a few geometries
    // already exercise every shard-count/short-tail combination.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn shard_fold_is_boundary_and_order_independent(
        shard_size in 1usize..151,
        shuffle_seed in any::<u64>(),
    ) {
        use apistudy::analysis::AnalysisOptions;
        use apistudy::core::{fold_partials, shard_partials};

        let baseline = stream_baseline();
        let mut partials = shard_partials(
            baseline.repo(),
            AnalysisOptions::default(),
            shard_size,
            None,
        );
        // Hand the partials to the fold in an arbitrary order (the
        // vendored proptest mirror has no shuffle strategy; a seeded
        // LCG Fisher–Yates stands in).
        let mut state = shuffle_seed | 1;
        for i in (1..partials.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            partials.swap(i, j);
        }
        let folded = fold_partials(
            baseline.data().total_installations,
            partials,
        );

        prop_assert!(
            folded.packages == baseline.data().packages,
            "shard size {} diverged on package records", shard_size
        );
        prop_assert!(
            folded.attribution == baseline.data().attribution,
            "shard size {} diverged on attribution", shard_size
        );
        prop_assert_eq!(&folded.census, &baseline.data().census);
        prop_assert_eq!(
            folded.unresolved_syscall_sites,
            baseline.data().unresolved_syscall_sites
        );

        let mb = Metrics::new(baseline.data());
        let mf = Metrics::new(&folded);
        for def in baseline.data().catalog.syscalls.iter() {
            let api = Api::Syscall(def.number);
            prop_assert_eq!(
                mb.importance(api).to_bits(),
                mf.importance(api).to_bits(),
                "shard size {}: importance bits moved for {}",
                shard_size, def.name
            );
        }
        let supported: HashSet<u32> = (0..160).collect();
        prop_assert_eq!(
            mb.syscall_completeness(&supported).to_bits(),
            mf.syscall_completeness(&supported).to_bits(),
            "shard size {}: completeness bits moved", shard_size
        );
    }
}

// ---------------------------------------------------------------------
// Dataset codec: on canonical (normalized) data, parse ∘ to_csv is the
// identity — including the probability bit patterns.
// ---------------------------------------------------------------------

/// Derives a canonical dataset row from one random word. Names stay in
/// the CSV-safe ident alphabet; probabilities cover the full finite-f64
/// space (the codec prints with `{}`, whose shortest-repr output parses
/// back to the exact same bits).
fn dataset_row_from_word(i: usize, w: u64) -> apistudy::core::DatasetRow {
    use apistudy::catalog::ApiKind;
    use std::collections::HashMap;
    let mut probability = f64::from_bits(w);
    if !probability.is_finite() {
        probability = (w % 997) as f64 / 997.0;
    }
    let depends: Vec<String> =
        (0..w % 4).map(|k| format!("dep{}", (w >> k) % 13)).collect();
    let mut apis: HashMap<ApiKind, Vec<String>> = HashMap::new();
    apis.insert(
        ApiKind::Syscall,
        (0..(w >> 8) % 5).map(|k| format!("sys_{}", (w >> k) % 41)).collect(),
    );
    if w & 1 == 0 {
        apis.insert(
            ApiKind::LibcSymbol,
            (0..(w >> 16) % 3).map(|k| format!("fn_{k}")).collect(),
        );
    }
    apistudy::core::DatasetRow {
        name: format!("pkg{i}w{}", w % 89),
        install_count: w % 5_000_000,
        probability,
        depends,
        apis,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn canonical_datasets_roundtrip_bit_exactly(
        installations in 1u64..100_000_000,
        row_words in proptest::collection::vec(any::<u64>(), 1..12),
    ) {
        use apistudy::core::Dataset;
        let rows = row_words
            .iter()
            .enumerate()
            .map(|(i, &w)| dataset_row_from_word(i, w))
            .collect();
        let mut d = Dataset { installations, rows };
        d.normalize();
        let parsed =
            Dataset::parse_csv(&d.to_csv()).expect("canonical CSV parses");
        prop_assert_eq!(&parsed, &d, "parse ∘ to_csv must be the identity");
        for (a, b) in parsed.rows.iter().zip(&d.rows) {
            prop_assert_eq!(
                a.probability.to_bits(),
                b.probability.to_bits(),
                "probability bits moved for {}", b.name
            );
        }
        // And the codec is idempotent from here on.
        prop_assert_eq!(
            Dataset::parse_csv(&parsed.to_csv()).expect("reparses"),
            parsed
        );
    }
}

// ---------------------------------------------------------------------
// Wire protocol: Batch frames round-trip bit-exactly; nesting past depth
// one, count caps, torn prefixes, and trailing bytes are all rejected
// whole (the decoder accepts exactly the canonical encodings).
// ---------------------------------------------------------------------

/// Derives one non-batch sub-request from two random words, covering
/// every batchable tag including variable-length list payloads.
fn sub_request_from_words(tag: u8, w: u64) -> apistudy::core::Request {
    use apistudy::core::Request;
    let nrs = |n: u64| -> Vec<u32> {
        (0..n).map(|k| ((w >> (k % 32)) & 0x3ff) as u32).collect()
    };
    match tag % 8 {
        0 => Request::Ping,
        1 => Request::Importance { nr: w as u32 },
        2 => Request::Completeness { supported: nrs(w % 9) },
        3 => Request::Suggest {
            supported: nrs(w % 5),
            limit: (w >> 32) as u32,
        },
        4 => Request::SessionOpen { supported: nrs(w % 7) },
        5 => Request::SessionAdd { nr: w as u32 },
        6 => Request::SessionProbe { nr: w as u32 },
        _ => Request::Reload { expect_fingerprint: w },
    }
}

/// Derives one non-batch sub-response from two random words.
fn sub_response_from_words(tag: u8, w: u64) -> apistudy::core::Response {
    use apistudy::core::{ErrorCode, Response};
    match tag % 8 {
        0 => Response::Pong {
            fingerprint: w,
            generation: w >> 8,
            packages: w as u32,
        },
        1 => Response::Importance {
            importance_bits: w,
            unweighted_bits: !w,
        },
        2 => Response::Completeness { bits: w },
        3 => Response::Suggest {
            picks: (0..w % 5).map(|k| ((w >> k) as u32, w ^ k)).collect(),
        },
        4 => Response::Session {
            delta_bits: w,
            completeness_bits: w.rotate_left(17),
        },
        5 => Response::Reload { fingerprint: w, generation: w >> 4 },
        6 => Response::Bye,
        _ => Response::Err {
            code: ErrorCode::Internal,
            msg: format!("w{:x}", w % 0x1000),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn batch_requests_roundtrip_bit_exactly(
        words in proptest::collection::vec(
            (any::<u8>(), any::<u64>()), 1..65,
        ),
    ) {
        use apistudy::core::Request;
        let subs: Vec<Request> = words
            .iter()
            .map(|&(t, w)| sub_request_from_words(t, w))
            .collect();
        let batch = Request::Batch(subs);
        let bytes = batch.encode();
        let decoded =
            Request::decode(&bytes).expect("canonical batch decodes");
        prop_assert_eq!(&decoded, &batch);
        prop_assert_eq!(decoded.encode(), bytes.clone(), "re-encode identity");
        // Sub-requests are self-delimiting, so a torn batch can never
        // half-decode: every strict prefix is refused whole.
        for cut in 0..bytes.len() {
            prop_assert!(
                Request::decode(&bytes[..cut]).is_none(),
                "prefix of {} bytes decoded", cut
            );
        }
        // Trailing bytes are refused whole (non-canonical frame).
        let mut padded = bytes;
        padded.push(words[0].0);
        prop_assert!(Request::decode(&padded).is_none(), "trailing byte");
    }

    #[test]
    fn nested_empty_and_overlong_batches_are_rejected(
        tag in any::<u8>(),
        w in any::<u64>(),
        over in 65u32..200,
    ) {
        use apistudy::core::Request;
        let sub = sub_request_from_words(tag, w);
        // Nesting depth two: an outer batch whose single element is
        // itself a batch. The bytes are well-formed at every other
        // level; only the depth rule can reject them.
        let mut nested = vec![11u8];
        nested.extend_from_slice(&1u32.to_le_bytes());
        nested.extend_from_slice(
            &Request::Batch(vec![sub.clone()]).encode(),
        );
        prop_assert!(
            Request::decode(&nested).is_none(),
            "nested batch decoded"
        );
        // Count over MAX_BATCH, with that many real sub-encodings
        // present, so only the cap can reject it.
        let mut too_many = vec![11u8];
        too_many.extend_from_slice(&over.to_le_bytes());
        for _ in 0..over {
            too_many.extend_from_slice(&sub.encode());
        }
        prop_assert!(
            Request::decode(&too_many).is_none(),
            "batch of {} decoded past the cap", over
        );
        // The empty batch is refused (count 1..=MAX_BATCH).
        let mut empty = vec![11u8];
        empty.extend_from_slice(&0u32.to_le_bytes());
        prop_assert!(Request::decode(&empty).is_none(), "empty batch");
    }

    #[test]
    fn batch_responses_roundtrip_bit_exactly(
        words in proptest::collection::vec(
            (any::<u8>(), any::<u64>()), 1..65,
        ),
    ) {
        use apistudy::core::Response;
        let subs: Vec<Response> = words
            .iter()
            .map(|&(t, w)| sub_response_from_words(t, w))
            .collect();
        let batch = Response::Batch(subs);
        let bytes = batch.encode();
        let decoded =
            Response::decode(&bytes).expect("canonical batch decodes");
        prop_assert_eq!(&decoded, &batch);
        prop_assert_eq!(decoded.encode(), bytes.clone(), "re-encode identity");
        for cut in 0..bytes.len() {
            prop_assert!(
                Response::decode(&bytes[..cut]).is_none(),
                "prefix of {} bytes decoded", cut
            );
        }
        let mut nested = vec![9u8];
        nested.extend_from_slice(&1u32.to_le_bytes());
        nested.extend_from_slice(&bytes);
        prop_assert!(
            Response::decode(&nested).is_none(),
            "nested response batch decoded"
        );
    }
}

// ---------------------------------------------------------------------
// Incremental frame scan: however the bytes arrive — one at a time, or
// chopped at arbitrary split points — the scanner reports "partial"
// until the exact byte that completes the frame, and the decoded
// payload is bit-identical to the one-shot decode. This is the
// invariant the reactor's accumulation buffer rides on when the fault
// shim clamps socket reads to one byte.
// ---------------------------------------------------------------------
proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn frame_scan_is_split_invariant(
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        cut_words in proptest::collection::vec(any::<u64>(), 1..8),
        trailer in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        use apistudy::core::{encode_frame, scan_frame, FRAME_HEADER};
        let frame = encode_frame(&payload);

        // One-shot reference.
        let total = match scan_frame(&frame) {
            Ok(Some(t)) => t,
            other => return Err(proptest::test_runner::TestCaseError::fail(
                format!("one-shot scan failed: {other:?}"),
            )),
        };
        prop_assert_eq!(total, frame.len());
        prop_assert_eq!(&frame[FRAME_HEADER..total], &payload[..]);

        // One byte at a time: partial on every strict prefix (except
        // an over-cap header, which cannot happen for a real encode),
        // complete and bit-identical on the final byte.
        let mut buf: Vec<u8> = Vec::with_capacity(frame.len());
        for (i, &b) in frame.iter().enumerate() {
            buf.push(b);
            match scan_frame(&buf) {
                Ok(None) => prop_assert!(
                    i + 1 < frame.len(),
                    "scanner still partial on the complete frame"
                ),
                Ok(Some(t)) => {
                    prop_assert_eq!(
                        i + 1,
                        frame.len(),
                        "scanner completed early at byte {}", i
                    );
                    prop_assert_eq!(t, total);
                    prop_assert_eq!(&buf[FRAME_HEADER..t], &payload[..]);
                }
                Err(e) => return Err(
                    proptest::test_runner::TestCaseError::fail(format!(
                        "byte-wise scan classified a clean frame at {i}: {e}"
                    )),
                ),
            }
        }

        // Arbitrary split points: the same frame chopped into random
        // chunks (with unrelated trailing bytes already buffered after
        // it, as pipelined clients produce) scans to the same boundary
        // and the same payload bits.
        let mut cuts: Vec<usize> = cut_words
            .iter()
            .map(|w| (*w as usize) % (frame.len() + 1))
            .collect();
        cuts.push(0);
        cuts.push(frame.len());
        cuts.sort_unstable();
        cuts.dedup();
        let mut buf: Vec<u8> = Vec::with_capacity(frame.len());
        for pair in cuts.windows(2) {
            let chunk = &frame[pair[0]..pair[1]];
            buf.extend_from_slice(chunk);
            let complete = buf.len() == frame.len();
            match scan_frame(&buf) {
                Ok(None) => prop_assert!(!complete, "partial at the end"),
                Ok(Some(t)) => {
                    prop_assert!(complete, "completed before the boundary");
                    prop_assert_eq!(t, total);
                    prop_assert_eq!(&buf[FRAME_HEADER..t], &payload[..]);
                }
                Err(e) => return Err(
                    proptest::test_runner::TestCaseError::fail(format!(
                        "chunked scan classified a clean frame: {e}"
                    )),
                ),
            }
        }
        buf.extend_from_slice(&trailer);
        match scan_frame(&buf) {
            Ok(Some(t)) => {
                prop_assert_eq!(t, total, "trailing bytes moved the boundary");
                prop_assert_eq!(&buf[FRAME_HEADER..t], &payload[..]);
            }
            other => return Err(proptest::test_runner::TestCaseError::fail(
                format!("buffered trailer broke the scan: {other:?}"),
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Journal: recovery from arbitrary damage yields a valid prefix of what
// was written — never a wrong record, never a guess.
// ---------------------------------------------------------------------

/// Decodes a raw word stream into journal records (the vendored proptest
/// mirror has no `prop_oneof`/`prop_map`, so structure is derived here).
/// Exhausted draws default to zero; every word pattern is a valid log.
fn journal_records_from_words(
    words: &[u64],
) -> Vec<apistudy::core::JournalRecord> {
    use apistudy::core::{DegradationPoint, JournalRecord};
    let mut it = words.iter().copied();
    let mut out = Vec::new();
    while let Some(tag) = it.next() {
        let mut n = || it.next().unwrap_or(0);
        out.push(match tag % 3 {
            0 => {
                let count = (n() % 20) as usize;
                let mut set = Vec::with_capacity(count);
                for _ in 0..count {
                    set.push(n() as u32);
                }
                JournalRecord::SupportSet(set)
            }
            1 => JournalRecord::SweepPoint(DegradationPoint {
                rate: f64::from_bits(n()),
                injected: n() as u32,
                injected_fatal: n() as u32,
                skipped_binaries: n() as u32,
                deadline_skipped: n() as u32,
                partial_packages: n() as u32,
                quarantined_packages: n() as u32,
                distinct_syscalls: n() as usize,
                completeness_top: f64::from_bits(n()),
            }),
            _ => JournalRecord::GreedyPick {
                nr: n() as u32,
                gain_bits: n(),
                after_bits: n(),
            },
        });
    }
    out
}

/// Bit-pattern equality: `PartialEq` on the embedded `f64`s would treat
/// `-0.0 == 0.0` and reject `NaN == NaN`; the journal round-trips bits.
fn journal_records_bits_eq(
    a: &apistudy::core::JournalRecord,
    b: &apistudy::core::JournalRecord,
) -> bool {
    use apistudy::core::JournalRecord::{GreedyPick, SupportSet, SweepPoint};
    match (a, b) {
        (SupportSet(x), SupportSet(y)) => x == y,
        (SweepPoint(x), SweepPoint(y)) => {
            x.rate.to_bits() == y.rate.to_bits()
                && x.injected == y.injected
                && x.injected_fatal == y.injected_fatal
                && x.skipped_binaries == y.skipped_binaries
                && x.deadline_skipped == y.deadline_skipped
                && x.partial_packages == y.partial_packages
                && x.quarantined_packages == y.quarantined_packages
                && x.distinct_syscalls == y.distinct_syscalls
                && x.completeness_top.to_bits() == y.completeness_top.to_bits()
        }
        (
            GreedyPick { nr: an, gain_bits: ag, after_bits: aa },
            GreedyPick { nr: bn, gain_bits: bg, after_bits: ba },
        ) => an == bn && ag == bg && aa == ba,
        _ => false,
    }
}

proptest! {
    // Each case replays hundreds of damaged files; a handful of cases
    // already covers every record type in every position.
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn journal_recovery_is_a_prefix_never_a_guess(
        words in proptest::collection::vec(any::<u64>(), 4..48),
        fp_seed in any::<u64>(),
    ) {
        use apistudy::core::{Journal, RunFingerprint, RunKind};

        let records = journal_records_from_words(&words);
        prop_assert!(!records.is_empty());
        let kind = if fp_seed.is_multiple_of(2) {
            RunKind::CorruptionSweep
        } else {
            RunKind::GreedyPlan
        };
        let fp = RunFingerprint {
            kind,
            corpus: fp_seed,
            options: fp_seed ^ 0x1111,
            catalog: fp_seed ^ 0x2222,
            plan: fp_seed ^ 0x3333,
        };
        let dir = std::env::temp_dir()
            .join(format!("apistudy-journal-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("damaged.journal");

        // Write the pristine journal and learn the layout: the header
        // length (an empty journal is exactly one header) and where each
        // record starts.
        let empty = dir.join("empty.journal");
        let _ = std::fs::remove_file(&empty);
        drop(Journal::create(&empty, &fp).unwrap());
        let header_len = std::fs::metadata(&empty).unwrap().len() as usize;

        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::create(&path, &fp).unwrap();
        for rec in &records {
            journal.append(rec).unwrap();
        }
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        let mut starts = Vec::with_capacity(records.len());
        let mut at = header_len;
        for _ in &records {
            starts.push(at);
            let len = u32::from_le_bytes(full[at..at + 4].try_into().unwrap());
            at += 4 + 8 + len as usize; // len + checksum + payload
        }
        prop_assert_eq!(at, full.len(), "record walk must cover the file");

        // Truncation at every byte offset: a short header is refused; a
        // torn record tail recovers exactly the records that fit.
        for t in 0..full.len() {
            std::fs::write(&path, &full[..t]).unwrap();
            match Journal::resume(&path, &fp) {
                Ok((_, recovered)) => {
                    prop_assert!(
                        t >= header_len,
                        "cut at {} accepted a partial header", t
                    );
                    let fits = starts
                        .iter()
                        .take_while(|s| {
                            let len = u32::from_le_bytes(
                                full[**s..**s + 4].try_into().unwrap(),
                            );
                            **s + 4 + 8 + len as usize <= t
                        })
                        .count();
                    prop_assert_eq!(
                        recovered.len(), fits,
                        "cut at {} of {}", t, full.len()
                    );
                    for (r, o) in recovered.iter().zip(&records) {
                        prop_assert!(
                            journal_records_bits_eq(r, o),
                            "cut at {} recovered a wrong record", t
                        );
                    }
                }
                Err(_) => prop_assert!(
                    t < header_len,
                    "cut at {} lost an intact header", t
                ),
            }
        }

        // A single flipped bit at every byte offset: header damage is
        // refused outright; record damage discards that record and the
        // (now unanchored) tail, keeping every record before it.
        for i in 0..full.len() {
            let mut bytes = full.clone();
            bytes[i] ^= 1 << (i % 8);
            std::fs::write(&path, &bytes).unwrap();
            match Journal::resume(&path, &fp) {
                Ok((_, recovered)) => {
                    prop_assert!(
                        i >= header_len,
                        "flip at {} in the header went unnoticed", i
                    );
                    let damaged =
                        starts.iter().filter(|s| **s <= i).count() - 1;
                    prop_assert_eq!(
                        recovered.len(), damaged,
                        "flip at {} (record {})", i, damaged
                    );
                    for (r, o) in recovered.iter().zip(&records) {
                        prop_assert!(
                            journal_records_bits_eq(r, o),
                            "flip at {} recovered a wrong record", i
                        );
                    }
                }
                Err(_) => prop_assert!(
                    i < header_len,
                    "flip at {} should tear the tail, not refuse the log", i
                ),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

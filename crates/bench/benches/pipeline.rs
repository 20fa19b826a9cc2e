//! Pipeline benchmarks: the cost of each substrate stage, from parsing a
//! single ELF to running the full repository-scale study.
//!
//! The paper's framework took ~3 days over 30,976 packages on Postgres
//! (§7, Table 12); these benches record what the native reimplementation
//! costs per stage.

use std::collections::BTreeSet;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use apistudy_analysis::{AnalysisOptions, BinaryAnalysis, Linker};
use apistudy_catalog::{Api, ApiKind, ApiSet, Catalog};
use apistudy_core::{
    corruption_sweep, AnalysisCache, CacheMode, CompletenessEngine,
    Metrics, StudyData,
};
use apistudy_corpus::{
    codegen::{generate_executable, ExecSpec, VectoredVia},
    libc_gen, CalibrationSpec, Scale, SynthRepo,
};
use apistudy_elf::ElfFile;
use apistudy_x86::Decoder;

fn sample_exec_bytes() -> Vec<u8> {
    let spec = ExecSpec {
        needed: vec!["libc.so.6".into()],
        libc_calls: (0..24).map(|i| format!("fn_{i}")).collect(),
        direct_syscalls: (0..16).collect(),
        ioctl_codes: vec![(0x5401, VectoredVia::Inline), (0x5413, VectoredVia::Wrapper)],
        paths: vec!["/dev/null".into(), "/proc/%d/cmdline".into()],
        helpers: 4,
        seed: 99,
        ..Default::default()
    };
    generate_executable(&spec)
}

fn bench_substrates(c: &mut Criterion) {
    let exec_bytes = sample_exec_bytes();
    c.bench_function("elf_parse_executable", |b| {
        b.iter(|| ElfFile::parse(std::hint::black_box(&exec_bytes)).unwrap())
    });

    let elf = ElfFile::parse(&exec_bytes).unwrap();
    let text = elf.section_by_name(".text").unwrap().clone();
    let code = elf.section_data(&text).unwrap();
    c.bench_function("x86_decode_text_section", |b| {
        b.iter(|| {
            Decoder::new(std::hint::black_box(code), text.addr)
                .map(|d| d.len)
                .sum::<usize>()
        })
    });

    c.bench_function("analyze_executable", |b| {
        b.iter(|| BinaryAnalysis::analyze(std::hint::black_box(&elf)).unwrap())
    });

    c.bench_function("codegen_executable", |b| {
        b.iter(sample_exec_bytes)
    });

    let catalog = Catalog::linux_3_19();
    c.bench_function("generate_libc_1274_exports", |b| {
        b.iter(|| {
            apistudy_corpus::codegen::generate_library(&libc_gen::libc_spec(
                std::hint::black_box(&catalog),
            ))
        })
    });

    let libc_bytes =
        apistudy_corpus::codegen::generate_library(&libc_gen::libc_spec(&catalog));
    let libc_elf = ElfFile::parse(&libc_bytes).unwrap();
    c.bench_function("analyze_libc", |b| {
        b.iter(|| BinaryAnalysis::analyze(std::hint::black_box(&libc_elf)).unwrap())
    });

    let libc_ba = BinaryAnalysis::analyze(&libc_elf).unwrap();
    c.bench_function("linker_seal_libc", |b| {
        b.iter_batched(
            || {
                let mut linker = Linker::new();
                linker.add_library("libc.so.6", libc_ba.clone());
                linker
            },
            |mut linker| {
                linker.seal();
                linker
            },
            BatchSize::LargeInput,
        )
    });
}

fn bench_study(c: &mut Criterion) {
    let scale = Scale { packages: 150, installations: 50_000 };
    c.bench_function("corpus_plan_150_packages", |b| {
        b.iter(|| {
            apistudy_corpus::RepoPlan::plan(scale, CalibrationSpec::default(), 5)
        })
    });

    let repo = SynthRepo::new(scale, CalibrationSpec::default(), 5);
    c.bench_function("pipeline_150_packages", |b| {
        b.iter(|| StudyData::from_synth(std::hint::black_box(&repo)))
    });

    let data = StudyData::from_synth(&repo);
    c.bench_function("metrics_index", |b| {
        b.iter(|| Metrics::new(std::hint::black_box(&data)))
    });

    let metrics = Metrics::new(&data);
    let read = data.catalog.syscall("read").unwrap();
    c.bench_function("importance_query", |b| {
        b.iter(|| metrics.importance(std::hint::black_box(read)))
    });

    let supported: std::collections::HashSet<u32> = (0..250).collect();
    c.bench_function("weighted_completeness_250_syscalls", |b| {
        b.iter(|| metrics.syscall_completeness(std::hint::black_box(&supported)))
    });

    // The suggest sweep: the standalone completeness gain of every
    // unsupported syscall against a top-60 base — the inner loop of
    // `apistudy suggest` and of each greedy planning round. `scratch` is
    // the replaced implementation (clone the support set, recompute
    // completeness from scratch per candidate); `incremental` probes the
    // completeness engine, paying only for the counters each candidate
    // actually touches. The smoke gate in `greedy_smoke` enforces the
    // ratio; these benches record it.
    let base: std::collections::HashSet<u32> = metrics
        .importance_ranking(ApiKind::Syscall)
        .into_iter()
        .take(60)
        .filter_map(|(api, _)| match api {
            Api::Syscall(nr) => Some(nr),
            _ => None,
        })
        .collect();
    let candidates: Vec<u32> = data
        .catalog
        .syscalls
        .iter()
        .map(|d| d.number)
        .filter(|nr| !base.contains(nr))
        .collect();
    c.bench_function("greedy_sweep_scratch", |b| {
        b.iter(|| {
            let before = metrics.syscall_completeness(&base);
            let mut acc = 0.0;
            for &nr in std::hint::black_box(&candidates) {
                let mut grown = base.clone();
                grown.insert(nr);
                acc += metrics.syscall_completeness(&grown) - before;
            }
            acc
        })
    });
    c.bench_function("greedy_sweep_incremental", |b| {
        b.iter(|| {
            let mut engine = CompletenessEngine::for_syscalls(&metrics, &base);
            let mut acc = 0.0;
            for &nr in std::hint::black_box(&candidates) {
                acc += engine.probe_gain(Api::Syscall(nr));
            }
            acc
        })
    });

    // The incremental-cache win on the CLI's full fault grid: eleven
    // rates, 0% → 10%, plus the clean baseline. `sweep_cold` rebuilds
    // every point from scratch; `sweep_cached` shares one warm in-memory
    // cache across iterations, so it measures the steady-state sweep
    // (only binaries each FaultPlan mutated re-analyze). The smoke gate
    // in `cache_smoke` enforces the ratio; these benches record it.
    let rates: Vec<f64> = (0..=10).map(|i| i as f64 / 100.0).collect();
    let options = AnalysisOptions::default();
    c.bench_function("sweep_cold", |b| {
        b.iter(|| {
            let cache = AnalysisCache::new(CacheMode::Off);
            corruption_sweep(
                std::hint::black_box(&repo),
                options,
                0x5EED,
                &rates,
                &cache,
                None,
            )
        })
    });
    let warm = AnalysisCache::new(CacheMode::Mem);
    c.bench_function("sweep_cached", |b| {
        b.iter(|| {
            corruption_sweep(
                std::hint::black_box(&repo),
                options,
                0x5EED,
                &rates,
                &warm,
                None,
            )
        })
    });
}

/// The dependency-closure fixed point over `BTreeSet<Api>` — the
/// representation the interned bitset replaced. Kept (bench-only) so the
/// `metrics_closure` group records the win against a live baseline rather
/// than a number from an old commit.
fn btreeset_closure(data: &StudyData) -> Vec<BTreeSet<Api>> {
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
    let mut closed: Vec<BTreeSet<Api>> = data
        .packages
        .iter()
        .map(|p| p.footprint.apis.iter().collect())
        .collect();
    loop {
        let mut changed = false;
        for i in 0..closed.len() {
            for &d in &dep_indices[i] {
                if d == i {
                    continue;
                }
                let add: Vec<Api> = closed[d]
                    .iter()
                    .filter(|a| !closed[i].contains(*a))
                    .copied()
                    .collect();
                if !add.is_empty() {
                    closed[i].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    closed
}

/// The bitset representation against its `BTreeSet` predecessor on the two
/// hot paths the interner was built for: the `Metrics::new`
/// dependency-closure fixed point and whole-corpus footprint merging.
fn bench_representation(c: &mut Criterion) {
    let scales = [
        ("150", Scale { packages: 150, installations: 50_000 }),
        ("600", Scale { packages: 600, installations: 100_000 }),
    ];
    for (label, scale) in scales {
        let repo = SynthRepo::new(scale, CalibrationSpec::default(), 5);
        let data = StudyData::from_synth(&repo);

        let mut group = c.benchmark_group("metrics_closure");
        group.bench_function(&format!("bitset_{label}"), |b| {
            b.iter(|| Metrics::new(std::hint::black_box(&data)))
        });
        group.bench_function(&format!("btreeset_{label}"), |b| {
            b.iter(|| btreeset_closure(std::hint::black_box(&data)))
        });
        group.finish();

        let tree_footprints: Vec<BTreeSet<Api>> = data
            .packages
            .iter()
            .map(|p| p.footprint.apis.iter().collect())
            .collect();
        let mut group = c.benchmark_group("footprint_merge");
        group.bench_function(&format!("bitset_{label}"), |b| {
            b.iter(|| {
                let mut acc = ApiSet::new();
                for p in &data.packages {
                    acc.union_with(std::hint::black_box(&p.footprint.apis));
                }
                acc
            })
        });
        group.bench_function(&format!("btreeset_{label}"), |b| {
            b.iter(|| {
                let mut acc: BTreeSet<Api> = BTreeSet::new();
                for fp in &tree_footprints {
                    acc.extend(std::hint::black_box(fp).iter().copied());
                }
                acc
            })
        });
        group.finish();
    }
}

/// Fleet seccomp synthesis throughput and the per-filter costs of the
/// two codegen layouts: batch synthesis over the reference corpus
/// (dedup + build + 512-point depth profiles; bit-verification is the
/// CI gate's job, not a throughput measurement), then codegen and
/// worst-case single-eval on the corpus' widest footprint.
fn bench_seccomp(c: &mut Criterion) {
    use apistudy_core::seccomp_bpf::{
        run_filter, BpfProgram, SeccompData, AUDIT_ARCH_X86_64,
    };
    use apistudy_core::{synthesize_fleet, FleetOptions};

    let repo = SynthRepo::new(
        Scale { packages: 150, installations: 14_250 },
        CalibrationSpec::default(),
        2016,
    );
    let data = StudyData::from_synth(&repo);
    let opts = FleetOptions { probe_max_nr: 511, verify: false };
    c.bench_function("seccomp_fleet_150_packages", |b| {
        b.iter(|| synthesize_fleet(std::hint::black_box(&data), opts))
    });

    let widest: Vec<u32> = data
        .packages
        .iter()
        .map(|p| p.footprint.syscalls().collect::<Vec<u32>>())
        .max_by_key(Vec::len)
        .expect("non-empty corpus");

    let mut group = c.benchmark_group("seccomp_codegen");
    group.bench_function("tree", |b| {
        b.iter(|| BpfProgram::try_allow_tree(std::hint::black_box(&widest)))
    });
    group.bench_function("linear", |b| {
        b.iter(|| BpfProgram::try_allow_list(std::hint::black_box(&widest)))
    });
    group.finish();

    // Worst case for both layouts: the highest allowed number walks the
    // whole chain but only log₂(ranges) tree nodes.
    let tree = BpfProgram::try_allow_tree(&widest).expect("tree fits");
    let linear = BpfProgram::try_allow_list(&widest).ok();
    let probe = SeccompData {
        nr: *widest.last().expect("non-empty footprint"),
        arch: AUDIT_ARCH_X86_64,
    };
    let mut group = c.benchmark_group("seccomp_eval_worstcase");
    group.bench_function("tree", |b| {
        b.iter(|| run_filter(std::hint::black_box(&tree), probe))
    });
    if let Some(linear) = &linear {
        group.bench_function("linear", |b| {
            b.iter(|| run_filter(std::hint::black_box(linear), probe))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_substrates, bench_study, bench_representation,
        bench_seccomp
}
criterion_main!(benches);

//! Machine-code generation for synthetic binaries.
//!
//! Every binary in the synthetic repository is a *real* ELF object with
//! real x86-64 code: system call numbers are loaded with `mov eax, imm`,
//! vectored opcodes go through the argument registers, libc calls go
//! through genuine PLT stubs, and pseudo-file paths are `lea`-referenced
//! `.rodata` strings — so the analyzer recovers footprints from instruction
//! bytes exactly as it would on distribution binaries.
//!
//! Generation is deterministic: all structural choices (how facts are
//! distributed across helper functions, call styles) are fixed in an
//! emission plan before any bytes are produced, and every emitted
//! instruction has a target-independent length, so the two-pass layout
//! protocol of [`apistudy_elf::ElfBuilder`] converges in exactly two
//! passes: a probe emission learns every size, the second emits the final
//! bytes.

use apistudy_elf::{ElfBuilder, Layout};
use apistudy_x86::{Asm, Reg};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// System call numbers of the vectored calls.
const SYS_IOCTL: u32 = 16;
const SYS_FCNTL: u32 = 72;
const SYS_PRCTL: u32 = 157;

/// How a vectored opcode is issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectoredVia {
    /// `mov e??, code; call <wrapper>@plt`.
    Wrapper,
    /// `mov e??, code; mov eax, <nr>; syscall`.
    Inline,
}

/// Specification of an executable to generate.
#[derive(Debug, Clone, Default)]
pub struct ExecSpec {
    /// Statically linked (no libc, no PLT) when true.
    pub is_static: bool,
    /// `DT_NEEDED` libraries (normally at least `libc.so.6`).
    pub needed: Vec<String>,
    /// Imported functions called from reachable code.
    pub libc_calls: Vec<String>,
    /// System calls issued inline (`mov eax, nr; syscall`).
    pub direct_syscalls: Vec<u32>,
    /// `ioctl` request codes, with issue style.
    pub ioctl_codes: Vec<(u64, VectoredVia)>,
    /// `fcntl` command codes, with issue style.
    pub fcntl_codes: Vec<(u64, VectoredVia)>,
    /// `prctl` option codes, with issue style.
    pub prctl_codes: Vec<(u64, VectoredVia)>,
    /// Hard-coded pseudo-file paths placed in `.rodata` and referenced.
    pub paths: Vec<String>,
    /// System calls placed in a function that is never referenced
    /// (exercises the reachability-vs-attribution distinction).
    pub dead_syscalls: Vec<u32>,
    /// Number of helper functions to spread the facts over (≥ 1 used).
    pub helpers: u32,
    /// Deterministic seed for structural choices.
    pub seed: u64,
}

/// One exported function of a library to generate.
#[derive(Debug, Clone, Default)]
pub struct ExportSpec {
    /// Exported symbol name.
    pub name: String,
    /// System calls issued in the body.
    pub direct_syscalls: Vec<u32>,
    /// Sibling exports called internally (by name, same library).
    pub calls_exports: Vec<String>,
    /// Functions imported from other libraries.
    pub imports: Vec<String>,
    /// Pad the function body to at least this many bytes (0 = natural).
    pub pad_to: u32,
}

/// Specification of a shared library to generate.
#[derive(Debug, Clone, Default)]
pub struct LibSpec {
    /// `DT_SONAME`.
    pub soname: String,
    /// `DT_NEEDED` libraries.
    pub needed: Vec<String>,
    /// Exported functions.
    pub exports: Vec<ExportSpec>,
}

/// Items of an emission plan, in final order.
#[derive(Debug, Clone)]
enum Item {
    DirectSyscall(u32),
    LibcCall(u32),
    Vectored { code: u64, arg: Reg, nr: u32, via: Option<u32> },
    Path(u32),
    CallHelper { index: usize, via_pointer: bool },
}

#[derive(Debug, Clone)]
struct FuncPlan {
    name: String,
    items: Vec<Item>,
    /// Ends with a tail jump to the previous helper instead of `ret`
    /// (exercises the analyzer's tail-call edge handling).
    tail_to_prev: bool,
}

/// Emits one planned function body at the current position.
fn emit_func(
    a: &mut Asm,
    plan: &FuncPlan,
    layout: &Layout,
    rodata_offsets: &[(u32, u32)],
    helper_addrs: &[u64],
    with_prologue: bool,
    tail_target: Option<u64>,
) {
    if with_prologue {
        a.push_rbp();
        a.mov_rbp_rsp();
    }
    for item in &plan.items {
        match item {
            Item::DirectSyscall(nr) => {
                a.mov_imm32(Reg::RAX, *nr);
                a.syscall();
            }
            Item::LibcCall(import) => {
                a.call(layout.plt_stub_addr(*import));
            }
            Item::Vectored { code, arg, nr, via } => {
                a.mov_imm32(*arg, *code as u32);
                match via {
                    Some(import) => a.call(layout.plt_stub_addr(*import)),
                    None => {
                        a.mov_imm32(Reg::RAX, *nr);
                        a.syscall();
                    }
                }
            }
            Item::Path(rodata_off) => {
                let off = rodata_offsets
                    .iter()
                    .find(|&&(i, _)| i == *rodata_off)
                    .map(|&(_, o)| o)
                    .unwrap_or(0);
                a.lea_rip(Reg::RDI, layout.rodata_addr + u64::from(off));
            }
            Item::CallHelper { index, via_pointer } => {
                let target = helper_addrs[*index];
                if *via_pointer {
                    a.lea_rip(Reg::RAX, target);
                    a.call_reg(Reg::RAX);
                } else {
                    a.call(target);
                }
            }
        }
    }
    if with_prologue {
        a.pop_rbp();
    }
    match (plan.tail_to_prev, tail_target) {
        (true, Some(target)) => a.jmp(target),
        _ => a.ret(),
    }
}

/// Generates an executable from a spec. Returns the ELF image.
pub fn generate_executable(spec: &ExecSpec) -> Vec<u8> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x45584543);
    let mut b = if spec.is_static {
        ElfBuilder::static_executable()
    } else {
        ElfBuilder::executable()
    };
    for lib in &spec.needed {
        b.needed(lib);
    }

    // ---- Imports --------------------------------------------------------
    let start_main = if spec.is_static {
        None
    } else {
        Some(b.declare_import("__libc_start_main"))
    };
    // Fortified binaries reference the stack protector in every epilogue;
    // the Table 7 libc-variant comparison hinges on this being ubiquitous.
    let stack_chk = if spec.is_static {
        None
    } else {
        Some(b.declare_import("__stack_chk_fail"))
    };
    let libc_call_ids: Vec<u32> = spec
        .libc_calls
        .iter()
        .map(|name| b.declare_import(name))
        .collect();
    let vectored_import = |b: &mut ElfBuilder, wrapper: &str, via: VectoredVia| {
        match via {
            VectoredVia::Wrapper if !spec.is_static => {
                Some(b.declare_import(wrapper))
            }
            _ => None,
        }
    };
    let ioctl_items: Vec<(u64, Option<u32>)> = spec
        .ioctl_codes
        .iter()
        .map(|&(c, via)| (c, vectored_import(&mut b, "ioctl", via)))
        .collect();
    let fcntl_items: Vec<(u64, Option<u32>)> = spec
        .fcntl_codes
        .iter()
        .map(|&(c, via)| (c, vectored_import(&mut b, "fcntl", via)))
        .collect();
    let prctl_items: Vec<(u64, Option<u32>)> = spec
        .prctl_codes
        .iter()
        .map(|&(c, via)| (c, vectored_import(&mut b, "prctl", via)))
        .collect();

    // ---- Rodata ----------------------------------------------------------
    let mut rodata = Vec::new();
    let mut rodata_offsets = Vec::new();
    for (i, p) in spec.paths.iter().enumerate() {
        rodata_offsets.push((i as u32, rodata.len() as u32));
        rodata.extend_from_slice(p.as_bytes());
        rodata.push(0);
    }

    // ---- Emission plan ---------------------------------------------------
    let helper_count = spec.helpers.max(1) as usize;
    let mut helpers: Vec<FuncPlan> = (0..helper_count)
        .map(|i| FuncPlan {
            name: format!("helper_{i}"),
            items: Vec::new(),
            tail_to_prev: i > 0 && rng.gen_bool(0.2),
        })
        .collect();
    let mut main_plan = FuncPlan {
        name: "main".to_owned(),
        items: Vec::new(),
        tail_to_prev: false,
    };
    {
        // Round-robin facts across helpers and main, deterministically.
        let mut sink = |item: Item, rng: &mut SmallRng| {
            let slot = rng.gen_range(0..helper_count + 1);
            if slot == helper_count {
                main_plan.items.push(item);
            } else {
                helpers[slot].items.push(item);
            }
        };
        for &nr in &spec.direct_syscalls {
            sink(Item::DirectSyscall(nr), &mut rng);
        }
        for &id in &libc_call_ids {
            sink(Item::LibcCall(id), &mut rng);
        }
        for &(code, via) in &ioctl_items {
            sink(
                Item::Vectored { code, arg: Reg::RSI, nr: SYS_IOCTL, via },
                &mut rng,
            );
        }
        for &(code, via) in &fcntl_items {
            sink(
                Item::Vectored { code, arg: Reg::RSI, nr: SYS_FCNTL, via },
                &mut rng,
            );
        }
        for &(code, via) in &prctl_items {
            sink(
                Item::Vectored { code, arg: Reg::RDI, nr: SYS_PRCTL, via },
                &mut rng,
            );
        }
        for (i, _) in spec.paths.iter().enumerate() {
            sink(Item::Path(i as u32), &mut rng);
        }
    }
    // Main calls every helper (so everything is reachable), with a mix of
    // direct calls and function-pointer formation — except helpers that
    // are reached only through another helper's tail jump.
    for i in 0..helper_count {
        let tail_reached = helpers.get(i + 1).is_some_and(|h| h.tail_to_prev);
        if tail_reached {
            continue;
        }
        main_plan.items.push(Item::CallHelper {
            index: i,
            via_pointer: rng.gen_bool(0.25),
        });
    }
    if let Some(id) = start_main {
        main_plan.items.push(Item::LibcCall(id));
    }
    if let Some(id) = stack_chk {
        main_plan.items.push(Item::LibcCall(id));
    }
    let dead_plan = if spec.dead_syscalls.is_empty() {
        None
    } else {
        Some(FuncPlan {
            name: "unused_code".to_owned(),
            items: spec
                .dead_syscalls
                .iter()
                .map(|&nr| Item::DirectSyscall(nr))
                .collect(),
            tail_to_prev: false,
        })
    };

    // ---- Two-pass emission ----------------------------------------------
    let emit_all = |layout: &Layout| -> (Vec<u8>, Vec<(String, u64, u64)>) {
        let mut a = Asm::new(layout.text_addr);
        let mut spans = Vec::new();
        let mut helper_addrs = Vec::with_capacity(helper_count);
        for h in &helpers {
            a.align(16);
            let start = a.here();
            let tail_target = helper_addrs.last().copied();
            helper_addrs.push(start);
            // Modern toolchains put a CET landing pad at every function
            // that can be reached indirectly.
            a.endbr64();
            emit_func(
                &mut a,
                h,
                layout,
                &rodata_offsets,
                &helper_addrs,
                false,
                tail_target,
            );
            spans.push((h.name.clone(), start, a.here() - start));
        }
        a.align(16);
        let main_start = a.here();
        emit_func(
            &mut a,
            &main_plan,
            layout,
            &rodata_offsets,
            &helper_addrs,
            true,
            None,
        );
        spans.push(("main".to_owned(), main_start, a.here() - main_start));
        if let Some(dead) = &dead_plan {
            a.align(16);
            let start = a.here();
            emit_func(
                &mut a,
                dead,
                layout,
                &rodata_offsets,
                &helper_addrs,
                false,
                None,
            );
            spans.push((dead.name.clone(), start, a.here() - start));
        }
        (a.finish(), spans)
    };

    // Pass 1 against a probe layout to learn the text size.
    let probe_layout = b.layout(1 << 20, rodata.len() as u64);
    let (probe_text, _) = emit_all(&probe_layout);
    let layout = b.layout(probe_text.len() as u64, rodata.len() as u64);
    let (text, spans) = emit_all(&layout);
    debug_assert_eq!(text.len(), probe_text.len(), "two-pass size stable");

    b.set_text(text);
    b.set_rodata(rodata);
    for (name, start, len) in &spans {
        let off = start - layout.text_addr;
        if name == "main" {
            b.set_entry(off);
        }
        b.local_symbol(name, off, *len);
    }
    b.build().expect("executable build cannot fail on planned input")
}

/// Generates a shared library from a spec. Returns the ELF image.
pub fn generate_library(spec: &LibSpec) -> Vec<u8> {
    let mut b = ElfBuilder::shared_library(&spec.soname);
    for lib in &spec.needed {
        b.needed(lib);
    }
    let export_ids: Vec<u32> = spec
        .exports
        .iter()
        .map(|e| b.declare_export(&e.name))
        .collect();
    let import_ids: Vec<Vec<u32>> = spec
        .exports
        .iter()
        .map(|e| e.imports.iter().map(|n| b.declare_import(n)).collect())
        .collect();

    let export_index: std::collections::HashMap<&str, usize> = spec
        .exports
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name.as_str(), i))
        .collect();

    // Emits every export against `layout`, calling siblings at `addrs`;
    // returns the code and each export's `(start, size)`.
    let emit_all = |layout: &Layout, addrs: &[u64]| -> (Vec<u8>, Vec<(u64, u64)>) {
        let mut a = Asm::new(layout.text_addr);
        let mut spans = Vec::with_capacity(spec.exports.len());
        for (i, e) in spec.exports.iter().enumerate() {
            a.align(16);
            let start = a.here();
            for &nr in &e.direct_syscalls {
                a.mov_imm32(Reg::RAX, nr);
                a.syscall();
            }
            for callee in &e.calls_exports {
                if let Some(&j) = export_index.get(callee.as_str()) {
                    a.call(addrs[j]);
                }
            }
            for &imp in &import_ids[i] {
                a.call(layout.plt_stub_addr(imp));
            }
            a.ret();
            // Pad to the nominal size with trap bytes.
            let body = a.here() - start;
            if u64::from(e.pad_to) > body {
                a.int3_pad((u64::from(e.pad_to) - body) as usize);
            }
            spans.push((start, a.here() - start));
        }
        (a.finish(), spans)
    };

    // Instruction sizes do not depend on call targets, and library code
    // never references `.rodata` (the one address that moves with the
    // `.text` size), so the probe pass, with every sibling call aimed at
    // the start of `.text`, already places each export at its final
    // address. The second pass aims the sibling calls.
    let probe_layout = b.layout(1 << 24, 0);
    let placeholder = vec![probe_layout.text_addr; spec.exports.len()];
    let (probe_text, spans) = emit_all(&probe_layout, &placeholder);
    let layout = b.layout(probe_text.len() as u64, 0);
    debug_assert_eq!(
        (layout.text_addr, layout.plt_addr),
        (probe_layout.text_addr, probe_layout.plt_addr),
    );
    let addrs: Vec<u64> = spans.iter().map(|&(start, _)| start).collect();
    let (text, _) = emit_all(&layout, &addrs);
    debug_assert_eq!(text.len(), probe_text.len());

    b.set_text(text);
    for (i, &(start, len)) in spans.iter().enumerate() {
        b.bind_export(export_ids[i], start - layout.text_addr, len);
    }
    b.build().expect("library build cannot fail on planned input")
}

#[cfg(test)]
mod tests {
    use super::*;
    use apistudy_analysis::BinaryAnalysis;
    use apistudy_elf::ElfFile;

    fn analyze(bytes: &[u8]) -> BinaryAnalysis {
        let elf = ElfFile::parse(bytes).expect("parse generated ELF");
        BinaryAnalysis::analyze(&elf).expect("analyze generated ELF")
    }

    #[test]
    fn executable_footprint_matches_spec() {
        let spec = ExecSpec {
            needed: vec!["libc.so.6".into()],
            libc_calls: vec!["printf".into(), "open".into()],
            direct_syscalls: vec![1, 60],
            ioctl_codes: vec![
                (0x5401, VectoredVia::Inline),
                (0x5413, VectoredVia::Wrapper),
            ],
            fcntl_codes: vec![(1, VectoredVia::Inline)],
            prctl_codes: vec![(22, VectoredVia::Wrapper)],
            paths: vec!["/dev/null".into(), "/proc/%d/cmdline".into()],
            dead_syscalls: vec![169],
            helpers: 3,
            seed: 7,
            ..Default::default()
        };
        let bytes = generate_executable(&spec);
        let ba = analyze(&bytes);
        let fp = ba.entry_facts();
        assert!(fp.syscalls.contains(&1));
        assert!(fp.syscalls.contains(&60));
        assert!(fp.syscalls.contains(&16), "inline ioctl");
        assert!(fp.syscalls.contains(&72), "inline fcntl");
        assert!(!fp.syscalls.contains(&169), "dead code unreachable");
        assert!(fp.ioctl_codes.contains(&0x5401));
        assert!(fp.ioctl_codes.contains(&0x5413));
        assert!(fp.fcntl_codes.contains(&1));
        assert!(fp.prctl_codes.contains(&22));
        assert!(fp.imports.contains("printf"));
        assert!(fp.imports.contains("open"));
        assert!(fp.imports.contains("ioctl"));
        assert!(fp.imports.contains("prctl"));
        assert!(fp.imports.contains("__libc_start_main"));
        assert!(fp.paths.contains("/dev/null"));
        assert!(fp.paths.contains("/proc/%d/cmdline"));
        assert_eq!(fp.unresolved_syscall_sites, 0);
        assert_eq!(fp.unresolved_vectored_sites, 0);
        assert!(ba.direct_syscalls().contains(&169), "dead code attributed");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ExecSpec {
            needed: vec!["libc.so.6".into()],
            libc_calls: vec!["read".into()],
            direct_syscalls: vec![0, 1, 2],
            helpers: 2,
            seed: 42,
            ..Default::default()
        };
        assert_eq!(generate_executable(&spec), generate_executable(&spec));
        let other = ExecSpec { seed: 43, ..spec };
        // Different seed may shuffle structure but the footprint is equal.
        let a = analyze(&generate_executable(&other));
        assert!(a.entry_facts().syscalls.contains(&2));
    }

    #[test]
    fn static_executable_has_no_imports() {
        let spec = ExecSpec {
            is_static: true,
            direct_syscalls: vec![0, 1, 60],
            helpers: 1,
            seed: 1,
            ..Default::default()
        };
        let bytes = generate_executable(&spec);
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.classify(), apistudy_elf::BinaryClass::StaticExec);
        let ba = analyze(&bytes);
        let fp = ba.entry_facts();
        assert_eq!(
            fp.syscalls.iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 60]
        );
        assert!(fp.imports.is_empty());
    }

    #[test]
    fn library_exports_have_planned_footprints() {
        let spec = LibSpec {
            soname: "libdemo.so.1".into(),
            needed: vec!["libc.so.6".into()],
            exports: vec![
                ExportSpec {
                    name: "alpha".into(),
                    direct_syscalls: vec![5],
                    calls_exports: vec!["beta".into()],
                    pad_to: 128,
                    ..Default::default()
                },
                ExportSpec {
                    name: "beta".into(),
                    direct_syscalls: vec![6],
                    imports: vec!["malloc".into()],
                    ..Default::default()
                },
            ],
        };
        let bytes = generate_library(&spec);
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.soname().unwrap().as_deref(), Some("libdemo.so.1"));
        let ba = analyze(&bytes);
        let alpha = ba.export("alpha").expect("alpha exported");
        let fp = ba.reachable_facts([alpha]);
        assert!(fp.syscalls.contains(&5));
        assert!(fp.syscalls.contains(&6), "alpha reaches beta");
        assert!(fp.imports.contains("malloc"));
        let beta = ba.export("beta").unwrap();
        let fp_b = ba.reachable_facts([beta]);
        assert!(!fp_b.syscalls.contains(&5), "beta does not reach alpha");
        // Padding respected.
        assert!(ba.funcs[alpha].size >= 128);
    }

    #[test]
    fn forward_internal_calls_resolve() {
        // alpha (emitted first) calls omega (emitted later).
        let spec = LibSpec {
            soname: "libfwd.so".into(),
            needed: vec![],
            exports: vec![
                ExportSpec {
                    name: "alpha".into(),
                    calls_exports: vec!["omega".into()],
                    ..Default::default()
                },
                ExportSpec {
                    name: "omega".into(),
                    direct_syscalls: vec![39],
                    ..Default::default()
                },
            ],
        };
        let bytes = generate_library(&spec);
        let ba = analyze(&bytes);
        let alpha = ba.export("alpha").unwrap();
        let fp = ba.reachable_facts([alpha]);
        assert!(fp.syscalls.contains(&39), "forward call target reached");
    }
}

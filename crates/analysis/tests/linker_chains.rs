//! Cross-binary resolution edge cases: dependency chains, symbol
//! shadowing by search order, and dependency cycles between libraries.

use apistudy_analysis::{BinaryAnalysis, Linker};
use apistudy_catalog::Api;
use apistudy_corpus::codegen::{
    generate_executable, generate_library, ExecSpec, ExportSpec, LibSpec,
};
use apistudy_elf::ElfFile;

fn lib(soname: &str, needed: &[&str], exports: Vec<ExportSpec>) -> BinaryAnalysis {
    let spec = LibSpec {
        soname: soname.into(),
        needed: needed.iter().map(|s| s.to_string()).collect(),
        exports,
    };
    let bytes = generate_library(&spec);
    let elf = ElfFile::parse(&bytes).unwrap();
    BinaryAnalysis::analyze(&elf).unwrap()
}

fn export(name: &str, syscalls: &[u32], imports: &[&str]) -> ExportSpec {
    ExportSpec {
        name: name.into(),
        direct_syscalls: syscalls.to_vec(),
        imports: imports.iter().map(|s| s.to_string()).collect(),
        ..Default::default()
    }
}

fn exec(needed: &[&str], calls: &[&str]) -> BinaryAnalysis {
    let spec = ExecSpec {
        needed: needed.iter().map(|s| s.to_string()).collect(),
        libc_calls: calls.iter().map(|s| s.to_string()).collect(),
        helpers: 1,
        seed: 1,
        ..Default::default()
    };
    let bytes = generate_executable(&spec);
    let elf = ElfFile::parse(&bytes).unwrap();
    BinaryAnalysis::analyze(&elf).unwrap()
}

#[test]
fn three_level_dependency_chain_resolves_transitively() {
    // exec → libA.f → libB.g → libC.h (each hop adds a syscall).
    let mut linker = Linker::new();
    linker.add_library(
        "libC.so",
        lib("libC.so", &[], vec![export("h", &[30], &[])]),
    );
    linker.add_library(
        "libB.so",
        lib("libB.so", &["libC.so"], vec![export("g", &[20], &["h"])]),
    );
    linker.add_library(
        "libA.so",
        lib("libA.so", &["libB.so"], vec![export("f", &[10], &["g"])]),
    );
    linker.seal();
    let e = exec(&["libA.so"], &["f"]);
    let fp = linker.resolve_executable(&e);
    for nr in [10, 20, 30] {
        assert!(fp.contains(Api::Syscall(nr)), "missing hop syscall {nr}");
    }
}

#[test]
fn needed_order_decides_symbol_shadowing() {
    // Two libraries export `shadowed`; the first library in the DT_NEEDED
    // search order wins, like the dynamic linker's breadth-first lookup.
    let first = lib("libfirst.so", &[], vec![export("shadowed", &[100], &[])]);
    let second = lib("libsecond.so", &[], vec![export("shadowed", &[200], &[])]);
    let mut linker = Linker::new();
    linker.add_library("libfirst.so", first);
    linker.add_library("libsecond.so", second);
    linker.seal();

    let e1 = exec(&["libfirst.so", "libsecond.so"], &["shadowed"]);
    let fp = linker.resolve_executable(&e1);
    assert!(fp.contains(Api::Syscall(100)));
    assert!(!fp.contains(Api::Syscall(200)), "second lib must be shadowed");

    let e2 = exec(&["libsecond.so", "libfirst.so"], &["shadowed"]);
    let fp = linker.resolve_executable(&e2);
    assert!(fp.contains(Api::Syscall(200)));
    assert!(!fp.contains(Api::Syscall(100)));
}

#[test]
fn library_dependency_cycles_terminate_and_union() {
    // libX.f calls libY.g; libY.g calls libX.f — a cross-library SCC.
    let x = lib("libX.so", &["libY.so"], vec![export("f", &[41], &["g"])]);
    let y = lib("libY.so", &["libX.so"], vec![export("g", &[42], &["f"])]);
    let mut linker = Linker::new();
    linker.add_library("libX.so", x);
    linker.add_library("libY.so", y);
    linker.seal();
    let f = linker.resolve_export("libX.so", "f").unwrap();
    let g = linker.resolve_export("libY.so", "g").unwrap();
    assert_eq!(f, g, "SCC members share the closure");
    assert!(f.contains(Api::Syscall(41)) && f.contains(Api::Syscall(42)));
}

#[test]
fn diamond_dependencies_resolve_once() {
    // exec needs libL and libR; both need libBase. The base syscall must
    // appear exactly once in the set (sets dedupe), and resolution must
    // not error on the shared dependency.
    let base = lib("libbase.so", &[], vec![export("base_fn", &[77], &[])]);
    let l = lib("libl.so", &["libbase.so"], vec![export("lf", &[1], &["base_fn"])]);
    let r = lib("libr.so", &["libbase.so"], vec![export("rf", &[2], &["base_fn"])]);
    let mut linker = Linker::new();
    linker.add_library("libbase.so", base);
    linker.add_library("libl.so", l);
    linker.add_library("libr.so", r);
    linker.seal();
    let e = exec(&["libl.so", "libr.so"], &["lf", "rf"]);
    let fp = linker.resolve_executable(&e);
    for nr in [1, 2, 77] {
        assert!(fp.contains(Api::Syscall(nr)));
    }
}

#[test]
fn missing_transitive_library_degrades_gracefully() {
    // libA needs libGone (never registered): resolution keeps libA's own
    // facts and simply cannot see through the missing hop.
    let a = lib("liba.so", &["libgone.so"], vec![export("f", &[10], &["ghost"])]);
    let mut linker = Linker::new();
    linker.add_library("liba.so", a);
    linker.seal();
    let f = linker.resolve_export("liba.so", "f").unwrap();
    assert!(f.contains(Api::Syscall(10)));
    assert_eq!(f.unresolved, 1, "unresolved import is recorded");
}

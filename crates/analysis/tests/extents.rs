//! Function and PLT extents near the top of the address space.
//!
//! A symbol's end (`st_value + st_size`) and the ends of `.text` and
//! `.plt` (`sh_addr + sh_size`) are sums of values the file controls. All
//! are clamped with saturating arithmetic, so debug builds (which would
//! panic on overflow) and release builds (which would wrap) give the same
//! clamped answer.

use apistudy_analysis::BinaryAnalysis;
use apistudy_elf::{ElfBuilder, ElfError, ElfFile};
use apistudy_x86::{Asm, Reg};

/// A static executable whose `.text` is `code`, with one local function
/// symbol `_start` covering all of it, which is also the entry point.
fn start_only(code: &[u8]) -> Vec<u8> {
    let mut b = ElfBuilder::static_executable();
    let _ = b.layout(code.len() as u64, 0);
    b.set_text(code.to_vec());
    b.local_symbol("_start", 0, code.len() as u64);
    b.set_entry(0);
    b.build().expect("build")
}

/// A dynamic executable whose `main` (the entry point) calls
/// `ioctl(_, 0x5401)` and `getpid` through the PLT, then exits with a
/// raw `exit` system call.
fn plt_caller() -> Vec<u8> {
    let mut b = ElfBuilder::executable();
    b.needed("libc.so.6");
    let ioctl = b.declare_import("ioctl");
    let getpid = b.declare_import("getpid");
    let main = b.declare_export("main");
    let emit = |layout: &apistudy_elf::Layout| {
        let mut a = Asm::new(layout.text_addr);
        a.mov_imm32(Reg::RSI, 0x5401);
        a.call(layout.plt_stub_addr(ioctl));
        a.call(layout.plt_stub_addr(getpid));
        a.mov_imm32(Reg::RAX, 60);
        a.syscall();
        a.ret();
        a.finish()
    };
    let probe = emit(&b.layout(1 << 12, 0));
    let text = emit(&b.layout(probe.len() as u64, 0));
    let len = text.len() as u64;
    b.set_text(text);
    b.bind_export(main, 0, len);
    b.set_entry(0);
    b.build().expect("build")
}

/// File offset of the section header of the section called `name`.
fn section_header(bytes: &[u8], name: &str) -> usize {
    let elf = ElfFile::parse(bytes).expect("parse");
    let index = elf
        .sections
        .iter()
        .position(|s| s.name == name)
        .unwrap_or_else(|| panic!("no {name}"));
    elf.header.shoff as usize + index * 64
}

fn put_u64(bytes: &mut [u8], at: usize, value: u64) {
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

/// File offset of `_start`'s `.symtab` entry (index 1, after the null
/// symbol).
fn start_symbol(bytes: &[u8]) -> usize {
    let elf = ElfFile::parse(bytes).expect("parse");
    let symtab = elf.section_by_name(".symtab").expect(".symtab");
    symtab.offset as usize + 24
}

#[test]
fn huge_symbol_size_clamps_to_the_end_of_text() {
    // mov eax, 60; syscall; ret
    let mut bytes = start_only(&[0xb8, 60, 0, 0, 0, 0x0f, 0x05, 0xc3]);
    let sym = start_symbol(&bytes);
    put_u64(&mut bytes, sym + 16, u64::MAX - 0x1000); // st_size = 2^64 - 0x1001
    let elf = ElfFile::parse(&bytes).expect("parse");
    let ba = BinaryAnalysis::analyze(&elf).expect("analyze");
    assert_eq!(ba.funcs.len(), 1);
    assert_eq!(ba.funcs[0].size, 8, "clamped to the end of .text");
    assert_eq!(ba.entry, Some(0));
    assert_eq!(
        ba.entry_facts().syscalls.into_iter().collect::<Vec<_>>(),
        vec![60]
    );
}

#[test]
fn text_at_the_top_of_the_address_space_clamps_its_end() {
    // xor eax, eax; syscall; ret; int3 x 3
    let mut bytes = start_only(&[0x31, 0xc0, 0x0f, 0x05, 0xc3, 0xcc, 0xcc, 0xcc]);
    let top = u64::MAX - 4; // sh_addr = 2^64 - 5: eight bytes would run past the end
    let sym = start_symbol(&bytes);
    let (shdr, entry) = {
        let elf = ElfFile::parse(&bytes).expect("parse");
        let index = elf
            .sections
            .iter()
            .position(|s| s.name == ".text")
            .expect(".text");
        (elf.header.shoff as usize + index * 64, 24)
    };
    put_u64(&mut bytes, shdr + 16, top); // .text sh_addr
    put_u64(&mut bytes, sym + 8, top); // _start st_value
    put_u64(&mut bytes, entry, top); // e_entry
    let elf = ElfFile::parse(&bytes).expect("parse");
    let ba = BinaryAnalysis::analyze(&elf).expect("analyze");
    assert_eq!(ba.funcs.len(), 1);
    assert_eq!(ba.funcs[0].name, "_start");
    assert_eq!(ba.funcs[0].addr, top);
    assert_eq!(ba.funcs[0].size, 4, "clamped to u64::MAX");
    assert_eq!(ba.entry, Some(0));
    assert_eq!(ba.instructions, 2, "xor and syscall fit below the clamp");
    assert_eq!(
        ba.entry_facts().syscalls.into_iter().collect::<Vec<_>>(),
        vec![0]
    );
}

#[test]
fn huge_plt_size_clamps_to_the_top_of_the_address_space() {
    let honest = plt_caller();
    let expected = {
        let elf = ElfFile::parse(&honest).expect("parse");
        BinaryAnalysis::analyze(&elf).expect("analyze").entry_facts()
    };
    assert_eq!(
        expected.imports.iter().map(String::as_str).collect::<Vec<_>>(),
        ["getpid", "ioctl"]
    );
    assert_eq!(expected.ioctl_codes.iter().copied().collect::<Vec<_>>(), [0x5401]);

    // sh_size = 2^64 - 0x11: `.plt` now runs past u64::MAX. Clamped, it
    // still holds both stubs, which resolve as before.
    let mut bytes = honest.clone();
    let plt = section_header(&bytes, ".plt");
    put_u64(&mut bytes, plt + 32, u64::MAX - 0x10);
    let elf = ElfFile::parse(&bytes).expect("parse");
    assert_eq!(elf.plt_map().expect("plt map").len(), 2);
    let ba = BinaryAnalysis::analyze(&elf).expect("analyze");
    assert_eq!(ba.entry_facts(), expected);
}

#[test]
fn plt_at_the_top_of_the_address_space_holds_only_the_stubs_below_it() {
    // sh_addr = 2^64 - 0x20: `.plt` ends one past u64::MAX. Clamped
    // there, it holds the first 16-byte stub but not the second, so the
    // second relocation has no stub.
    let mut bytes = plt_caller();
    let plt = section_header(&bytes, ".plt");
    put_u64(&mut bytes, plt + 16, u64::MAX - 0x1f);
    let elf = ElfFile::parse(&bytes).expect("parse");
    let err = BinaryAnalysis::analyze(&elf).expect_err("second stub past the top");
    assert!(
        matches!(err, ElfError::Malformed("more PLT relocations than stubs")),
        "{err}"
    );
}

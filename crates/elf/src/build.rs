//! ELF64 writer.
//!
//! Produces real, parseable x86-64 ELF objects: executables (static or
//! dynamic) and shared libraries with `.text`, `.rodata`, `.plt`,
//! `.dynsym`/`.dynstr`, `.rela.plt`, `.dynamic`, and full symbol tables.
//! The corpus generator uses this to emit every binary in the synthetic
//! repository, so the analyzer exercises the same code paths it would on
//! distribution binaries.
//!
//! ## Build protocol
//!
//! Addresses of `.text`, `.rodata`, and PLT stubs depend on the dynamic
//! tables, whose sizes depend only on declared names. The protocol is
//! therefore two-phase:
//!
//! 1. declare structure: [`ElfBuilder::needed`], [`ElfBuilder::declare_import`],
//!    [`ElfBuilder::declare_export`], and the `.text`/`.rodata` sizes via
//!    [`ElfBuilder::layout`] (a generator that learns its `.text` size by
//!    emitting against a probe layout calls it twice; the last call wins);
//! 2. generate code against the returned [`Layout`], then bind it:
//!    [`ElfBuilder::set_text`], [`ElfBuilder::set_rodata`],
//!    [`ElfBuilder::bind_export`], [`ElfBuilder::set_entry`], and finally
//!    [`ElfBuilder::build`].
//!
//! ## PLT convention
//!
//! Imported functions get one [`PLT_STUB_SIZE`]-byte stub each, in
//! declaration order; `.rela.plt` entry *i* (a `R_X86_64_JUMP_SLOT` against
//! the import's `.dynsym` entry) corresponds to stub *i*. This matches how
//! the parser's [`crate::parse::ElfFile::plt_map`] resolves call targets.

use std::collections::HashMap;

use crate::{
    error::{ElfError, Result},
    types::{
        dt, pf, pt, shf, ElfType, SymBinding, SymType, DYN_SIZE, EHDR_SIZE,
        ELF_MAGIC, EM_X86_64, PHDR_SIZE, RELA_SIZE, R_X86_64_JUMP_SLOT,
        SHDR_SIZE, SHN_UNDEF, SYM_SIZE,
    },
};

/// Size of one PLT stub emitted by the builder.
pub const PLT_STUB_SIZE: usize = 16;

/// Base virtual address for executables.
pub const EXEC_BASE: u64 = 0x40_0000;

/// Default ELF interpreter recorded for dynamic executables.
pub const DEFAULT_INTERP: &str = "/lib64/ld-linux-x86-64.so.2";

/// Resolved addresses for code generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Virtual address of `.text`.
    pub text_addr: u64,
    /// Virtual address of `.rodata`.
    pub rodata_addr: u64,
    /// Virtual address of `.plt` (0 when there are no imports).
    pub plt_addr: u64,
    /// Number of PLT stubs.
    pub plt_count: u32,
}

impl Layout {
    /// Virtual address of PLT stub `i` (the call target for import `i`).
    pub fn plt_stub_addr(&self, i: u32) -> u64 {
        debug_assert!(i < self.plt_count, "import index out of range");
        self.plt_addr + u64::from(i) * PLT_STUB_SIZE as u64
    }
}

#[derive(Debug, Clone)]
struct Export {
    name: String,
    text_off: u64,
    size: u64,
    bound: bool,
}

#[derive(Debug, Clone)]
struct LocalSym {
    name: String,
    text_off: u64,
    size: u64,
}

/// Builder for a synthetic x86-64 ELF object.
#[derive(Debug, Clone)]
pub struct ElfBuilder {
    etype: ElfType,
    interp: Option<String>,
    soname: Option<String>,
    needed: Vec<String>,
    imports: Vec<String>,
    exports: Vec<Export>,
    locals: Vec<LocalSym>,
    text: Vec<u8>,
    rodata: Vec<u8>,
    text_size_hint: u64,
    entry_off: Option<u64>,
}

impl ElfBuilder {
    /// A dynamically linked executable (has `PT_INTERP`).
    pub fn executable() -> Self {
        Self::new(ElfType::Exec, Some(DEFAULT_INTERP.to_owned()), None)
    }

    /// A statically linked executable (no interpreter, no dynamic tables).
    pub fn static_executable() -> Self {
        Self::new(ElfType::Exec, None, None)
    }

    /// A shared library with the given `DT_SONAME`.
    pub fn shared_library(soname: &str) -> Self {
        Self::new(ElfType::Dyn, None, Some(soname.to_owned()))
    }

    fn new(etype: ElfType, interp: Option<String>, soname: Option<String>) -> Self {
        Self {
            etype,
            interp,
            soname,
            needed: Vec::new(),
            imports: Vec::new(),
            exports: Vec::new(),
            locals: Vec::new(),
            text: Vec::new(),
            rodata: Vec::new(),
            text_size_hint: 0,
            entry_off: None,
        }
    }

    /// Records a `DT_NEEDED` dependency on a shared library.
    pub fn needed(&mut self, lib: &str) -> &mut Self {
        self.needed.push(lib.to_owned());
        self
    }

    /// Declares an imported function; returns its import index (= PLT slot).
    ///
    /// Duplicate declarations return the existing index.
    pub fn declare_import(&mut self, sym: &str) -> u32 {
        if let Some(i) = self.imports.iter().position(|s| s == sym) {
            return i as u32;
        }
        self.imports.push(sym.to_owned());
        (self.imports.len() - 1) as u32
    }

    /// Declares an exported function; its `.text` offset is bound later with
    /// [`Self::bind_export`]. Returns the export id.
    pub fn declare_export(&mut self, name: &str) -> u32 {
        self.exports.push(Export {
            name: name.to_owned(),
            text_off: 0,
            size: 0,
            bound: false,
        });
        (self.exports.len() - 1) as u32
    }

    /// Binds a declared export to its generated code.
    pub fn bind_export(&mut self, id: u32, text_off: u64, size: u64) {
        let e = &mut self.exports[id as usize];
        e.text_off = text_off;
        e.size = size;
        e.bound = true;
    }

    /// Adds a local (non-exported) function symbol to `.symtab`.
    pub fn local_symbol(&mut self, name: &str, text_off: u64, size: u64) {
        self.locals.push(LocalSym { name: name.to_owned(), text_off, size });
    }

    /// Sets the generated machine code.
    pub fn set_text(&mut self, bytes: Vec<u8>) {
        self.text = bytes;
    }

    /// Sets the read-only data (string constants, tables).
    pub fn set_rodata(&mut self, bytes: Vec<u8>) {
        self.rodata = bytes;
    }

    /// Sets the entry point as an offset into `.text`.
    pub fn set_entry(&mut self, text_off: u64) {
        self.entry_off = Some(text_off);
    }

    fn is_dynamic(&self) -> bool {
        self.etype == ElfType::Dyn
            || !self.needed.is_empty()
            || !self.imports.is_empty()
            || self.soname.is_some()
    }

    fn base(&self) -> u64 {
        match self.etype {
            ElfType::Exec => EXEC_BASE,
            _ => 0,
        }
    }

    /// The names `.dynstr` holds, in table order, duplicates included:
    /// imports, exports, needed libraries, then the soname.
    fn dynstr_names(&self) -> Vec<&str> {
        self.imports
            .iter()
            .map(String::as_str)
            .chain(self.exports.iter().map(|e| e.name.as_str()))
            .chain(self.needed.iter().map(String::as_str))
            .chain(self.soname.as_deref())
            .collect()
    }

    /// Builds `.dynstr`: a leading NUL, then each distinct name once, in
    /// table order. Returns the table and the offset of every name of
    /// [`Self::dynstr_names`], position for position.
    fn dynstr(&self) -> (Vec<u8>, Vec<u32>) {
        let names = self.dynstr_names();
        let mut bytes = vec![0u8];
        let mut seen = HashMap::with_capacity(names.len());
        let offsets = names
            .iter()
            .map(|&name| {
                *seen.entry(name).or_insert_with(|| {
                    let off = bytes.len() as u32;
                    bytes.extend_from_slice(name.as_bytes());
                    bytes.push(0);
                    off
                })
            })
            .collect();
        (bytes, offsets)
    }

    /// Internal layout: file offsets (== vaddr - base for allocated pieces).
    fn offsets(&self, text_len: u64, rodata_len: u64, dynstr_len: u64) -> Offsets {
        let phnum = {
            let mut n = 1; // PT_LOAD
            if self.interp.is_some() {
                n += 1;
            }
            if self.is_dynamic() {
                n += 1;
            }
            n
        };
        let mut off = (EHDR_SIZE + phnum * PHDR_SIZE) as u64;
        let align8 = |v: u64| (v + 7) & !7;
        let align16 = |v: u64| (v + 15) & !15;

        let interp_off = off;
        let interp_len = self.interp.as_ref().map_or(0, |s| s.len() as u64 + 1);
        off = align8(off + interp_len);

        let dynstr_off = off;
        let dynstr_len = if self.is_dynamic() { dynstr_len } else { 0 };
        off = align8(off + dynstr_len);

        let dynsym_off = off;
        let dynsym_count =
            if self.is_dynamic() { 1 + self.imports.len() + self.exports.len() } else { 0 };
        off = align8(off + (dynsym_count * SYM_SIZE) as u64);

        let rela_off = off;
        let rela_len = if self.is_dynamic() {
            (self.imports.len() * RELA_SIZE) as u64
        } else {
            0
        };
        off = align8(off + rela_len);

        let dynamic_off = off;
        let dynamic_count = if self.is_dynamic() {
            self.needed.len() + usize::from(self.soname.is_some()) + 1
        } else {
            0
        };
        off = align16(off + (dynamic_count * DYN_SIZE) as u64);

        let plt_off = off;
        let plt_len = (self.imports.len() * PLT_STUB_SIZE) as u64;
        off = align16(off + plt_len);

        let text_off = off;
        off = align16(off + text_len);

        let rodata_off = off;
        off = align8(off + rodata_len);

        Offsets {
            phnum,
            interp_off,
            interp_len,
            dynstr_off,
            dynsym_off,
            dynsym_count,
            rela_off,
            dynamic_off,
            dynamic_count,
            plt_off,
            plt_len,
            text_off,
            rodata_off,
            alloc_end: off,
        }
    }

    /// Computes addresses for code generation, given the expected sizes of
    /// `.text` and `.rodata` (only their *relative* layout matters: `.text`
    /// comes first, so its own length does not shift its base, and `.rodata`
    /// follows at `text_size` rounded up).
    ///
    /// All names (imports, exports, needed libraries) must be declared
    /// before calling this. Calling it again replaces the size hint, so a
    /// probe layout needs no copy of the builder.
    pub fn layout(&mut self, text_size: u64, rodata_size: u64) -> Layout {
        self.text_size_hint = text_size;
        let off = self.offsets(text_size, rodata_size, self.dynstr().0.len() as u64);
        let base = self.base();
        Layout {
            text_addr: base + off.text_off,
            rodata_addr: base + off.rodata_off,
            plt_addr: if self.imports.is_empty() { 0 } else { base + off.plt_off },
            plt_count: self.imports.len() as u32,
        }
    }

    /// Serializes the object. Fails when exports are unbound or when the
    /// bound `.text` disagrees with the size given to [`Self::layout`].
    pub fn build(&self) -> Result<Vec<u8>> {
        if let Some(e) = self.exports.iter().find(|e| !e.bound) {
            let _ = e;
            return Err(ElfError::Malformed("unbound export"));
        }
        if self.text.len() as u64 != self.text_size_hint && self.text_size_hint != 0 {
            return Err(ElfError::Malformed("text size differs from layout hint"));
        }
        let (dynstr_bytes, name_offs) = self.dynstr();
        // Offsets follow `dynstr_names`: imports, exports, needed, soname.
        let (import_offs, rest) = name_offs.split_at(self.imports.len());
        let (export_offs, rest) = rest.split_at(self.exports.len());
        let (needed_offs, soname_off) = rest.split_at(self.needed.len());
        let off = self.offsets(
            self.text.len() as u64,
            self.rodata.len() as u64,
            dynstr_bytes.len() as u64,
        );
        let base = self.base();
        let dynamic = self.is_dynamic();

        // ---- Section bookkeeping -------------------------------------
        // Section indices (0 = null). Built in file order.
        struct SecDesc {
            name: &'static str,
            stype: u32,
            flags: u64,
            addr: u64,
            offset: u64,
            size: u64,
            link: u32,
            entsize: u64,
        }
        let mut secs: Vec<SecDesc> = vec![SecDesc {
            name: "",
            stype: 0,
            flags: 0,
            addr: 0,
            offset: 0,
            size: 0,
            link: 0,
            entsize: 0,
        }];

        if self.interp.is_some() {
            secs.push(SecDesc {
                name: ".interp",
                stype: 1,
                flags: shf::ALLOC,
                addr: base + off.interp_off,
                offset: off.interp_off,
                size: off.interp_len,
                link: 0,
                entsize: 0,
            });
        }
        if dynamic {
            let dynstr_idx = secs.len() as u32;
            secs.push(SecDesc {
                name: ".dynstr",
                stype: 3,
                flags: shf::ALLOC,
                addr: base + off.dynstr_off,
                offset: off.dynstr_off,
                size: dynstr_bytes.len() as u64,
                link: 0,
                entsize: 0,
            });
            let dynsym_idx = secs.len() as u32;
            secs.push(SecDesc {
                name: ".dynsym",
                stype: 11,
                flags: shf::ALLOC,
                addr: base + off.dynsym_off,
                offset: off.dynsym_off,
                size: (off.dynsym_count * SYM_SIZE) as u64,
                link: dynstr_idx,
                entsize: SYM_SIZE as u64,
            });
            secs.push(SecDesc {
                name: ".rela.plt",
                stype: 4,
                flags: shf::ALLOC,
                addr: base + off.rela_off,
                offset: off.rela_off,
                size: (self.imports.len() * RELA_SIZE) as u64,
                link: dynsym_idx,
                entsize: RELA_SIZE as u64,
            });
            secs.push(SecDesc {
                name: ".dynamic",
                stype: 6,
                flags: shf::ALLOC | shf::WRITE,
                addr: base + off.dynamic_off,
                offset: off.dynamic_off,
                size: (off.dynamic_count * DYN_SIZE) as u64,
                link: dynstr_idx,
                entsize: DYN_SIZE as u64,
            });
            if !self.imports.is_empty() {
                secs.push(SecDesc {
                    name: ".plt",
                    stype: 1,
                    flags: shf::ALLOC | shf::EXECINSTR,
                    addr: base + off.plt_off,
                    offset: off.plt_off,
                    size: off.plt_len,
                    link: 0,
                    entsize: PLT_STUB_SIZE as u64,
                });
            }
        }
        let text_idx = secs.len() as u32;
        secs.push(SecDesc {
            name: ".text",
            stype: 1,
            flags: shf::ALLOC | shf::EXECINSTR,
            addr: base + off.text_off,
            offset: off.text_off,
            size: self.text.len() as u64,
            link: 0,
            entsize: 0,
        });
        secs.push(SecDesc {
            name: ".rodata",
            stype: 1,
            flags: shf::ALLOC,
            addr: base + off.rodata_off,
            offset: off.rodata_off,
            size: self.rodata.len() as u64,
            link: 0,
            entsize: 0,
        });

        // ---- Non-alloc tail: .symtab/.strtab --------------------------
        // Build the static symbol table: null + locals + exports.
        let mut strtab = vec![0u8];
        let mut symtab = vec![0u8; SYM_SIZE]; // null symbol
        let push_sym = |strtab: &mut Vec<u8>,
                            symtab: &mut Vec<u8>,
                            name: &str,
                            binding: SymBinding,
                            value: u64,
                            size: u64,
                            shndx: u16| {
            let name_off = strtab.len() as u32;
            strtab.extend_from_slice(name.as_bytes());
            strtab.push(0);
            let mut e = [0u8; SYM_SIZE];
            e[0..4].copy_from_slice(&name_off.to_le_bytes());
            e[4] = (binding.to_nibble() << 4) | SymType::Func.to_nibble();
            e[6..8].copy_from_slice(&shndx.to_le_bytes());
            e[8..16].copy_from_slice(&value.to_le_bytes());
            e[16..24].copy_from_slice(&size.to_le_bytes());
            symtab.extend_from_slice(&e);
        };
        let text_shndx = text_idx as u16;
        for l in &self.locals {
            push_sym(
                &mut strtab,
                &mut symtab,
                &l.name,
                SymBinding::Local,
                base + off.text_off + l.text_off,
                l.size,
                text_shndx,
            );
        }
        for e in &self.exports {
            push_sym(
                &mut strtab,
                &mut symtab,
                &e.name,
                SymBinding::Global,
                base + off.text_off + e.text_off,
                e.size,
                text_shndx,
            );
        }

        let mut tail_off = off.alloc_end;
        let align8 = |v: u64| (v + 7) & !7;
        tail_off = align8(tail_off);
        let symtab_off = tail_off;
        let strtab_off = symtab_off + symtab.len() as u64;

        let symtab_idx = secs.len() as u32;
        secs.push(SecDesc {
            name: ".symtab",
            stype: 2,
            flags: 0,
            addr: 0,
            offset: symtab_off,
            size: symtab.len() as u64,
            link: symtab_idx + 1, // .strtab follows
            entsize: SYM_SIZE as u64,
        });
        secs.push(SecDesc {
            name: ".strtab",
            stype: 3,
            flags: 0,
            addr: 0,
            offset: strtab_off,
            size: strtab.len() as u64,
            link: 0,
            entsize: 0,
        });

        // .shstrtab last.
        let mut shstrtab = vec![0u8];
        let mut name_offsets = Vec::with_capacity(secs.len() + 1);
        for s in &secs {
            if s.name.is_empty() {
                name_offsets.push(0u32);
            } else {
                name_offsets.push(shstrtab.len() as u32);
                shstrtab.extend_from_slice(s.name.as_bytes());
                shstrtab.push(0);
            }
        }
        let shstr_name_off = shstrtab.len() as u32;
        shstrtab.extend_from_slice(b".shstrtab\0");
        let shstrtab_off = strtab_off + strtab.len() as u64;
        let shstrndx = secs.len() as u16;
        secs.push(SecDesc {
            name: ".shstrtab",
            stype: 3,
            flags: 0,
            addr: 0,
            offset: shstrtab_off,
            size: shstrtab.len() as u64,
            link: 0,
            entsize: 0,
        });
        name_offsets.push(shstr_name_off);

        let shoff = align8(shstrtab_off + shstrtab.len() as u64);
        let total = shoff as usize + secs.len() * SHDR_SIZE;
        let mut out = vec![0u8; total];

        // ---- ELF header ------------------------------------------------
        out[0..4].copy_from_slice(&ELF_MAGIC);
        out[4] = 2; // ELFCLASS64
        out[5] = 1; // ELFDATA2LSB
        out[6] = 1; // EV_CURRENT
        out[16..18].copy_from_slice(&self.etype.to_u16().to_le_bytes());
        out[18..20].copy_from_slice(&EM_X86_64.to_le_bytes());
        out[20..24].copy_from_slice(&1u32.to_le_bytes());
        let entry = match self.entry_off {
            Some(e) if self.etype != ElfType::Dyn || self.interp.is_some() => {
                base + off.text_off + e
            }
            Some(e) => base + off.text_off + e,
            None => 0,
        };
        out[24..32].copy_from_slice(&entry.to_le_bytes());
        out[32..40].copy_from_slice(&(EHDR_SIZE as u64).to_le_bytes());
        out[40..48].copy_from_slice(&shoff.to_le_bytes());
        out[52..54].copy_from_slice(&(EHDR_SIZE as u16).to_le_bytes());
        out[54..56].copy_from_slice(&(PHDR_SIZE as u16).to_le_bytes());
        out[56..58].copy_from_slice(&(off.phnum as u16).to_le_bytes());
        out[58..60].copy_from_slice(&(SHDR_SIZE as u16).to_le_bytes());
        out[60..62].copy_from_slice(&(secs.len() as u16).to_le_bytes());
        out[62..64].copy_from_slice(&shstrndx.to_le_bytes());

        // ---- Program headers -------------------------------------------
        let mut ph = EHDR_SIZE;
        let write_phdr = |out: &mut Vec<u8>,
                              ph: &mut usize,
                              ptype: u32,
                              flags: u32,
                              offset: u64,
                              vaddr: u64,
                              filesz: u64,
                              memsz: u64,
                              align: u64| {
            let p = &mut out[*ph..*ph + PHDR_SIZE];
            p[0..4].copy_from_slice(&ptype.to_le_bytes());
            p[4..8].copy_from_slice(&flags.to_le_bytes());
            p[8..16].copy_from_slice(&offset.to_le_bytes());
            p[16..24].copy_from_slice(&vaddr.to_le_bytes());
            p[24..32].copy_from_slice(&vaddr.to_le_bytes());
            p[32..40].copy_from_slice(&filesz.to_le_bytes());
            p[40..48].copy_from_slice(&memsz.to_le_bytes());
            p[48..56].copy_from_slice(&align.to_le_bytes());
            *ph += PHDR_SIZE;
        };
        write_phdr(
            &mut out,
            &mut ph,
            pt::LOAD,
            pf::R | pf::W | pf::X,
            0,
            base,
            off.alloc_end,
            off.alloc_end,
            0x1000,
        );
        if self.interp.is_some() {
            write_phdr(
                &mut out,
                &mut ph,
                pt::INTERP,
                pf::R,
                off.interp_off,
                base + off.interp_off,
                off.interp_len,
                off.interp_len,
                1,
            );
        }
        if dynamic {
            write_phdr(
                &mut out,
                &mut ph,
                pt::DYNAMIC,
                pf::R | pf::W,
                off.dynamic_off,
                base + off.dynamic_off,
                (off.dynamic_count * DYN_SIZE) as u64,
                (off.dynamic_count * DYN_SIZE) as u64,
                8,
            );
        }

        // ---- Allocated contents ----------------------------------------
        if let Some(interp) = &self.interp {
            let o = off.interp_off as usize;
            out[o..o + interp.len()].copy_from_slice(interp.as_bytes());
            // NUL already zero.
        }
        if dynamic {
            let o = off.dynstr_off as usize;
            out[o..o + dynstr_bytes.len()].copy_from_slice(&dynstr_bytes);

            // .dynsym: null + imports (UND) + exports.
            let mut o = off.dynsym_off as usize + SYM_SIZE;
            for name_off in import_offs {
                let e = &mut out[o..o + SYM_SIZE];
                e[0..4].copy_from_slice(&name_off.to_le_bytes());
                e[4] = (SymBinding::Global.to_nibble() << 4)
                    | SymType::Func.to_nibble();
                e[6..8].copy_from_slice(&SHN_UNDEF.to_le_bytes());
                o += SYM_SIZE;
            }
            for (exp, name_off) in self.exports.iter().zip(export_offs) {
                let e = &mut out[o..o + SYM_SIZE];
                e[0..4].copy_from_slice(&name_off.to_le_bytes());
                e[4] = (SymBinding::Global.to_nibble() << 4)
                    | SymType::Func.to_nibble();
                e[6..8].copy_from_slice(&(text_idx as u16).to_le_bytes());
                let addr = base + off.text_off + exp.text_off;
                e[8..16].copy_from_slice(&addr.to_le_bytes());
                e[16..24].copy_from_slice(&exp.size.to_le_bytes());
                o += SYM_SIZE;
            }

            // .rela.plt: one JUMP_SLOT per import, in order.
            let mut o = off.rela_off as usize;
            for (i, _) in self.imports.iter().enumerate() {
                let stub_addr =
                    base + off.plt_off + (i * PLT_STUB_SIZE) as u64;
                let e = &mut out[o..o + RELA_SIZE];
                e[0..8].copy_from_slice(&stub_addr.to_le_bytes());
                let info =
                    ((i as u64 + 1) << 32) | u64::from(R_X86_64_JUMP_SLOT);
                e[8..16].copy_from_slice(&info.to_le_bytes());
                o += RELA_SIZE;
            }

            // .dynamic.
            let mut o = off.dynamic_off as usize;
            let push_dyn = |out: &mut Vec<u8>, o: &mut usize, tag: i64, val: u64| {
                out[*o..*o + 8].copy_from_slice(&(tag as u64).to_le_bytes());
                out[*o + 8..*o + 16].copy_from_slice(&val.to_le_bytes());
                *o += DYN_SIZE;
            };
            for &name_off in needed_offs {
                push_dyn(&mut out, &mut o, dt::NEEDED, u64::from(name_off));
            }
            if let Some(&name_off) = soname_off.first() {
                push_dyn(&mut out, &mut o, dt::SONAME, u64::from(name_off));
            }
            push_dyn(&mut out, &mut o, dt::NULL, 0);

            // .plt stubs: `jmp [rip+0]; int3 ...` placeholders.
            let mut o = off.plt_off as usize;
            for _ in &self.imports {
                let stub = &mut out[o..o + PLT_STUB_SIZE];
                stub[0] = 0xff;
                stub[1] = 0x25;
                // disp32 zero; rest int3.
                for b in stub.iter_mut().skip(6) {
                    *b = 0xcc;
                }
                o += PLT_STUB_SIZE;
            }
        }

        let o = off.text_off as usize;
        out[o..o + self.text.len()].copy_from_slice(&self.text);
        let o = off.rodata_off as usize;
        out[o..o + self.rodata.len()].copy_from_slice(&self.rodata);

        // ---- Non-alloc tail ---------------------------------------------
        let o = symtab_off as usize;
        out[o..o + symtab.len()].copy_from_slice(&symtab);
        let o = strtab_off as usize;
        out[o..o + strtab.len()].copy_from_slice(&strtab);
        let o = shstrtab_off as usize;
        out[o..o + shstrtab.len()].copy_from_slice(&shstrtab);

        // ---- Section header table ----------------------------------------
        for (i, s) in secs.iter().enumerate() {
            let o = shoff as usize + i * SHDR_SIZE;
            let e = &mut out[o..o + SHDR_SIZE];
            e[0..4].copy_from_slice(&name_offsets[i].to_le_bytes());
            e[4..8].copy_from_slice(&s.stype.to_le_bytes());
            e[8..16].copy_from_slice(&s.flags.to_le_bytes());
            e[16..24].copy_from_slice(&s.addr.to_le_bytes());
            e[24..32].copy_from_slice(&s.offset.to_le_bytes());
            e[32..40].copy_from_slice(&s.size.to_le_bytes());
            e[40..44].copy_from_slice(&s.link.to_le_bytes());
            e[56..64].copy_from_slice(&s.entsize.to_le_bytes());
        }

        Ok(out)
    }
}

#[derive(Debug, Clone, Copy)]
struct Offsets {
    phnum: usize,
    interp_off: u64,
    interp_len: u64,
    dynstr_off: u64,
    dynsym_off: u64,
    dynsym_count: usize,
    rela_off: u64,
    dynamic_off: u64,
    dynamic_count: usize,
    plt_off: u64,
    plt_len: u64,
    text_off: u64,
    rodata_off: u64,
    alloc_end: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{BinaryClass, ElfFile};

    /// Builds a small dynamic executable: imports printf/exit from libc,
    /// defines `main` and a local helper, stores a path string in rodata.
    fn sample_exec() -> Vec<u8> {
        let mut b = ElfBuilder::executable();
        b.needed("libc.so.6");
        let printf = b.declare_import("printf");
        let exit = b.declare_import("exit");
        let main_id = b.declare_export("main");
        let text = vec![0x90u8; 64]; // NOPs; codegen is tested elsewhere.
        let rodata = b"/proc/cpuinfo\0".to_vec();
        let layout = b.layout(text.len() as u64, rodata.len() as u64);
        assert_eq!(layout.plt_count, 2);
        assert!(layout.plt_stub_addr(exit) > layout.plt_stub_addr(printf));
        b.set_text(text);
        b.set_rodata(rodata);
        b.bind_export(main_id, 0, 32);
        b.local_symbol("helper", 32, 32);
        b.set_entry(0);
        b.build().expect("build")
    }

    #[test]
    fn build_then_parse_roundtrip() {
        let bytes = sample_exec();
        let elf = ElfFile::parse(&bytes).expect("parse");
        assert_eq!(elf.header.etype, ElfType::Exec);
        assert_eq!(elf.classify(), BinaryClass::DynExec);
        assert_eq!(elf.needed_libraries().unwrap(), vec!["libc.so.6"]);

        let text = elf.section_by_name(".text").expect(".text");
        assert_eq!(text.size, 64);
        assert_eq!(elf.section_data(text).unwrap(), &[0x90u8; 64][..]);

        let plt = elf.plt_map().unwrap();
        assert_eq!(plt.len(), 2);
        assert_eq!(plt[0].1, "printf");
        assert_eq!(plt[1].1, "exit");

        let syms = elf.symtab().unwrap();
        let main = syms.iter().find(|s| s.name == "main").expect("main");
        assert_eq!(main.value, text.addr);
        assert!(syms.iter().any(|s| s.name == "helper"));
    }

    #[test]
    fn layout_addresses_match_built_file() {
        let mut b = ElfBuilder::executable();
        b.needed("libc.so.6");
        b.declare_import("write");
        let f = b.declare_export("f");
        let layout = b.layout(16, 8);
        b.set_text(vec![0xc3; 16]);
        b.set_rodata(vec![0; 8]);
        b.bind_export(f, 0, 16);
        b.set_entry(0);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(
            elf.section_by_name(".text").unwrap().addr,
            layout.text_addr
        );
        assert_eq!(
            elf.section_by_name(".rodata").unwrap().addr,
            layout.rodata_addr
        );
        assert_eq!(elf.section_by_name(".plt").unwrap().addr, layout.plt_addr);
        assert_eq!(elf.header.entry, layout.text_addr);
    }

    #[test]
    fn shared_library_layout() {
        let mut b = ElfBuilder::shared_library("libfoo.so.1");
        let f = b.declare_export("foo_fn");
        let _ = b.layout(4, 0);
        b.set_text(vec![0xc3; 4]);
        b.bind_export(f, 0, 4);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.classify(), BinaryClass::SharedLib);
        assert_eq!(elf.soname().unwrap().as_deref(), Some("libfoo.so.1"));
        let dynsyms = elf.dynsym().unwrap();
        let foo = dynsyms.iter().find(|s| s.name == "foo_fn").expect("foo_fn");
        assert!(foo.is_defined_func());
        assert_eq!(foo.value, elf.section_by_name(".text").unwrap().addr);
    }

    #[test]
    fn static_executable_has_no_dynamic_sections() {
        let mut b = ElfBuilder::static_executable();
        let _ = b.layout(4, 0);
        b.set_text(vec![0xc3; 4]);
        b.set_entry(0);
        let bytes = b.build().unwrap();
        let elf = ElfFile::parse(&bytes).unwrap();
        assert_eq!(elf.classify(), BinaryClass::StaticExec);
        assert!(elf.section_by_name(".dynamic").is_none());
        assert!(elf.needed_libraries().unwrap().is_empty());
        assert!(elf.plt_map().unwrap().is_empty());
    }

    #[test]
    fn unbound_export_is_rejected() {
        let mut b = ElfBuilder::shared_library("x.so");
        b.declare_export("f");
        let _ = b.layout(4, 0);
        b.set_text(vec![0xc3; 4]);
        assert!(b.build().is_err());
    }

    #[test]
    fn duplicate_imports_share_a_slot() {
        let mut b = ElfBuilder::executable();
        let a = b.declare_import("write");
        let c = b.declare_import("write");
        assert_eq!(a, c);
        assert_eq!(b.declare_import("read"), 1);
    }

    #[test]
    fn rodata_strings_are_extractable() {
        let bytes = sample_exec();
        let elf = ElfFile::parse(&bytes).unwrap();
        let ro = elf.section_by_name(".rodata").unwrap().clone();
        let strings = elf.strings_in(&ro, 4).unwrap();
        assert_eq!(strings, vec!["/proc/cpuinfo".to_owned()]);
    }
}

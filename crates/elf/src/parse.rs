//! ELF64 parser.
//!
//! A bounds-checked reader for x86-64 little-endian ELF objects, covering
//! the structures the study's analyzer needs: headers, sections, program
//! headers, symbol tables, string tables, `.dynamic`, and `.rela.plt`.

use crate::{
    error::{ElfError, Result},
    types::{
        dt, pt, ElfType, SectionType, SymBinding, SymType, DYN_SIZE, EHDR_SIZE,
        ELF_MAGIC, EM_X86_64, PHDR_SIZE, RELA_SIZE, SHDR_SIZE, SYM_SIZE,
    },
};

/// Parsed ELF file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Object type.
    pub etype: ElfType,
    /// Machine (always x86-64 after a successful parse).
    pub machine: u16,
    /// Entry-point virtual address (0 when none).
    pub entry: u64,
    /// Program header table offset.
    pub phoff: u64,
    /// Number of program headers.
    pub phnum: u16,
    /// Section header table offset.
    pub shoff: u64,
    /// Number of section headers.
    pub shnum: u16,
    /// Index of the section-name string table.
    pub shstrndx: u16,
}

/// Parsed section header, with its name resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name (from `.shstrtab`).
    pub name: String,
    /// Section type.
    pub stype: SectionType,
    /// `sh_flags`.
    pub flags: u64,
    /// Virtual address.
    pub addr: u64,
    /// File offset of the section contents.
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
    /// `sh_link` (e.g. the string table of a symbol table).
    pub link: u32,
    /// Entry size for table sections.
    pub entsize: u64,
}

/// Parsed program header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProgramHeader {
    /// Segment type (`p_type`).
    pub ptype: u32,
    /// Segment flags.
    pub flags: u32,
    /// File offset.
    pub offset: u64,
    /// Virtual address.
    pub vaddr: u64,
    /// Size in the file.
    pub filesz: u64,
    /// Size in memory.
    pub memsz: u64,
}

/// Parsed symbol-table entry with its name resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name (may be empty).
    pub name: String,
    /// Value (virtual address for defined function symbols).
    pub value: u64,
    /// Size in bytes.
    pub size: u64,
    /// Binding (local/global/weak).
    pub binding: SymBinding,
    /// Type (func/object/...).
    pub stype: SymType,
    /// Defining section index (`SHN_UNDEF` for imports).
    pub shndx: u16,
}

impl Symbol {
    /// True when the symbol is an import (undefined reference).
    pub fn is_undefined(&self) -> bool {
        self.shndx == crate::types::SHN_UNDEF
    }

    /// True when the symbol is a defined function.
    pub fn is_defined_func(&self) -> bool {
        !self.is_undefined() && self.stype == SymType::Func
    }
}

/// One RELA relocation entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rela {
    /// Relocated location.
    pub offset: u64,
    /// Symbol-table index.
    pub sym: u32,
    /// Relocation type.
    pub rtype: u32,
    /// Addend.
    pub addend: i64,
}

/// How a binary participates in the system, per the study's Figure 1
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryClass {
    /// Statically linked executable.
    StaticExec,
    /// Dynamically linked executable (fixed-address or PIE).
    DynExec,
    /// Linkable shared library.
    SharedLib,
    /// Relocatable object or anything else.
    Other,
}

/// A parsed ELF object borrowing its input buffer.
#[derive(Debug)]
pub struct ElfFile<'a> {
    data: &'a [u8],
    /// The parsed file header.
    pub header: Header,
    /// All section headers, with names resolved.
    pub sections: Vec<Section>,
    /// All program headers.
    pub program_headers: Vec<ProgramHeader>,
}

fn get<'d>(data: &'d [u8], offset: usize, need: usize, what: &'static str) -> Result<&'d [u8]> {
    // A hostile offset near `usize::MAX` must read as truncated, not wrap.
    offset
        .checked_add(need)
        .and_then(|end| data.get(offset..end))
        .ok_or(ElfError::Truncated {
            what,
            offset,
            need,
            have: data.len().saturating_sub(offset),
        })
}

fn u16le(b: &[u8]) -> u16 {
    u16::from_le_bytes([b[0], b[1]])
}
fn u32le(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}
fn u64le(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn read_cstr(table: &[u8], offset: usize) -> Result<String> {
    let rest = table.get(offset..).ok_or(ElfError::BadString { offset })?;
    let end = rest
        .iter()
        .position(|&b| b == 0)
        .ok_or(ElfError::BadString { offset })?;
    Ok(String::from_utf8_lossy(&rest[..end]).into_owned())
}

impl<'a> ElfFile<'a> {
    /// Parses an x86-64 ELF64 object from `data`.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        let ehdr = get(data, 0, EHDR_SIZE, "ELF header")?;
        if ehdr[0..4] != ELF_MAGIC {
            return Err(ElfError::BadMagic);
        }
        // EI_CLASS == ELFCLASS64, EI_DATA == ELFDATA2LSB.
        if ehdr[4] != 2 || ehdr[5] != 1 {
            return Err(ElfError::UnsupportedClass);
        }
        let machine = u16le(&ehdr[18..20]);
        if machine != EM_X86_64 {
            return Err(ElfError::UnsupportedMachine(machine));
        }
        let header = Header {
            etype: ElfType::from_u16(u16le(&ehdr[16..18])),
            machine,
            entry: u64le(&ehdr[24..32]),
            phoff: u64le(&ehdr[32..40]),
            shoff: u64le(&ehdr[40..48]),
            phnum: u16le(&ehdr[56..58]),
            shnum: u16le(&ehdr[60..62]),
            shstrndx: u16le(&ehdr[62..64]),
        };

        let mut program_headers = Vec::with_capacity(header.phnum as usize);
        for i in 0..header.phnum as usize {
            let off = (header.phoff as usize).saturating_add(i * PHDR_SIZE);
            let p = get(data, off, PHDR_SIZE, "program header")?;
            program_headers.push(ProgramHeader {
                ptype: u32le(&p[0..4]),
                flags: u32le(&p[4..8]),
                offset: u64le(&p[8..16]),
                vaddr: u64le(&p[16..24]),
                filesz: u64le(&p[32..40]),
                memsz: u64le(&p[40..48]),
            });
        }

        // Raw section headers first (names need .shstrtab).
        struct RawShdr {
            name_off: u32,
            stype: u32,
            flags: u64,
            addr: u64,
            offset: u64,
            size: u64,
            link: u32,
            entsize: u64,
        }
        let mut raw = Vec::with_capacity(header.shnum as usize);
        for i in 0..header.shnum as usize {
            let off = (header.shoff as usize).saturating_add(i * SHDR_SIZE);
            let s = get(data, off, SHDR_SIZE, "section header")?;
            raw.push(RawShdr {
                name_off: u32le(&s[0..4]),
                stype: u32le(&s[4..8]),
                flags: u64le(&s[8..16]),
                addr: u64le(&s[16..24]),
                offset: u64le(&s[24..32]),
                size: u64le(&s[32..40]),
                link: u32le(&s[40..44]),
                entsize: u64le(&s[56..64]),
            });
        }

        let shstr = if header.shnum == 0 {
            &[][..]
        } else {
            let idx = header.shstrndx as usize;
            let sh = raw.get(idx).ok_or(ElfError::BadSectionIndex(idx))?;
            get(data, sh.offset as usize, sh.size as usize, "shstrtab")?
        };

        let mut sections = Vec::with_capacity(raw.len());
        for sh in &raw {
            let name = if shstr.is_empty() {
                String::new()
            } else {
                read_cstr(shstr, sh.name_off as usize)?
            };
            sections.push(Section {
                name,
                stype: SectionType::from_u32(sh.stype),
                flags: sh.flags,
                addr: sh.addr,
                offset: sh.offset,
                size: sh.size,
                link: sh.link,
                entsize: sh.entsize,
            });
        }

        Ok(Self { data, header, sections, program_headers })
    }

    /// Finds a section by exact name.
    pub fn section_by_name(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Returns a section's file contents.
    pub fn section_data(&self, section: &Section) -> Result<&'a [u8]> {
        if section.stype == SectionType::Nobits {
            return Ok(&[]);
        }
        get(self.data, section.offset as usize, section.size as usize, "section data")
    }

    /// Parses a symbol table section (`.symtab` or `.dynsym`), resolving
    /// names through its linked string table.
    pub fn symbols(&self, section: &Section) -> Result<Vec<Symbol>> {
        if !matches!(section.stype, SectionType::Symtab | SectionType::Dynsym) {
            return Err(ElfError::Malformed("not a symbol table section"));
        }
        let strtab_idx = section.link as usize;
        let strtab_sec = self
            .sections
            .get(strtab_idx)
            .ok_or(ElfError::BadSectionIndex(strtab_idx))?;
        let strtab = self.section_data(strtab_sec)?;
        let bytes = self.section_data(section)?;
        if section.entsize as usize != SYM_SIZE && section.entsize != 0 {
            return Err(ElfError::Malformed("unexpected symbol entry size"));
        }
        let count = bytes.len() / SYM_SIZE;
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let e = &bytes[i * SYM_SIZE..(i + 1) * SYM_SIZE];
            let name_off = u32le(&e[0..4]) as usize;
            let info = e[4];
            out.push(Symbol {
                name: read_cstr(strtab, name_off)?,
                binding: SymBinding::from_nibble(info >> 4),
                stype: SymType::from_nibble(info & 0xf),
                shndx: u16le(&e[6..8]),
                value: u64le(&e[8..16]),
                size: u64le(&e[16..24]),
            });
        }
        Ok(out)
    }

    /// All symbols from `.symtab` (empty when stripped).
    pub fn symtab(&self) -> Result<Vec<Symbol>> {
        match self.section_by_name(".symtab") {
            Some(s) => self.symbols(s),
            None => Ok(Vec::new()),
        }
    }

    /// All symbols from `.dynsym` (empty when not dynamic).
    pub fn dynsym(&self) -> Result<Vec<Symbol>> {
        match self.section_by_name(".dynsym") {
            Some(s) => self.symbols(s),
            None => Ok(Vec::new()),
        }
    }

    /// Raw `.dynamic` entries as `(tag, value)` pairs, stopping at `DT_NULL`.
    pub fn dynamic_entries(&self) -> Result<Vec<(i64, u64)>> {
        let Some(sec) = self.section_by_name(".dynamic") else {
            return Ok(Vec::new());
        };
        let bytes = self.section_data(sec)?;
        let mut out = Vec::new();
        for chunk in bytes.chunks_exact(DYN_SIZE) {
            let tag = u64le(&chunk[0..8]) as i64;
            let val = u64le(&chunk[8..16]);
            if tag == dt::NULL {
                break;
            }
            out.push((tag, val));
        }
        Ok(out)
    }

    /// The `.dynstr` contents, which a non-empty `.dynamic` requires.
    fn dynstr(&self) -> Result<&'a [u8]> {
        let sec = self
            .section_by_name(".dynstr")
            .ok_or(ElfError::Malformed("dynamic object without .dynstr"))?;
        self.section_data(sec)
    }

    /// Names of shared libraries this object depends on (`DT_NEEDED`).
    pub fn needed_libraries(&self) -> Result<Vec<String>> {
        let entries = self.dynamic_entries()?;
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let strtab = self.dynstr()?;
        entries
            .iter()
            .filter(|&&(tag, _)| tag == dt::NEEDED)
            .map(|&(_, off)| read_cstr(strtab, off as usize))
            .collect()
    }

    /// The shared-object name (`DT_SONAME`), if present.
    pub fn soname(&self) -> Result<Option<String>> {
        let entries = self.dynamic_entries()?;
        let Some(&(_, off)) = entries.iter().find(|&&(tag, _)| tag == dt::SONAME)
        else {
            return Ok(None);
        };
        read_cstr(self.dynstr()?, off as usize).map(Some)
    }

    /// Parses a RELA section.
    pub fn relas(&self, section: &Section) -> Result<Vec<Rela>> {
        if section.stype != SectionType::Rela {
            return Err(ElfError::Malformed("not a RELA section"));
        }
        let bytes = self.section_data(section)?;
        Ok(bytes
            .chunks_exact(RELA_SIZE)
            .map(|c| {
                let info = u64le(&c[8..16]);
                Rela {
                    offset: u64le(&c[0..8]),
                    sym: (info >> 32) as u32,
                    rtype: info as u32,
                    addend: u64le(&c[16..24]) as i64,
                }
            })
            .collect())
    }

    /// Maps PLT stub virtual addresses to imported symbol names.
    ///
    /// Convention (shared with the builder, and matching the usual x86-64
    /// toolchain layout): stub *i* of `.plt` corresponds to entry *i* of
    /// `.rela.plt`, whose symbol index points into `.dynsym`. Stubs are
    /// [`crate::build::PLT_STUB_SIZE`] bytes each.
    pub fn plt_map(&self) -> Result<Vec<(u64, String)>> {
        let dynsyms = self.dynsym();
        let imports = self.plt_imports(dynsyms.as_deref())?;
        let base = self.section_by_name(".plt").map_or(0, |plt| plt.addr);
        let stub = crate::build::PLT_STUB_SIZE as u64;
        Ok(imports
            .iter()
            .enumerate()
            // Every stub fits below `u64::MAX` (`plt_imports` checks).
            .map(|(i, sym)| (base + stub * i as u64, sym.name.clone()))
            .collect())
    }

    /// The `.dynsym` entry each PLT stub jumps through, in stub order
    /// (the convention of [`Self::plt_map`]); empty without `.plt` or
    /// `.rela.plt`. Takes the already-parsed `.dynsym`, or the error
    /// parsing it gave, so a caller that needs the symbols for more than
    /// the PLT parses them once; that error is returned only when there
    /// are PLT relocations to resolve, after any `.rela.plt` error.
    pub fn plt_imports<'s>(
        &self,
        dynsyms: std::result::Result<&'s [Symbol], &ElfError>,
    ) -> Result<Vec<&'s Symbol>> {
        let Some(plt) = self.section_by_name(".plt") else {
            return Ok(Vec::new());
        };
        let Some(rela_sec) = self.section_by_name(".rela.plt") else {
            return Ok(Vec::new());
        };
        let relas = self.relas(rela_sec)?;
        let dynsyms = dynsyms.map_err(Clone::clone)?;
        let stub = crate::build::PLT_STUB_SIZE as u64;
        // Bytes of `.plt` below the top of the address space: a hostile
        // `sh_addr + sh_size` past `u64::MAX` is clamped, not wrapped.
        let room = plt.addr.saturating_add(plt.size) - plt.addr;
        relas
            .iter()
            .enumerate()
            .map(|(i, rela)| {
                if stub * (i as u64 + 1) > room {
                    return Err(ElfError::Malformed("more PLT relocations than stubs"));
                }
                dynsyms
                    .get(rela.sym as usize)
                    .ok_or(ElfError::Malformed("PLT relocation with bad symbol index"))
            })
            .collect()
    }

    /// Extracts printable NUL-terminated strings of at least `min_len` bytes
    /// from a section (the analyzer runs this over `.rodata`).
    pub fn strings_in(&self, section: &Section, min_len: usize) -> Result<Vec<String>> {
        let bytes = self.section_data(section)?;
        let mut out = Vec::new();
        let mut start = 0usize;
        for (i, &b) in bytes.iter().enumerate() {
            if b == 0 {
                if i - start >= min_len {
                    if let Ok(s) = std::str::from_utf8(&bytes[start..i]) {
                        if s.chars().all(|c| c.is_ascii_graphic() || c == ' ') {
                            out.push(s.to_owned());
                        }
                    }
                }
                start = i + 1;
            } else if !(0x20..0x7f).contains(&b) {
                // Non-printable byte: reset the run.
                start = i + 1;
            }
        }
        Ok(out)
    }

    /// Classifies the binary per the study's Figure 1 taxonomy.
    pub fn classify(&self) -> BinaryClass {
        let has_interp = self
            .program_headers
            .iter()
            .any(|p| p.ptype == pt::INTERP);
        let has_needed = self
            .dynamic_entries()
            .map(|d| d.iter().any(|&(tag, _)| tag == dt::NEEDED))
            .unwrap_or(false);
        match self.header.etype {
            ElfType::Exec => {
                if has_interp || has_needed {
                    BinaryClass::DynExec
                } else {
                    BinaryClass::StaticExec
                }
            }
            ElfType::Dyn => {
                if has_interp {
                    BinaryClass::DynExec
                } else {
                    BinaryClass::SharedLib
                }
            }
            _ => BinaryClass::Other,
        }
    }

    /// The underlying file bytes.
    pub fn bytes(&self) -> &'a [u8] {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_magic() {
        let err = ElfFile::parse(b"not an elf but long enough to hold a header plus padding padding padding")
            .expect_err("must fail");
        assert_eq!(err, ElfError::BadMagic);
    }

    #[test]
    fn rejects_short_input() {
        let err = ElfFile::parse(&[0x7f, b'E', b'L', b'F']).expect_err("must fail");
        assert!(matches!(err, ElfError::Truncated { .. }));
    }

    #[test]
    fn rejects_wrong_class() {
        let mut bytes = vec![0u8; 64];
        bytes[0..4].copy_from_slice(&ELF_MAGIC);
        bytes[4] = 1; // 32-bit
        bytes[5] = 1;
        let err = ElfFile::parse(&bytes).expect_err("must fail");
        assert_eq!(err, ElfError::UnsupportedClass);
    }

    #[test]
    fn rejects_wrong_machine() {
        let mut bytes = vec![0u8; 64];
        bytes[0..4].copy_from_slice(&ELF_MAGIC);
        bytes[4] = 2;
        bytes[5] = 1;
        bytes[18] = 3; // EM_386
        let err = ElfFile::parse(&bytes).expect_err("must fail");
        assert_eq!(err, ElfError::UnsupportedMachine(3));
    }
}

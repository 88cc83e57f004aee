//! The MMU architectures assessed by the paper (§5.1), plus the TLB-only
//! experimental machine of its footnote 2.
//!
//! Each submodule defines the *hardware* view: translation-table formats,
//! the table walker (what the MMU does on a TLB miss), and where modify /
//! reference bits live. The machine-dependent `pmap` layer in `mach-pmap`
//! writes these formats; the machine-independent layer never sees them.
//!
//! | arch | machine(s) | page | tables | quirk |
//! |---|---|---|---|---|
//! | [`vax`] | µVAX II, VAX 8200/8650/11-784 | 512 B | linear per-region tables + length registers | 8 MB of table per 2 GB space |
//! | [`romp`] | IBM RT PC | 2 KB | inverted page table + hash anchor table | one mapping per physical page |
//! | [`sun3`] | SUN 3/160 | 8 KB | segment map → pmeg arrays in the MMU | only 8 contexts; physical holes |
//! | [`ns32082`] | Encore MultiMax, Sequent Balance | 512 B | two-level tables | 16 MB VA, 32 MB PA, RMW-as-read erratum |
//! | [`tlbsoft`] | IBM RP3-style simulator | 4 KB | **none** | TLB misses trap to a software refill handler |

pub mod ns32082;
pub mod romp;
pub mod sun3;
pub mod tlbsoft;
pub mod vax;

use crate::addr::{Access, Fault, HwProt, Pfn, VAddr};
use crate::phys::PhysMem;

/// Which MMU architecture a [`crate::machine::Machine`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArchKind {
    /// DEC VAX: linear page tables located by base/length register pairs.
    Vax,
    /// IBM RT PC (ROMP/Rosetta): inverted page table.
    Romp,
    /// SUN 3 (Motorola 68020 + Sun MMU): contexts, segment maps, pmegs.
    Sun3,
    /// National Semiconductor NS32082: two-level page tables.
    Ns32082,
    /// A TLB-only experimental machine (the paper's RP3 footnote): no
    /// in-memory hardware tables at all.
    TlbSoft,
}

impl ArchKind {
    /// Hardware page size in bytes.
    pub fn hw_page_size(self) -> u64 {
        match self {
            ArchKind::Vax => 512,
            ArchKind::Romp => 2048,
            ArchKind::Sun3 => 8192,
            ArchKind::Ns32082 => 512,
            ArchKind::TlbSoft => 4096,
        }
    }

    /// Human-readable architecture name.
    pub fn name(self) -> &'static str {
        match self {
            ArchKind::Vax => "VAX",
            ArchKind::Romp => "IBM RT PC (ROMP)",
            ArchKind::Sun3 => "SUN 3",
            ArchKind::Ns32082 => "NS32082",
            ArchKind::TlbSoft => "RP3 (TLB-only)",
        }
    }

    /// Highest user-mode virtual address + 1.
    ///
    /// The paper leans on these differences: the RT PC can address a full
    /// 4 GB under Mach, the VAX at most 2 GB of user space, the SUN 3
    /// 256 MB per context and the NS32082 a mere 16 MB.
    pub fn user_va_limit(self) -> u64 {
        match self {
            ArchKind::Vax => 1 << 31,
            ArchKind::Romp => 1 << 32,
            ArchKind::Sun3 => 1 << 28,
            ArchKind::Ns32082 => 1 << 24,
            ArchKind::TlbSoft => tlbsoft::VA_LIMIT,
        }
    }

    /// Whether the TLB is tagged (no flush needed on address-space switch).
    pub fn tlb_tagged(self) -> bool {
        matches!(self, ArchKind::Romp | ArchKind::Sun3 | ArchKind::TlbSoft)
    }
}

impl std::fmt::Display for ArchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A successful table walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOk {
    /// Translated frame.
    pub pfn: Pfn,
    /// Hardware permissions recorded in the entry.
    pub prot: HwProt,
    /// Memory references the walk performed (charged to the clock).
    pub memrefs: u32,
    /// TLB space tag for the entry (context / segment id / 0).
    pub space: u32,
    /// Virtual page number under that tag.
    pub vpn: u64,
    /// True if the modify bit is set after this walk.
    pub dirty: bool,
}

/// Per-CPU MMU register file. The variant must match the machine's
/// [`ArchKind`]; `pmap_activate` loads these on context switch.
#[derive(Debug, Clone)]
pub enum CpuRegs {
    /// VAX base/length register pairs for P0, P1 and system regions.
    Vax(vax::VaxRegs),
    /// ROMP segment registers.
    Romp(romp::RompRegs),
    /// SUN 3 context register.
    Sun3 {
        /// The active context (0..8).
        context: u8,
    },
    /// NS32082 page-table base register.
    Ns32082(ns32082::NsRegs),
    /// TLB-only machine's address-space id register.
    TlbSoft(tlbsoft::TlbSoftRegs),
}

impl CpuRegs {
    /// Power-on register state for `kind` (nothing mapped).
    pub fn reset(kind: ArchKind) -> CpuRegs {
        match kind {
            ArchKind::Vax => CpuRegs::Vax(vax::VaxRegs::default()),
            ArchKind::Romp => CpuRegs::Romp(romp::RompRegs::default()),
            ArchKind::Sun3 => CpuRegs::Sun3 { context: 0 },
            ArchKind::Ns32082 => CpuRegs::Ns32082(ns32082::NsRegs::default()),
            ArchKind::TlbSoft => CpuRegs::TlbSoft(tlbsoft::TlbSoftRegs::default()),
        }
    }
}

/// Architecture-global MMU state (beyond per-CPU registers).
#[derive(Debug)]
pub enum ArchGlobal {
    /// The VAX keeps everything in physical-memory tables.
    Vax,
    /// ROMP: the physical location of the inverted page table and the hash
    /// anchor table, fixed at boot.
    Romp(romp::RompLayout),
    /// SUN 3: the MMU's segment maps and pmegs live in the MMU itself.
    Sun3(parking_lot::Mutex<sun3::Sun3Mmu>),
    /// NS32082: whether the read-modify-write erratum is active.
    Ns32082(ns32082::NsGlobal),
    /// TLB-only machine: the OS-owned software translation store the
    /// firmware miss handler refills from. A kernel lock, since the pmap
    /// port holds it as its tables lock.
    TlbSoft(crate::lock::KernelMutex<tlbsoft::SoftTables>),
}

/// Compute the TLB lookup key for `va` under `regs`.
///
/// # Errors
///
/// Faults if the address is untranslatable before any table is consulted
/// (beyond an architectural limit, or through an invalid segment register).
pub fn tlb_key(
    kind: ArchKind,
    regs: &CpuRegs,
    va: VAddr,
    access: Access,
) -> Result<(u32, u64), Fault> {
    match (kind, regs) {
        (ArchKind::Vax, CpuRegs::Vax(_)) => vax::tlb_key(va, access),
        (ArchKind::Romp, CpuRegs::Romp(r)) => romp::tlb_key(r, va, access),
        (ArchKind::Sun3, CpuRegs::Sun3 { context }) => sun3::tlb_key(*context, va, access),
        (ArchKind::Ns32082, CpuRegs::Ns32082(_)) => ns32082::tlb_key(va, access),
        (ArchKind::TlbSoft, CpuRegs::TlbSoft(r)) => tlbsoft::tlb_key(r, va, access),
        _ => panic!("register file does not match architecture {kind:?}"),
    }
}

/// Run the hardware table walk for `va`.
///
/// `set_dirty` requests that the modify bit be set (a write access). The
/// walk also sets the reference bit where the architecture keeps one.
///
/// # Errors
///
/// A [`Fault`] exactly as the hardware would raise it.
pub fn walk(
    kind: ArchKind,
    phys: &PhysMem,
    global: &ArchGlobal,
    regs: &CpuRegs,
    va: VAddr,
    access: Access,
) -> Result<WalkOk, Fault> {
    match (kind, global, regs) {
        (ArchKind::Vax, ArchGlobal::Vax, CpuRegs::Vax(r)) => vax::walk(phys, r, va, access),
        (ArchKind::Romp, ArchGlobal::Romp(layout), CpuRegs::Romp(r)) => {
            romp::walk(phys, layout, r, va, access)
        }
        (ArchKind::Sun3, ArchGlobal::Sun3(mmu), CpuRegs::Sun3 { context }) => {
            sun3::walk(&mut mmu.lock(), *context, va, access)
        }
        (ArchKind::Ns32082, ArchGlobal::Ns32082(_), CpuRegs::Ns32082(r)) => {
            ns32082::walk(phys, r, va, access)
        }
        (ArchKind::TlbSoft, ArchGlobal::TlbSoft(t), CpuRegs::TlbSoft(r)) => {
            tlbsoft::walk(&mut t.lock_for_hardware(), r, va, access)
        }
        _ => panic!("MMU state does not match architecture {kind:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_sizes_are_period_accurate() {
        assert_eq!(ArchKind::Vax.hw_page_size(), 512);
        assert_eq!(ArchKind::Romp.hw_page_size(), 2048);
        assert_eq!(ArchKind::Sun3.hw_page_size(), 8192);
        assert_eq!(ArchKind::Ns32082.hw_page_size(), 512);
    }

    #[test]
    fn va_limits_match_the_paper() {
        // "An RT PC task can address a full 4 gigabytes ... the VAX
        // architecture allows at most 2 gigabytes of user address space."
        assert_eq!(ArchKind::Romp.user_va_limit(), 1 << 32);
        assert_eq!(ArchKind::Vax.user_va_limit(), 1 << 31);
        // "Only 16 megabytes of virtual memory may be addressed per page
        // table" (NS32082); SUN 3 contexts are 256 MB.
        assert_eq!(ArchKind::Ns32082.user_va_limit(), 1 << 24);
        assert_eq!(ArchKind::Sun3.user_va_limit(), 1 << 28);
    }

    #[test]
    fn tagged_tlbs() {
        assert!(ArchKind::Romp.tlb_tagged());
        assert!(ArchKind::Sun3.tlb_tagged());
        assert!(!ArchKind::Vax.tlb_tagged());
        assert!(!ArchKind::Ns32082.tlb_tagged());
    }

    #[test]
    fn reset_regs_match_kind() {
        for kind in [
            ArchKind::Vax,
            ArchKind::Romp,
            ArchKind::Sun3,
            ArchKind::Ns32082,
            ArchKind::TlbSoft,
        ] {
            let regs = CpuRegs::reset(kind);
            let ok = matches!(
                (kind, &regs),
                (ArchKind::Vax, CpuRegs::Vax(_))
                    | (ArchKind::Romp, CpuRegs::Romp(_))
                    | (ArchKind::Sun3, CpuRegs::Sun3 { .. })
                    | (ArchKind::Ns32082, CpuRegs::Ns32082(_))
                    | (ArchKind::TlbSoft, CpuRegs::TlbSoft(_))
            );
            assert!(ok, "reset regs mismatch for {kind:?}");
        }
    }
}

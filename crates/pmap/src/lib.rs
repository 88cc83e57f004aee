//! # mach-pmap — the machine-dependent layer
//!
//! This crate is the reproduction of the paper's Tables 3-3 and 3-4: the
//! `pmap` interface that is the *only* machine-dependent part of Mach's
//! virtual memory system, "a single code module and its related header
//! file" per architecture. Five ports are provided, one per simulated MMU
//! in `mach-hw`:
//!
//! - [`vax`] — linear page tables, constructed partially and grown on
//!   demand to avoid the 8 MB-per-space cost the paper complains about;
//! - [`romp`] — the IBM RT PC inverted page table, where entering a second
//!   mapping for a physical page *evicts* the first (alias faults);
//! - [`sun3`] — contexts/segments/pmegs, with context and pmeg stealing
//!   when more than 8 tasks are active;
//! - [`ns32082`] — two-level tables under a 16 MB space, plus the
//!   read-modify-write erratum workaround;
//! - [`tlbsoft`] — the TLB-only RP3-style machine of the paper's footnote
//!   2, whose port "needs little code" because there are no tables.
//!
//! ## The contract (paper §3.6)
//!
//! A [`Pmap`] is a **cache**: it "need not keep track of all currently
//! valid mappings" — mappings may be thrown away almost any time (context
//! steal, pmeg steal, alias eviction) because the machine-independent
//! layer can reconstruct everything at fault time. Only kernel mappings
//! must stay complete; the kernel here runs on the host, so its pmap is
//! the trivially-complete [`soft::SoftPmap`].
//!
//! `pmap_reference` / `pmap_destroy` are subsumed by `Arc` reference
//! counting: clone the `Arc` to reference, drop the last clone to destroy.
//!
//! ## TLB consistency (paper §5.2)
//!
//! None of the simulated multiprocessors keeps TLBs coherent. The
//! [`ShootdownPolicy`] selects between the paper's three strategies —
//! forcible interrupt, deferral until a convenient interrupt, and
//! tolerated temporary inconsistency — per class of operation.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mach_hw::addr::{HwProt, PAddr, Pfn, VAddr};
use mach_hw::machine::Machine;
use mach_hw::ArchKind;

pub mod chassis;
pub mod core;
pub mod ns32082;
pub mod pv;
pub mod romp;
pub mod soft;
pub mod sun3;
pub mod tlbsoft;
pub mod vax;

/// A physical address map: the per-task machine-dependent mapping state
/// (Table 3-3 of the paper).
///
/// All ranges are in bytes and must be aligned to the *machine-independent*
/// page size, which is a power-of-two multiple of the hardware page size;
/// implementations fan each call out over hardware pages.
pub trait Pmap: Send + Sync + fmt::Debug {
    /// `pmap_enter`: establish a mapping `[va, va+size)` → `[pa, pa+size)`
    /// with hardware protection `prot`. Replaces any previous mapping of
    /// the range. `wired` mappings survive cache eviction (context/pmeg
    /// steals skip them).
    ///
    /// # Panics
    ///
    /// Panics if the range is unaligned or outside the architecture's
    /// translatable user space (e.g. ≥ 16 MB on the NS32082).
    fn enter(&self, va: VAddr, pa: PAddr, size: u64, prot: HwProt, wired: bool);

    /// `pmap_remove`: invalidate all mappings in `[start, end)`.
    fn remove(&self, start: VAddr, end: VAddr);

    /// `pmap_protect`: narrow or widen hardware protection on
    /// `[start, end)`. Narrowing is propagated immediately (time-critical);
    /// widening may be lazy, at the cost of an extra fault.
    fn protect(&self, start: VAddr, end: VAddr, prot: HwProt);

    /// `pmap_extract`: translate `va`, if this pmap currently knows it.
    /// `None` does **not** mean unmapped at the machine-independent level —
    /// the pmap is only a cache.
    fn extract(&self, va: VAddr) -> Option<PAddr>;

    /// `pmap_access`: report whether `va` is currently mapped here.
    fn access(&self, va: VAddr) -> bool {
        self.extract(va).is_some()
    }

    /// `pmap_activate`: this pmap will now run on `cpu`; load hardware
    /// registers and whatever flushing the architecture needs.
    fn activate(&self, cpu: usize);

    /// `pmap_deactivate`: this pmap is done on `cpu`.
    fn deactivate(&self, cpu: usize);

    /// `pmap_copy` (Table 3-4, optional): copy mappings from another pmap.
    /// The default does nothing — lazily faulting them in is always legal.
    fn copy_from(&self, _src: &dyn Pmap, _dst_addr: VAddr, _len: u64, _src_addr: VAddr) {}

    /// `pmap_pageable` (Table 3-4, optional): advise pageability of a
    /// range. The default does nothing.
    fn pageable(&self, _start: VAddr, _end: VAddr, _pageable: bool) {}

    /// Number of hardware pages this pmap currently has mapped.
    fn resident_pages(&self) -> u64;
}

/// Internal reverse-map callback interface: how the physical-page
/// operations of [`MachDep`] reach into an individual pmap. Implemented by
/// every port; not meant for users (it is public only because
/// [`pv::PvRun`] holds `Weak<dyn HwMapper>`).
///
/// Each callback takes a run of hardware pages, the `n` pages from `va`
/// on (one [`pv::PvRun`]), and takes the pmap's port lock once for all of
/// them. None flushes a TLB: the caller batches that.
#[doc(hidden)]
pub trait HwMapper: Send + Sync {
    /// Stable identity for pv bookkeeping: the id each pv entry of this
    /// pmap is recorded and matched under.
    fn mapper_id(&self) -> u64;
    /// Invalidate the hardware mappings of the `attrs.len()` pages from
    /// `va`, which the pv table has mapping the frames from `first` on,
    /// and OR page `i`'s modify/reference attribute bits into `attrs[i]`.
    /// Returns whether every page still mapped its frame, i.e. no other
    /// operation cleared or replaced one of them first.
    fn clear_hw(&self, va: VAddr, first: Pfn, attrs: &mut [u8]) -> bool;
    /// Narrow the hardware mappings of the `n` pages from `va` to `prot`.
    fn protect_hw(&self, va: VAddr, n: u64, prot: HwProt);
    /// (modified, referenced), each OR-ed over the `n` pages from `va`.
    fn read_mr(&self, va: VAddr, n: u64) -> (bool, bool);
    /// Clear modify and/or reference bits of the `n` pages from `va`.
    fn clear_mr(&self, va: VAddr, n: u64, clear_mod: bool, clear_ref: bool);
    /// Append the TLB `(space, vpn)` tags of the `n` pages from `va` to
    /// `tags`.
    fn space_vpn(&self, va: VAddr, n: u64, tags: &mut Vec<(u32, u64)>);
    /// Bitmask of CPUs that may hold TLB entries of this pmap.
    fn cpus_cached(&self) -> u64;
}

/// The paper's three answers to missing TLB coherence (§5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShootdownStrategy {
    /// "Forcibly interrupt all CPUs which may be using a shared portion of
    /// an address map so that their address translation buffers may be
    /// flushed" — send IPIs and wait.
    Immediate,
    /// "Postpone use of a changed mapping until all CPUs have taken a
    /// timer interrupt" — queue the flush; [`MachDep::update`] completes it.
    Deferred,
    /// "Allow temporary inconsistency" — acceptable when the semantics do
    /// not require simultaneity (e.g. widening protection).
    Lazy,
}

/// Which strategy each class of operation uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShootdownPolicy {
    /// Mapping removal, replacement and protection narrowing.
    pub time_critical: ShootdownStrategy,
    /// Invalidations ahead of pageout.
    pub pageout: ShootdownStrategy,
    /// Protection widening.
    pub widen: ShootdownStrategy,
}

impl Default for ShootdownPolicy {
    /// The mix Mach actually used: interrupts where correctness demands,
    /// deferral before pageout, laziness where semantics allow.
    fn default() -> ShootdownPolicy {
        ShootdownPolicy {
            time_critical: ShootdownStrategy::Immediate,
            pageout: ShootdownStrategy::Deferred,
            widen: ShootdownStrategy::Lazy,
        }
    }
}

impl ShootdownPolicy {
    /// Force one strategy for everything (ablation benchmarks).
    pub fn uniform(s: ShootdownStrategy) -> ShootdownPolicy {
        ShootdownPolicy {
            time_critical: s,
            pageout: s,
            widen: s,
        }
    }
}

/// Callback invoked after each issued TLB-shootdown round with
/// `(cpu_mask, pages)`: the bitmask of target CPUs and the number of
/// flush scopes the round carried. This is how the machine-independent
/// trace layer records `ShootdownRound` events without this crate
/// depending on it.
pub type ShootdownObserver = Arc<dyn Fn(u64, u64) + Send + Sync>;

/// An opaque RAII guard returned by a [`ShootdownSpanHook`]; whatever
/// the installer put in the box is dropped when the shootdown round
/// completes. `Box<dyn Any>` keeps this crate free of a dependency on
/// the machine-independent profiler whose span guard it carries.
pub type HookGuard = Box<dyn std::any::Any + Send>;

/// Factory invoked as each TLB-shootdown round is issued; the returned
/// [`HookGuard`] drops when the round (IPIs and observer notification)
/// is done. This is how the machine-independent span profiler brackets
/// shootdown time without this crate depending on it — the dual of
/// [`ShootdownObserver`], which reports *that* a round happened rather
/// than *how long* it took.
pub type ShootdownSpanHook = Arc<dyn Fn() -> HookGuard + Send + Sync>;

/// A handle on deferred TLB-flush work; complete after the next
/// [`MachDep::update`] (or immediately, for non-deferred strategies).
#[derive(Debug, Clone, Default)]
pub struct Pending {
    flags: Vec<Arc<AtomicBool>>,
}

impl Pending {
    /// An already-complete token.
    pub fn complete() -> Pending {
        Pending::default()
    }

    pub(crate) fn push(&mut self, flag: Arc<AtomicBool>) {
        self.flags.push(flag);
    }

    /// True once every queued flush has executed.
    pub fn is_complete(&self) -> bool {
        self.flags.iter().all(|f| f.load(Ordering::Acquire))
    }
}

/// Counters kept by the machine-dependent layer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PmapStats {
    /// `pmap_enter` page installations.
    pub enters: u64,
    /// `pmap_remove` page invalidations.
    pub removes: u64,
    /// `pmap_protect` page updates.
    pub protects: u64,
    /// SUN 3 context steals (more than 8 active tasks).
    pub context_steals: u64,
    /// SUN 3 pmeg steals.
    pub pmeg_steals: u64,
    /// ROMP alias evictions (second mapping for a physical page).
    pub alias_evictions: u64,
    /// Bytes currently allocated to hardware translation tables.
    pub table_bytes: u64,
    /// Deferred flushes queued.
    pub deferred_queued: u64,
    /// Shootdown rounds issued (each round interrupts every target CPU
    /// once, however many pages it carries — the coalescing unit).
    pub flush_rounds: u64,
    /// Inter-processor interrupts those rounds actually sent.
    pub flush_ipis: u64,
}

/// Internal atomic counters behind [`PmapStats`].
#[doc(hidden)]
#[derive(Debug, Default)]
pub struct Counters {
    pub enters: AtomicU64,
    pub removes: AtomicU64,
    pub protects: AtomicU64,
    pub context_steals: AtomicU64,
    pub pmeg_steals: AtomicU64,
    pub alias_evictions: AtomicU64,
    pub table_bytes: AtomicU64,
    pub deferred_queued: AtomicU64,
    pub flush_rounds: AtomicU64,
    pub flush_ipis: AtomicU64,
}

impl Counters {
    pub(crate) fn snapshot(&self) -> PmapStats {
        PmapStats {
            enters: self.enters.load(Ordering::Relaxed),
            removes: self.removes.load(Ordering::Relaxed),
            protects: self.protects.load(Ordering::Relaxed),
            context_steals: self.context_steals.load(Ordering::Relaxed),
            pmeg_steals: self.pmeg_steals.load(Ordering::Relaxed),
            alias_evictions: self.alias_evictions.load(Ordering::Relaxed),
            table_bytes: self.table_bytes.load(Ordering::Relaxed),
            deferred_queued: self.deferred_queued.load(Ordering::Relaxed),
            flush_rounds: self.flush_rounds.load(Ordering::Relaxed),
            flush_ipis: self.flush_ipis.load(Ordering::Relaxed),
        }
    }
}

/// The whole machine-dependent module: per-map operations come from
/// [`MachDep::create`]-ed [`Pmap`]s; physical-page operations (the
/// `pmap_remove_all` / `pmap_copy_on_write` / page-copy/zero / modify-bit
/// family of Table 3-3) live here because they span pmaps.
pub trait MachDep: Send + Sync + fmt::Debug {
    /// The machine this layer drives.
    fn machine(&self) -> &Arc<Machine>;

    /// Hardware page size in bytes.
    fn hw_page_size(&self) -> u64 {
        self.machine().hw_page_size()
    }

    /// `pmap_create`: a new, empty physical map.
    fn create(&self) -> Arc<dyn Pmap>;

    /// The kernel pmap — always complete and accurate (paper §3.6).
    fn kernel_pmap(&self) -> &Arc<dyn Pmap>;

    /// `pmap_remove_all`: remove `[pa, pa+size)` from every pmap,
    /// flushing TLBs per the time-critical strategy.
    fn remove_all(&self, pa: PAddr, size: u64);

    /// Like [`MachDep::remove_all`] but flushes per the pageout strategy;
    /// the returned [`Pending`] completes after [`MachDep::update`].
    fn remove_all_deferred(&self, pa: PAddr, size: u64) -> Pending;

    /// Retire `[pa, pa+size)` as it is freed: [`MachDep::remove_all`],
    /// [`MachDep::clear_modify`] and [`MachDep::clear_reference`] in one,
    /// so no mapping and no stolen modify/reference bit outlives the
    /// page. The page's pv records are taken in one visit, not five.
    fn page_free(&self, pa: PAddr, size: u64);

    /// `pmap_copy_on_write`: revoke write access to `[pa, pa+size)` in
    /// every pmap (virtual copy of shared pages).
    fn copy_on_write(&self, pa: PAddr, size: u64);

    /// `pmap_zero_page`.
    fn zero_page(&self, pa: PAddr, size: u64);

    /// `pmap_copy_page`.
    fn copy_page(&self, src: PAddr, dst: PAddr, size: u64);

    /// Modify-bit read (live mappings plus stolen attributes).
    fn is_modified(&self, pa: PAddr, size: u64) -> bool;

    /// Clear modify bits (and flush TLB dirty state).
    fn clear_modify(&self, pa: PAddr, size: u64);

    /// Reference-bit read.
    fn is_referenced(&self, pa: PAddr, size: u64) -> bool;

    /// Clear reference bits (and flush, so future use re-walks).
    fn clear_reference(&self, pa: PAddr, size: u64);

    /// Number of live virtual mappings of the hardware frame at `pa`
    /// (diagnostic; on the ROMP this can never exceed 1).
    fn mapping_count(&self, pa: PAddr) -> usize;

    /// `pmap_update`: complete every deferred invalidation now.
    fn update(&self);

    /// `pmap_update` for one token: returns once every flush behind
    /// `pending` has executed, including flushes a concurrent
    /// [`MachDep::update`] drained and is still running. The caller waits
    /// quiescent, so it never stalls that concurrent shootdown.
    fn complete(&self, pending: &Pending);

    /// Replace the shootdown policy (ablations).
    fn set_shootdown_policy(&self, policy: ShootdownPolicy);

    /// Install a callback invoked after every issued shootdown round (see
    /// [`ShootdownObserver`]). The default discards it — a port that never
    /// issues rounds has nothing to report.
    fn set_shootdown_observer(&self, _observer: ShootdownObserver) {}

    /// Install a span hook bracketing every issued shootdown round (see
    /// [`ShootdownSpanHook`]). The default discards it, for the same
    /// reason as [`MachDep::set_shootdown_observer`].
    fn set_shootdown_span_hook(&self, _hook: ShootdownSpanHook) {}

    /// Statistics snapshot.
    fn stats(&self) -> PmapStats;
}

/// The shared implementation behind the optional `pmap_copy` of Table
/// 3-4: replicate `src`'s live translations into `dst` **read-only** (so
/// copy-on-write still traps) at `hw_page` granularity. "These routines
/// need not perform any hardware function" — but performing it pre-warms
/// a forked child's pmap and saves its initial read faults.
pub fn generic_pmap_copy(
    dst: &dyn Pmap,
    src: &dyn Pmap,
    dst_addr: VAddr,
    len: u64,
    src_addr: VAddr,
    hw_page: u64,
) {
    let mut off = 0;
    while off < len {
        if let Some(pa) = src.extract(VAddr(src_addr.0 + off)) {
            dst.enter(
                VAddr(dst_addr.0 + off),
                pa.round_down(hw_page),
                hw_page,
                HwProt::READ | HwProt::EXECUTE,
                false,
            );
        }
        off += hw_page;
    }
}

/// Build the machine-dependent layer matching `machine`'s architecture.
///
/// This is the whole porting story of paper §4: every architecture is one
/// constructor call here, and nothing in the machine-independent layer
/// changes.
///
/// # Examples
///
/// ```
/// use mach_hw::machine::{Machine, MachineModel};
/// let machine = Machine::boot(MachineModel::rt_pc());
/// let md = mach_pmap::machdep_for(&machine);
/// let pmap = md.create();
/// assert_eq!(pmap.resident_pages(), 0);
/// ```
pub fn machdep_for(machine: &Arc<Machine>) -> Arc<dyn MachDep> {
    match machine.kind() {
        ArchKind::Vax => vax::VaxMachDep::new(machine),
        ArchKind::Romp => romp::RompMachDep::new(machine),
        ArchKind::Sun3 => sun3::Sun3MachDep::new(machine),
        ArchKind::Ns32082 => ns32082::NsMachDep::new(machine),
        ArchKind::TlbSoft => tlbsoft::TlbSoftMachDep::new(machine),
    }
}

/// Helpers shared by every port's test module.
#[cfg(test)]
pub(crate) mod testutil {
    use std::sync::Arc;

    use mach_hw::addr::{HwProt, PAddr};
    use mach_hw::machine::Machine;

    /// Read-write protection, the common case in port tests.
    pub(crate) fn rw() -> HwProt {
        HwProt::READ | HwProt::WRITE
    }

    /// Allocate a fresh user frame and return its base address.
    pub(crate) fn frame(machine: &Arc<Machine>, page: u64) -> PAddr {
        machine.frames().alloc().unwrap().base(page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_matches_the_paper() {
        let p = ShootdownPolicy::default();
        assert_eq!(p.time_critical, ShootdownStrategy::Immediate);
        assert_eq!(p.pageout, ShootdownStrategy::Deferred);
        assert_eq!(p.widen, ShootdownStrategy::Lazy);
    }

    #[test]
    fn uniform_policy() {
        let p = ShootdownPolicy::uniform(ShootdownStrategy::Deferred);
        assert_eq!(p.time_critical, ShootdownStrategy::Deferred);
        assert_eq!(p.widen, ShootdownStrategy::Deferred);
    }

    #[test]
    fn empty_pending_is_complete() {
        assert!(Pending::complete().is_complete());
    }
}

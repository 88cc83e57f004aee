//! The SUN 3 pmap port: contexts, segment maps and pmeg allocation.
//!
//! "The use of segments and page tables make it possible to reasonably
//! implement sparse addressing, but only 8 such contexts may exist at any
//! one time. If there are more than 8 active tasks, they compete for
//! contexts, introducing additional page faults as on the RT" (§5.1).
//!
//! When a ninth task needs to run, the least-recently-used context is
//! *stolen*: every mapping the victim pmap had simply vanishes from the
//! MMU (pmaps are caches, so this is legal) and the victim refaults its
//! working set when it next runs. The same stealing applies to pmegs —
//! there are only 256 page-map-entry groups in the MMU RAM. Both event
//! counts are exported via [`crate::PmapStats`]. A pmeg steal flushes the
//! victim's pages in a *single* coalesced shootdown round; everything
//! that is not context/segment/pmeg machinery lives in [`crate::chassis`].

use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use mach_hw::addr::{HwProt, Pfn, VAddr};
use mach_hw::arch::sun3::{
    Sun3Mmu, Sun3Pte, NO_PMEG, N_CONTEXTS, N_PMEGS, PTES_PER_PMEG, SEGS_PER_CONTEXT,
};
use mach_hw::arch::{ArchGlobal, CpuRegs};
use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use mach_hw::machine::Machine;
use mach_hw::tlb::FlushScope;
use parking_lot::Mutex;

use crate::chassis::{ChassisMachDep, HwTables, PortFactory, PortShared, SlotOld, TlbTag};
use crate::core::MdCore;
use crate::pv::attr_bits;

const PAGE: u64 = 8192;

#[derive(Debug)]
struct Sun3Sw {
    context: Option<u8>,
    segs: HashMap<usize, u16>,
    wired: HashSet<u64>,
    /// The owning chassis's counters, reachable here so context and pmeg
    /// steals can decrement the victim pmap's resident count.
    shared: Arc<PortShared>,
}

/// The machine-wide SUN 3 resource pools: contexts, pmegs, and the
/// software shadow of who owns what.
#[derive(Debug)]
pub struct Sun3World {
    ctx_owner: [Option<u64>; N_CONTEXTS],
    /// Context use order: most recently used last.
    ctx_lru: Vec<u8>,
    pmeg_free: Vec<u16>,
    pmeg_owner: HashMap<u16, (u64, usize)>,
    /// Pmeg allocation order: oldest first (steal victims).
    pmeg_lru: Vec<u16>,
    pmaps: HashMap<u64, Sun3Sw>,
}

impl Sun3World {
    fn new() -> Sun3World {
        Sun3World {
            ctx_owner: [None; N_CONTEXTS],
            ctx_lru: Vec::new(),
            pmeg_free: (0..N_PMEGS as u16).rev().collect(),
            pmeg_owner: HashMap::new(),
            pmeg_lru: Vec::new(),
            pmaps: HashMap::new(),
        }
    }
}

/// Builds [`Sun3Tables`] per created pmap over the machine-wide context
/// and pmeg pools.
#[derive(Debug)]
pub struct Sun3Factory {
    world: Arc<KernelMutex<Sun3World>>,
}

impl PortFactory for Sun3Factory {
    type Tables = Sun3Tables;

    fn new_tables(&self, core: &Arc<MdCore>, id: u64, shared: &Arc<PortShared>) -> Sun3Tables {
        self.world.lock().pmaps.insert(
            id,
            Sun3Sw {
                context: None,
                segs: HashMap::new(),
                wired: HashSet::new(),
                shared: Arc::clone(shared),
            },
        );
        Sun3Tables {
            id,
            core: Arc::clone(core),
            world: Arc::clone(&self.world),
        }
    }
}

/// The SUN 3 machine-dependent module.
pub type Sun3MachDep = ChassisMachDep<Sun3Factory>;

impl ChassisMachDep<Sun3Factory> {
    /// Build the SUN 3 pmap module for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` is not a SUN 3.
    pub fn new(machine: &Arc<Machine>) -> Arc<Sun3MachDep> {
        assert_eq!(machine.kind(), mach_hw::ArchKind::Sun3);
        ChassisMachDep::with_factory(
            machine,
            Sun3Factory {
                world: Arc::new(KernelMutex::new(LockSite::PmapTables, Sun3World::new())),
            },
        )
    }
}

fn va_of(seg: usize, idx: usize) -> VAddr {
    VAddr((seg as u64) << 17 | (idx as u64) << 13)
}

fn seg_idx(va: VAddr) -> (usize, usize) {
    ((va.0 >> 17) as usize, ((va.0 >> 13) & 0xF) as usize)
}

/// A SUN 3 pmap's hardware tables: its context, segment map slice and
/// pmegs inside the machine-wide MMU RAM.
#[derive(Debug)]
pub struct Sun3Tables {
    id: u64,
    core: Arc<MdCore>,
    world: Arc<KernelMutex<Sun3World>>,
}

impl Sun3Tables {
    fn mmu(&self) -> &Mutex<Sun3Mmu> {
        match self.core.machine.arch_global() {
            ArchGlobal::Sun3(m) => m,
            _ => unreachable!("SUN 3 machine carries SUN 3 MMU state"),
        }
    }

    /// Strip every valid PTE from `pmeg` (segment `seg` of pmap
    /// `owner_id`): pv entries removed, M/R bits stolen, the group
    /// zeroed. Returns the stripped virtual page numbers.
    fn strip_pmeg(&self, mmu: &mut Sun3Mmu, pmeg: u16, seg: usize, owner_id: u64) -> Vec<u64> {
        let mut vpns = Vec::new();
        for idx in 0..PTES_PER_PMEG {
            let pte = mmu.pmegs[pmeg as usize][idx];
            if pte.valid {
                let va = va_of(seg, idx);
                let attrs = attr_bits(pte.modified, pte.referenced);
                self.core
                    .pv
                    .remove(Pfn(pte.pfn as u64), owner_id, va, &[attrs]);
                vpns.push(va.0 / PAGE);
            }
            mmu.pmegs[pmeg as usize][idx] = Sun3Pte::default();
        }
        vpns
    }

    /// Evict every mapping held in `ctx`, freeing its pmegs.
    fn evict_context(&self, w: &mut Sun3World, ctx: u8) {
        let Some(victim_id) = w.ctx_owner[ctx as usize] else {
            return;
        };
        let victim = w.pmaps.get_mut(&victim_id).expect("owner exists");
        let segs: Vec<(usize, u16)> = victim.segs.drain().collect();
        victim.context = None;
        let mut mmu = self.mmu().lock();
        for &(seg, pmeg) in &segs {
            self.strip_pmeg(&mut mmu, pmeg, seg, victim_id);
            w.pmeg_owner.remove(&pmeg);
            w.pmeg_lru.retain(|&p| p != pmeg);
            w.pmeg_free.push(pmeg);
        }
        if let Some(v) = w.pmaps.get_mut(&victim_id) {
            v.shared.resident.store(0, Ordering::Relaxed);
        }
        mmu.seg_map[ctx as usize] = [NO_PMEG; SEGS_PER_CONTEXT];
        drop(mmu);
        w.ctx_owner[ctx as usize] = None;
        w.ctx_lru.retain(|&c| c != ctx);
        // All TLB entries tagged with this context are now meaningless.
        let targets: Vec<usize> = (0..self.core.machine.n_cpus()).collect();
        self.core
            .machine
            .shootdown(&targets, FlushScope::Space(ctx as u32), true);
    }

    /// Give this pmap a hardware context, stealing if necessary.
    fn ensure_context(&self, w: &mut Sun3World) -> u8 {
        if let Some(ctx) = w.pmaps[&self.id].context {
            w.ctx_lru.retain(|&c| c != ctx);
            w.ctx_lru.push(ctx);
            return ctx;
        }
        let ctx = if let Some(free) =
            (0..N_CONTEXTS as u8).find(|&c| w.ctx_owner[c as usize].is_none())
        {
            free
        } else {
            // Steal the least-recently-used context whose owner is not
            // executing on any CPU right now. Revoking a running task's
            // context would leave that CPU's context register naming MMU
            // state that no longer belongs to it — at best an endless
            // refault, at worst a walk through the thief's segment map.
            // A free context always exists for a task that is about to
            // run: at most `n_cpus - 1` other pmaps can be active, and
            // the SUN 3 has as many contexts as the largest machine has
            // CPUs. The LRU fallback is unreachable but keeps the pool
            // safe if that invariant ever changes.
            let victim = w
                .ctx_lru
                .iter()
                .copied()
                .find(|&c| {
                    w.ctx_owner[c as usize]
                        .and_then(|id| w.pmaps.get(&id))
                        .is_none_or(|p| p.shared.cpus_active.load(Ordering::SeqCst) == 0)
                })
                .unwrap_or(w.ctx_lru[0]);
            self.evict_context(w, victim);
            crate::core::stat_add(&self.core.counters.context_steals, 1);
            victim
        };
        w.ctx_owner[ctx as usize] = Some(self.id);
        w.ctx_lru.push(ctx);
        w.pmaps.get_mut(&self.id).unwrap().context = Some(ctx);
        ctx
    }

    /// Evict one pmeg (not wired) to refill the pool, flushing the
    /// victim's pages in one coalesced shootdown round.
    fn evict_one_pmeg(&self, w: &mut Sun3World) {
        let victim = w
            .pmeg_lru
            .iter()
            .copied()
            .find(|p| {
                let Some(&(owner_id, seg)) = w.pmeg_owner.get(p) else {
                    return false;
                };
                let Some(owner) = w.pmaps.get(&owner_id) else {
                    return true;
                };
                // Skip pmegs containing wired pages.
                !(0..PTES_PER_PMEG).any(|idx| owner.wired.contains(&(va_of(seg, idx).0 / PAGE)))
            })
            .expect("at least one stealable pmeg");
        let (owner_id, seg) = w.pmeg_owner.remove(&victim).expect("victim owned");
        let owner_ctx = w.pmaps.get(&owner_id).and_then(|o| o.context);
        let vpns = {
            let mut mmu = self.mmu().lock();
            let vpns = self.strip_pmeg(&mut mmu, victim, seg, owner_id);
            if let Some(ctx) = owner_ctx {
                mmu.seg_map[ctx as usize][seg] = NO_PMEG;
            }
            vpns
        };
        if let Some(o) = w.pmaps.get_mut(&owner_id) {
            o.segs.remove(&seg);
            let _ = o
                .shared
                .resident
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                    Some(v.saturating_sub(vpns.len() as u64))
                });
        }
        let scopes: Vec<FlushScope> = owner_ctx
            .map(|ctx| {
                vpns.iter()
                    .map(|&vpn| FlushScope::Page {
                        space: ctx as u32,
                        vpn,
                    })
                    .collect()
            })
            .unwrap_or_default();
        w.pmeg_lru.retain(|&p| p != victim);
        w.pmeg_free.push(victim);
        crate::core::stat_add(&self.core.counters.pmeg_steals, 1);
        // One interrupt per CPU for the whole pmeg, not one per page.
        let targets: Vec<usize> = (0..self.core.machine.n_cpus()).collect();
        self.core.machine.shootdown_multi(&targets, &scopes, true);
    }

    fn ensure_pmeg(&self, w: &mut Sun3World, ctx: u8, seg: usize) -> u16 {
        if let Some(&pmeg) = w.pmaps[&self.id].segs.get(&seg) {
            return pmeg;
        }
        if w.pmeg_free.is_empty() {
            self.evict_one_pmeg(w);
        }
        let pmeg = w.pmeg_free.pop().expect("pmeg available after eviction");
        w.pmeg_owner.insert(pmeg, (self.id, seg));
        w.pmeg_lru.push(pmeg);
        w.pmaps.get_mut(&self.id).unwrap().segs.insert(seg, pmeg);
        self.mmu().lock().seg_map[ctx as usize][seg] = pmeg;
        pmeg
    }

    fn pmeg_of(&self, w: &Sun3World, seg: usize) -> Option<u16> {
        w.pmaps.get(&self.id)?.segs.get(&seg).copied()
    }
}

impl HwTables for Sun3Tables {
    type Guard<'a> = KernelGuard<'a, Sun3World>;

    const PAGE_SIZE: u64 = PAGE;

    /// Context and pmeg steals shoot down while holding the world, so a
    /// CPU that has to wait for it waits quiescent.
    fn lock(&self) -> KernelGuard<'_, Sun3World> {
        self.world.lock()
    }

    fn check_range(&self, va: VAddr, size: u64) {
        assert!(
            va.0 + size <= 1 << 28,
            "SUN 3 contexts address at most 256 MB"
        );
    }

    fn prepare_enter(&self, g: &mut KernelGuard<'_, Sun3World>, _va: VAddr, _size: u64) {
        // Mappings are entered under a hardware context.
        self.ensure_context(g);
    }

    fn insert(
        &self,
        g: &mut KernelGuard<'_, Sun3World>,
        va: VAddr,
        pfn: Pfn,
        prot: HwProt,
        wired: bool,
    ) -> SlotOld {
        let ctx = g.pmaps[&self.id].context.expect("set by prepare_enter");
        let (seg, idx) = seg_idx(va);
        let pmeg = self.ensure_pmeg(g, ctx, seg);
        let mut mmu = self.mmu().lock();
        let old = mmu.pmegs[pmeg as usize][idx];
        let mut new = Sun3Pte {
            valid: true,
            write: prot.allows_write(),
            pfn: pfn.0 as u32,
            modified: false,
            referenced: false,
        };
        let slot = if !old.valid {
            SlotOld::Empty
        } else if old.pfn as u64 == pfn.0 {
            new.modified = old.modified;
            new.referenced = old.referenced;
            SlotOld::Same
        } else {
            SlotOld::Replaced {
                pfn: Pfn(old.pfn as u64),
                attrs: attr_bits(old.modified, old.referenced),
            }
        };
        mmu.pmegs[pmeg as usize][idx] = new;
        drop(mmu);
        if wired {
            g.pmaps.get_mut(&self.id).unwrap().wired.insert(va.0 / PAGE);
        }
        slot
    }

    fn clear(&self, g: &mut KernelGuard<'_, Sun3World>, va: VAddr) -> Option<(Pfn, u8)> {
        let (seg, idx) = seg_idx(va);
        g.pmaps
            .get_mut(&self.id)
            .unwrap()
            .wired
            .remove(&(va.0 / PAGE));
        let pmeg = self.pmeg_of(g, seg)?;
        let mut mmu = self.mmu().lock();
        let pte = mmu.pmegs[pmeg as usize][idx];
        if !pte.valid {
            return None;
        }
        mmu.pmegs[pmeg as usize][idx] = Sun3Pte::default();
        Some((Pfn(pte.pfn as u64), attr_bits(pte.modified, pte.referenced)))
    }

    fn reprotect(
        &self,
        g: &mut KernelGuard<'_, Sun3World>,
        va: VAddr,
        prot: HwProt,
    ) -> Option<bool> {
        let (seg, idx) = seg_idx(va);
        let pmeg = self.pmeg_of(g, seg)?;
        let mut mmu = self.mmu().lock();
        let pte = &mut mmu.pmegs[pmeg as usize][idx];
        if !pte.valid {
            return None;
        }
        let was_write = pte.write;
        pte.write = prot.allows_write();
        Some(was_write && !prot.allows_write())
    }

    fn lookup(&self, g: &KernelGuard<'_, Sun3World>, va: VAddr) -> Option<Pfn> {
        let (seg, idx) = seg_idx(va);
        let pmeg = self.pmeg_of(g, seg)?;
        let pte = self.mmu().lock().pmegs[pmeg as usize][idx];
        if !pte.valid {
            return None;
        }
        Some(Pfn(pte.pfn as u64))
    }

    fn mr(
        &self,
        g: &mut KernelGuard<'_, Sun3World>,
        va: VAddr,
        clear_mod: bool,
        clear_ref: bool,
    ) -> (bool, bool) {
        let (seg, idx) = seg_idx(va);
        let Some(pmeg) = self.pmeg_of(g, seg) else {
            return (false, false);
        };
        let mut mmu = self.mmu().lock();
        let pte = &mut mmu.pmegs[pmeg as usize][idx];
        if !pte.valid {
            return (false, false);
        }
        let mr = (pte.modified, pte.referenced);
        pte.modified &= !clear_mod;
        pte.referenced &= !clear_ref;
        mr
    }

    fn space_vpn(&self, g: &KernelGuard<'_, Sun3World>, va: VAddr) -> Option<(u32, u64)> {
        // A pmap without a context has nothing in any TLB.
        let ctx = g.pmaps[&self.id].context?;
        Some((ctx as u32, va.0 / PAGE))
    }

    fn activate(&self, g: &mut KernelGuard<'_, Sun3World>, cpu: usize) -> TlbTag {
        let ctx = self.ensure_context(g);
        self.core
            .machine
            .cpu(cpu)
            .load_regs(CpuRegs::Sun3 { context: ctx });
        // Tagged TLB: no flush needed on context switch.
        TlbTag::Tagged
    }

    fn teardown(&self, g: &mut KernelGuard<'_, Sun3World>) -> Vec<(VAddr, Pfn, u8)> {
        // Context eviction already strips every pv entry for this pmap
        // (it is the same code a steal runs), so nothing is left to
        // harvest.
        if let Some(ctx) = g.pmaps[&self.id].context {
            self.evict_context(g, ctx);
        }
        g.pmaps.remove(&self.id);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{frame, rw};
    use crate::MachDep;
    use mach_hw::machine::MachineModel;

    fn setup() -> (Arc<Machine>, Arc<Sun3MachDep>) {
        let machine = Machine::boot(MachineModel::sun_3_160());
        let md = Sun3MachDep::new(&machine);
        (machine, md)
    }

    #[test]
    fn enter_and_cpu_access() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x40000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x40000), 0x1234).unwrap();
        assert_eq!(machine.load_u32(VAddr(0x40000)).unwrap(), 0x1234);
        assert_eq!(pmap.extract(VAddr(0x40008)), Some(pa + 8));
        assert_eq!(pmap.resident_pages(), 1);
    }

    #[test]
    fn nine_pmaps_steal_contexts() {
        let (machine, md) = setup();
        let pmaps: Vec<_> = (0..9).map(|_| md.create()).collect();
        let _b = machine.bind_cpu(0);
        for (i, p) in pmaps.iter().enumerate() {
            let pa = frame(&machine, PAGE);
            p.enter(VAddr(0), pa, PAGE, rw(), false);
            p.activate(0);
            machine.store_u32(VAddr(0), i as u32).unwrap();
        }
        // 9 pmaps, 8 contexts: at least one steal.
        assert!(md.stats().context_steals >= 1);
        // The stolen-from pmap lost its hardware mappings...
        let victim = &pmaps[0];
        assert_eq!(victim.extract(VAddr(0)), None, "victim's cache was purged");
        // ...but can be reactivated (a fresh context) and refault.
        victim.activate(0);
        assert!(
            machine.load_u32(VAddr(0)).is_err(),
            "must refault after steal"
        );
    }

    #[test]
    fn context_isolation_between_tasks() {
        let (machine, md) = setup();
        let p1 = md.create();
        let p2 = md.create();
        let pa1 = frame(&machine, PAGE);
        let pa2 = frame(&machine, PAGE);
        p1.enter(VAddr(0x2000), pa1, PAGE, rw(), false);
        p2.enter(VAddr(0x2000), pa2, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        p1.activate(0);
        machine.store_u32(VAddr(0x2000), 111).unwrap();
        p2.activate(0);
        machine.store_u32(VAddr(0x2000), 222).unwrap();
        p1.activate(0);
        assert_eq!(machine.load_u32(VAddr(0x2000)).unwrap(), 111);
        p2.activate(0);
        assert_eq!(machine.load_u32(VAddr(0x2000)).unwrap(), 222);
    }

    #[test]
    fn pmeg_exhaustion_steals() {
        let (machine, md) = setup();
        let pmap = md.create();
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        // Touch more than 256 distinct 128 KB segments to exhaust pmegs.
        for i in 0..(N_PMEGS as u64 + 10) {
            let pa = frame(&machine, PAGE);
            pmap.enter(VAddr(i << 17), pa, PAGE, rw(), false);
        }
        assert!(md.stats().pmeg_steals >= 10);
        // Early segments were stolen; their mappings are gone.
        assert_eq!(pmap.extract(VAddr(0)), None);
        // Recent segment still mapped.
        assert!(pmap.extract(VAddr((N_PMEGS as u64 + 5) << 17)).is_some());
    }

    #[test]
    fn wired_pmegs_survive_stealing() {
        let (machine, md) = setup();
        let pmap = md.create();
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0), pa, PAGE, rw(), true); // wired
        for i in 1..(N_PMEGS as u64 + 10) {
            let f = frame(&machine, PAGE);
            pmap.enter(VAddr(i << 17), f, PAGE, rw(), false);
        }
        assert!(pmap.extract(VAddr(0)).is_some(), "wired pmeg not stolen");
    }

    #[test]
    fn remove_all_and_attrs() {
        let (machine, md) = setup();
        let pmap = md.create();
        let pa = frame(&machine, PAGE);
        pmap.enter(VAddr(0x2000), pa, PAGE, rw(), false);
        let _b = machine.bind_cpu(0);
        pmap.activate(0);
        machine.store_u32(VAddr(0x2000), 5).unwrap();
        md.remove_all(pa, PAGE);
        assert_eq!(md.mapping_count(pa), 0);
        assert!(machine.load_u32(VAddr(0x2000)).is_err());
        assert!(md.is_modified(pa, PAGE), "modify bit survived removal");
    }

    /// A context steal shoots down while holding the world. A sibling CPU
    /// blocked on the world at that moment must not stall it: it waits
    /// for the lock quiescent, so its TLB is flushed directly.
    #[test]
    fn steal_under_the_world_lock_does_not_wait_on_a_blocked_cpu() {
        let mut model = MachineModel::sun_3_160();
        model.n_cpus = 2;
        let machine = Machine::boot(model);
        let core = Arc::new(MdCore::new(&machine));
        let factory = Sun3Factory {
            world: Arc::new(KernelMutex::new(LockSite::PmapTables, Sun3World::new())),
        };
        let tables: Vec<Sun3Tables> = (0..=N_CONTEXTS as u64)
            .map(|id| factory.new_tables(&core, id, &Arc::new(PortShared::default())))
            .collect();
        // Every context is owned, by pmaps that are not running.
        for t in &tables[..N_CONTEXTS] {
            let mut g = t.lock();
            t.ensure_context(&mut g);
        }
        let bound = std::sync::atomic::AtomicBool::new(false);
        let _b = machine.bind_cpu(0);
        std::thread::scope(|s| {
            // Held inside the scope, so a failing steal releases it
            // before the scope joins CPU 1.
            let mut world = tables[N_CONTEXTS].lock();
            s.spawn(|| {
                let _b = machine.bind_cpu(1);
                bound.store(true, Ordering::SeqCst);
                drop(tables[0].lock());
            });
            // Let CPU 1 block on the world we hold. It parks at once; a
            // CPU that failed to park gets time to block anyway.
            let t0 = std::time::Instant::now();
            while (!bound.load(Ordering::SeqCst) || machine.cpu(1).is_active())
                && t0.elapsed() < std::time::Duration::from_millis(50)
            {
                std::hint::spin_loop();
            }
            let t0 = std::time::Instant::now();
            tables[N_CONTEXTS].ensure_context(&mut world);
            let took = t0.elapsed();
            drop(world);
            assert!(
                took < std::time::Duration::from_millis(100),
                "waited {took:?}"
            );
        });
        assert_eq!(core.counters.snapshot().context_steals, 1);
        assert_eq!(machine.stats.snapshot().shootdown_timeouts, 0);
    }

    #[test]
    fn drop_releases_context_and_pmegs() {
        let (machine, md) = setup();
        let p1 = md.create();
        let pa = frame(&machine, PAGE);
        p1.enter(VAddr(0), pa, PAGE, rw(), false);
        drop(p1);
        // All 8 contexts available again: 8 creates, no steals.
        let pmaps: Vec<_> = (0..8).map(|_| md.create()).collect();
        let _b = machine.bind_cpu(0);
        for p in &pmaps {
            p.activate(0);
        }
        assert_eq!(md.stats().context_steals, 0);
        assert_eq!(md.mapping_count(pa), 0);
    }
}

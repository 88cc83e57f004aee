//! The physical-to-virtual table: the pmap layer's reverse map.
//!
//! `pmap_remove_all(phys)` and `pmap_copy_on_write(phys)` operate on a
//! physical page and must find every virtual mapping of it. Real pmap
//! modules kept *pv lists* for this (the RT PC got them for free from its
//! inverted table); we keep one per hardware frame.
//!
//! The table also accumulates modify/reference *attributes*: when a
//! mapping is destroyed, its hardware M/R bits would be lost, so they are
//! OR-ed in here — `pmap_is_modified` consults both live mappings and
//! these stolen bits, exactly as Mach's `pmap_attributes` did.
//!
//! # Concurrency
//!
//! Every `pmap_enter` and `pmap_remove` on every CPU passes through this
//! table, so it is split into [`PV_SHARDS`] shards keyed by frame number.
//! A shard owns whole [`STRIPE_BYTES`] stripes of physical memory (the
//! default Mach page), so one Mach page's hardware frames share a shard
//! and consecutive pages land on consecutive shards. Each method locks
//! its frame's shard once and calls out to nothing while holding it — in
//! particular it never upgrades a [`PvEntry::mapper`], which could make
//! it the last owner of a pmap whose destructor re-enters this table. A
//! pv shard is therefore a leaf below every port's lock
//! ([`crate::chassis::HwTables::lock`]), and no operation holds two
//! shards (DESIGN.md §8).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Weak;

use mach_hw::addr::VAddr;
use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use mach_hw::Pfn;

use crate::HwMapper;

/// Attribute bit: the frame has been modified.
pub const ATTR_MOD: u8 = 1;
/// Attribute bit: the frame has been referenced.
pub const ATTR_REF: u8 = 2;

/// Number of pv shards.
pub const PV_SHARDS: usize = 64;

/// Bytes of physical memory one shard key covers: the default Mach page.
pub const STRIPE_BYTES: u64 = 4096;

/// Pack hardware modify/reference bits into attribute bits.
#[inline]
pub fn attr_bits(modified: bool, referenced: bool) -> u8 {
    (modified as u8 * ATTR_MOD) | (referenced as u8 * ATTR_REF)
}

/// One reverse-map entry: a pmap and the virtual address mapping the frame.
#[derive(Clone)]
pub struct PvEntry {
    /// The mapping pmap (weak: a dropped pmap's entries are ignored).
    pub mapper: Weak<dyn HwMapper>,
    /// The pmap's [`HwMapper::mapper_id`], so entries match without an
    /// upgrade.
    pub mapper_id: u64,
    /// The virtual address of the mapping within that pmap.
    pub va: VAddr,
}

impl PvEntry {
    fn is_live(&self) -> bool {
        self.mapper.strong_count() > 0
    }
}

impl std::fmt::Debug for PvEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PvEntry")
            .field("mapper_id", &self.mapper_id)
            .field("va", &self.va)
            .finish()
    }
}

/// Everything the table knows about one frame.
#[derive(Debug, Default)]
struct PvFrame {
    entries: Vec<PvEntry>,
    attrs: u8,
}

impl PvFrame {
    fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.attrs == 0
    }
}

type Shard = HashMap<u64, PvFrame>;

/// The physical→virtual table plus stolen attribute bits.
#[derive(Debug)]
pub struct PvTable {
    shards: Box<[KernelMutex<Shard>]>,
    /// log2 of the hardware frames in one [`STRIPE_BYTES`] stripe.
    stripe_shift: u32,
}

impl PvTable {
    /// An empty table for `hw_page_size`-byte frames.
    pub fn new(hw_page_size: u64) -> PvTable {
        PvTable {
            shards: (0..PV_SHARDS)
                .map(|_| KernelMutex::new(LockSite::PvShard, Shard::default()))
                .collect(),
            stripe_shift: (STRIPE_BYTES / hw_page_size).max(1).ilog2(),
        }
    }

    /// The shard holding `frame`'s pv list and attributes.
    pub(crate) fn shard_index(&self, frame: Pfn) -> usize {
        (frame.0 >> self.stripe_shift) as usize % PV_SHARDS
    }

    fn shard(&self, frame: Pfn) -> KernelGuard<'_, Shard> {
        self.shards[self.shard_index(frame)].lock()
    }

    /// Record that `mapper` (identity `mapper_id`) maps `frame` at `va`.
    pub fn add(&self, frame: Pfn, mapper: Weak<dyn HwMapper>, mapper_id: u64, va: VAddr) {
        let mut s = self.shard(frame);
        let list = &mut s.entry(frame.0).or_default().entries;
        // A duplicate (same pmap, same va) is already recorded.
        if !list.iter().any(|e| e.mapper_id == mapper_id && e.va == va) {
            list.push(PvEntry {
                mapper,
                mapper_id,
                va,
            });
        }
    }

    /// Remove the entry for (`frame`, `mapper_id`, `va`) and OR in
    /// `attrs`, the bits harvested from its dying hardware mapping, in
    /// one visit. Dead entries met on the way are dropped.
    pub fn remove(&self, frame: Pfn, mapper_id: u64, va: VAddr, attrs: u8) {
        let mut s = self.shard(frame);
        match s.entry(frame.0) {
            Entry::Occupied(mut o) => {
                let rec = o.get_mut();
                rec.entries
                    .retain(|e| e.is_live() && !(e.mapper_id == mapper_id && e.va == va));
                rec.attrs |= attrs;
                if rec.is_empty() {
                    o.remove();
                }
            }
            Entry::Vacant(v) => {
                if attrs != 0 {
                    v.insert(PvFrame {
                        entries: Vec::new(),
                        attrs,
                    });
                }
            }
        }
    }

    /// Take (remove and return) every live entry for `frame`, keeping its
    /// stolen attribute bits.
    pub fn take(&self, frame: Pfn) -> Vec<PvEntry> {
        let mut entries = {
            let mut s = self.shard(frame);
            let Entry::Occupied(mut o) = s.entry(frame.0) else {
                return Vec::new();
            };
            let entries = std::mem::take(&mut o.get_mut().entries);
            if o.get().is_empty() {
                o.remove();
            }
            entries
        };
        entries.retain(PvEntry::is_live);
        entries
    }

    /// Take every live entry for `frame` and forget its stolen attribute
    /// bits: the frame's whole record, in one visit.
    pub fn release(&self, frame: Pfn) -> Vec<PvEntry> {
        let rec = self.shard(frame).remove(&frame.0);
        let mut entries = rec.map(|r| r.entries).unwrap_or_default();
        entries.retain(PvEntry::is_live);
        entries
    }

    /// Copy (without removing) every live entry for `frame`.
    pub fn list(&self, frame: Pfn) -> Vec<PvEntry> {
        let s = self.shard(frame);
        s.get(&frame.0)
            .map(|r| r.entries.iter().filter(|e| e.is_live()).cloned().collect())
            .unwrap_or_default()
    }

    /// Number of live mappings of `frame`.
    pub fn mapping_count(&self, frame: Pfn) -> usize {
        let s = self.shard(frame);
        s.get(&frame.0)
            .map_or(0, |r| r.entries.iter().filter(|e| e.is_live()).count())
    }

    /// OR attribute bits into the stolen set for `frame`.
    pub fn merge_attrs(&self, frame: Pfn, bits: u8) {
        if bits == 0 {
            return;
        }
        self.shard(frame).entry(frame.0).or_default().attrs |= bits;
    }

    /// Read the stolen attribute bits for `frame`.
    pub fn attrs(&self, frame: Pfn) -> u8 {
        self.shard(frame).get(&frame.0).map_or(0, |r| r.attrs)
    }

    /// Clear some stolen attribute bits for `frame`.
    pub fn clear_attrs(&self, frame: Pfn, bits: u8) {
        let mut s = self.shard(frame);
        if let Entry::Occupied(mut o) = s.entry(frame.0) {
            o.get_mut().attrs &= !bits;
            if o.get().is_empty() {
                o.remove();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::{mpsc, Arc, Barrier};
    use std::time::Duration;

    use mach_hw::addr::HwProt;
    use mach_hw::machine::{Machine, MachineModel};
    use parking_lot::Mutex;

    use super::*;
    use crate::ns32082::NsMachDep;
    use crate::testutil::rw;
    use crate::MachDep;

    /// A pmap stand-in whose `mapper_id` lets go of the last other strong
    /// reference to itself, and whose destructor removes its own pv entry
    /// as `PortChassis::drop` does.
    struct SelfReleasing {
        pv: Arc<PvTable>,
        keep: Mutex<Option<Arc<SelfReleasing>>>,
    }

    const FRAME: Pfn = Pfn(1);
    const ID: u64 = 7;
    const VA: VAddr = VAddr(0x2000);

    impl HwMapper for SelfReleasing {
        fn mapper_id(&self) -> u64 {
            drop(self.keep.lock().take());
            ID
        }
        fn clear_hw(&self, _va: VAddr) -> (bool, bool) {
            (false, false)
        }
        fn protect_hw(&self, _va: VAddr, _prot: HwProt) {}
        fn read_mr(&self, _va: VAddr) -> (bool, bool) {
            (false, false)
        }
        fn clear_mr(&self, _va: VAddr, _clear_mod: bool, _clear_ref: bool) {}
        fn space_vpn(&self, va: VAddr) -> (u32, u64) {
            (0, va.0)
        }
        fn cpus_cached(&self) -> u64 {
            0
        }
    }

    impl Drop for SelfReleasing {
        fn drop(&mut self) {
            self.pv.remove(FRAME, ID, VA, 0);
        }
    }

    /// Removing another pmap's entry must not touch this one's `Weak`: an
    /// upgrade under the shard lock would make the remover the pmap's
    /// last owner, and its destructor would re-lock the shard.
    #[test]
    fn remove_does_not_run_a_pmap_destructor_under_the_shard_lock() {
        let (done, finished) = mpsc::channel();
        let pv = Arc::new(PvTable::new(512));
        let worker_pv = Arc::clone(&pv);
        let worker = std::thread::spawn(move || {
            let pv = worker_pv;
            let m = Arc::new(SelfReleasing {
                pv: Arc::clone(&pv),
                keep: Mutex::new(None),
            });
            *m.keep.lock() = Some(Arc::clone(&m));
            pv.add(FRAME, Arc::downgrade(&m) as Weak<dyn HwMapper>, ID, VA);
            drop(m);
            // Another pmap's mapping of the same frame goes away.
            pv.remove(FRAME, ID + 1, VAddr(0x4000), ATTR_REF);
            let count = pv.mapping_count(FRAME);
            // Outside the table, the last reference may go: the
            // destructor's own removal then takes the entry out.
            let m = pv.list(FRAME)[0].mapper.upgrade().expect("kept alive");
            assert_eq!(m.mapper_id(), ID);
            drop(m);
            done.send((count, pv.mapping_count(FRAME), pv.attrs(FRAME)))
                .expect("test waits");
        });
        let (before, after, attrs) = finished
            .recv_timeout(Duration::from_secs(5))
            .expect("PvTable::remove deadlocked in a pmap destructor");
        worker.join().expect("worker panicked");
        assert_eq!((before, after, attrs), (1, 0, ATTR_REF));
    }

    /// splitmix64: a seeded, dependency-free operation stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// What one frame should hold after its thread's operations.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    struct Expect {
        mapped: bool,
        modified: bool,
        referenced: bool,
    }

    /// What the pmap layer reports for `frame`.
    fn observe(md: &dyn MachDep, frame: Pfn, page: u64) -> Expect {
        let pa = frame.base(page);
        Expect {
            mapped: match md.mapping_count(pa) {
                0 => false,
                1 => true,
                n => panic!("frame {frame:?} has {n} mappings"),
            },
            modified: md.is_modified(pa, page),
            referenced: md.is_referenced(pa, page),
        }
    }

    /// Threads bound to different CPUs enter, touch, remove and free
    /// frames of their own. Some frames share a pv shard with other
    /// threads' frames, some have a shard to themselves; either way each
    /// frame must read, after every operation and at the end, exactly as
    /// a sequential model of its own thread's operations says.
    #[test]
    fn concurrent_enter_remove_free_match_a_sequential_model() {
        const CPUS: usize = 4;
        const OPS: usize = 4000;
        let machine = Machine::boot(MachineModel::multimax(CPUS));
        let md = NsMachDep::new(&machine);
        let page = machine.hw_page_size();
        let pv = PvTable::new(page);
        let stripe = STRIPE_BYTES / page;
        let shared = stripe / CPUS as u64;
        assert!(
            shared >= 1,
            "every thread gets a frame of the shared stripes"
        );

        // In a stripe-aligned run, stripes 0 and PV_SHARDS share a shard
        // and are split among the threads; stripe 1 + t is thread t's own.
        let run = machine
            .frames()
            .alloc_contig(stripe * (PV_SHARDS as u64 + 2))
            .expect("contiguous frames");
        let s0 = run.0.next_multiple_of(stripe);
        let frames_of = |t: u64| -> Vec<Pfn> {
            let hot = [s0, s0 + PV_SHARDS as u64 * stripe]
                .into_iter()
                .flat_map(|base| (0..shared).map(move |i| Pfn(base + t * shared + i)));
            let own = (0..shared.max(2)).map(|i| Pfn(s0 + (1 + t) * stripe + i));
            hot.chain(own).collect()
        };
        let hot_shard = pv.shard_index(Pfn(s0));
        let mut own_shards = Vec::new();
        for t in 0..CPUS as u64 {
            let frames = frames_of(t);
            let (hot, own) = frames.split_at(2 * shared as usize);
            assert!(hot.iter().all(|&f| pv.shard_index(f) == hot_shard));
            assert!(own
                .iter()
                .all(|&f| pv.shard_index(f) == pv.shard_index(own[0])));
            own_shards.push(pv.shard_index(own[0]));
        }
        own_shards.push(hot_shard);
        own_shards.sort_unstable();
        own_shards.dedup();
        assert_eq!(own_shards.len(), CPUS + 1, "own shards are private");

        let start = Barrier::new(CPUS);
        let results: Vec<_> = std::thread::scope(|sc| {
            let workers: Vec<_> = (0..CPUS)
                .map(|t| {
                    let (machine, md, start) = (&machine, &md, &start);
                    let frames = frames_of(t as u64);
                    sc.spawn(move || {
                        let _b = machine.bind_cpu(t);
                        let pmap = md.create();
                        pmap.activate(t);
                        let mut model = vec![Expect::default(); frames.len()];
                        let mut seed = 0xC0FFEE + t as u64;
                        start.wait();
                        for _ in 0..OPS {
                            let r = next(&mut seed);
                            let slot = (r >> 8) as usize % frames.len();
                            let va = VAddr(0x10000 + slot as u64 * page);
                            let pa = frames[slot].base(page);
                            let want = &mut model[slot];
                            match r % 5 {
                                0 | 1 => {
                                    pmap.enter(va, pa, page, rw(), false);
                                    want.mapped = true;
                                }
                                2 => {
                                    let write = r & 0x80 != 0;
                                    let ok = if write {
                                        machine.store_u32(va, r as u32).is_ok()
                                    } else {
                                        machine.load_u32(va).is_ok()
                                    };
                                    assert_eq!(ok, want.mapped, "access to slot {slot} on CPU {t}");
                                    want.referenced |= ok;
                                    want.modified |= ok && write;
                                }
                                3 => {
                                    pmap.remove(va, va + page);
                                    want.mapped = false;
                                }
                                _ => {
                                    md.page_free(pa, page);
                                    *want = Expect::default();
                                }
                            }
                            for (f, want) in frames.iter().zip(&model) {
                                assert_eq!(observe(&**md, *f, page), *want, "{f:?} on CPU {t}");
                            }
                        }
                        pmap.deactivate(t);
                        (pmap, frames, model)
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("worker panicked"))
                .collect()
        });

        for (t, (_pmap, frames, model)) in results.iter().enumerate() {
            for (&f, want) in frames.iter().zip(model) {
                assert_eq!(observe(&*md, f, page), *want, "{f:?} of CPU {t} at the end");
            }
        }
    }
}

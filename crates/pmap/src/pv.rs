//! The physical-to-virtual table: the pmap layer's reverse map.
//!
//! `pmap_remove_all(phys)` and `pmap_copy_on_write(phys)` operate on a
//! physical page and must find every virtual mapping of it. Real pmap
//! modules kept *pv lists* for this, in an array indexed by page number
//! (the RT PC got them for free from its inverted table); so does this
//! table. It holds one record per hardware frame, found by frame number
//! and never inserted or removed. A record keeps the frame's first
//! mapping inline; only aliases (further mappings of a mapped frame)
//! spill into a list, which stays unallocated until a second mapping
//! arrives. Entering and removing a singly-mapped frame therefore neither
//! hashes nor allocates.
//!
//! The table also accumulates modify/reference *attributes*: when a
//! mapping is destroyed, its hardware M/R bits would be lost, so they are
//! OR-ed in here — `pmap_is_modified` consults both live mappings and
//! these stolen bits, exactly as Mach's `pmap_attributes` did.
//!
//! # Concurrency
//!
//! Every `pmap_enter` and `pmap_remove` on every CPU passes through this
//! table, so it is split into [`PV_SHARDS`] shards by frame number. A
//! shard owns whole [`STRIPE_BYTES`] stripes of physical memory (the
//! default Mach page), so one Mach page's hardware frames share a shard
//! and consecutive pages land on consecutive shards. A shard's records
//! are its stripes' frames in address order, allocated on the shard's
//! first write, so booting allocates none. Each method locks its frame's
//! shard once (a zero-bit [`PvTable::merge_attrs`] locks nothing) and
//! calls out to nothing while holding it — in particular it never
//! upgrades a [`PvEntry::mapper`], which could make it the last owner of
//! a pmap whose destructor re-enters this table. A pv shard is therefore
//! a leaf below every port's lock ([`crate::chassis::HwTables::lock`]),
//! and no operation holds two shards (DESIGN.md §8).

use std::sync::Weak;

use mach_hw::addr::VAddr;
use mach_hw::lock::{KernelMutex, LockSite};
use mach_hw::Pfn;

use crate::HwMapper;

/// Attribute bit: the frame has been modified.
pub const ATTR_MOD: u8 = 1;
/// Attribute bit: the frame has been referenced.
pub const ATTR_REF: u8 = 2;

/// Number of pv shards.
pub const PV_SHARDS: usize = 64;

/// Bytes of physical memory in one shard stripe: the default Mach page.
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

/// Everything the table knows about one frame. Its entries are `first`
/// and then `aliases`, in arrival order; `aliases` is empty while
/// `first` is `None`.
#[derive(Debug, Default)]
struct PvFrame {
    first: Option<PvEntry>,
    aliases: Vec<PvEntry>,
    attrs: u8,
}

impl PvFrame {
    fn entries(&self) -> impl Iterator<Item = &PvEntry> {
        self.first.iter().chain(&self.aliases)
    }

    fn live(&self) -> impl Iterator<Item = &PvEntry> {
        self.entries().filter(|e| e.is_live())
    }

    fn push(&mut self, e: PvEntry) {
        match self.first {
            None => self.first = Some(e),
            Some(_) => self.aliases.push(e),
        }
    }

    /// Keep only the entries `keep` accepts, in order.
    fn retain(&mut self, mut keep: impl FnMut(&PvEntry) -> bool) {
        self.aliases.retain(&mut keep);
        if self.first.as_ref().is_some_and(|e| !keep(e)) {
            self.first = (!self.aliases.is_empty()).then(|| self.aliases.remove(0));
        }
    }

    /// Move every entry out, in order.
    fn take(&mut self) -> Vec<PvEntry> {
        let mut all = std::mem::take(&mut self.aliases);
        if let Some(first) = self.first.take() {
            all.insert(0, first);
        }
        all
    }
}

/// One shard's records, by local index (see [`PvTable::locate`]); empty
/// until the shard's first write.
type Shard = Vec<PvFrame>;

/// The physical→virtual table plus stolen attribute bits.
#[derive(Debug)]
pub struct PvTable {
    shards: Box<[KernelMutex<Shard>]>,
    /// log2 of the hardware frames in one [`STRIPE_BYTES`] stripe.
    stripe_shift: u32,
    /// Records a shard allocates on its first write: its stripes' share
    /// of the machine's frames.
    shard_frames: usize,
}

impl PvTable {
    /// An empty table for a machine of `n_frames` frames of
    /// `hw_page_size` bytes, every frame its methods take lying below
    /// `n_frames`. Allocates no records.
    pub fn new(hw_page_size: u64, n_frames: u64) -> PvTable {
        let stripe_shift = (STRIPE_BYTES / hw_page_size).max(1).ilog2();
        let stripes = n_frames.div_ceil(1 << stripe_shift);
        PvTable {
            shards: (0..PV_SHARDS)
                .map(|_| KernelMutex::new(LockSite::PvShard, Shard::new()))
                .collect(),
            stripe_shift,
            shard_frames: (stripes.div_ceil(PV_SHARDS as u64) << stripe_shift) as usize,
        }
    }

    /// The shard holding `frame`'s record, and the record's index in it:
    /// stripe `s` is the `s / PV_SHARDS`-th stripe of shard
    /// `s % PV_SHARDS`.
    fn locate(&self, frame: Pfn) -> (usize, usize) {
        let stripe = frame.0 >> self.stripe_shift;
        let in_stripe = frame.0 & ((1 << self.stripe_shift) - 1);
        let local = (stripe / PV_SHARDS as u64) << self.stripe_shift | in_stripe;
        ((stripe % PV_SHARDS as u64) as usize, local as usize)
    }

    /// Run `f` on `frame`'s record under its shard lock, unless the shard
    /// has never been written (then every record in it is empty).
    fn visit<R>(&self, frame: Pfn, f: impl FnOnce(&mut PvFrame) -> R) -> Option<R> {
        let (shard, local) = self.locate(frame);
        self.shards[shard].lock().get_mut(local).map(f)
    }

    /// Run `f` on `frame`'s record under its shard lock, allocating the
    /// shard's records on its first write.
    fn update<R>(&self, frame: Pfn, f: impl FnOnce(&mut PvFrame) -> R) -> R {
        let (shard, local) = self.locate(frame);
        let mut records = self.shards[shard].lock();
        if records.is_empty() {
            records.resize_with(self.shard_frames, PvFrame::default);
        }
        f(&mut records[local])
    }

    /// Record that `mapper` (identity `mapper_id`) maps `frame` at `va`.
    pub fn add(&self, frame: Pfn, mapper: Weak<dyn HwMapper>, mapper_id: u64, va: VAddr) {
        self.update(frame, |rec| {
            // A duplicate (same pmap, same va) is already recorded.
            if !rec
                .entries()
                .any(|e| e.mapper_id == mapper_id && e.va == va)
            {
                rec.push(PvEntry {
                    mapper,
                    mapper_id,
                    va,
                });
            }
        });
    }

    /// Remove the entry for (`frame`, `mapper_id`, `va`) and OR in
    /// `attrs`, the bits harvested from its dying hardware mapping, in
    /// one visit. Dead entries met on the way are dropped.
    pub fn remove(&self, frame: Pfn, mapper_id: u64, va: VAddr, attrs: u8) {
        self.update(frame, |rec| {
            rec.retain(|e| e.is_live() && !(e.mapper_id == mapper_id && e.va == va));
            rec.attrs |= attrs;
        });
    }

    /// Take (remove and return) every live entry for `frame`; `forget`
    /// also clears its stolen attribute bits.
    fn drain(&self, frame: Pfn, forget: bool) -> Vec<PvEntry> {
        let mut entries = self
            .visit(frame, |rec| {
                if forget {
                    rec.attrs = 0;
                }
                rec.take()
            })
            .unwrap_or_default();
        entries.retain(PvEntry::is_live);
        entries
    }

    /// Take (remove and return) every live entry for `frame`, keeping its
    /// stolen attribute bits.
    pub fn take(&self, frame: Pfn) -> Vec<PvEntry> {
        self.drain(frame, false)
    }

    /// Take every live entry for `frame` and forget its stolen attribute
    /// bits: the frame's whole record, in one visit.
    pub fn release(&self, frame: Pfn) -> Vec<PvEntry> {
        self.drain(frame, true)
    }

    /// Copy (without removing) every live entry for `frame`.
    pub fn list(&self, frame: Pfn) -> Vec<PvEntry> {
        self.visit(frame, |rec| rec.live().cloned().collect())
            .unwrap_or_default()
    }

    /// Number of live mappings of `frame`.
    pub fn mapping_count(&self, frame: Pfn) -> usize {
        self.visit(frame, |rec| rec.live().count()).unwrap_or(0)
    }

    /// OR attribute bits into the stolen set for `frame`.
    pub fn merge_attrs(&self, frame: Pfn, bits: u8) {
        if bits == 0 {
            return;
        }
        self.update(frame, |rec| rec.attrs |= bits);
    }

    /// Read the stolen attribute bits for `frame`.
    pub fn attrs(&self, frame: Pfn) -> u8 {
        self.visit(frame, |rec| rec.attrs).unwrap_or(0)
    }

    /// Clear some stolen attribute bits for `frame`.
    pub fn clear_attrs(&self, frame: Pfn, bits: u8) {
        self.visit(frame, |rec| rec.attrs &= !bits);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;
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
        let pv = Arc::new(PvTable::new(512, 1024));
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
        let pv = PvTable::new(page, machine.phys().size() / page);
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
        let hot_shard = pv.locate(Pfn(s0)).0;
        let mut own_shards = Vec::new();
        for t in 0..CPUS as u64 {
            let frames = frames_of(t);
            let (hot, own) = frames.split_at(2 * shared as usize);
            assert!(hot.iter().all(|&f| pv.locate(f).0 == hot_shard));
            assert!(own.iter().all(|&f| pv.locate(f).0 == pv.locate(own[0]).0));
            own_shards.push(pv.locate(own[0]).0);
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

    /// A pmap stand-in with nothing but an identity.
    struct Stub(u64);

    impl HwMapper for Stub {
        fn mapper_id(&self) -> u64 {
            self.0
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

    /// `(mapper_id, va)` of each entry.
    fn ids(entries: &[PvEntry]) -> Vec<(u64, VAddr)> {
        entries.iter().map(|e| (e.mapper_id, e.va)).collect()
    }

    /// What `frame`'s record stores, dead entries included, and its
    /// stolen bits.
    fn stored(pv: &PvTable, frame: Pfn) -> (Vec<(u64, VAddr)>, u8) {
        let (shard, local) = pv.locate(frame);
        pv.shards[shard]
            .lock()
            .get(local)
            .map_or((Vec::new(), 0), |r| {
                (r.entries().map(|e| (e.mapper_id, e.va)).collect(), r.attrs)
            })
    }

    /// A seeded stream of every `PvTable` call, on `n_frames` frames of
    /// `page` bytes, checked after each call against a map from frame to
    /// (stored entries, stolen bits). Three pmaps share a few frames at
    /// three addresses, so frames gather aliases and duplicates; a pmap
    /// is now and then dropped while still mapped, and `remove` must
    /// prune its dead entries.
    fn pv_matches_a_reference_model(page: u64, n_frames: u64, seed: u64) {
        const OPS: usize = 20_000;
        let pv = PvTable::new(page, n_frames);
        let stripe = (STRIPE_BYTES / page).max(1);
        let mut frames = vec![
            0,
            stripe - 1,
            stripe,
            PV_SHARDS as u64 * stripe,
            PV_SHARDS as u64 * stripe + 1,
            n_frames - 2,
            n_frames - 1,
        ];
        frames.dedup();
        let frames: Vec<Pfn> = frames.into_iter().map(Pfn).collect();
        let mut next_id = 1;
        let mut pmaps: Vec<Arc<dyn HwMapper>> = (0..3)
            .map(|_| {
                next_id += 1;
                Arc::new(Stub(next_id)) as Arc<dyn HwMapper>
            })
            .collect();
        let mut model: HashMap<u64, (Vec<(u64, VAddr)>, u8)> = HashMap::new();
        let (mut most_pmaps, mut pruned, mut edges_mapped) = (0, 0, [false; 2]);
        let mut state = seed;
        for step in 0..OPS {
            let r = next(&mut state);
            let frame = frames[(r >> 8) as usize % frames.len()];
            let k = (r >> 16) as usize % pmaps.len();
            let id = pmaps[k].mapper_id();
            let va = VAddr(0x1000 * ((r >> 24) % 3));
            let bits = ((r >> 32) % 4) as u8;
            let live_ids: Vec<u64> = pmaps.iter().map(|m| m.mapper_id()).collect();
            let live = |e: &(u64, VAddr)| live_ids.contains(&e.0);
            let want = model.entry(frame.0).or_default();
            let want_live: Vec<(u64, VAddr)> = want.0.iter().copied().filter(live).collect();
            let at = format!("step {step}: frame {frame:?}, op {}", r % 16);
            match r % 16 {
                0..=4 => {
                    pv.add(frame, Arc::downgrade(&pmaps[k]), id, va);
                    if !want.0.contains(&(id, va)) {
                        want.0.push((id, va));
                    }
                }
                5..=7 => {
                    pv.remove(frame, id, va, bits);
                    let before = want.0.len();
                    want.0.retain(|e| live(e) && *e != (id, va));
                    pruned += before - want.0.len() - usize::from(want_live.contains(&(id, va)));
                    want.1 |= bits;
                }
                8 => {
                    assert_eq!(ids(&pv.take(frame)), want_live, "{at}");
                    want.0.clear();
                }
                9 => {
                    assert_eq!(ids(&pv.release(frame)), want_live, "{at}");
                    *want = (Vec::new(), 0);
                }
                10 => {
                    assert_eq!(ids(&pv.list(frame)), want_live, "{at}");
                    assert_eq!(pv.mapping_count(frame), want_live.len(), "{at}");
                }
                11 => {
                    pv.merge_attrs(frame, bits);
                    want.1 |= bits;
                }
                12 => assert_eq!(pv.attrs(frame), want.1, "{at}"),
                13 => {
                    pv.clear_attrs(frame, bits);
                    want.1 &= !bits;
                }
                _ => {
                    // The pmap goes while still mapped; its entries die.
                    next_id += 1;
                    pmaps[k] = Arc::new(Stub(next_id));
                }
            }
            assert_eq!(stored(&pv, frame), *want, "{at}");
            let mut distinct: Vec<u64> = want.0.iter().map(|e| e.0).collect();
            distinct.sort_unstable();
            distinct.dedup();
            most_pmaps = most_pmaps.max(distinct.len());
            if !want.0.is_empty() {
                edges_mapped[0] |= frame.0 == 0;
                edges_mapped[1] |= frame.0 == n_frames - 1;
            }
        }
        for &frame in &frames {
            let want = model.get(&frame.0).cloned().unwrap_or_default();
            assert_eq!(stored(&pv, frame), want, "{frame:?} at the end");
        }
        assert!(most_pmaps >= 3, "three pmaps met on a frame");
        assert!(pruned > 0, "remove pruned a dropped pmap's entries");
        assert_eq!(edges_mapped, [true; 2], "frame 0 and the last frame mapped");
    }

    /// uVAX II frames: eight 512-byte frames to a stripe, and a frame
    /// count that leaves the last stripe alone on its shard.
    #[test]
    fn pv_matches_a_reference_model_with_512_byte_frames() {
        pv_matches_a_reference_model(512, 4100, 0x5EED);
    }

    /// SUN 3 frames: one 8 KiB frame per stripe.
    #[test]
    fn pv_matches_a_reference_model_with_8k_frames() {
        pv_matches_a_reference_model(8192, 100, 0xF00D);
    }

    /// Every call takes its frame's shard lock exactly once, and a
    /// zero-bit `merge_attrs` none: BENCH `locks` rows count these.
    #[test]
    fn each_call_takes_its_shard_lock_once() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let page = machine.hw_page_size();
        let pv = PvTable::new(page, machine.phys().size() / page);
        let m: Arc<dyn HwMapper> = Arc::new(Stub(1));
        let _bound = machine.bind_cpu(0);
        machine.locks.enable();
        let acquisitions = || machine.locks.report()[LockSite::PvShard.rank()].acquisitions;
        let mut last = acquisitions();
        let mut took = |n: u64, call: &str| {
            let now = acquisitions();
            assert_eq!(now - last, n, "{call}");
            last = now;
        };
        pv.add(FRAME, Arc::downgrade(&m), 1, VA);
        took(1, "add");
        pv.add(FRAME, Arc::downgrade(&m), 1, VAddr(0x4000));
        took(1, "add of an alias");
        pv.list(FRAME);
        took(1, "list");
        pv.mapping_count(FRAME);
        took(1, "mapping_count");
        pv.merge_attrs(FRAME, 0);
        took(0, "zero-bit merge_attrs");
        pv.merge_attrs(FRAME, ATTR_MOD);
        took(1, "merge_attrs");
        pv.attrs(FRAME);
        took(1, "attrs");
        pv.clear_attrs(FRAME, ATTR_MOD);
        took(1, "clear_attrs");
        pv.remove(FRAME, 1, VA, ATTR_REF);
        took(1, "remove");
        pv.take(FRAME);
        took(1, "take");
        pv.release(FRAME);
        took(1, "release");
        pv.attrs(Pfn(9999));
        took(1, "attrs of a frame in an unwritten shard");
        machine.locks.disable();
    }
}

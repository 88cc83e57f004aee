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
//! # Runs
//!
//! A Mach page is a power-of-two run of hardware frames (eight 512-byte
//! frames to a 4 KB page on the uVAX), and the machine-independent layer
//! maps, unmaps and retires whole Mach pages. Every method therefore
//! takes a run of frames, `first..first + n` (a single frame is a run of
//! one), and the methods that read entries out return them as
//! [`PvRun`]s: one pmap mapping consecutive frames at consecutive
//! hardware pages. A physical-page operation visits a Mach page once and
//! calls each pmap once per run, not once per frame.
//!
//! # Concurrency
//!
//! Every `pmap_enter` and `pmap_remove` on every CPU passes through this
//! table, so it is split into [`PV_SHARDS`] shards by frame number. A
//! shard owns whole [`STRIPE_BYTES`] stripes of physical memory (the
//! default Mach page), so one Mach page's hardware frames share a shard
//! and consecutive pages land on consecutive shards. A shard's records
//! are its stripes' frames in address order, allocated on the shard's
//! first write, so booting allocates none. Each method locks a shard once
//! per stripe its run covers, one shard at a time (an all-zero
//! [`PvTable::merge_attrs`] locks nothing), and calls out to nothing while
//! holding it — in particular it never upgrades a [`PvRun::mapper`],
//! which could make it the last owner of a pmap whose destructor
//! re-enters this table. A pv shard is therefore a leaf below every
//! port's lock ([`crate::chassis::HwTables::lock`]), and no operation
//! holds two shards (DESIGN.md §8).

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

/// One frame's reverse-map entry: a pmap and the virtual address mapping
/// the frame.
#[derive(Clone)]
struct PvEntry {
    /// The mapping pmap (weak: a dropped pmap's entries are ignored).
    mapper: Weak<dyn HwMapper>,
    /// The pmap's [`HwMapper::mapper_id`], so entries match without an
    /// upgrade.
    mapper_id: u64,
    /// The virtual address of the mapping within that pmap.
    va: VAddr,
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

/// Mappings of a run of frames by one pmap: frames `first..first + n`
/// at the hardware pages from `va` on, in step.
#[derive(Clone)]
pub struct PvRun {
    /// The mapping pmap (weak: upgrade it only outside the table).
    pub mapper: Weak<dyn HwMapper>,
    /// The pmap's [`HwMapper::mapper_id`].
    pub mapper_id: u64,
    /// The virtual address mapping `first`.
    pub va: VAddr,
    /// The run's first frame.
    pub first: Pfn,
    /// Frames in the run.
    pub n: u64,
}

impl std::fmt::Debug for PvRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PvRun")
            .field("mapper_id", &self.mapper_id)
            .field("va", &self.va)
            .field("first", &self.first)
            .field("n", &self.n)
            .finish()
    }
}

/// Append `frame`'s entry `e` to `runs`: onto the run it continues (same
/// pmap, the next frame at the next page), else as a new run.
fn join(runs: &mut Vec<PvRun>, frame: Pfn, e: PvEntry, page: u64) {
    let continued = runs.iter_mut().find(|r| {
        r.mapper_id == e.mapper_id && r.first.0 + r.n == frame.0 && r.va + r.n * page == e.va
    });
    match continued {
        Some(r) => r.n += 1,
        None => runs.push(PvRun {
            mapper: e.mapper,
            mapper_id: e.mapper_id,
            va: e.va,
            first: frame,
            n: 1,
        }),
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
    fn take(&mut self) -> impl Iterator<Item = PvEntry> {
        self.first
            .take()
            .into_iter()
            .chain(std::mem::take(&mut self.aliases))
    }
}

/// One shard's records, by local index (see [`PvTable::locate`]); empty
/// until the shard's first write.
type Shard = Vec<PvFrame>;

/// The physical→virtual table plus stolen attribute bits.
#[derive(Debug)]
pub struct PvTable {
    shards: Box<[KernelMutex<Shard>]>,
    /// Hardware page size: the distance between a run's addresses.
    page: u64,
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
            page: hw_page_size,
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

    /// Run `f` on the records of frames `first..first + n` in order, with
    /// each frame's index in the run, locking a shard once per stripe the
    /// run covers. `write` allocates a never-written shard's records;
    /// otherwise its frames, all empty, are skipped.
    fn visit(&self, first: Pfn, n: u64, write: bool, mut f: impl FnMut(usize, &mut PvFrame)) {
        let end = first.0 + n;
        let mut frame = first.0;
        while frame < end {
            let stripe_end = ((frame >> self.stripe_shift) + 1) << self.stripe_shift;
            let chunk = stripe_end.min(end) - frame;
            let (shard, local) = self.locate(Pfn(frame));
            let mut records = self.shards[shard].lock();
            if records.is_empty() && write {
                records.resize_with(self.shard_frames, PvFrame::default);
            }
            if !records.is_empty() {
                let at = (frame - first.0) as usize;
                for (i, rec) in records[local..local + chunk as usize]
                    .iter_mut()
                    .enumerate()
                {
                    f(at + i, rec);
                }
            }
            frame += chunk;
        }
    }

    /// Record that `mapper` (identity `mapper_id`) maps frames
    /// `first..first + n` at the hardware pages from `va` on.
    pub fn add(&self, first: Pfn, n: u64, mapper: &Weak<dyn HwMapper>, mapper_id: u64, va: VAddr) {
        self.visit(first, n, true, |i, rec| {
            let va = va + i as u64 * self.page;
            // A duplicate (same pmap, same va) is already recorded.
            if !rec
                .entries()
                .any(|e| e.mapper_id == mapper_id && e.va == va)
            {
                rec.push(PvEntry {
                    mapper: mapper.clone(),
                    mapper_id,
                    va,
                });
            }
        });
    }

    /// Remove `mapper_id`'s entries for frames `first..` at the hardware
    /// pages from `va` on, one frame for each of `attrs`, and OR in each
    /// frame's `attrs`, the bits harvested from its dying hardware
    /// mapping. Dead entries met on the way are dropped.
    pub fn remove(&self, first: Pfn, mapper_id: u64, va: VAddr, attrs: &[u8]) {
        self.visit(first, attrs.len() as u64, true, |i, rec| {
            let va = va + i as u64 * self.page;
            rec.retain(|e| e.is_live() && !(e.mapper_id == mapper_id && e.va == va));
            rec.attrs |= attrs[i];
        });
    }

    /// Take (remove and return, as runs) every live entry of frames
    /// `first..first + n`, and clear the `forget` bits from their stolen
    /// attributes.
    pub fn take(&self, first: Pfn, n: u64, forget: u8) -> Vec<PvRun> {
        let mut runs = Vec::new();
        self.visit(first, n, false, |i, rec| {
            rec.attrs &= !forget;
            for e in rec.take().filter(PvEntry::is_live) {
                join(&mut runs, Pfn(first.0 + i as u64), e, self.page);
            }
        });
        runs
    }

    /// Copy every live entry of frames `first..first + n`, as runs, and
    /// return them with the frames' stolen attribute bits OR-ed together;
    /// then clear the `forget` bits from those attributes.
    pub fn list(&self, first: Pfn, n: u64, forget: u8) -> (u8, Vec<PvRun>) {
        let (mut attrs, mut runs) = (0, Vec::new());
        self.visit(first, n, false, |i, rec| {
            attrs |= rec.attrs;
            rec.attrs &= !forget;
            for e in rec.live() {
                join(&mut runs, Pfn(first.0 + i as u64), e.clone(), self.page);
            }
        });
        (attrs, runs)
    }

    /// Number of live mappings of frames `first..first + n`.
    pub fn mapping_count(&self, first: Pfn, n: u64) -> usize {
        let mut count = 0;
        self.visit(first, n, false, |_, rec| count += rec.live().count());
        count
    }

    /// OR `bits[i]` into the stolen attributes of frame `first + i`.
    pub fn merge_attrs(&self, first: Pfn, bits: &[u8]) {
        if bits.iter().all(|&b| b == 0) {
            return;
        }
        self.visit(first, bits.len() as u64, true, |i, rec| {
            rec.attrs |= bits[i]
        });
    }

    /// Clear the `bits` of frames `first..first + n`'s stolen attributes.
    pub fn clear_attrs(&self, first: Pfn, n: u64, bits: u8) {
        self.visit(first, n, false, |_, rec| rec.attrs &= !bits);
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
        fn clear_hw(&self, _va: VAddr, _first: Pfn, _attrs: &mut [u8]) -> bool {
            true
        }
        fn protect_hw(&self, _va: VAddr, _n: u64, _prot: HwProt) {}
        fn read_mr(&self, _va: VAddr, _n: u64) -> (bool, bool) {
            (false, false)
        }
        fn clear_mr(&self, _va: VAddr, _n: u64, _clear_mod: bool, _clear_ref: bool) {}
        fn space_vpn(&self, va: VAddr, n: u64, tags: &mut Vec<(u32, u64)>) {
            tags.extend((0..n).map(|i| (0, va.0 + i)));
        }
        fn cpus_cached(&self) -> u64 {
            0
        }
    }

    impl Drop for SelfReleasing {
        fn drop(&mut self) {
            self.pv.remove(FRAME, ID, VA, &[0]);
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
            pv.add(
                FRAME,
                1,
                &(Arc::downgrade(&m) as Weak<dyn HwMapper>),
                ID,
                VA,
            );
            drop(m);
            // Another pmap's mapping of the same frame goes away.
            pv.remove(FRAME, ID + 1, VAddr(0x4000), &[ATTR_REF]);
            let count = pv.mapping_count(FRAME, 1);
            // Outside the table, the last reference may go: the
            // destructor's own removal then takes the entry out.
            let m = pv.list(FRAME, 1, 0).1[0]
                .mapper
                .upgrade()
                .expect("kept alive");
            assert_eq!(m.mapper_id(), ID);
            drop(m);
            done.send((count, pv.mapping_count(FRAME, 1), pv.list(FRAME, 1, 0).0))
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
        fn clear_hw(&self, _va: VAddr, _first: Pfn, _attrs: &mut [u8]) -> bool {
            true
        }
        fn protect_hw(&self, _va: VAddr, _n: u64, _prot: HwProt) {}
        fn read_mr(&self, _va: VAddr, _n: u64) -> (bool, bool) {
            (false, false)
        }
        fn clear_mr(&self, _va: VAddr, _n: u64, _clear_mod: bool, _clear_ref: bool) {}
        fn space_vpn(&self, va: VAddr, n: u64, tags: &mut Vec<(u32, u64)>) {
            tags.extend((0..n).map(|i| (0, va.0 + i)));
        }
        fn cpus_cached(&self) -> u64 {
            0
        }
    }

    /// Every `(frame, mapper_id, va)` the runs cover, sorted.
    fn expand(runs: &[PvRun], page: u64) -> Vec<(u64, u64, VAddr)> {
        let mut all: Vec<_> = runs
            .iter()
            .flat_map(|r| (0..r.n).map(move |i| (r.first.0 + i, r.mapper_id, r.va + i * page)))
            .collect();
        all.sort_unstable();
        all
    }

    /// Whether no two runs could be one: a run never continues another.
    fn maximal(runs: &[PvRun], page: u64) -> bool {
        runs.iter().all(|a| {
            !runs.iter().any(|b| {
                a.mapper_id == b.mapper_id
                    && a.first.0 + a.n == b.first.0
                    && a.va + a.n * page == b.va
            })
        })
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

    /// The reference for a pv table: frame → (stored entries, stolen bits).
    type PvModel = HashMap<u64, (Vec<(u64, VAddr)>, u8)>;

    /// A seeded stream of every `PvTable` call, each on a run of one to
    /// three frames from one of a few starting frames at stripe and
    /// table edges, checked after each call against a map from frame to
    /// (stored entries, stolen bits). Three pmaps share the frames at
    /// three addresses, so frames gather aliases and duplicates and runs
    /// overlap and cross stripes; a pmap is now and then dropped while
    /// still mapped, and `remove` must prune its dead entries.
    fn pv_matches_a_reference_model(page: u64, n_frames: u64, seed: u64) {
        const OPS: usize = 20_000;
        let pv = PvTable::new(page, n_frames);
        let stripe = (STRIPE_BYTES / page).max(1);
        let mut starts = vec![
            0,
            stripe - 1,
            stripe,
            PV_SHARDS as u64 * stripe,
            PV_SHARDS as u64 * stripe + 1,
            n_frames - 3,
            n_frames - 1,
        ];
        starts.dedup();
        let mut next_id = 1;
        let mut pmaps: Vec<Arc<dyn HwMapper>> = (0..3)
            .map(|_| {
                next_id += 1;
                Arc::new(Stub(next_id)) as Arc<dyn HwMapper>
            })
            .collect();
        let mut model = PvModel::new();
        let (mut most_pmaps, mut pruned, mut edges_mapped) = (0, 0, [false; 2]);
        let (mut longest_run, mut crossed) = (0, false);
        let mut state = seed;
        for step in 0..OPS {
            let r = next(&mut state);
            let first = starts[(r >> 8) as usize % starts.len()];
            let n = (1 + (r >> 40) % 3).min(n_frames - first);
            let run: Vec<u64> = (first..first + n).collect();
            let k = (r >> 16) as usize % pmaps.len();
            let id = pmaps[k].mapper_id();
            let va = VAddr(0x1000 * ((r >> 24) % 3));
            let bits: Vec<u8> = (0..n).map(|i| ((r >> (32 + 2 * i)) % 4) as u8).collect();
            let live_ids: Vec<u64> = pmaps.iter().map(|m| m.mapper_id()).collect();
            let live = |e: &(u64, VAddr)| live_ids.contains(&e.0);
            let va_of = |i: usize| va + i as u64 * page;
            let want_live = |model: &PvModel| {
                let mut all: Vec<(u64, u64, VAddr)> = run
                    .iter()
                    .flat_map(|f| {
                        let entries = model.get(f).map_or(&[][..], |w| &w.0[..]);
                        entries
                            .iter()
                            .filter(|e| live(e))
                            .map(move |&(id, va)| (*f, id, va))
                    })
                    .collect();
                all.sort_unstable();
                all
            };
            let want_attrs = |model: &PvModel| {
                run.iter()
                    .fold(0, |a, f| a | model.get(f).map_or(0, |w| w.1))
            };
            let at = format!("step {step}: frames {first}+{n}, op {}", r % 16);
            let check_runs = |runs: &[PvRun], want: Vec<(u64, u64, VAddr)>| {
                assert_eq!(expand(runs, page), want, "{at}");
                assert!(maximal(runs, page), "{at}: runs {runs:?} not joined");
                runs.iter().map(|r| r.n).max().unwrap_or(0)
            };
            let mut seen = 0;
            match r % 16 {
                0..=4 => {
                    pv.add(Pfn(first), n, &Arc::downgrade(&pmaps[k]), id, va);
                    for (i, f) in run.iter().enumerate() {
                        let want = model.entry(*f).or_default();
                        if !want.0.contains(&(id, va_of(i))) {
                            want.0.push((id, va_of(i)));
                        }
                    }
                }
                5..=7 => {
                    pv.remove(Pfn(first), id, va, &bits);
                    for (i, f) in run.iter().enumerate() {
                        let want = model.entry(*f).or_default();
                        let was_live = want.0.iter().any(|e| live(e) && *e == (id, va_of(i)));
                        let before = want.0.len();
                        want.0.retain(|e| live(e) && *e != (id, va_of(i)));
                        pruned += before - want.0.len() - usize::from(was_live);
                        want.1 |= bits[i];
                    }
                }
                8 | 9 => {
                    let forget = if r % 16 == 9 {
                        ATTR_MOD | ATTR_REF
                    } else {
                        bits[0]
                    };
                    seen = check_runs(&pv.take(Pfn(first), n, forget), want_live(&model));
                    for f in &run {
                        let want = model.entry(*f).or_default();
                        want.0.clear();
                        want.1 &= !forget;
                    }
                }
                10 | 11 => {
                    let forget = if r % 16 == 11 { bits[0] } else { 0 };
                    let (attrs, runs) = pv.list(Pfn(first), n, forget);
                    assert_eq!(attrs, want_attrs(&model), "{at}");
                    seen = check_runs(&runs, want_live(&model));
                    assert_eq!(
                        pv.mapping_count(Pfn(first), n),
                        want_live(&model).len(),
                        "{at}"
                    );
                    for f in &run {
                        model.entry(*f).or_default().1 &= !forget;
                    }
                }
                12 => {
                    pv.merge_attrs(Pfn(first), &bits);
                    for (i, f) in run.iter().enumerate() {
                        model.entry(*f).or_default().1 |= bits[i];
                    }
                }
                13 => {
                    pv.clear_attrs(Pfn(first), n, bits[0]);
                    for f in &run {
                        model.entry(*f).or_default().1 &= !bits[0];
                    }
                }
                _ => {
                    // The pmap goes while still mapped; its entries die.
                    next_id += 1;
                    pmaps[k] = Arc::new(Stub(next_id));
                }
            }
            longest_run = longest_run.max(seen);
            crossed |= seen > 1 && first % stripe == stripe - 1;
            for f in &run {
                let want = model.get(f).cloned().unwrap_or_default();
                assert_eq!(stored(&pv, Pfn(*f)), want, "{at}: frame {f}");
                let mut distinct: Vec<u64> = want.0.iter().map(|e| e.0).collect();
                distinct.sort_unstable();
                distinct.dedup();
                most_pmaps = most_pmaps.max(distinct.len());
                if !want.0.is_empty() {
                    edges_mapped[0] |= *f == 0;
                    edges_mapped[1] |= *f == n_frames - 1;
                }
            }
        }
        for (&f, want) in &model {
            assert_eq!(stored(&pv, Pfn(f)), *want, "frame {f} at the end");
        }
        assert!(most_pmaps >= 3, "three pmaps met on a frame");
        assert!(pruned > 0, "remove pruned a dropped pmap's entries");
        assert_eq!(edges_mapped, [true; 2], "frame 0 and the last frame mapped");
        assert_eq!(longest_run, 3, "a run of three frames read out as one run");
        assert!(crossed, "a run read out across a stripe edge");
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

    /// Reading a page's entries out joins each pmap's mappings of
    /// consecutive frames at consecutive pages into one run, and no more:
    /// a pmap mapping the page at two addresses, or mapping part of it,
    /// has a run for each.
    #[test]
    fn entries_read_out_as_runs() {
        const PAGE: u64 = 512;
        let pv = PvTable::new(PAGE, 64);
        let (a, b): (Arc<dyn HwMapper>, Arc<dyn HwMapper>) = (Arc::new(Stub(1)), Arc::new(Stub(2)));
        pv.add(Pfn(8), 8, &Arc::downgrade(&a), 1, VAddr(0x10000));
        pv.add(Pfn(8), 8, &Arc::downgrade(&a), 1, VAddr(0x20000));
        pv.add(Pfn(10), 3, &Arc::downgrade(&b), 2, VAddr(0x4000));
        pv.add(Pfn(14), 2, &Arc::downgrade(&b), 2, VAddr(0x4000 + 4 * PAGE));
        let shape = |runs: Vec<PvRun>| -> Vec<(u64, VAddr, u64, u64)> {
            runs.iter()
                .map(|r| (r.mapper_id, r.va, r.first.0, r.n))
                .collect()
        };
        let want = vec![
            (1, VAddr(0x10000), 8, 8),
            (1, VAddr(0x20000), 8, 8),
            (2, VAddr(0x4000), 10, 3),
            (2, VAddr(0x4000 + 4 * PAGE), 14, 2),
        ];
        assert_eq!(shape(pv.list(Pfn(8), 8, 0).1), want);
        assert_eq!(pv.mapping_count(Pfn(8), 8), 21);
        // Part of the page: the runs are cut to it.
        assert_eq!(
            shape(pv.list(Pfn(11), 2, 0).1),
            vec![
                (1, VAddr(0x10000 + 3 * PAGE), 11, 2),
                (1, VAddr(0x20000 + 3 * PAGE), 11, 2),
                (2, VAddr(0x4000 + PAGE), 11, 2)
            ]
        );
        pv.remove(Pfn(9), 1, VAddr(0x10000 + PAGE), &[ATTR_MOD]);
        assert_eq!(
            shape(pv.take(Pfn(8), 8, 0)),
            vec![
                (1, VAddr(0x10000), 8, 1),
                (1, VAddr(0x20000), 8, 8),
                (1, VAddr(0x10000 + 2 * PAGE), 10, 6),
                (2, VAddr(0x4000), 10, 3),
                (2, VAddr(0x4000 + 4 * PAGE), 14, 2),
            ]
        );
        let (attrs, runs) = pv.list(Pfn(8), 8, 0);
        assert_eq!((attrs, runs.len()), (ATTR_MOD, 0), "taken, the bits stay");
    }

    /// Each call locks its run's shard once per stripe the run covers,
    /// and an all-zero `merge_attrs` none: BENCH `locks` rows count these.
    #[test]
    fn each_call_takes_its_shard_lock_once_per_stripe() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let page = machine.hw_page_size();
        let stripe = STRIPE_BYTES / page;
        let pv = PvTable::new(page, machine.phys().size() / page);
        let m: Arc<dyn HwMapper> = Arc::new(Stub(1));
        let m = Arc::downgrade(&m);
        let _bound = machine.bind_cpu(0);
        machine.locks.enable();
        let acquisitions = || machine.locks.report()[LockSite::PvShard.rank()].acquisitions;
        let mut last = acquisitions();
        let mut took = |n: u64, call: &str| {
            let now = acquisitions();
            assert_eq!(now - last, n, "{call}");
            last = now;
        };
        let (page_first, across) = (Pfn(stripe), Pfn(stripe + stripe / 2));
        let zeros = vec![0; stripe as usize];
        let mods = vec![ATTR_MOD; stripe as usize];
        for (first, stripes) in [(FRAME, 1), (page_first, 1), (across, 2)] {
            let n = if first == FRAME { 1 } else { stripe };
            let va = VAddr(0x10000 * first.0);
            let at = |call: &str| format!("{call} of {n} frames from {first:?}");
            pv.add(first, n, &m, 1, va);
            took(stripes, &at("add"));
            pv.add(first, n, &m, 1, va + 0x1000);
            took(stripes, &at("add of an alias"));
            pv.list(first, n, 0);
            took(stripes, &at("list"));
            pv.mapping_count(first, n);
            took(stripes, &at("mapping_count"));
            pv.merge_attrs(first, &zeros[..n as usize]);
            took(0, &at("all-zero merge_attrs"));
            pv.merge_attrs(first, &mods[..n as usize]);
            took(stripes, &at("merge_attrs"));
            pv.clear_attrs(first, n, ATTR_MOD);
            took(stripes, &at("clear_attrs"));
            pv.remove(first, 1, va, &mods[..n as usize]);
            took(stripes, &at("remove"));
            pv.take(first, n, 0);
            took(stripes, &at("take"));
            pv.take(first, n, ATTR_MOD | ATTR_REF);
            took(stripes, &at("take, forgetting"));
        }
        pv.list(Pfn(9999), 1, 0);
        took(1, "list of a frame in an unwritten shard");
        machine.locks.disable();
    }
}

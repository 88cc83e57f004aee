//! Entering and removing a singly-mapped frame, or a run of them,
//! allocates nothing once the frames' pv shards hold their records: a
//! frame's first mapping lives inline in its record, found by frame
//! number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mach_hw::addr::{HwProt, VAddr};
use mach_hw::Pfn;
use mach_pmap::pv::{PvTable, ATTR_MOD, ATTR_REF};
use mach_pmap::HwMapper;

/// Allocations (and reallocations) made by threads while their
/// [`COUNTING`] flag is set.
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator, counting.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which meets the `GlobalAlloc` contract; counting reads a
// const-initialised thread-local and bumps an atomic, and neither
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees about `layout` hold for `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this
        // allocator) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` was allocated by `System` with `layout`, and the
        // caller's guarantees about `new_size` hold for `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// A pmap stand-in with nothing but an identity.
struct Stub;

const ID: u64 = 7;

impl HwMapper for Stub {
    fn mapper_id(&self) -> u64 {
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

/// 1 000 `add`+`remove` cycles on singly-mapped 512-byte frames, spread
/// over every shard, allocate nothing after one warm-up pass, whether a
/// cycle maps one frame or a 4 KB Mach page's run of eight. Half the
/// runs leave their mapping clean; the other half come back referenced
/// and are then freed, as `page_free` frees them.
#[test]
fn add_remove_of_singly_mapped_frames_allocates_nothing() {
    const CYCLES: u64 = 1_000;
    let pv = PvTable::new(512, 8 * 4096);
    let pmap: Arc<dyn HwMapper> = Arc::new(Stub);
    let weak = Arc::downgrade(&pmap);
    let cycles = |n: u64| {
        for i in 0..CYCLES {
            let (first, va) = (Pfn(i * n), VAddr(0x10000 + i * n * 512));
            pv.add(first, n, &weak, ID, va);
            let attrs = if i % 2 == 1 { [ATTR_REF; 8] } else { [0; 8] };
            pv.remove(first, ID, va, &attrs[..n as usize]);
            if attrs[0] != 0 {
                assert!(pv.take(first, n, ATTR_MOD | ATTR_REF).is_empty());
            }
        }
    };
    for n in [1, 8] {
        cycles(n);
        assert_eq!(allocations(|| cycles(n)), 0, "runs of {n}");
        assert_eq!(pv.mapping_count(Pfn(0), 2 * n), 0);
    }
}

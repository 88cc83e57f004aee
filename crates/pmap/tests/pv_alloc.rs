//! Entering and removing a singly-mapped frame allocates nothing once
//! the frame's pv shard holds its records: the frame's first mapping
//! lives inline in its record, found by frame number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mach_hw::addr::{HwProt, VAddr};
use mach_hw::Pfn;
use mach_pmap::pv::{PvTable, ATTR_REF};
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

/// 1 000 `add`+`remove` cycles on singly-mapped 512-byte frames, spread
/// over every shard, allocate nothing after one warm-up pass. Half the
/// frames leave their mapping clean; the other half come back
/// referenced and are then freed, as `page_free` frees them.
#[test]
fn add_remove_of_singly_mapped_frames_allocates_nothing() {
    const CYCLES: u64 = 1_000;
    let pv = PvTable::new(512, 4096);
    let pmap: Arc<dyn HwMapper> = Arc::new(Stub);
    let weak = Arc::downgrade(&pmap);
    let cycles = || {
        for i in 0..CYCLES {
            let (frame, va) = (Pfn(i), VAddr(0x10000 + i * 512));
            pv.add(frame, weak.clone(), ID, va);
            let attrs = if i % 2 == 1 { ATTR_REF } else { 0 };
            pv.remove(frame, ID, va, attrs);
            if attrs != 0 {
                assert!(pv.release(frame).is_empty());
            }
        }
    };
    cycles();
    assert_eq!(allocations(cycles), 0);
    assert_eq!(pv.mapping_count(Pfn(0)) + pv.mapping_count(Pfn(1)), 0);
}

//! Simulated physical memory and the boot-time frame allocator.
//!
//! Physical memory is a byte array with optional *holes* — the SUN 3 places
//! display memory at high physical addresses, leaving unpopulated ranges
//! that the resident page table must cope with (paper §5.1). Accessing a
//! hole or an out-of-range address is a bus error.
//!
//! Storage is striped across chunk locks so that several simulated CPUs can
//! access disjoint pages concurrently, as on a real shared-memory bus. A
//! stripe is allocated on its first write: until then it reads as zeros,
//! so booting a machine costs no host memory for RAM nothing has used.

use std::ops::Range;

use parking_lot::RwLock;

use crate::addr::{PAddr, Pfn};

const CHUNK_SHIFT: u32 = 16; // 64 KiB per lock stripe
const CHUNK_SIZE: u64 = 1 << CHUNK_SHIFT;

/// One lock stripe: `None` until first written (all zeros).
type Stripe = RwLock<Option<Box<[u8]>>>;

/// An invalid physical access (out of range or into a hole).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusError {
    /// The offending physical address.
    pub pa: PAddr,
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bus error at {}", self.pa)
    }
}

impl std::error::Error for BusError {}

/// Byte-addressable simulated physical memory.
///
/// # Examples
///
/// ```
/// use mach_hw::phys::PhysMem;
/// use mach_hw::addr::PAddr;
/// let mem = PhysMem::new(1 << 20, Vec::new());
/// mem.write_u32(PAddr(0x100), 0xDEAD_BEEF)?;
/// assert_eq!(mem.read_u32(PAddr(0x100))?, 0xDEAD_BEEF);
/// # Ok::<(), mach_hw::phys::BusError>(())
/// ```
#[derive(Debug)]
pub struct PhysMem {
    size: u64,
    holes: Vec<Range<u64>>,
    chunks: Vec<Stripe>,
}

impl PhysMem {
    /// Create `size` bytes of physical memory with the given holes.
    ///
    /// Holes still occupy address space (like the SUN 3 display adapter)
    /// but cannot be read or written through this interface.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero or any hole lies outside `0..size`.
    pub fn new(size: u64, holes: Vec<Range<u64>>) -> PhysMem {
        assert!(size > 0, "physical memory must be non-empty");
        for h in &holes {
            assert!(h.start < h.end && h.end <= size, "hole out of range");
        }
        let n_chunks = size.div_ceil(CHUNK_SIZE) as usize;
        PhysMem {
            size,
            holes,
            chunks: (0..n_chunks).map(|_| RwLock::new(None)).collect(),
        }
    }

    /// Run `f` on stripe `chunk`'s bytes under its write lock, allocating
    /// the stripe (zeroed) on its first write.
    fn with_stripe_mut<R>(&self, chunk: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut guard = self.chunks[chunk].write();
        let len = (self.size - chunk as u64 * CHUNK_SIZE).min(CHUNK_SIZE) as usize;
        f(guard.get_or_insert_with(|| vec![0u8; len].into_boxed_slice()))
    }

    /// Total address-space size in bytes (including holes).
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The configured holes.
    pub fn holes(&self) -> &[Range<u64>] {
        &self.holes
    }

    /// True if `pa` falls inside a hole.
    pub fn is_hole(&self, pa: PAddr) -> bool {
        self.holes.iter().any(|h| h.contains(&pa.0))
    }

    fn check(&self, pa: PAddr, len: u64) -> Result<(), BusError> {
        if pa.0.checked_add(len).is_none_or(|end| end > self.size) {
            return Err(BusError { pa });
        }
        for h in &self.holes {
            if pa.0 < h.end && pa.0 + len > h.start {
                return Err(BusError { pa });
            }
        }
        Ok(())
    }

    /// Read `buf.len()` bytes starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`BusError`] if the range leaves memory or touches a hole.
    pub fn read(&self, pa: PAddr, buf: &mut [u8]) -> Result<(), BusError> {
        self.check(pa, buf.len() as u64)?;
        for (chunk, within, at, take) in pieces(pa, buf.len()) {
            let dst = &mut buf[at..at + take];
            match &*self.chunks[chunk].read() {
                Some(bytes) => dst.copy_from_slice(&bytes[within..within + take]),
                None => dst.fill(0),
            }
        }
        Ok(())
    }

    /// Write `buf` starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`BusError`] if the range leaves memory or touches a hole.
    pub fn write(&self, pa: PAddr, buf: &[u8]) -> Result<(), BusError> {
        self.check(pa, buf.len() as u64)?;
        for (chunk, within, at, take) in pieces(pa, buf.len()) {
            self.with_stripe_mut(chunk, |bytes| {
                bytes[within..within + take].copy_from_slice(&buf[at..at + take]);
            });
        }
        Ok(())
    }

    /// Read a little-endian `u32` (PTE-sized) at `pa`.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::read`].
    pub fn read_u32(&self, pa: PAddr) -> Result<u32, BusError> {
        let mut b = [0u8; 4];
        self.read(pa, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Write a little-endian `u32` at `pa`.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::write`].
    pub fn write_u32(&self, pa: PAddr, v: u32) -> Result<(), BusError> {
        self.write(pa, &v.to_le_bytes())
    }

    /// Atomically apply `f` to the `u32` at `pa`, returning the old value.
    ///
    /// Used by table walkers to set reference/modify bits without racing
    /// other CPUs' walks.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::read`].
    pub fn update_u32(&self, pa: PAddr, f: impl FnOnce(u32) -> u32) -> Result<u32, BusError> {
        self.check(pa, 4)?;
        let chunk = (pa.0 >> CHUNK_SHIFT) as usize;
        let within = (pa.0 & (CHUNK_SIZE - 1)) as usize;
        // A PTE never straddles a 64 KiB stripe (stripes are PTE-aligned).
        if within + 4 <= CHUNK_SIZE as usize {
            Ok(self.with_stripe_mut(chunk, |bytes| {
                let old = u32::from_le_bytes(bytes[within..within + 4].try_into().unwrap());
                bytes[within..within + 4].copy_from_slice(&f(old).to_le_bytes());
                old
            }))
        } else {
            let old = self.read_u32(pa)?;
            self.write_u32(pa, f(old))?;
            Ok(old)
        }
    }

    /// Zero `len` bytes starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::write`].
    pub fn zero(&self, pa: PAddr, len: u64) -> Result<(), BusError> {
        self.check(pa, len)?;
        for (chunk, within, _, take) in pieces(pa, len as usize) {
            // A stripe never written is zero already: leave it unallocated.
            if let Some(bytes) = self.chunks[chunk].write().as_mut() {
                bytes[within..within + take].fill(0);
            }
        }
        Ok(())
    }

    /// Copy `len` bytes from `src` to `dst` (ranges must not overlap).
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::read`].
    ///
    /// # Panics
    ///
    /// Panics if the ranges overlap.
    pub fn copy(&self, src: PAddr, dst: PAddr, len: u64) -> Result<(), BusError> {
        assert!(
            src.0 + len <= dst.0 || dst.0 + len <= src.0,
            "overlapping physical copy"
        );
        // Bounce through a host buffer; page-sized, so cheap.
        let mut buf = vec![0u8; len as usize];
        self.read(src, &mut buf)?;
        self.write(dst, &buf)
    }
}

/// The stripe pieces of the `len` bytes at `pa`, as `(stripe, offset in
/// the stripe, offset in the range, length)`.
fn pieces(pa: PAddr, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let off = pa.0 + done as u64;
            let within = (off & (CHUNK_SIZE - 1)) as usize;
            let take = (CHUNK_SIZE as usize - within).min(len - done);
            let piece = ((off >> CHUNK_SHIFT) as usize, within, done, take);
            done += take;
            piece
        })
    })
}

/// Boot-time allocator of hardware page frames.
///
/// The machine-dependent layer takes frames from here for hardware tables
/// (`pmap_init`); the machine-independent resident page table claims the
/// rest. Frames inside holes are never handed out.
#[derive(Debug)]
pub struct FrameAlloc {
    page_size: u64,
    inner: parking_lot::Mutex<FrameAllocInner>,
}

#[derive(Debug)]
struct FrameAllocInner {
    // Free frames, kept sorted so contiguous runs can be found (the VAX
    // needs physically contiguous page tables).
    free: std::collections::BTreeSet<u64>,
}

impl FrameAlloc {
    /// Build an allocator over all non-hole frames of `mem`, excluding the
    /// first `reserved` bytes (boot/kernel image).
    ///
    /// # Panics
    ///
    /// Panics if `page_size` is not a power of two.
    pub fn new(mem: &PhysMem, page_size: u64, reserved: u64) -> FrameAlloc {
        assert!(page_size.is_power_of_two());
        let mut free = std::collections::BTreeSet::new();
        let first = reserved.div_ceil(page_size);
        for pfn in first..mem.size() / page_size {
            let base = pfn * page_size;
            let in_hole = mem
                .holes()
                .iter()
                .any(|h| base < h.end && base + page_size > h.start);
            if !in_hole {
                free.insert(pfn);
            }
        }
        FrameAlloc {
            page_size,
            inner: parking_lot::Mutex::new(FrameAllocInner { free }),
        }
    }

    /// The hardware page size this allocator deals in.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// Number of free frames.
    pub fn free_count(&self) -> usize {
        self.inner.lock().free.len()
    }

    /// Allocate one frame.
    pub fn alloc(&self) -> Option<Pfn> {
        let mut g = self.inner.lock();
        let pfn = *g.free.iter().next()?;
        g.free.remove(&pfn);
        Some(Pfn(pfn))
    }

    /// Allocate `n` physically contiguous frames, returning the first.
    pub fn alloc_contig(&self, n: u64) -> Option<Pfn> {
        if n == 0 {
            return None;
        }
        let mut g = self.inner.lock();
        let mut run_start = None;
        let mut run_len = 0u64;
        let mut prev = None;
        let mut found = None;
        for &pfn in g.free.iter() {
            match prev {
                Some(p) if pfn == p + 1 => run_len += 1,
                _ => {
                    run_start = Some(pfn);
                    run_len = 1;
                }
            }
            prev = Some(pfn);
            if run_len == n {
                found = run_start;
                break;
            }
        }
        let start = found?;
        for pfn in start..start + n {
            g.free.remove(&pfn);
        }
        Some(Pfn(start))
    }

    /// Return a frame to the pool.
    ///
    /// # Panics
    ///
    /// Panics on double free.
    pub fn free(&self, pfn: Pfn) {
        let mut g = self.inner.lock();
        assert!(g.free.insert(pfn.0), "double free of {pfn}");
    }

    /// Return `n` contiguous frames starting at `start`.
    pub fn free_contig(&self, start: Pfn, n: u64) {
        let mut g = self.inner.lock();
        for pfn in start.0..start.0 + n {
            assert!(g.free.insert(pfn), "double free of pfn:{pfn}");
        }
    }

    /// Drain every remaining frame, handing them to the caller.
    ///
    /// The machine-independent layer uses this at boot to claim all
    /// remaining physical memory for the resident page table.
    pub fn drain(&self) -> Vec<Pfn> {
        let mut g = self.inner.lock();
        let out = g.free.iter().map(|&p| Pfn(p)).collect();
        g.free.clear();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let m = PhysMem::new(256 * 1024, Vec::new());
        m.write(PAddr(70_000), b"hello across a chunk").unwrap();
        let mut buf = [0u8; 20];
        m.read(PAddr(70_000), &mut buf).unwrap();
        assert_eq!(&buf, b"hello across a chunk");
    }

    #[test]
    fn straddles_chunk_boundary() {
        let m = PhysMem::new(256 * 1024, Vec::new());
        let pa = PAddr((1 << 16) - 3);
        m.write(pa, &[1, 2, 3, 4, 5, 6]).unwrap();
        let mut buf = [0u8; 6];
        m.read(pa, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn out_of_range_is_bus_error() {
        let m = PhysMem::new(4096, Vec::new());
        let mut b = [0u8; 8];
        assert!(m.read(PAddr(4092), &mut b).is_err());
        assert!(m.write(PAddr(4096), &[0]).is_err());
        assert!(m.read(PAddr(u64::MAX), &mut b).is_err());
    }

    #[test]
    fn holes_are_bus_errors() {
        let m = PhysMem::new(64 * 1024, vec![8192..16384]);
        assert!(m.is_hole(PAddr(9000)));
        assert!(!m.is_hole(PAddr(0)));
        let mut b = [0u8; 4];
        assert!(m.read(PAddr(9000), &mut b).is_err());
        // A range overlapping the hole's edge also faults.
        assert!(m.write(PAddr(8190), &[0, 0, 0, 0]).is_err());
        // Just outside is fine.
        m.write(PAddr(8188), &[0, 0, 0, 0]).unwrap();
        m.write(PAddr(16384), &[1]).unwrap();
    }

    #[test]
    fn u32_and_update() {
        let m = PhysMem::new(4096, Vec::new());
        m.write_u32(PAddr(8), 7).unwrap();
        let old = m.update_u32(PAddr(8), |v| v | 0x100).unwrap();
        assert_eq!(old, 7);
        assert_eq!(m.read_u32(PAddr(8)).unwrap(), 0x107);
    }

    #[test]
    fn zero_and_copy() {
        let m = PhysMem::new(1 << 20, Vec::new());
        m.write(PAddr(512), &[0xAA; 512]).unwrap();
        m.copy(PAddr(512), PAddr(2048), 512).unwrap();
        let mut b = [0u8; 512];
        m.read(PAddr(2048), &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0xAA));
        m.zero(PAddr(2048), 512).unwrap();
        m.read(PAddr(2048), &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }

    #[test]
    fn frame_alloc_skips_reserved_and_holes() {
        let m = PhysMem::new(64 * 1024, vec![16384..32768]);
        let fa = FrameAlloc::new(&m, 4096, 8192);
        // Frames: 0,1 reserved; 4..8 are the hole; 16 total.
        assert_eq!(fa.free_count(), 16 - 2 - 4);
        let f = fa.alloc().unwrap();
        assert_eq!(f, Pfn(2));
        fa.free(f);
        assert_eq!(fa.free_count(), 10);
    }

    #[test]
    fn contiguous_allocation() {
        let m = PhysMem::new(64 * 1024, Vec::new());
        let fa = FrameAlloc::new(&m, 4096, 0);
        let a = fa.alloc().unwrap(); // pfn 0
        let run = fa.alloc_contig(4).unwrap();
        assert_eq!(run, Pfn(1));
        // Free the single and ask for a big run: must skip the gap.
        fa.free(a);
        let run2 = fa.alloc_contig(8).unwrap();
        assert_eq!(run2, Pfn(5));
        fa.free_contig(run, 4);
        fa.free_contig(run2, 8);
        // Everything except the singleton `a` (already freed) came back.
        assert_eq!(fa.free_count(), 16);
        assert!(fa.alloc_contig(0).is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let m = PhysMem::new(64 * 1024, Vec::new());
        let fa = FrameAlloc::new(&m, 4096, 0);
        let f = fa.alloc().unwrap();
        fa.free(f);
        fa.free(f);
    }

    #[test]
    fn drain_takes_everything() {
        let m = PhysMem::new(64 * 1024, Vec::new());
        let fa = FrameAlloc::new(&m, 4096, 0);
        let all = fa.drain();
        assert_eq!(all.len(), 16);
        assert_eq!(fa.free_count(), 0);
        assert!(fa.alloc().is_none());
    }
}

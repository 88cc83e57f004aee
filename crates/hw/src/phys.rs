//! Simulated physical memory and the boot-time frame allocator.
//!
//! Physical memory is a byte array with optional *holes* — the SUN 3 places
//! display memory at high physical addresses, leaving unpopulated ranges
//! that the resident page table must cope with (paper §5.1). Accessing a
//! hole or an out-of-range address is a bus error.
//!
//! Storage is 4 KiB stripes of atomic 32-bit words, so several simulated
//! CPUs access memory concurrently without taking a lock, as on a real
//! shared-memory bus. Word stores are `Release` and word loads `Acquire`:
//! a CPU that sees a new PTE also sees the page contents written before
//! it. A stripe is allocated on its first write: until then it reads as
//! zeros, so booting a machine costs no host memory for RAM nothing has
//! used.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use crate::addr::{PAddr, Pfn};

const STRIPE_SHIFT: u32 = 12; // 4 KiB per stripe
const STRIPE_SIZE: u64 = 1 << STRIPE_SHIFT;

/// One stripe's words, little-endian: byte `a` of memory is byte lane
/// `a % 4` of word `a / 4`. Unset until first written (all zeros).
type Stripe = OnceLock<Box<[AtomicU32]>>;

/// Source bytes for [`PhysMem::zero`]: one stripe's worth of zeros.
static ZEROS: [u8; STRIPE_SIZE as usize] = [0; STRIPE_SIZE as usize];

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
    stripes: Vec<Stripe>,
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
        let n_stripes = size.div_ceil(STRIPE_SIZE) as usize;
        PhysMem {
            size,
            holes,
            stripes: (0..n_stripes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Stripe `i`'s words, or `None` while it has never been written.
    fn stripe(&self, i: usize) -> Option<&[AtomicU32]> {
        self.stripes[i].get().map(|w| &w[..])
    }

    /// Stripe `i`'s words, allocating them (zeroed) on its first write.
    /// The zeroed `Vec<u32>` is reused in place as the atomic words.
    fn stripe_mut(&self, i: usize) -> &[AtomicU32] {
        self.stripes[i].get_or_init(|| {
            let len = (self.size - i as u64 * STRIPE_SIZE).min(STRIPE_SIZE);
            vec![0u32; len.div_ceil(4) as usize]
                .into_iter()
                .map(AtomicU32::new)
                .collect()
        })
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
        for (stripe, within, at, take) in pieces(pa, buf.len()) {
            let dst = &mut buf[at..at + take];
            match self.stripe(stripe) {
                Some(words) => load_bytes(words, within, dst),
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
        for (stripe, within, at, take) in pieces(pa, buf.len()) {
            store_bytes(self.stripe_mut(stripe), within, &buf[at..at + take]);
        }
        Ok(())
    }

    /// The word at word-aligned `pa` (which never straddles a stripe).
    fn word(&self, pa: PAddr) -> Option<&AtomicU32> {
        let (stripe, index) = word_index(pa);
        self.stripe(stripe).map(|w| &w[index])
    }

    /// [`PhysMem::word`], allocating its stripe.
    fn word_mut(&self, pa: PAddr) -> &AtomicU32 {
        let (stripe, index) = word_index(pa);
        &self.stripe_mut(stripe)[index]
    }

    /// Read a little-endian `u32` (PTE-sized) at `pa`. A word-aligned
    /// read is one `Acquire` load.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::read`].
    pub fn read_u32(&self, pa: PAddr) -> Result<u32, BusError> {
        if !pa.0.is_multiple_of(4) {
            let mut b = [0u8; 4];
            self.read(pa, &mut b)?;
            return Ok(u32::from_le_bytes(b));
        }
        self.check(pa, 4)?;
        Ok(self.word(pa).map_or(0, |w| w.load(Ordering::Acquire)))
    }

    /// Write a little-endian `u32` at `pa`. A word-aligned write is one
    /// `Release` store.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::write`].
    pub fn write_u32(&self, pa: PAddr, v: u32) -> Result<(), BusError> {
        if !pa.0.is_multiple_of(4) {
            return self.write(pa, &v.to_le_bytes());
        }
        self.check(pa, 4)?;
        self.word_mut(pa).store(v, Ordering::Release);
        Ok(())
    }

    /// Atomically apply `f` to the `u32` at `pa`, returning the old value.
    ///
    /// Used by table walkers to set reference/modify bits without racing
    /// other CPUs' walks. A compare-and-swap loop: `f` may run more than
    /// once when another CPU changes the word meanwhile. Only a
    /// word-aligned `pa` (every PTE is) is updated atomically.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::read`].
    pub fn update_u32(&self, pa: PAddr, f: impl Fn(u32) -> u32) -> Result<u32, BusError> {
        if !pa.0.is_multiple_of(4) {
            let old = self.read_u32(pa)?;
            self.write_u32(pa, f(old))?;
            return Ok(old);
        }
        self.check(pa, 4)?;
        let word = self.word_mut(pa);
        let (Ok(old) | Err(old)) =
            word.fetch_update(Ordering::AcqRel, Ordering::Acquire, |w| Some(f(w)));
        Ok(old)
    }

    /// Zero `len` bytes starting at `pa`.
    ///
    /// # Errors
    ///
    /// [`BusError`] as for [`PhysMem::write`].
    pub fn zero(&self, pa: PAddr, len: u64) -> Result<(), BusError> {
        self.check(pa, len)?;
        for (stripe, within, _, take) in pieces(pa, len as usize) {
            // A stripe never written is zero already: leave it unallocated.
            if let Some(words) = self.stripe(stripe) {
                store_bytes(words, within, &ZEROS[..take]);
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
        if !(src.0 | dst.0 | len).is_multiple_of(4) {
            // Unaligned: bounce through a host buffer.
            let mut buf = vec![0u8; len as usize];
            self.read(src, &mut buf)?;
            return self.write(dst, &buf);
        }
        self.check(src, len)?;
        self.check(dst, len)?;
        // Word by word, in runs that stay inside one source stripe and
        // one destination stripe.
        let mut done = 0;
        while done < len {
            let (s, d) = (src.0 + done, dst.0 + done);
            let take = (STRIPE_SIZE - s % STRIPE_SIZE)
                .min(STRIPE_SIZE - d % STRIPE_SIZE)
                .min(len - done);
            let (s_stripe, s_index) = word_index(PAddr(s));
            let (d_stripe, d_index) = word_index(PAddr(d));
            let n = (take / 4) as usize;
            match self.stripe(s_stripe) {
                Some(from) => {
                    let to = &self.stripe_mut(d_stripe)[d_index..d_index + n];
                    for (t, f) in to.iter().zip(&from[s_index..s_index + n]) {
                        t.store(f.load(Ordering::Acquire), Ordering::Release);
                    }
                }
                // An unwritten source copies as zeros.
                None => self.zero(PAddr(d), take)?,
            }
            done += take;
        }
        Ok(())
    }
}

/// The stripe and word index of word-aligned `pa`.
fn word_index(pa: PAddr) -> (usize, usize) {
    (
        (pa.0 >> STRIPE_SHIFT) as usize,
        ((pa.0 & (STRIPE_SIZE - 1)) / 4) as usize,
    )
}

/// The stripe pieces of the `len` bytes at `pa`, as `(stripe, offset in
/// the stripe, offset in the range, length)`.
fn pieces(pa: PAddr, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let mut done = 0usize;
    std::iter::from_fn(move || {
        (done < len).then(|| {
            let off = pa.0 + done as u64;
            let within = (off & (STRIPE_SIZE - 1)) as usize;
            let take = (STRIPE_SIZE as usize - within).min(len - done);
            let piece = ((off >> STRIPE_SHIFT) as usize, within, done, take);
            done += take;
            piece
        })
    })
}

/// Split `len` bytes starting at byte `at` of a stripe into a leading
/// partial word and whole words, as byte counts; the rest is a trailing
/// partial word.
fn split_words(at: usize, len: usize) -> (usize, usize) {
    let head = ((4 - at % 4) % 4).min(len);
    (head, (len - head) / 4 * 4)
}

/// Read `dst.len()` bytes from byte `at` of a stripe's `words`.
fn load_bytes(words: &[AtomicU32], at: usize, dst: &mut [u8]) {
    let (head, body) = split_words(at, dst.len());
    let (head_dst, rest) = dst.split_at_mut(head);
    let (body_dst, tail_dst) = rest.split_at_mut(body);
    let lanes = |pos: usize, out: &mut [u8]| {
        if !out.is_empty() {
            let bytes = words[pos / 4].load(Ordering::Acquire).to_le_bytes();
            out.copy_from_slice(&bytes[pos % 4..pos % 4 + out.len()]);
        }
    };
    lanes(at, head_dst);
    let first = (at + head) / 4;
    for (d, w) in body_dst.chunks_exact_mut(4).zip(&words[first..]) {
        d.copy_from_slice(&w.load(Ordering::Acquire).to_le_bytes());
    }
    lanes(at + head + body, tail_dst);
}

/// Write `src` at byte `at` of a stripe's `words`. Whole words are single
/// stores; a partial word is merged by compare-and-swap, so bytes another
/// CPU writes into the same word at the same time are kept.
fn store_bytes(words: &[AtomicU32], at: usize, src: &[u8]) {
    let (head, body) = split_words(at, src.len());
    let (head_src, rest) = src.split_at(head);
    let (body_src, tail_src) = rest.split_at(body);
    let merge = |pos: usize, bytes: &[u8]| {
        if bytes.is_empty() {
            return;
        }
        let (mut mask, mut val) = (0u32, 0u32);
        for (i, &b) in bytes.iter().enumerate() {
            let shift = 8 * (pos % 4 + i);
            mask |= 0xFF << shift;
            val |= u32::from(b) << shift;
        }
        let _ = words[pos / 4].fetch_update(Ordering::Release, Ordering::Relaxed, |w| {
            Some(w & !mask | val)
        });
    };
    merge(at, head_src);
    let first = (at + head) / 4;
    for (w, s) in words[first..].iter().zip(body_src.chunks_exact(4)) {
        w.store(
            u32::from_le_bytes(s.try_into().expect("4-byte chunk")),
            Ordering::Release,
        );
    }
    merge(at + head + body, tail_src);
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
        // Memory never written copies as zeros.
        m.write(PAddr(2048), &[0xAA; 512]).unwrap();
        m.copy(PAddr(1 << 19), PAddr(2048), 512).unwrap();
        m.read(PAddr(2048), &mut b).unwrap();
        assert!(b.iter().all(|&x| x == 0));
    }

    /// Random reads, writes, zeroes, copies and word accesses at unaligned
    /// offsets, across stripe boundaries and next to a hole, checked
    /// against a plain byte array. Accesses that touch the hole or leave
    /// memory must fail and change nothing.
    #[test]
    fn matches_byte_array_model() {
        const SIZE: u64 = 40 * 1024;
        // Unaligned edges; the hole straddles the stripe boundary at 12 KiB.
        let hole = 9_001..13_003;
        let mem = PhysMem::new(SIZE, vec![hole.clone()]);
        let mut model = vec![0u8; SIZE as usize];
        let valid =
            |pa: u64, len: u64| pa + len <= SIZE && (pa + len <= hole.start || pa >= hole.end);
        let mut rng = 7;
        let mut next = |n: u64| crate::splitmix64(&mut rng) % n;
        let anchors = [0, 4096, 8192, hole.start, 12_288, hole.end, 16_384, SIZE];
        for step in 0..20_000 {
            // Offsets cluster around stripe boundaries and the hole's edges.
            let mut addr = || (anchors[next(8) as usize] + next(24)).saturating_sub(12);
            let (pa, other) = (addr(), addr());
            let len = match next(3) {
                0 => next(9),
                1 => 4 * next(3),
                _ => next(9_000),
            };
            let (at, end) = (pa as usize, (pa + len) as usize);
            match next(7) {
                0 => {
                    let mut buf = vec![0xEE; len as usize];
                    let r = mem.read(PAddr(pa), &mut buf);
                    assert_eq!(r.is_ok(), valid(pa, len), "read, step {step}");
                    if r.is_ok() {
                        assert_eq!(buf, model[at..end], "read, step {step}");
                    }
                }
                1 => {
                    let buf: Vec<u8> = (0..len).map(|_| next(256) as u8).collect();
                    let r = mem.write(PAddr(pa), &buf);
                    assert_eq!(r.is_ok(), valid(pa, len), "write, step {step}");
                    if r.is_ok() {
                        model[at..end].copy_from_slice(&buf);
                    }
                }
                2 => {
                    let r = mem.zero(PAddr(pa), len);
                    assert_eq!(r.is_ok(), valid(pa, len), "zero, step {step}");
                    if r.is_ok() {
                        model[at..end].fill(0);
                    }
                }
                3 => {
                    if pa + len > other && other + len > pa {
                        continue; // overlapping copies are refused
                    }
                    let r = mem.copy(PAddr(pa), PAddr(other), len);
                    let ok = valid(pa, len) && valid(other, len);
                    assert_eq!(r.is_ok(), ok, "copy, step {step}");
                    if ok {
                        model.copy_within(at..end, other as usize);
                    }
                }
                op => {
                    let word = |m: &[u8]| u32::from_le_bytes(m[at..at + 4].try_into().unwrap());
                    let ok = valid(pa, 4);
                    let v = next(1 << 32) as u32;
                    let r = match op {
                        4 => mem.read_u32(PAddr(pa)).map(|got| {
                            assert_eq!(got, word(&model), "read_u32, step {step}");
                        }),
                        5 => mem.write_u32(PAddr(pa), v),
                        _ => mem
                            .update_u32(PAddr(pa), |w| w.rotate_left(3) ^ v)
                            .map(|old| assert_eq!(old, word(&model), "update_u32, step {step}")),
                    };
                    assert_eq!(r.is_ok(), ok, "word op {op}, step {step}");
                    if ok && op != 4 {
                        let new = if op == 5 {
                            v
                        } else {
                            word(&model).rotate_left(3) ^ v
                        };
                        model[at..at + 4].copy_from_slice(&new.to_le_bytes());
                    }
                }
            }
        }
        for range in [0..hole.start, hole.end..SIZE] {
            let mut buf = vec![0; (range.end - range.start) as usize];
            mem.read(PAddr(range.start), &mut buf).unwrap();
            assert_eq!(buf, model[range.start as usize..range.end as usize]);
        }
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

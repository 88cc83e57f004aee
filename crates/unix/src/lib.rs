//! # mach-unix — the 4.3bsd-style baseline
//!
//! The comparison system for the paper's Tables 7-1 and 7-2: a
//! traditional UNIX VM and file I/O path running on the *same* simulated
//! hardware and the *same* machine-dependent pmap layer. Its defining
//! costs, which the Mach design removes, are:
//!
//! - **fork copies every resident data/stack page eagerly** (no
//!   copy-on-write) — the `fork 256K` rows;
//! - **`read`/`write` copy through a bounded buffer cache** (disk →
//!   cache, cache → user) instead of mapping file pages — the file-read
//!   rows, where the second read of a big file still pays copies and,
//!   with a small cache, disk I/O;
//! - the buffer cache has a **fixed boot-time size** ("generic
//!   configuration" vs "400 buffers" in Table 7-2) while Mach's object
//!   cache grows into free memory;
//! - a heavier fault path (no hints, segment list scan, validation),
//!   modeled as a fixed overhead per fault.
//!
//! Like the systems the paper describes, this baseline offers "little in
//! the way of virtual memory management other than simple paging
//! support": segments, demand-zero fill, and swap.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use mach_fs::{BufferCache, FileId, SimFs};
use mach_hw::machine::Machine;
use mach_hw::{Access, Fault, HwProt, PAddr, Pfn, VAddr};
use mach_pmap::{MachDep, Pmap};
use parking_lot::Mutex;

/// Extra kernel cycles per UNIX fault (segment scan, validation) on top
/// of the shared trap cost — the constant behind the paper's slower UNIX
/// zero-fill numbers.
pub const UNIX_FAULT_OVERHEAD: u64 = 350;

/// Errors from the baseline kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnixError {
    /// Address not inside any segment.
    SegmentationViolation,
    /// Out of memory and swap.
    OutOfMemory,
    /// File error.
    Io,
}

impl std::fmt::Display for UnixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            UnixError::SegmentationViolation => "segmentation violation",
            UnixError::OutOfMemory => "out of memory and swap",
            UnixError::Io => "i/o error",
        })
    }
}

impl std::error::Error for UnixError {}

#[derive(Debug, Clone, Copy)]
struct Segment {
    start: u64,
    end: u64,
    writable: bool,
}

#[derive(Debug)]
struct ProcInner {
    segments: Vec<Segment>,
    /// Resident pages: virtual page number → hardware frame run base.
    pages: HashMap<u64, Pfn>,
    /// Pages swapped out: virtual page number → swap slot key.
    swapped: HashMap<u64, u64>,
}

/// A UNIX process: one address space, no sharing, no copy-on-write.
#[derive(Debug)]
pub struct UnixProc {
    pid: u64,
    pmap: Arc<dyn Pmap>,
    kernel: Weak<UnixKernel>,
    inner: Mutex<ProcInner>,
}

/// Counters for the baseline.
#[derive(Debug, Default)]
pub struct UnixStats {
    /// Faults taken.
    pub faults: AtomicU64,
    /// Pages zero-filled.
    pub zero_fills: AtomicU64,
    /// Pages copied at fork.
    pub fork_copies: AtomicU64,
    /// Pages swapped out.
    pub swapouts: AtomicU64,
    /// Pages swapped back in.
    pub swapins: AtomicU64,
}

/// The 4.3bsd-style kernel.
#[derive(Debug)]
pub struct UnixKernel {
    machine: Arc<Machine>,
    machdep: Arc<dyn MachDep>,
    page_size: u64,
    cache: Arc<BufferCache>,
    fs: Arc<SimFs>,
    /// Global page pool (frame runs of `page_size`).
    free: Mutex<Vec<Pfn>>,
    /// FIFO of (proc, vpn) for swap victim selection.
    lru: Mutex<VecDeque<(Weak<UnixProc>, u64)>>,
    /// Swap store: slot → page bytes (host memory + disk latency).
    swap: Mutex<HashMap<u64, Vec<u8>>>,
    next_pid: AtomicU64,
    next_swap: AtomicU64,
    /// Event counters.
    pub stats: UnixStats,
}

impl UnixKernel {
    /// Boot the baseline on `machine` with a buffer cache of
    /// `cache_buffers` blocks over `fs` — the Table 7-2 configuration
    /// knob ("400 buffers" vs the small "generic" pool).
    pub fn boot(machine: &Arc<Machine>, fs: &Arc<SimFs>, cache_buffers: usize) -> Arc<UnixKernel> {
        let machdep = mach_pmap::machdep_for(machine);
        let hw = machine.hw_page_size();
        let mult = (4096 / hw).max(1);
        let page_size = hw * mult;
        // Claim most frames, grouped into aligned runs like the Mach boot.
        let mut drained = machine.frames().drain();
        drained.sort_unstable_by_key(|p| p.0);
        let reserve = drained.len() / 8;
        for pfn in drained.split_off(drained.len() - reserve) {
            machine.frames().free(pfn);
        }
        let mut free = Vec::new();
        let mut i = 0;
        while i < drained.len() {
            let pfn = drained[i].0;
            let ok = pfn.is_multiple_of(mult)
                && i + mult as usize <= drained.len()
                && (1..mult as usize).all(|j| drained[i + j].0 == pfn + j as u64);
            if ok {
                free.push(Pfn(pfn));
                i += mult as usize;
            } else {
                machine.frames().free(drained[i]);
                i += 1;
            }
        }
        Arc::new(UnixKernel {
            machine: Arc::clone(machine),
            machdep,
            page_size,
            cache: BufferCache::new(fs.device(), cache_buffers),
            fs: Arc::clone(fs),
            free: Mutex::new(free),
            lru: Mutex::new(VecDeque::new()),
            swap: Mutex::new(HashMap::new()),
            next_pid: AtomicU64::new(1),
            next_swap: AtomicU64::new(1),
            stats: UnixStats::default(),
        })
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u64 {
        self.page_size
    }

    /// The machine.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The buffer cache (for statistics).
    pub fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    /// Free page count.
    pub fn free_pages(&self) -> usize {
        self.free.lock().len()
    }

    /// Create an empty process.
    pub fn create_proc(self: &Arc<UnixKernel>) -> Arc<UnixProc> {
        Arc::new(UnixProc {
            pid: self.next_pid.fetch_add(1, Ordering::Relaxed),
            pmap: self.machdep.create(),
            kernel: Arc::downgrade(self),
            inner: Mutex::new(ProcInner {
                segments: Vec::new(),
                pages: HashMap::new(),
                swapped: HashMap::new(),
            }),
        })
    }

    fn alloc_page(self: &Arc<UnixKernel>) -> Result<Pfn, UnixError> {
        for _ in 0..3 {
            if let Some(p) = self.free.lock().pop() {
                return Ok(p);
            }
            self.swap_out_some(16)?;
        }
        Err(UnixError::OutOfMemory)
    }

    /// Swap out up to `want` FIFO-victim pages.
    fn swap_out_some(self: &Arc<UnixKernel>, want: usize) -> Result<usize, UnixError> {
        let mut done = 0;
        while done < want {
            let victim = self.lru.lock().pop_front();
            let Some((proc_w, vpn)) = victim else { break };
            let Some(proc) = proc_w.upgrade() else {
                continue;
            };
            let mut inner = proc.inner.lock();
            let Some(frame) = inner.pages.remove(&vpn) else {
                continue;
            };
            let pa = PAddr(frame.0 * self.machine.hw_page_size());
            // Pull the mapping, then write to swap (always dirty: the
            // baseline does not track modify bits).
            self.machdep.page_free(pa, self.page_size);
            let mut buf = vec![0u8; self.page_size as usize];
            self.machine.phys().read(pa, &mut buf).expect("resident");
            let slot = self.next_swap.fetch_add(1, Ordering::Relaxed);
            let disk = self.machine.disk();
            self.machine
                .charge_wait_us(disk.io_us(self.page_size.div_ceil(disk.block_size)));
            self.swap.lock().insert(slot, buf);
            inner.swapped.insert(vpn, slot);
            drop(inner);
            self.free.lock().push(frame);
            self.stats.swapouts.fetch_add(1, Ordering::Relaxed);
            done += 1;
        }
        Ok(done)
    }

    /// UNIX `read(2)`: copy `len` bytes of `file` at `offset` into the
    /// process at `uaddr`, **through the buffer cache** — the double-copy
    /// path of the paper's file-reading rows.
    ///
    /// # Errors
    ///
    /// Segment or I/O errors.
    pub fn read(
        self: &Arc<UnixKernel>,
        proc: &Arc<UnixProc>,
        file: FileId,
        offset: u64,
        uaddr: u64,
        len: u64,
    ) -> Result<u64, UnixError> {
        let bs = self.cache.device().block_size();
        let size = self.fs.size(file).map_err(|_| UnixError::Io)?;
        if offset >= size {
            return Ok(0);
        }
        let want = len.min(size - offset);
        let cost = self.machine.cost();
        self.machine.charge(cost.kernel_entry); // the system call
        let mut done = 0u64;
        while done < want {
            let pos = offset + done;
            let within = pos % bs;
            let take = (bs - within).min(want - done);
            let dev_block = self.fs.block_at(file, pos).map_err(|_| UnixError::Io)?;
            let data: Vec<u8> = match dev_block {
                Some(b) => {
                    let cached = self.cache.read(b); // disk or cache copy
                    cached[within as usize..(within + take) as usize].to_vec()
                }
                None => vec![0u8; take as usize],
            };
            // copyout: second copy, into the user's page (faulting it in).
            proc.copyout(self, uaddr + done, &data)?;
            self.machine.charge(cost.copy_cycles(take));
            done += take;
        }
        Ok(want)
    }

    /// UNIX `write(2)`: copy from the process through the buffer cache to
    /// the file.
    ///
    /// # Errors
    ///
    /// Segment or I/O errors.
    pub fn write(
        self: &Arc<UnixKernel>,
        proc: &Arc<UnixProc>,
        file: FileId,
        offset: u64,
        uaddr: u64,
        len: u64,
    ) -> Result<(), UnixError> {
        let cost = self.machine.cost();
        self.machine.charge(cost.kernel_entry);
        let data = proc.copyin(self, uaddr, len)?;
        self.machine.charge(cost.copy_cycles(len));
        self.fs
            .write_at(file, offset, &data)
            .map_err(|_| UnixError::Io)?;
        // Invalidate only the blocks just written (uncached write path).
        let bs = self.cache.device().block_size();
        let mut pos = offset - offset % bs;
        while pos < offset + len {
            if let Ok(Some(b)) = self.fs.block_at(file, pos) {
                self.cache.invalidate_block(b);
            }
            pos += bs;
        }
        Ok(())
    }
}

impl UnixProc {
    /// The process id.
    pub fn pid(&self) -> u64 {
        self.pid
    }

    fn kernel(&self) -> Arc<UnixKernel> {
        self.kernel.upgrade().expect("kernel outlives procs")
    }

    /// Add a demand-zero segment at `[start, start+size)`.
    pub fn add_segment(&self, start: u64, size: u64, writable: bool) {
        self.inner.lock().segments.push(Segment {
            start,
            end: start + size,
            writable,
        });
    }

    /// Total resident pages.
    pub fn resident(&self) -> usize {
        self.inner.lock().pages.len()
    }

    /// Handle a fault at `fault.va`: demand-zero or swap-in.
    ///
    /// # Errors
    ///
    /// [`UnixError::SegmentationViolation`] outside every segment.
    pub fn handle_fault(self: &Arc<UnixProc>, fault: Fault) -> Result<(), UnixError> {
        let k = self.kernel();
        let cost = k.machine.cost();
        k.machine.charge(cost.kernel_entry + UNIX_FAULT_OVERHEAD);
        k.stats.faults.fetch_add(1, Ordering::Relaxed);
        let page = k.page_size;
        let va = fault.va.0 & !(page - 1);
        let vpn = va / page;
        let writable = {
            let inner = self.inner.lock();
            let seg = inner
                .segments
                .iter()
                .find(|s| s.start <= va && va < s.end)
                .copied()
                .ok_or(UnixError::SegmentationViolation)?;
            if fault.access == Access::Write && !seg.writable {
                return Err(UnixError::SegmentationViolation);
            }
            seg.writable
        };
        // Get a frame (outside our own lock: swap-out may need others).
        let existing = self.inner.lock().pages.get(&vpn).copied();
        let frame = match existing {
            Some(f) => f,
            None => {
                let f = k.alloc_page()?;
                let pa = PAddr(f.0 * k.machine.hw_page_size());
                let swap_slot = self.inner.lock().swapped.remove(&vpn);
                match swap_slot {
                    Some(slot) => {
                        let buf = k.swap.lock().remove(&slot).expect("slot live");
                        let disk = k.machine.disk();
                        k.machine
                            .charge_wait_us(disk.io_us(page.div_ceil(disk.block_size)));
                        k.machine.phys().write(pa, &buf).expect("frame");
                        k.machine.charge(cost.copy_cycles(page));
                        k.stats.swapins.fetch_add(1, Ordering::Relaxed);
                    }
                    None => {
                        k.machdep.zero_page(pa, page);
                        k.stats.zero_fills.fetch_add(1, Ordering::Relaxed);
                    }
                }
                self.inner.lock().pages.insert(vpn, f);
                k.lru.lock().push_back((Arc::downgrade(self), vpn));
                f
            }
        };
        let pa = PAddr(frame.0 * k.machine.hw_page_size());
        let prot = if writable {
            HwProt::READ | HwProt::WRITE | HwProt::EXECUTE
        } else {
            HwProt::READ | HwProt::EXECUTE
        };
        self.pmap.enter(VAddr(va), pa, page, prot, false);
        Ok(())
    }

    /// Fork: the child receives an **eager copy** of every resident page
    /// — the cost Mach's COW fork avoids.
    ///
    /// # Errors
    ///
    /// [`UnixError::OutOfMemory`] when pages cannot be copied.
    pub fn fork(self: &Arc<UnixProc>) -> Result<Arc<UnixProc>, UnixError> {
        let k = self.kernel();
        let child = k.create_proc();
        let page = k.page_size;
        let (segments, pages): (Vec<Segment>, Vec<(u64, Pfn)>) = {
            let inner = self.inner.lock();
            (
                inner.segments.clone(),
                inner.pages.iter().map(|(&v, &f)| (v, f)).collect(),
            )
        };
        child.inner.lock().segments = segments;
        for (vpn, src) in pages {
            let dst = k.alloc_page()?;
            let hw = k.machine.hw_page_size();
            k.machdep
                .copy_page(PAddr(src.0 * hw), PAddr(dst.0 * hw), page);
            child.inner.lock().pages.insert(vpn, dst);
            k.lru.lock().push_back((Arc::downgrade(&child), vpn));
            k.stats.fork_copies.fetch_add(1, Ordering::Relaxed);
        }
        // Also copy swapped pages (they are part of the image).
        let swapped: Vec<(u64, u64)> = {
            let inner = self.inner.lock();
            inner.swapped.iter().map(|(&v, &s)| (v, s)).collect()
        };
        for (vpn, slot) in swapped {
            let data = k.swap.lock().get(&slot).cloned().expect("slot live");
            let new_slot = k.next_swap.fetch_add(1, Ordering::Relaxed);
            let disk = k.machine.disk();
            k.machine
                .charge_wait_us(2 * disk.io_us(page.div_ceil(disk.block_size)));
            k.swap.lock().insert(new_slot, data);
            child.inner.lock().swapped.insert(vpn, new_slot);
            k.stats.fork_copies.fetch_add(1, Ordering::Relaxed);
        }
        Ok(child)
    }

    /// Kernel copy into user space, faulting pages in as needed.
    fn copyout(
        self: &Arc<UnixProc>,
        k: &Arc<UnixKernel>,
        uaddr: u64,
        data: &[u8],
    ) -> Result<(), UnixError> {
        let page = k.page_size;
        let mut done = 0u64;
        while done < data.len() as u64 {
            let va = uaddr + done;
            let base = va & !(page - 1);
            let within = va - base;
            let take = (page - within).min(data.len() as u64 - done);
            let vpn = base / page;
            if !self.inner.lock().pages.contains_key(&vpn) {
                self.handle_fault(Fault {
                    va: VAddr(base),
                    access: Access::Write,
                    code: mach_hw::FaultCode::Invalid,
                })?;
            }
            let frame = *self.inner.lock().pages.get(&vpn).expect("just faulted");
            let pa = PAddr(frame.0 * k.machine.hw_page_size() + within);
            k.machine
                .phys()
                .write(pa, &data[done as usize..(done + take) as usize])
                .expect("resident");
            done += take;
        }
        Ok(())
    }

    /// Kernel copy out of user space.
    fn copyin(
        self: &Arc<UnixProc>,
        k: &Arc<UnixKernel>,
        uaddr: u64,
        len: u64,
    ) -> Result<Vec<u8>, UnixError> {
        let page = k.page_size;
        let mut out = vec![0u8; len as usize];
        let mut done = 0u64;
        while done < len {
            let va = uaddr + done;
            let base = va & !(page - 1);
            let within = va - base;
            let take = (page - within).min(len - done);
            let vpn = base / page;
            if !self.inner.lock().pages.contains_key(&vpn) {
                self.handle_fault(Fault {
                    va: VAddr(base),
                    access: Access::Read,
                    code: mach_hw::FaultCode::Invalid,
                })?;
            }
            let frame = *self.inner.lock().pages.get(&vpn).expect("just faulted");
            let pa = PAddr(frame.0 * k.machine.hw_page_size() + within);
            k.machine
                .phys()
                .read(pa, &mut out[done as usize..(done + take) as usize])
                .expect("resident");
            done += take;
        }
        Ok(out)
    }

    /// Run `body` as user code of this process on `cpu` (symmetrical to
    /// the Mach task API).
    pub fn user<R>(self: &Arc<UnixProc>, cpu: usize, body: impl FnOnce(&UnixUserCtx) -> R) -> R {
        let k = self.kernel();
        let _bind = k.machine.bind_cpu(cpu);
        self.pmap.activate(cpu);
        let uc = UnixUserCtx {
            proc: Arc::clone(self),
        };
        let r = body(&uc);
        self.pmap.deactivate(cpu);
        r
    }
}

impl Drop for UnixProc {
    fn drop(&mut self) {
        let Some(k) = self.kernel.upgrade() else {
            return;
        };
        let inner = self.inner.lock();
        for (&_vpn, &frame) in &inner.pages {
            let pa = PAddr(frame.0 * k.machine.hw_page_size());
            k.machdep.page_free(pa, k.page_size);
            k.free.lock().push(frame);
        }
        let mut swap = k.swap.lock();
        for &slot in inner.swapped.values() {
            swap.remove(&slot);
        }
    }
}

/// User-mode accessors for a process (see [`UnixProc::user`]).
#[derive(Debug)]
pub struct UnixUserCtx {
    proc: Arc<UnixProc>,
}

impl UnixUserCtx {
    fn retry<R>(&self, mut op: impl FnMut() -> Result<R, Fault>) -> Result<R, UnixError> {
        for _ in 0..64 {
            match op() {
                Ok(r) => return Ok(r),
                Err(f) => self.proc.handle_fault(f)?,
            }
        }
        Err(UnixError::OutOfMemory)
    }

    /// Load a `u32`.
    ///
    /// # Errors
    ///
    /// [`UnixError::SegmentationViolation`] outside the segments.
    pub fn read_u32(&self, va: u64) -> Result<u32, UnixError> {
        let m = self.proc.kernel().machine.clone();
        self.retry(|| m.load_u32(VAddr(va)))
    }

    /// Store a `u32`.
    ///
    /// # Errors
    ///
    /// As for [`UnixUserCtx::read_u32`].
    pub fn write_u32(&self, va: u64, v: u32) -> Result<(), UnixError> {
        let m = self.proc.kernel().machine.clone();
        self.retry(|| m.store_u32(VAddr(va), v))
    }

    /// Dirty every page of the range.
    ///
    /// # Errors
    ///
    /// As for [`UnixUserCtx::read_u32`].
    pub fn dirty_range(&self, va: u64, len: u64) -> Result<(), UnixError> {
        let page = self.proc.kernel().page_size;
        let mut a = va;
        while a < va + len {
            self.write_u32(a, 0xA5A5_A5A5)?;
            a += page;
        }
        Ok(())
    }

    /// Touch every page of the range for read.
    ///
    /// # Errors
    ///
    /// As for [`UnixUserCtx::read_u32`].
    pub fn touch_range(&self, va: u64, len: u64) -> Result<(), UnixError> {
        let page = self.proc.kernel().page_size;
        let mut a = va;
        while a < va + len {
            self.read_u32(a)?;
            a += page;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mach_fs::BlockDevice;
    use mach_hw::machine::MachineModel;

    fn boot() -> (Arc<UnixKernel>, Arc<SimFs>) {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let dev = BlockDevice::new(&machine, 1024);
        let fs = SimFs::format(&dev);
        let k = UnixKernel::boot(&machine, &fs, 64);
        (k, fs)
    }

    #[test]
    fn demand_zero_segments() {
        let (k, _) = boot();
        let p = k.create_proc();
        let ps = k.page_size();
        p.add_segment(0x10000, 4 * ps, true);
        p.user(0, |u| {
            u.write_u32(0x10000, 7).unwrap();
            assert_eq!(u.read_u32(0x10000).unwrap(), 7);
            assert_eq!(u.read_u32(0x10000 + ps).unwrap(), 0, "demand zero");
            // Outside the segment: segv.
            assert_eq!(
                u.read_u32(0x80000).unwrap_err(),
                UnixError::SegmentationViolation
            );
        });
        assert_eq!(p.resident(), 2);
        assert!(k.stats.zero_fills.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn fork_copies_pages_eagerly_and_isolates() {
        let (k, _) = boot();
        let p = k.create_proc();
        let ps = k.page_size();
        p.add_segment(0, 64 * ps, true);
        p.user(0, |u| u.dirty_range(0, 64 * ps).unwrap());
        let copies_before = k.stats.fork_copies.load(Ordering::Relaxed);
        let child = p.fork().unwrap();
        // Eager: every resident page copied at fork time.
        assert_eq!(
            k.stats.fork_copies.load(Ordering::Relaxed),
            copies_before + 64
        );
        assert_eq!(child.resident(), 64);
        child.user(0, |u| {
            assert_eq!(u.read_u32(0).unwrap(), 0xA5A5_A5A5);
            u.write_u32(0, 1).unwrap();
        });
        p.user(0, |u| assert_eq!(u.read_u32(0).unwrap(), 0xA5A5_A5A5));
    }

    #[test]
    fn read_goes_through_buffer_cache() {
        let (k, fs) = boot();
        let f = fs.create("data").unwrap();
        fs.write_at(f, 0, &vec![0x77u8; 64 * 1024]).unwrap();
        let p = k.create_proc();
        let ps = k.page_size();
        p.add_segment(0, 32 * ps, true);
        let _b = k.machine().bind_cpu(0);

        let misses0 = k.cache().stats().misses;
        k.read(&p, f, 0, 0, 64 * 1024).unwrap();
        let misses1 = k.cache().stats().misses;
        assert!(misses1 > misses0, "first read hits the disk");
        p.user(0, |u| assert_eq!(u.read_u32(0).unwrap(), 0x7777_7777));

        // Second read: cache hits (fits in 64 buffers), but still copies.
        let wait0 = k.machine().clock().wait_us();
        let sys0 = k.machine().clock().system_cycles();
        k.read(&p, f, 0, 0, 64 * 1024).unwrap();
        assert_eq!(k.machine().clock().wait_us(), wait0, "no disk this time");
        assert!(
            k.machine().clock().system_cycles() > sys0,
            "copies still cost CPU"
        );
    }

    #[test]
    fn small_cache_thrashes() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let dev = BlockDevice::new(&machine, 1024);
        let fs = SimFs::format(&dev);
        let k = UnixKernel::boot(&machine, &fs, 4); // tiny "generic" pool
        let f = fs.create("big").unwrap();
        fs.write_at(f, 0, &vec![1u8; 256 * 1024]).unwrap();
        let p = k.create_proc();
        p.add_segment(0, 256 * 1024, true);
        let _b = machine.bind_cpu(0);
        k.read(&p, f, 0, 0, 256 * 1024).unwrap();
        let misses_first = k.cache().stats().misses;
        k.read(&p, f, 0, 0, 256 * 1024).unwrap();
        let misses_second = k.cache().stats().misses - misses_first;
        assert!(
            misses_second * 2 > misses_first,
            "a 4-buffer cache rereads most of a 256 KB file from disk"
        );
    }

    #[test]
    fn write_reaches_the_file() {
        let (k, fs) = boot();
        let f = fs.create("out").unwrap();
        let p = k.create_proc();
        let ps = k.page_size();
        p.add_segment(0, 4 * ps, true);
        p.user(0, |u| u.write_u32(0x100, 0xABCD_EF01).unwrap());
        let _b = k.machine().bind_cpu(0);
        k.write(&p, f, 0, 0, 512).unwrap();
        let mut buf = [0u8; 4];
        fs.read_at(f, 0x100, &mut buf).unwrap();
        assert_eq!(u32::from_le_bytes(buf), 0xABCD_EF01);
    }

    #[test]
    fn swap_under_pressure_round_trips() {
        let mut model = MachineModel::micro_vax_ii();
        model.mem_bytes = 2 << 20;
        let machine = Machine::boot(model);
        let dev = BlockDevice::new(&machine, 256);
        let fs = SimFs::format(&dev);
        let k = UnixKernel::boot(&machine, &fs, 16);
        let p = k.create_proc();
        let ps = k.page_size();
        let total = 4u64 << 20; // twice physical memory
        p.add_segment(0, total, true);
        p.user(0, |u| {
            let mut a = 0;
            while a < total {
                u.write_u32(a, (a / ps) as u32).unwrap();
                a += ps;
            }
        });
        assert!(k.stats.swapouts.load(Ordering::Relaxed) > 0);
        p.user(0, |u| {
            for i in (0..total / ps).step_by(13) {
                assert_eq!(u.read_u32(i * ps).unwrap(), i as u32);
            }
        });
        assert!(k.stats.swapins.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn proc_exit_returns_pages() {
        let (k, _) = boot();
        let free0 = k.free_pages();
        let p = k.create_proc();
        let ps = k.page_size();
        p.add_segment(0, 8 * ps, true);
        p.user(0, |u| u.dirty_range(0, 8 * ps).unwrap());
        assert_eq!(k.free_pages(), free0 - 8);
        drop(p);
        assert_eq!(k.free_pages(), free0);
    }
}

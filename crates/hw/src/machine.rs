//! The simulated machine: CPUs + physical memory + MMU + interrupt bus.
//!
//! A [`Machine`] is shared (`Arc`) between the kernel (the `mach-vm`
//! crate), the machine-dependent pmap modules, and the threads driving the
//! simulated CPUs. A thread *binds* to a CPU with [`Machine::bind_cpu`];
//! memory accesses and cost charges then flow to that CPU.

use std::cell::{Cell, RefCell};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crate::addr::{Access, Fault, PAddr, VAddr};
use crate::arch::{self, ArchGlobal, ArchKind};
use crate::bus::{AckLatch, InterruptBus, Ipi, IpiKind};
use crate::cost::{Clock, CostModel, DiskModel};
use crate::cpu::Cpu;
use crate::lock::{KernelMutex, LockSite, LockStats};
use crate::phys::{FrameAlloc, PhysMem};
use crate::tlb::{FlushScope, TlbLookup};

/// Bytes reserved at the bottom of physical memory for the boot image.
pub const BOOT_RESERVED: u64 = 64 * 1024;

/// How long a waited shootdown may go unacknowledged before the protocol
/// is declared stuck. A correct run never gets near it: every target
/// either polls (it is executing) or is quiescent (flushed directly), so
/// the bound only has to outlast host preemption of a running target.
/// Debug builds panic when it expires; release builds force the flush and
/// count it in [`MachineStats::shootdown_timeouts`].
const SHOOTDOWN_STUCK: Duration = Duration::from_secs(1);

/// Static description of a machine configuration.
///
/// The presets reproduce the machines of the paper's Tables 7-1 and 7-2.
#[derive(Debug, Clone)]
pub struct MachineModel {
    /// Marketing name ("VAX 8650", "SUN 3/160", ...).
    pub name: &'static str,
    /// MMU architecture.
    pub kind: ArchKind,
    /// Clock rate used to convert cycles to time.
    pub mhz: u64,
    /// Physical memory size in bytes.
    pub mem_bytes: u64,
    /// Number of processors.
    pub n_cpus: usize,
    /// TLB entries per CPU.
    pub tlb_entries: usize,
    /// Cycle cost model.
    pub cost: CostModel,
    /// Disk latency model.
    pub disk: DiskModel,
    /// Physical address holes (SUN 3 display memory).
    pub holes: Vec<Range<u64>>,
}

impl MachineModel {
    /// DEC MicroVAX II: the paper's `uVAX II` rows.
    pub fn micro_vax_ii() -> MachineModel {
        MachineModel {
            name: "uVAX II",
            kind: ArchKind::Vax,
            mhz: 5,
            mem_bytes: 16 << 20,
            n_cpus: 1,
            tlb_entries: 64,
            cost: CostModel::standard(),
            disk: DiskModel::standard(),
            holes: Vec::new(),
        }
    }

    /// DEC VAX 8200 (the file-reading rows of Table 7-1).
    pub fn vax_8200() -> MachineModel {
        MachineModel {
            name: "VAX 8200",
            mhz: 5,
            ..MachineModel::micro_vax_ii()
        }
    }

    /// DEC VAX 8650 with 36 MB, as in Table 7-2.
    pub fn vax_8650() -> MachineModel {
        MachineModel {
            name: "VAX 8650",
            mhz: 18,
            mem_bytes: 36 << 20,
            ..MachineModel::micro_vax_ii()
        }
    }

    /// The four-processor VAX 11/784 Mach was first built on.
    pub fn vax_11_784() -> MachineModel {
        MachineModel {
            name: "VAX 11/784",
            mhz: 5,
            n_cpus: 4,
            mem_bytes: 32 << 20,
            ..MachineModel::micro_vax_ii()
        }
    }

    /// IBM RT PC.
    pub fn rt_pc() -> MachineModel {
        MachineModel {
            name: "RT PC",
            kind: ArchKind::Romp,
            mhz: 6,
            mem_bytes: 16 << 20,
            n_cpus: 1,
            tlb_entries: 64,
            cost: CostModel::standard(),
            disk: DiskModel::standard(),
            holes: Vec::new(),
        }
    }

    /// SUN 3/160, with a display-memory hole high in physical memory.
    pub fn sun_3_160() -> MachineModel {
        let mem = 16u64 << 20;
        MachineModel {
            name: "SUN 3/160",
            kind: ArchKind::Sun3,
            mhz: 16,
            mem_bytes: mem,
            n_cpus: 1,
            tlb_entries: 64,
            cost: CostModel::standard(),
            disk: DiskModel::standard(),
            // 1 MB of display memory below the top of physical space.
            holes: vec![(mem - (2 << 20))..(mem - (1 << 20))],
        }
    }

    /// Encore MultiMax with `n_cpus` NS32032/NS32082 processors.
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` is zero.
    pub fn multimax(n_cpus: usize) -> MachineModel {
        assert!(n_cpus > 0);
        MachineModel {
            name: "Encore MultiMax",
            kind: ArchKind::Ns32082,
            mhz: 10,
            mem_bytes: 32 << 20, // the NS32082's physical limit
            n_cpus,
            tlb_entries: 64,
            cost: CostModel::standard(),
            disk: DiskModel::standard(),
            holes: Vec::new(),
        }
    }

    /// The TLB-only experimental machine of the paper's §5 footnote (an
    /// IBM RP3-style simulator: software-refilled TLB, no tables).
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` is zero.
    pub fn rp3(n_cpus: usize) -> MachineModel {
        assert!(n_cpus > 0);
        MachineModel {
            name: "IBM RP3 (sim)",
            kind: ArchKind::TlbSoft,
            mhz: 12,
            mem_bytes: 64 << 20,
            n_cpus,
            tlb_entries: 128,
            cost: CostModel::standard(),
            disk: DiskModel::standard(),
            holes: Vec::new(),
        }
    }

    /// Sequent Balance with `n_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` is zero.
    pub fn balance(n_cpus: usize) -> MachineModel {
        MachineModel {
            name: "Sequent Balance",
            ..MachineModel::multimax(n_cpus)
        }
    }

    /// Hardware page size for this model's architecture.
    pub fn hw_page_size(&self) -> u64 {
        self.kind.hw_page_size()
    }
}

thread_local! {
    static BOUND_CPU: Cell<usize> = const { Cell::new(0) };
    /// The machine whose CPU `BOUND_CPU` names: kernel locks park that
    /// CPU and count toward that machine.
    static BOUND_MACHINE: RefCell<Option<Arc<Machine>>> = const { RefCell::new(None) };
}

/// Run `f` on the machine whose CPU the calling thread is bound to;
/// `None` on a thread bound to no CPU.
pub(crate) fn with_bound_machine<R>(f: impl FnOnce(&Machine) -> R) -> Option<R> {
    BOUND_MACHINE
        .try_with(|b| b.borrow().as_deref().map(f))
        .ok()
        .flatten()
}

/// The CPU id the calling thread is bound to (0 if it never bound one),
/// without needing a [`Machine`] reference. Per-CPU data structures in
/// higher layers (free-list slots, PRNG streams) use this as their slot
/// index; callers must still clamp against their own slot count, since
/// the raw binding is not bounded by any particular machine's CPU count.
pub fn bound_cpu() -> usize {
    BOUND_CPU.with(|b| b.get())
}

/// RAII guard binding the current thread to a CPU (see
/// [`Machine::bind_cpu`]). Dropping restores the previous binding and
/// active flag.
#[derive(Debug)]
pub struct CpuBinding<'m> {
    machine: &'m Machine,
    cpu: usize,
    prev: usize,
    prev_machine: Option<Arc<Machine>>,
    prev_active: bool,
    /// This binding took the CPU's thread-ownership (outermost binding on
    /// this thread); dropping it releases the CPU to other threads.
    acquired: bool,
}

impl Drop for CpuBinding<'_> {
    fn drop(&mut self) {
        let still_bound_here = self.prev == self.cpu;
        self.machine.cpus[self.cpu].set_active(self.prev_active && still_bound_here);
        if !still_bound_here {
            self.machine.cpus[self.cpu].set_active(false);
        }
        if self.acquired {
            self.machine.cpus[self.cpu].set_active(false);
            *self.machine.cpus[self.cpu].owner.lock() = None;
        }
        BOUND_CPU.with(|b| b.set(self.prev));
        BOUND_MACHINE.with(|b| *b.borrow_mut() = self.prev_machine.take());
    }
}

/// RAII marker from [`Machine::kernel_block`]: the bound CPU is waiting
/// in the kernel (on a busy page, a pager, a contended kernel lock) and
/// cannot be mid-access through its TLB. While held, the CPU reports
/// inactive, so shootdowns flush its TLB directly instead of waiting for
/// an acknowledgement a sleeping thread cannot send.
#[derive(Debug)]
pub struct KernelBlock<'m> {
    cpu: Option<&'m Cpu>,
}

impl Drop for KernelBlock<'_> {
    fn drop(&mut self) {
        if let Some(cpu) = self.cpu {
            // Everything flushed directly while we slept already hit the
            // TLB; rearming just restores shootdown-by-IPI.
            cpu.set_active(true);
        }
    }
}

/// Counters the machine keeps about cross-processor operations.
#[derive(Debug, Default)]
pub struct MachineStats {
    /// IPIs sent.
    pub ipis_sent: AtomicU64,
    /// IPIs handled.
    pub ipis_handled: AtomicU64,
    /// Shootdown waits that timed out and fell back to a direct flush
    /// (release builds only; a correct protocol never times out).
    pub shootdown_timeouts: AtomicU64,
}

impl MachineStats {
    /// Copy the counters (each read independently).
    pub fn snapshot(&self) -> MachineCounts {
        MachineCounts {
            ipis_sent: self.ipis_sent.load(Ordering::Relaxed),
            ipis_handled: self.ipis_handled.load(Ordering::Relaxed),
            shootdown_timeouts: self.shootdown_timeouts.load(Ordering::Relaxed),
        }
    }
}

/// A copy of [`MachineStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MachineCounts {
    /// IPIs sent.
    pub ipis_sent: u64,
    /// IPIs handled.
    pub ipis_handled: u64,
    /// Shootdown waits that timed out.
    pub shootdown_timeouts: u64,
}

/// A complete simulated machine.
#[derive(Debug)]
pub struct Machine {
    /// This machine's own `Arc`, recorded on the threads bound to it.
    me: Weak<Machine>,
    model: MachineModel,
    phys: PhysMem,
    frames: FrameAlloc,
    bus: InterruptBus,
    cpus: Vec<Cpu>,
    global: ArchGlobal,
    /// Cross-CPU statistics.
    pub stats: MachineStats,
    /// Kernel-lock counters, fed by the threads bound to this machine's
    /// CPUs (see [`crate::lock`]).
    pub locks: LockStats,
}

impl Machine {
    /// Boot a machine of the given model.
    ///
    /// Reserves [`BOOT_RESERVED`] bytes (plus the ROMP's IPT/HAT) before
    /// handing the rest to the frame allocator.
    ///
    /// # Panics
    ///
    /// Panics if the model is internally inconsistent (e.g. more physical
    /// memory than the architecture can address).
    pub fn boot(model: MachineModel) -> Arc<Machine> {
        if model.kind == ArchKind::Ns32082 {
            assert!(
                model.mem_bytes <= arch::ns32082::PA_LIMIT,
                "NS32082 can address at most 32 MB of physical memory"
            );
        }
        let phys = PhysMem::new(model.mem_bytes, model.holes.clone());
        let hw_page = model.hw_page_size();
        let mut reserved = BOOT_RESERVED;
        let global = match model.kind {
            ArchKind::Vax => ArchGlobal::Vax,
            ArchKind::Romp => {
                let n_frames = model.mem_bytes / hw_page;
                let layout = arch::romp::init_tables(&phys, PAddr(reserved), n_frames);
                reserved += layout.table_bytes();
                ArchGlobal::Romp(layout)
            }
            ArchKind::Sun3 => ArchGlobal::Sun3(parking_lot::Mutex::new(arch::sun3::Sun3Mmu::new())),
            ArchKind::Ns32082 => ArchGlobal::Ns32082(arch::ns32082::NsGlobal::with_bug()),
            ArchKind::TlbSoft => ArchGlobal::TlbSoft(KernelMutex::new(
                LockSite::PmapTables,
                arch::tlbsoft::SoftTables::default(),
            )),
        };
        let frames = FrameAlloc::new(&phys, hw_page, reserved);
        let cpus = (0..model.n_cpus)
            .map(|i| Cpu::new(i, model.kind, model.tlb_entries))
            .collect();
        let bus = InterruptBus::new(model.n_cpus);
        Arc::new_cyclic(|me| Machine {
            me: me.clone(),
            model,
            phys,
            frames,
            bus,
            cpus,
            global,
            stats: MachineStats::default(),
            locks: LockStats::default(),
        })
    }

    /// The machine's static configuration.
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// The MMU architecture.
    pub fn kind(&self) -> ArchKind {
        self.model.kind
    }

    /// Hardware page size in bytes.
    pub fn hw_page_size(&self) -> u64 {
        self.model.hw_page_size()
    }

    /// The physical memory (pmap modules write tables through this).
    pub fn phys(&self) -> &PhysMem {
        &self.phys
    }

    /// The boot-time frame allocator.
    pub fn frames(&self) -> &FrameAlloc {
        &self.frames
    }

    /// Architecture-global MMU state.
    pub fn arch_global(&self) -> &ArchGlobal {
        &self.global
    }

    /// The cost model in force.
    pub fn cost(&self) -> &CostModel {
        &self.model.cost
    }

    /// The disk model in force.
    pub fn disk(&self) -> &DiskModel {
        &self.model.disk
    }

    /// Number of CPUs.
    pub fn n_cpus(&self) -> usize {
        self.cpus.len()
    }

    /// CPU `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn cpu(&self, i: usize) -> &Cpu {
        &self.cpus[i]
    }

    /// Bind the calling thread to CPU `id` (RAII; restores on drop) and
    /// mark the CPU active.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn bind_cpu(&self, id: usize) -> CpuBinding<'_> {
        assert!(id < self.cpus.len(), "no such CPU {id}");
        // A CPU executes one instruction stream: binding it from a second
        // host thread would silently interleave two tasks' MMU registers.
        // Make over-subscription a loud error instead of a livelock.
        let acquired = {
            let me = std::thread::current().id();
            let mut owner = self.cpus[id].owner.lock();
            match *owner {
                Some(t) if t != me => panic!(
                    "CPU {id} is already driven by another thread; simulated \
                     CPUs cannot be time-shared between host threads (use \
                     one CPU per concurrent thread)"
                ),
                Some(_) => false,
                None => {
                    *owner = Some(me);
                    true
                }
            }
        };
        let prev = BOUND_CPU.with(|b| b.replace(id));
        let prev_machine = BOUND_MACHINE.with(|b| b.replace(self.me.upgrade()));
        let prev_active = self.cpus[prev.min(self.cpus.len() - 1)].is_active();
        self.cpus[id].set_active(true);
        CpuBinding {
            machine: self,
            cpu: id,
            prev,
            prev_machine,
            prev_active,
            acquired,
        }
    }

    /// The CPU the calling thread is bound to (0 if never bound).
    pub fn current_cpu(&self) -> usize {
        BOUND_CPU.with(|b| b.get()).min(self.cpus.len() - 1)
    }

    /// The bound CPU's clock.
    pub fn clock(&self) -> &Clock {
        &self.cpus[self.current_cpu()].clock
    }

    /// Charge CPU cycles to the bound CPU.
    #[inline]
    pub fn charge(&self, cycles: u64) {
        self.clock().charge(cycles);
    }

    /// Charge I/O wait (elapsed-only) to the bound CPU.
    #[inline]
    pub fn charge_wait_us(&self, us: u64) {
        self.clock().charge_wait_us(us);
    }

    /// The bound CPU's elapsed timeline in cycle units: system cycles
    /// plus charged I/O wait at the model's clock rate. Trace and
    /// profiler stamps read this clock so I/O-bound intervals (pager
    /// RPCs, pageins) have their true width.
    #[inline]
    pub fn elapsed_cycles(&self) -> u64 {
        self.clock().elapsed_cycles(self.model.mhz)
    }

    /// Largest elapsed time across all CPUs, in microseconds.
    pub fn elapsed_us(&self) -> u64 {
        self.cpus
            .iter()
            .map(|c| c.clock.elapsed_us(self.model.mhz))
            .max()
            .unwrap_or(0)
    }

    /// Reset every CPU clock (benchmark hygiene).
    pub fn reset_clocks(&self) {
        for c in &self.cpus {
            c.clock.reset();
        }
    }

    // ------------------------------------------------------------------
    // Interrupts
    // ------------------------------------------------------------------

    /// Handle pending IPIs for CPU `id`.
    pub fn poll_cpu(&self, id: usize) {
        if !self.bus.has_pending(id) {
            return;
        }
        for ipi in self.bus.drain(id) {
            match ipi.kind {
                IpiKind::FlushTlb(scope) => self.flush_scopes(id, &[scope]),
                IpiKind::FlushTlbMulti(scopes) => self.flush_scopes(id, &scopes),
                IpiKind::Timer => {}
            }
            self.cpus[id].clock.charge(self.model.cost.ipi_handle);
            self.stats.ipis_handled.fetch_add(1, Ordering::Relaxed);
            if let Some(ack) = ipi.ack {
                ack.ack(id);
            }
        }
    }

    /// Flush `scopes` from CPU `id`'s TLB under one lock acquisition.
    fn flush_scopes(&self, id: usize, scopes: &[FlushScope]) {
        let mut tlb = self.cpus[id].tlb.lock();
        for &scope in scopes {
            tlb.flush(scope);
        }
    }

    /// Handle pending IPIs for the bound CPU.
    pub fn poll(&self) {
        self.poll_cpu(self.current_cpu());
    }

    /// Flush part of the bound CPU's own TLB (free of IPI cost).
    pub fn flush_local(&self, scope: FlushScope) {
        self.cpus[self.current_cpu()].tlb.lock().flush(scope);
    }

    /// Flush part of CPU `id`'s TLB directly — only legal for a quiescent
    /// CPU (models flush-on-next-activate).
    pub fn flush_quiescent(&self, id: usize, scope: FlushScope) {
        self.cpus[id].tlb.lock().flush(scope);
    }

    /// Mark the bound CPU quiescent while it waits in the kernel — on a
    /// busy page, a pager reply, a contended kernel lock
    /// ([`crate::lock::KernelMutex`]). The shootdown protocol's rule is
    /// that a CPU waiting in the kernel is quiescent: while the returned
    /// guard lives, shootdowns aimed at this CPU flush its TLB directly
    /// instead of waiting for an acknowledgement a sleeping thread cannot
    /// send.
    /// IPIs already queued when the CPU parks are answered here, so an
    /// initiator that saw this CPU active a moment ago is not left
    /// waiting either.
    ///
    /// Legal because the waiting thread is not mid-access: the access
    /// that led here has already faulted and will restart from the
    /// hardware table walk when the thread resumes. A no-op when the
    /// calling thread does not own a CPU (kernel daemons, tests) or the
    /// CPU is already parked.
    pub fn kernel_block(&self) -> KernelBlock<'_> {
        let id = self.current_cpu();
        let cpu = &self.cpus[id];
        let owned = *cpu.owner.lock() == Some(std::thread::current().id());
        if owned && cpu.is_active() {
            cpu.set_active(false);
            self.poll_cpu(id);
            KernelBlock { cpu: Some(cpu) }
        } else {
            KernelBlock { cpu: None }
        }
    }

    /// Interrupt `targets` so they flush `scope`; optionally wait for all
    /// *active* targets to acknowledge.
    ///
    /// Quiescent targets are flushed directly (nothing can be running
    /// through their TLBs). Acknowledgement is per target: a target that
    /// goes quiescent after its IPI was sent is flushed directly too, so
    /// the wait ends as soon as every target has either answered or
    /// parked. No host timer decides correctness — a wait still open
    /// after one second means a CPU is blocked in the kernel without
    /// being quiescent, a protocol bug: debug builds panic naming the
    /// CPUs that owe an acknowledgement, release builds force the flush
    /// and count it in [`MachineStats::shootdown_timeouts`].
    ///
    /// Returns the number of IPIs actually sent.
    pub fn shootdown(&self, targets: &[usize], scope: FlushScope, wait: bool) -> usize {
        self.shootdown_multi(targets, &[scope], wait)
    }

    /// [`Machine::shootdown`] for several scopes at once: every target
    /// receives a *single* IPI carrying all of them. Range operations use
    /// this to coalesce their per-page flushes — the interrupt, not the
    /// invalidation, is what costs — so a remove or protect of N pages
    /// interrupts each CPU once instead of N times.
    ///
    /// Returns the number of IPIs actually sent.
    pub fn shootdown_multi(&self, targets: &[usize], scopes: &[FlushScope], wait: bool) -> usize {
        if scopes.is_empty() {
            return 0;
        }
        let me = self.current_cpu();
        let mut live = Vec::new();
        for &t in targets {
            if t != me && self.cpus[t].is_active() {
                live.push(t);
            } else {
                self.flush_scopes(t, scopes);
            }
        }
        if live.is_empty() {
            return 0;
        }
        let kind = if scopes.len() == 1 {
            IpiKind::FlushTlb(scopes[0])
        } else {
            IpiKind::FlushTlbMulti(scopes.into())
        };
        let ack = wait.then(|| AckLatch::new(&live));
        for &t in &live {
            self.bus.send(
                t,
                Ipi {
                    kind: kind.clone(),
                    ack: ack.clone(),
                },
            );
            self.clock().charge(self.model.cost.ipi_send);
            self.stats.ipis_sent.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(latch) = ack {
            let deadline = Instant::now() + SHOOTDOWN_STUCK;
            loop {
                // Keep servicing our *own* incoming IPIs while waiting —
                // real kernels leave interrupts enabled here, and without
                // it concurrent shootdowns deadlock against each other.
                self.poll_cpu(me);
                // A target that parked after its IPI went out answers it
                // only when it wakes; parked, it cannot be mid-access, so
                // flush it now and take that as its acknowledgement.
                let owing = latch.owing();
                for &t in live.iter().filter(|&&t| owing & (1 << t) != 0) {
                    if !self.cpus[t].is_active() {
                        self.flush_scopes(t, scopes);
                        latch.ack(t);
                    }
                }
                if latch.wait(Duration::from_millis(1)) {
                    break;
                }
                if Instant::now() >= deadline {
                    let owing = latch.owing();
                    let stuck: Vec<usize> = live
                        .iter()
                        .copied()
                        .filter(|&t| owing & (1 << t) != 0)
                        .collect();
                    if cfg!(debug_assertions) {
                        panic!(
                            "shootdown from CPU {me} stuck: CPUs {stuck:?} never acknowledged \
                             within {SHOOTDOWN_STUCK:?} — a CPU waiting in the kernel must be \
                             quiescent (Machine::kernel_block, KernelMutex::lock)"
                        );
                    }
                    for &t in &stuck {
                        self.flush_scopes(t, scopes);
                    }
                    self.stats
                        .shootdown_timeouts
                        .fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        live.len()
    }

    // ------------------------------------------------------------------
    // Memory access (the simulated instruction stream)
    // ------------------------------------------------------------------

    /// Translate `va` for `access` on the bound CPU, filling the TLB.
    ///
    /// # Errors
    ///
    /// The [`Fault`] the MMU would raise; trap overhead is charged.
    pub fn translate(&self, va: VAddr, access: Access) -> Result<PAddr, Fault> {
        let id = self.current_cpu();
        self.poll_cpu(id);
        let cpu = &self.cpus[id];
        let page = self.hw_page_size();
        let cost = &self.model.cost;
        let regs = cpu.regs();
        let (space, vpn) = arch::tlb_key(self.kind(), &regs, va, access).inspect_err(|_f| {
            cpu.clock.charge(cost.trap);
        })?;
        let mut tlb = cpu.tlb.lock();
        match tlb.lookup(space, vpn, access) {
            TlbLookup::Hit {
                pfn,
                needs_dirty_walk: false,
            } => {
                cpu.clock.charge(cost.memref);
                Ok(pfn.base(page) + va.offset_in(page))
            }
            TlbLookup::Hit {
                needs_dirty_walk: true,
                ..
            } => {
                // First write through the entry: re-walk to set the modify
                // bit in the in-memory table. A stale entry may fault here.
                match arch::walk(self.kind(), &self.phys, &self.global, &regs, va, access) {
                    Ok(ok) => {
                        cpu.clock
                            .charge(cost.memref * ok.memrefs as u64 + cost.memref);
                        tlb.insert(ok.space, ok.vpn, ok.pfn, ok.prot, ok.dirty);
                        Ok(ok.pfn.base(page) + va.offset_in(page))
                    }
                    Err(f) => {
                        tlb.flush(FlushScope::Page { space, vpn });
                        cpu.clock.charge(cost.trap);
                        Err(f)
                    }
                }
            }
            TlbLookup::Denied => {
                // The entry denies the access. Hardware traps immediately;
                // the OS will revalidate and flush. (A stale entry can
                // deny an access the tables now allow — the lazy
                // consistency case of §5.2.)
                tlb.flush(FlushScope::Page { space, vpn });
                cpu.clock.charge(cost.trap);
                drop(tlb);
                // Re-walk so a merely-stale entry does not raise a
                // spurious fault to the machine-independent layer.
                match arch::walk(self.kind(), &self.phys, &self.global, &regs, va, access) {
                    Ok(ok) => {
                        cpu.clock
                            .charge(cost.memref * ok.memrefs as u64 + cost.tlb_fill);
                        let mut tlb = cpu.tlb.lock();
                        tlb.insert(ok.space, ok.vpn, ok.pfn, ok.prot, ok.dirty);
                        Ok(ok.pfn.base(page) + va.offset_in(page))
                    }
                    Err(f) => Err(f),
                }
            }
            TlbLookup::Miss => {
                match arch::walk(self.kind(), &self.phys, &self.global, &regs, va, access) {
                    Ok(ok) => {
                        cpu.clock
                            .charge(cost.memref * ok.memrefs as u64 + cost.tlb_fill);
                        tlb.insert(ok.space, ok.vpn, ok.pfn, ok.prot, ok.dirty);
                        Ok(ok.pfn.base(page) + va.offset_in(page))
                    }
                    Err(f) => {
                        cpu.clock.charge(cost.trap);
                        Err(f)
                    }
                }
            }
        }
    }

    /// Translate `[va, va+len)` one hardware page at a time, handing each
    /// piece `(pa, offset, len)` to `f` before translating the next, so an
    /// access that faults part-way has already done its earlier pieces.
    fn access_span(
        &self,
        va: VAddr,
        len: usize,
        access: Access,
        mut f: impl FnMut(PAddr, usize, usize),
    ) -> Result<(), Fault> {
        let page = self.hw_page_size();
        let mut off = 0usize;
        while off < len {
            let cur = va + off as u64;
            let in_page = (page - cur.offset_in(page)) as usize;
            let take = in_page.min(len - off);
            let pa = self.translate(cur, access)?;
            f(pa, off, take);
            self.charge(self.model.cost.memref);
            if take > 16 {
                self.charge(self.model.cost.copy_cycles(take as u64));
            }
            off += take;
        }
        Ok(())
    }

    /// Read `buf.len()` bytes of user memory at `va` on the bound CPU.
    ///
    /// # Errors
    ///
    /// The first [`Fault`] encountered; earlier pages may have been read.
    pub fn load(&self, va: VAddr, buf: &mut [u8]) -> Result<(), Fault> {
        self.access_span(va, buf.len(), Access::Read, |pa, off, take| {
            self.phys
                .read(pa, &mut buf[off..off + take])
                .expect("translated address is resident");
        })
    }

    /// Write `buf` to user memory at `va` on the bound CPU.
    ///
    /// # Errors
    ///
    /// The first [`Fault`] encountered; earlier pages may have been
    /// written (stores are restartable at page granularity).
    pub fn store(&self, va: VAddr, buf: &[u8]) -> Result<(), Fault> {
        self.access_span(va, buf.len(), Access::Write, |pa, off, take| {
            self.phys
                .write(pa, &buf[off..off + take])
                .expect("translated address is resident");
        })
    }

    /// Load a `u32` at `va`.
    ///
    /// # Errors
    ///
    /// Propagates translation faults.
    pub fn load_u32(&self, va: VAddr) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        self.load(va, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Store a `u32` at `va`.
    ///
    /// # Errors
    ///
    /// Propagates translation faults.
    pub fn store_u32(&self, va: VAddr, v: u32) -> Result<(), Fault> {
        self.store(va, &v.to_le_bytes())
    }

    /// A read-modify-write cycle on the `u32` at `va` — the operation the
    /// NS32082 erratum corrupts: if the *write* half faults, the chip
    /// reports a **read** fault (paper §5.1).
    ///
    /// # Errors
    ///
    /// Propagates faults; on a buggy NS32082, a write-protection fault is
    /// reported with `access == Read`.
    pub fn rmw_u32(&self, va: VAddr, f: impl FnOnce(u32) -> u32) -> Result<u32, Fault> {
        let pa_r = self.translate(va, Access::Read)?;
        let old = self.phys.read_u32(pa_r).expect("resident");
        self.charge(self.model.cost.memref);
        match self.translate(va, Access::Write) {
            Ok(pa_w) => {
                self.phys.write_u32(pa_w, f(old)).expect("resident");
                self.charge(self.model.cost.memref);
                Ok(old)
            }
            Err(mut fault) => {
                let buggy = matches!(
                    &self.global,
                    ArchGlobal::Ns32082(g) if g.rmw_bug()
                );
                if buggy && fault.access == Access::Write {
                    fault.access = Access::Read;
                }
                Err(fault)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn boot_each_model() {
        for m in [
            MachineModel::micro_vax_ii(),
            MachineModel::vax_8200(),
            MachineModel::vax_8650(),
            MachineModel::vax_11_784(),
            MachineModel::rt_pc(),
            MachineModel::sun_3_160(),
            MachineModel::multimax(4),
            MachineModel::balance(2),
            MachineModel::rp3(4),
        ] {
            let name = m.name;
            let n = m.n_cpus;
            let machine = Machine::boot(m);
            assert_eq!(machine.n_cpus(), n, "{name}");
            assert!(machine.frames().free_count() > 100, "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "32 MB")]
    fn ns32082_physical_limit_enforced() {
        let mut m = MachineModel::multimax(1);
        m.mem_bytes = 64 << 20;
        let _ = Machine::boot(m);
    }

    #[test]
    fn romp_tables_reserved() {
        let m = Machine::boot(MachineModel::rt_pc());
        let ArchGlobal::Romp(layout) = m.arch_global() else {
            panic!("expected ROMP global state");
        };
        assert_eq!(layout.n_frames, (16 << 20) / 2048);
        // The frame allocator must not hand out table frames.
        let table_end = layout.hat_base.0 + 4 * layout.buckets;
        let f = m.frames().alloc().unwrap();
        assert!(f.base(2048).0 >= table_end);
    }

    #[test]
    fn binding_is_scoped() {
        let m = Machine::boot(MachineModel::vax_11_784());
        assert_eq!(m.current_cpu(), 0);
        {
            let _b = m.bind_cpu(2);
            assert_eq!(m.current_cpu(), 2);
            assert!(m.cpu(2).is_active());
            {
                let _b2 = m.bind_cpu(3);
                assert_eq!(m.current_cpu(), 3);
            }
            assert_eq!(m.current_cpu(), 2);
        }
        assert_eq!(m.current_cpu(), 0);
        assert!(!m.cpu(2).is_active());
    }

    #[test]
    fn unmapped_access_faults_and_charges_trap() {
        let m = Machine::boot(MachineModel::micro_vax_ii());
        let _b = m.bind_cpu(0);
        let before = m.clock().system_cycles();
        let err = m.load_u32(VAddr(0x1000)).unwrap_err();
        assert_eq!(err.code, crate::addr::FaultCode::Length); // empty P0
        assert!(m.clock().system_cycles() > before);
    }

    #[test]
    fn shootdown_to_quiescent_cpu_flushes_directly() {
        let m = Machine::boot(MachineModel::vax_11_784());
        let _b = m.bind_cpu(0);
        // Install a fake TLB entry on CPU 1 (quiescent).
        m.cpu(1)
            .tlb
            .lock()
            .insert(0, 5, crate::addr::Pfn(1), crate::addr::HwProt::READ, false);
        let sent = m.shootdown(&[1], FlushScope::All, true);
        assert_eq!(sent, 0, "no IPI needed for a quiescent CPU");
        assert_eq!(m.cpu(1).tlb.lock().iter().count(), 0);
    }

    #[test]
    fn shootdown_to_active_cpu_uses_ipi() {
        let m = Machine::boot(MachineModel::vax_11_784());
        m.cpu(1).set_active(true);
        let m2 = Arc::clone(&m);
        let poller = std::thread::spawn(move || {
            let _b = m2.bind_cpu(1);
            // Poll until the flush arrives.
            for _ in 0..10_000 {
                m2.poll();
                if m2.stats.ipis_handled.load(Ordering::Relaxed) > 0 {
                    return true;
                }
                std::thread::sleep(Duration::from_micros(50));
            }
            false
        });
        let _b = m.bind_cpu(0);
        let sent = m.shootdown(&[1], FlushScope::All, true);
        assert_eq!(sent, 1);
        assert!(poller.join().unwrap());
        assert_eq!(m.stats.shootdown_timeouts.load(Ordering::Relaxed), 0);
    }

    /// A target that claims to be executing but never polls is a protocol
    /// bug: debug builds name it in a panic, release builds force the
    /// flush and count it.
    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "stuck: CPUs [1] never acknowledged")
    )]
    fn stuck_shootdown_fails_loudly() {
        let m = Machine::boot(MachineModel::vax_11_784());
        // CPU 1 claims to be active but nobody polls it.
        m.cpu(1).set_active(true);
        let _b = m.bind_cpu(0);
        let sent = m.shootdown(&[1], FlushScope::All, true);
        assert_eq!(sent, 1);
        assert_eq!(m.stats.shootdown_timeouts.load(Ordering::Relaxed), 1);
    }

    /// Waits for `flag` without servicing any IPI.
    fn spin_until(flag: impl Fn() -> bool) {
        while !flag() {
            std::hint::spin_loop();
        }
    }

    /// Raises its flag when dropped, so helper threads waiting on it
    /// finish even when the test body panics inside a thread scope.
    struct RaiseOnDrop<'a>(&'a AtomicBool);

    impl Drop for RaiseOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::SeqCst);
        }
    }

    #[test]
    fn ipi_queued_before_kernel_block_is_answered_at_park() {
        let m = Machine::boot(MachineModel::vax_11_784());
        let bound = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _done = RaiseOnDrop(&done);
            s.spawn(|| {
                let _b = m.bind_cpu(1);
                bound.store(true, Ordering::SeqCst);
                // Never polls: once the IPI is queued, go to sleep in the
                // kernel.
                spin_until(|| m.stats.ipis_sent.load(Ordering::SeqCst) == 1);
                let _q = m.kernel_block();
                spin_until(|| done.load(Ordering::SeqCst));
            });
            spin_until(|| bound.load(Ordering::SeqCst));
            let _b = m.bind_cpu(0);
            let t0 = Instant::now();
            assert_eq!(m.shootdown(&[1], FlushScope::All, true), 1);
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(100), "waited {took:?}");
        });
        assert_eq!(m.stats.shootdown_timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(m.stats.ipis_handled.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn acknowledgement_is_per_target() {
        let m = Machine::boot(MachineModel::vax_11_784());
        // CPU 2 holds a translation the shootdown must remove.
        m.cpu(2)
            .tlb
            .lock()
            .insert(0, 5, crate::addr::Pfn(1), crate::addr::HwProt::READ, false);
        let ready = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _done = RaiseOnDrop(&done);
            // CPU 1 is executing and acknowledges by polling.
            s.spawn(|| {
                let _b = m.bind_cpu(1);
                ready.fetch_add(1, Ordering::SeqCst);
                while !done.load(Ordering::SeqCst) {
                    m.poll();
                }
            });
            // CPU 2 goes idle once both IPIs are queued, without polling:
            // it still owes its acknowledgement, but it is quiescent.
            s.spawn(|| {
                let _b = m.bind_cpu(2);
                ready.fetch_add(1, Ordering::SeqCst);
                spin_until(|| m.stats.ipis_sent.load(Ordering::SeqCst) == 2);
            });
            spin_until(|| ready.load(Ordering::SeqCst) == 2);
            let _b = m.bind_cpu(0);
            let t0 = Instant::now();
            assert_eq!(m.shootdown(&[1, 2], FlushScope::All, true), 2);
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(100), "waited {took:?}");
        });
        assert_eq!(m.stats.shootdown_timeouts.load(Ordering::Relaxed), 0);
        assert_eq!(m.cpu(2).tlb.lock().iter().count(), 0, "CPU 2 flushed");
    }
}

//! The kernel façade: boot, tasks, and the Table 2-1 operations that need
//! kernel-wide state (`vm_read`, `vm_write`, `vm_copy`, `vm_statistics`,
//! `vm_allocate_with_pager`, mapped files).

use std::sync::Arc;

use mach_fs::{FileId, SimFs};
use mach_hw::machine::Machine;
use mach_ipc::{Message, MsgField, Port, SendRight};
use mach_pmap::MachDep;

use crate::ctx::CoreRefs;
use crate::fault::vm_fault;
use crate::health::{HealthReport, HealthSink};
use crate::inject::{InjectKind, InjectPlan, Injector};
use crate::object::{ObjectCache, VmObject};
use crate::ops::{OpRecord, OpRecorder, VmOp};
use crate::page::{PageId, ResidentTable};
use crate::pager::{DefaultPager, InodePager};
use crate::profile::{ProfileReport, Profiler, SpanKind};
use crate::stats::{VmStats, VmStatsAtomic};
use crate::task::Task;
use crate::trace::{TraceEvent, TraceLog, TraceSink, VmRollup};
use crate::types::{Protection, VmError, VmResult};
use crate::xpager::{self, ExternalPagerProxy};

/// Boot-time configuration.
#[derive(Debug, Clone)]
pub struct BootOptions {
    /// Mach page size = hardware page size × this power of two. "The
    /// definition of page size is a boot time system parameter and can be
    /// any power of two multiple of the hardware page size" (§2.1).
    pub page_multiple: u64,
    /// Objects retained in the object cache.
    pub object_cache_capacity: usize,
    /// Fraction (1/n) of physical frames left to the pmap layer for
    /// hardware tables.
    pub pmap_reserve_den: usize,
    /// How long a fault waits on an unresponsive external pager before the
    /// kernel declares it dead and fails the fault ("the kernel must
    /// protect itself from misbehaving pagers"). Tests exercising dead
    /// pagers shrink this to keep runtimes sane.
    pub pager_timeout: std::time::Duration,
    /// Deterministic fault-injection plan (see [`crate::inject`]); `None`
    /// boots an inert chaos layer that costs one branch per site.
    pub inject: Option<InjectPlan>,
    /// Run the default pager as a fleet of external pager services over
    /// real `mach-ipc` port queues (see [`crate::fleet`]); `None` keeps
    /// the in-process [`DefaultPager`]. Ignored by
    /// [`Kernel::boot_with_paging_file_opts`], where the fs-backed pager
    /// wins.
    pub pager_fleet: Option<crate::fleet::FleetOptions>,
}

impl BootOptions {
    /// Defaults for `machine`: Mach pages of at least 4 KB.
    pub fn for_machine(machine: &Machine) -> BootOptions {
        let hw = machine.hw_page_size();
        BootOptions {
            page_multiple: (4096 / hw).max(1),
            object_cache_capacity: 64,
            pmap_reserve_den: 8,
            pager_timeout: std::time::Duration::from_secs(5),
            inject: None,
            pager_fleet: None,
        }
    }
}

/// Wire the chaos layer into a block device: its `try_*` transfer paths
/// consult the injector for transient/permanent I/O errors (block number
/// becomes the logged offset).
fn install_device_faults(injector: &Arc<Injector>, dev: &Arc<mach_fs::BlockDevice>) {
    let inj = Arc::clone(injector);
    dev.set_fault_hook(Some(Arc::new(move |_op, block| {
        if inj.fire(InjectKind::IoPermanent, 0, block) {
            Some(mach_fs::IoError::Permanent)
        } else if inj.fire(InjectKind::IoTransient, 0, block) {
            Some(mach_fs::IoError::Transient)
        } else {
            None
        }
    })));
}

/// The booted machine-independent VM system.
#[derive(Debug)]
pub struct Kernel {
    ctx: Arc<CoreRefs>,
    free_target: u64,
    /// The pager service fleet, when booted with
    /// [`BootOptions::pager_fleet`].
    fleet: Option<Arc<crate::fleet::PagerFleet>>,
}

impl Kernel {
    /// Boot with default options.
    pub fn boot(machine: &Arc<Machine>) -> Arc<Kernel> {
        let opts = BootOptions::for_machine(machine);
        Kernel::boot_with(machine, opts)
    }

    /// Boot with explicit options.
    ///
    /// Claims all remaining physical frames (minus a pmap reserve) into
    /// the resident page table, grouped into machine-independent pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_multiple` is not a power of two.
    pub fn boot_with(machine: &Arc<Machine>, opts: BootOptions) -> Arc<Kernel> {
        Kernel::boot_inner(machine, opts, None)
    }

    /// The one boot path. The default pager is a paging file on
    /// `paging_fs` when one is given, else the pager fleet when
    /// `opts.pager_fleet` asks for it, else the in-memory pager.
    fn boot_inner(
        machine: &Arc<Machine>,
        opts: BootOptions,
        paging_fs: Option<&Arc<SimFs>>,
    ) -> Arc<Kernel> {
        assert!(opts.page_multiple.is_power_of_two());
        let machdep = mach_pmap::machdep_for(machine);
        let hw = machine.hw_page_size();
        let page_size = hw * opts.page_multiple;
        let resident = Arc::new(ResidentTable::with_cpus(page_size, machine.n_cpus()));

        // Claim physical memory, leaving a reserve for hardware tables.
        let mut drained = machine.frames().drain();
        drained.sort_unstable_by_key(|p| p.0);
        let reserve = drained.len() / opts.pmap_reserve_den.max(2);
        let returned: Vec<_> = drained.split_off(drained.len() - reserve);
        for pfn in returned {
            machine.frames().free(pfn);
        }
        // Group hardware frames into aligned Mach pages.
        let k = opts.page_multiple;
        let mut donated = 0u64;
        let mut i = 0usize;
        while i < drained.len() {
            let pfn = drained[i].0;
            let aligned = pfn.is_multiple_of(k);
            let run_ok = aligned
                && i + (k as usize) <= drained.len()
                && (1..k as usize).all(|j| drained[i + j].0 == pfn + j as u64);
            if run_ok {
                resident.donate(PageId(pfn / k));
                donated += 1;
                i += k as usize;
            } else {
                machine.frames().free(drained[i]);
                i += 1;
            }
        }
        assert!(donated > 16, "machine too small for this page size");

        let injector = match &opts.inject {
            Some(plan) => Injector::new(plan.clone()),
            None => Injector::disabled(),
        };
        // The stats block and trace sink are created before the context
        // so the pager fleet (whose client counts throttles and stamps
        // causal-chain boundary events) can share them.
        let stats = Arc::new(VmStatsAtomic::default());
        let trace = Arc::new(TraceSink::new(machine.n_cpus()));
        let (default_pager, fleet): (
            Arc<dyn crate::pager::Pager>,
            Option<Arc<crate::fleet::PagerFleet>>,
        ) = match (paging_fs, &opts.pager_fleet) {
            (Some(fs), _) => {
                let pager =
                    DefaultPager::on_fs(machine, fs, page_size).expect("create paging file");
                // Hooked after the file is created, so creating it draws
                // nothing from a chaos plan.
                if injector.is_enabled() {
                    install_device_faults(&injector, fs.device());
                }
                (pager, None)
            }
            (None, Some(fo)) => {
                let fleet = crate::fleet::PagerFleet::spawn(
                    machine,
                    fo.clone(),
                    Arc::clone(&stats),
                    Arc::clone(&trace),
                    opts.pager_timeout,
                );
                (fleet.client(), Some(fleet))
            }
            (None, None) => (DefaultPager::new(machine), None),
        };
        let ctx = Arc::new(CoreRefs {
            machine: Arc::clone(machine),
            machdep,
            resident,
            cache: Arc::new(ObjectCache::new(opts.object_cache_capacity)),
            stats,
            default_pager,
            page_size,
            collapse_enabled: std::sync::atomic::AtomicBool::new(true),
            map_indexed: std::sync::atomic::AtomicBool::new(true),
            pager_timeout: opts.pager_timeout,
            trace,
            injector,
            profile: Arc::new(Profiler::new(machine.n_cpus())),
            health: Arc::new(HealthSink::new()),
            ops: Arc::new(OpRecorder::new()),
        });
        // Let the machine-dependent layer report shootdown rounds into the
        // trace (the sink itself gates on enabled, so this costs a branch).
        {
            let sink = Arc::clone(&ctx.trace);
            let m = Arc::clone(machine);
            ctx.machdep
                .set_shootdown_observer(Arc::new(move |cpu_mask, pages| {
                    sink.emit(&m, 0, 0, 0, TraceEvent::ShootdownRound { cpu_mask, pages });
                }));
        }
        // And bracket each round with a profiler span (disabled-profiler
        // cost: the hook's one relaxed load inside span_owned).
        {
            let prof = Arc::clone(&ctx.profile);
            let m = Arc::clone(machine);
            ctx.machdep.set_shootdown_span_hook(Arc::new(move || {
                Box::new(prof.span_owned(&m, SpanKind::Shootdown)) as mach_pmap::HookGuard
            }));
        }
        // And let every injected fault show up in the same trace ring.
        if ctx.injector.is_enabled() {
            let sink = Arc::clone(&ctx.trace);
            let m = Arc::clone(machine);
            ctx.injector
                .set_observer(Some(Arc::new(move |kind, object, offset| {
                    sink.emit(&m, 0, object, offset, TraceEvent::Injected { kind });
                })));
        }
        Arc::new(Kernel {
            ctx,
            free_target: donated / 16,
            fleet,
        })
    }

    /// The pager service fleet, when booted with
    /// [`BootOptions::pager_fleet`].
    pub fn fleet(&self) -> Option<&Arc<crate::fleet::PagerFleet>> {
        self.fleet.as_ref()
    }

    /// The machine this kernel drives.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.ctx.machine
    }

    /// The machine-dependent module.
    pub fn machdep(&self) -> &Arc<dyn MachDep> {
        &self.ctx.machdep
    }

    /// The machine-independent page size.
    pub fn page_size(&self) -> u64 {
        self.ctx.page_size
    }

    /// The shared kernel context (advanced: benches and tests).
    pub fn ctx(&self) -> &Arc<CoreRefs> {
        &self.ctx
    }

    /// Create an empty task.
    pub fn create_task(&self) -> Arc<Task> {
        let task = Task::new(&self.ctx);
        self.ctx.record_op(VmOp::TaskCreate { task: task.id() });
        task
    }

    /// `vm_statistics` (Table 2-1).
    pub fn statistics(&self) -> VmStats {
        self.ctx
            .stats
            .snapshot(self.ctx.page_size, self.ctx.resident.counts())
    }

    // ------------------------------------------------------------------
    // VM event tracing (see `crate::trace` and `docs/TRACING.md`)
    // ------------------------------------------------------------------

    /// The kernel's trace sink.
    pub fn trace(&self) -> &Arc<TraceSink> {
        &self.ctx.trace
    }

    /// The fault-injection engine (inert unless booted with
    /// [`BootOptions::inject`]).
    pub fn injector(&self) -> &Arc<Injector> {
        &self.ctx.injector
    }

    /// Start capturing VM events, keeping the last `capacity_per_cpu`
    /// records on each CPU ring (clears any previous capture).
    pub fn enable_tracing(&self, capacity_per_cpu: usize) {
        self.ctx.trace.enable(capacity_per_cpu);
    }

    /// Stop capturing VM events.
    pub fn disable_tracing(&self) {
        self.ctx.trace.disable();
    }

    /// Snapshot the captured trace for offline analysis.
    pub fn trace_log(&self) -> TraceLog {
        self.ctx.trace.snapshot()
    }

    /// `vm_statistics` broken down **per task**, reconstructed from the
    /// captured trace (task 0 aggregates kernel/daemon work).
    pub fn statistics_by_task(&self) -> std::collections::BTreeMap<u64, VmRollup> {
        self.ctx.trace.snapshot().by_task()
    }

    /// `vm_statistics` broken down **per memory object**, reconstructed
    /// from the captured trace.
    pub fn statistics_by_object(&self) -> std::collections::BTreeMap<u64, VmRollup> {
        self.ctx.trace.snapshot().by_object()
    }

    // ------------------------------------------------------------------
    // Replay-visible op recording (see `crate::ops` and
    // `docs/TRACING.md`, "Replay")
    // ------------------------------------------------------------------

    /// The kernel's op recorder.
    pub fn ops(&self) -> &Arc<OpRecorder> {
        &self.ctx.ops
    }

    /// Start recording replay-visible operations (clears any previous
    /// capture). The exported stream replays through `mach-bench`'s
    /// scenario engine on any port, at any CPU count.
    pub fn enable_op_recording(&self) {
        self.ctx.ops.enable();
    }

    /// Stop recording replay-visible operations.
    pub fn disable_op_recording(&self) {
        self.ctx.ops.disable();
    }

    /// Snapshot the recorded op stream.
    pub fn op_log(&self) -> Vec<OpRecord> {
        self.ctx.ops.snapshot()
    }

    // ------------------------------------------------------------------
    // Cycle profiling and structure health (see `docs/METRICS.md`)
    // ------------------------------------------------------------------

    /// The kernel's span profiler.
    pub fn profiler(&self) -> &Arc<Profiler> {
        &self.ctx.profile
    }

    /// Start a profile capture (clears any previous one).
    pub fn enable_profiling(&self) {
        self.ctx.profile.enable();
    }

    /// Stop the profile capture.
    pub fn disable_profiling(&self) {
        self.ctx.profile.disable();
    }

    /// Snapshot the captured spans as a self-time/total-time tree.
    pub fn profile_report(&self) -> ProfileReport {
        self.ctx.profile.report()
    }

    /// Start counting kernel-lock acquisitions, contention and waits on
    /// this kernel's machine, from the threads bound to its CPUs (see
    /// [`mach_hw::lock`] and `docs/METRICS.md`). The debug-build
    /// lock-order checker is always on, independent of this gate.
    pub fn enable_lock_stats(&self) {
        self.ctx.machine.locks.enable();
    }

    /// Stop counting lock statistics (counters remain readable).
    pub fn disable_lock_stats(&self) {
        self.ctx.machine.locks.disable();
    }

    /// Snapshot the per-site lock counters, in hierarchy-rank order.
    pub fn lock_report(&self) -> Vec<mach_hw::lock::LockSiteReport> {
        self.ctx.machine.locks.report()
    }

    /// The kernel's structure-health sink.
    pub fn health(&self) -> &Arc<HealthSink> {
        &self.ctx.health
    }

    /// Start sampling structure health (clears any previous capture).
    pub fn enable_health(&self) {
        self.ctx.health.enable();
    }

    /// Stop sampling structure health.
    pub fn disable_health(&self) {
        self.ctx.health.disable();
    }

    /// Snapshot the structure-health gauges: shadow-chain depth, pv-list
    /// length, map-entry scan distance, object-cache occupancy and the
    /// page-queue series.
    pub fn health_report(&self) -> HealthReport {
        self.ctx.health.report()
    }

    /// Choose the address-map lookup algorithm used on a hint miss:
    /// `true` (the boot default) consults the O(log n) ordered index,
    /// `false` falls back to the paper's linear entry walk — the
    /// reference mode the index is property-tested and benchmarked
    /// against (see [`crate::map`] and `BENCH_vm.json`'s
    /// `map_index_ablation`). Hint handling and all Table 2-1
    /// accounting are identical in both modes.
    pub fn set_map_indexed(&self, on: bool) {
        self.ctx
            .map_indexed
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Whether hint-miss lookups use the ordered index (see
    /// [`Kernel::set_map_indexed`]).
    pub fn map_indexed(&self) -> bool {
        self.ctx
            .map_indexed
            .load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Free pages if the pool fell below the boot-time target.
    pub fn balance(&self) {
        self.ctx.record_op(VmOp::Balance);
        let free = self.ctx.resident.counts().free;
        if free < self.free_target {
            crate::pageout::reclaim(&self.ctx, (self.free_target - free) as usize);
        }
    }

    /// Force `n` pages to be reclaimed now.
    pub fn reclaim(&self, n: usize) -> usize {
        self.ctx.record_op(VmOp::Reclaim { n: n as u64 });
        crate::pageout::reclaim(&self.ctx, n)
    }

    /// Number of objects parked in the object cache.
    pub fn object_cache_len(&self) -> usize {
        self.ctx.cache.len()
    }

    /// Boot with the default pager writing to a real paging file on `fs`
    /// — anonymous pageout goes through the filesystem, "eliminating
    /// the traditional Berkeley UNIX need for separate paging partitions"
    /// (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if the paging file cannot be created.
    pub fn boot_with_paging_file(machine: &Arc<Machine>, fs: &Arc<SimFs>) -> Arc<Kernel> {
        Kernel::boot_with_paging_file_opts(machine, fs, BootOptions::for_machine(machine))
    }

    /// [`Kernel::boot_with_paging_file`] with explicit [`BootOptions`] —
    /// the combination the chaos suites use (seeded injection plus a
    /// paging file whose device can fail).
    ///
    /// # Panics
    ///
    /// Panics if the paging file cannot be created.
    pub fn boot_with_paging_file_opts(
        machine: &Arc<Machine>,
        fs: &Arc<SimFs>,
        opts: BootOptions,
    ) -> Arc<Kernel> {
        Kernel::boot_inner(machine, opts, Some(fs))
    }

    // ------------------------------------------------------------------
    // Mapped files and external pagers
    // ------------------------------------------------------------------

    /// Map `file` of `fs` into `task`'s space (the memory-mapped-file path
    /// of §3.3, backed by the inode pager). Reuses a cached object when
    /// the file was mapped before — the cheap second-read of Table 7-1.
    ///
    /// # Errors
    ///
    /// Filesystem and map errors.
    pub fn map_file(
        &self,
        task: &Arc<Task>,
        fs: &Arc<SimFs>,
        file: FileId,
        addr: Option<u64>,
        prot: Protection,
    ) -> VmResult<u64> {
        let size = fs.size(file).map_err(|_| VmError::InvalidAddress)?;
        let size = self.ctx.round_page(size.max(1));
        if self.ctx.injector.is_enabled() {
            install_device_faults(&self.ctx.injector, fs.device());
        }
        let ident = InodePager::ident_for(fs, file);
        let cache_span = self.ctx.prof_span(SpanKind::ObjectCache);
        let cached = self.ctx.cache.lookup(&ident);
        if self.ctx.health.is_enabled() {
            self.ctx.health.cache_occupancy(self.ctx.cache.len() as u64);
        }
        drop(cache_span);
        let object = match cached {
            Some(o) => {
                self.ctx
                    .stats
                    .object_cache_hits
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                o
            }
            None => {
                self.ctx
                    .stats
                    .object_cache_misses
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let o = VmObject::new_with_pager(size, InodePager::new(fs, file), true);
                self.ctx.cache.register_live(ident, &o);
                o
            }
        };
        let at = task.map().map_object(
            &self.ctx,
            addr,
            size,
            object,
            0,
            prot,
            Protection::ALL,
            addr.is_none(),
        )?;
        self.ctx.record_op(VmOp::MapFile {
            task: task.id(),
            file: file.0,
            addr: at,
            size,
            prot,
        });
        Ok(at)
    }

    /// `vm_allocate_with_pager` (Table 3-2): map memory managed by an
    /// external, user-state pager reached through `pager_port`.
    ///
    /// The kernel sends `pager_init` carrying the object id and a send
    /// right to the *paging-object-request* port it will service.
    ///
    /// # Errors
    ///
    /// [`VmError::PagerDied`] if the pager port is dead, plus map errors.
    pub fn allocate_with_pager(
        &self,
        task: &Arc<Task>,
        addr: Option<u64>,
        size: u64,
        anywhere: bool,
        pager_port: SendRight,
        offset: u64,
    ) -> VmResult<u64> {
        let size = self.ctx.round_page(size);
        let (req_tx, req_rx) = Port::allocate("paging-object-request", 64);
        let proxy = Arc::new(
            ExternalPagerProxy::new(pager_port.clone(), req_tx.clone(), offset)
                .with_injector(Arc::clone(&self.ctx.injector)),
        );
        let object = VmObject::new_with_pager(size, proxy, false);
        pager_port
            .send(
                Message::new(xpager::ops::PAGER_INIT)
                    .with(MsgField::U64(object.id()))
                    .with(MsgField::Port(req_tx))
                    .with(MsgField::U64(object.id())),
            )
            .map_err(|_| VmError::PagerDied)?;
        self.ctx.trace_emit(
            task.id(),
            object.id(),
            offset,
            TraceEvent::PagerRequest {
                msg: crate::trace::PagerMsg::Init,
                pager: pager_port.id(),
                causal: crate::trace::current_causal(),
            },
        );
        xpager::spawn_object_service(
            Arc::clone(&self.ctx),
            Arc::downgrade(&object),
            req_rx,
            offset,
            pager_port,
        );
        task.map().map_object(
            &self.ctx,
            addr,
            size,
            object,
            0,
            Protection::DEFAULT,
            Protection::ALL,
            anywhere,
        )
    }

    // ------------------------------------------------------------------
    // Cross-space data operations (Table 2-1)
    // ------------------------------------------------------------------

    fn fault_page(&self, task: &Arc<Task>, va: u64, access: Protection) -> VmResult<PageId> {
        vm_fault(&self.ctx, task.map(), va, access, false)
    }

    /// `vm_read`: read `size` bytes at `addr` of `task`'s space.
    ///
    /// # Errors
    ///
    /// Fault errors for unallocated or unreadable ranges.
    pub fn vm_read(&self, task: &Arc<Task>, addr: u64, size: u64) -> VmResult<Vec<u8>> {
        let _s = self.ctx.ops.suppress();
        let mut out = vec![0u8; size as usize];
        let page = self.ctx.page_size;
        let mut done = 0u64;
        while done < size {
            let va = addr + done;
            let within = va % page;
            let take = (page - within).min(size - done);
            let p = self.fault_page(task, va, Protection::READ)?;
            self.ctx
                .machine
                .phys()
                .read(
                    mach_hw::PAddr(p.base(page).0 + within),
                    &mut out[done as usize..(done + take) as usize],
                )
                .expect("resident page readable");
            self.ctx
                .machine
                .charge(self.ctx.machine.cost().copy_cycles(take));
            done += take;
        }
        Ok(out)
    }

    /// `vm_write`: write `data` at `addr` of `task`'s space.
    ///
    /// # Errors
    ///
    /// Fault errors for unallocated or unwritable ranges.
    pub fn vm_write(&self, task: &Arc<Task>, addr: u64, data: &[u8]) -> VmResult<()> {
        let _s = self.ctx.ops.suppress();
        let page = self.ctx.page_size;
        let mut done = 0u64;
        while done < data.len() as u64 {
            let va = addr + done;
            let within = va % page;
            let take = (page - within).min(data.len() as u64 - done);
            let p = self.fault_page(task, va, Protection::WRITE)?;
            self.ctx
                .machine
                .phys()
                .write(
                    mach_hw::PAddr(p.base(page).0 + within),
                    &data[done as usize..(done + take) as usize],
                )
                .expect("resident page writable");
            self.ctx
                .machine
                .charge(self.ctx.machine.cost().copy_cycles(take));
            done += take;
        }
        Ok(())
    }

    /// `vm_copy`: virtually copy `size` bytes from `src` to `dst` within
    /// one task — pure map manipulation, no data copied (the efficiency
    /// claim of §2: "an entire address space may be sent in a single
    /// message with no actual data copy operations performed").
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`] or [`VmError::InvalidAddress`].
    pub fn vm_copy(&self, task: &Arc<Task>, src: u64, size: u64, dst: u64) -> VmResult<()> {
        self.copy_entries_between(task, src, size, task, Some(dst))
            .map(|_| ())
    }

    /// Copy-on-write transfer of `[src, src+size)` from `src_task` into
    /// `dst_task` (the large-message transfer path). Returns the address
    /// in the destination task.
    ///
    /// # Errors
    ///
    /// [`VmError::BadAlignment`] or [`VmError::InvalidAddress`].
    pub fn vm_copy_between(
        &self,
        src_task: &Arc<Task>,
        src: u64,
        size: u64,
        dst_task: &Arc<Task>,
    ) -> VmResult<u64> {
        self.copy_entries_between(src_task, src, size, dst_task, None)
    }

    fn copy_entries_between(
        &self,
        src_task: &Arc<Task>,
        src: u64,
        size: u64,
        dst_task: &Arc<Task>,
        dst: Option<u64>,
    ) -> VmResult<u64> {
        // The internal deallocate/insert fragments are not replay-visible
        // ops (see `crate::ops`).
        let _s = self.ctx.ops.suppress();
        let page = self.ctx.page_size;
        if !src.is_multiple_of(page)
            || !size.is_multiple_of(page)
            || dst.is_some_and(|d| d % page != 0)
        {
            return Err(VmError::BadAlignment);
        }
        let clones = src_task.map().copy_entries(&self.ctx, src, src + size)?;
        // The source must start faulting on writes.
        src_task.pmap().protect(
            mach_hw::VAddr(src),
            mach_hw::VAddr(src + size),
            Protection::READ.to_hw(),
        );
        let base = match dst {
            Some(d) => {
                dst_task.map().deallocate(&self.ctx, d, size)?;
                d
            }
            None => dst_task.map().find_free(size)?,
        };
        for mut c in clones {
            let delta = c.start - src;
            let len = c.end - c.start;
            c.start = base + delta;
            c.end = c.start + len;
            c.wired = false;
            dst_task.map().insert_entry(c);
        }
        Ok(base)
    }

    /// Wire `[addr, addr+size)` of `task` (kernel buffers): fault every
    /// page in and pin it.
    ///
    /// # Errors
    ///
    /// Fault errors.
    pub fn vm_wire(&self, task: &Arc<Task>, addr: u64, size: u64) -> VmResult<()> {
        let _s = self.ctx.ops.suppress();
        let page = self.ctx.page_size;
        let mut va = self.ctx.trunc_page(addr);
        while va < addr + size {
            vm_fault(&self.ctx, task.map(), va, Protection::WRITE, true)?;
            va += page;
        }
        Ok(())
    }

    /// Unwire a previously wired range.
    pub fn vm_unwire(&self, task: &Arc<Task>, addr: u64, size: u64) {
        let _s = self.ctx.ops.suppress();
        let page = self.ctx.page_size;
        let mut va = self.ctx.trunc_page(addr);
        while va < addr + size {
            if let Ok(r) = task.map().resolve(&self.ctx, va) {
                let off = self.ctx.trunc_page(r.offset);
                let s = r.object.lock();
                if let Some(&p) = s.resident.get(&off) {
                    drop(s);
                    self.ctx.resident.unwire(p);
                }
            }
            va += page;
        }
    }
}

// Re-export used by ops tests.
pub use crate::map::RegionInfo;

#[cfg(test)]
mod tests {
    use super::*;
    use mach_fs::BlockDevice;
    use mach_hw::machine::MachineModel;

    fn boot() -> Arc<Kernel> {
        Kernel::boot(&Machine::boot(MachineModel::micro_vax_ii()))
    }

    #[test]
    fn boot_on_every_architecture() {
        // The paper's headline: one machine-independent kernel, four
        // machine-dependent modules.
        for model in [
            MachineModel::micro_vax_ii(),
            MachineModel::rt_pc(),
            MachineModel::sun_3_160(),
            MachineModel::multimax(2),
            MachineModel::rp3(2),
        ] {
            let name = model.name;
            let machine = Machine::boot(model);
            let k = Kernel::boot(&machine);
            let task = k.create_task();
            let ps = k.page_size();
            let addr = task.map().allocate(k.ctx(), None, 4 * ps, true).unwrap();
            task.user(0, |u| {
                u.write_u32(addr, 0xFEED).unwrap();
                assert_eq!(u.read_u32(addr).unwrap(), 0xFEED, "{name}");
            });
            let child = task.fork();
            child.user(0, |u| {
                assert_eq!(u.read_u32(addr).unwrap(), 0xFEED, "{name}");
                u.write_u32(addr, 1).unwrap();
            });
            task.user(0, |u| {
                assert_eq!(u.read_u32(addr).unwrap(), 0xFEED, "{name} COW");
            });
        }
    }

    #[test]
    fn page_size_is_boot_time_multiple() {
        // "Mach page sizes for a VAX can be 512 bytes, 1K, 2K, 4K..."
        for mult in [1u64, 2, 8, 16] {
            let machine = Machine::boot(MachineModel::micro_vax_ii());
            let mut opts = BootOptions::for_machine(&machine);
            opts.page_multiple = mult;
            let k = Kernel::boot_with(&machine, opts);
            assert_eq!(k.page_size(), 512 * mult);
            let task = k.create_task();
            let addr = task
                .map()
                .allocate(k.ctx(), None, k.page_size(), true)
                .unwrap();
            task.user(0, |u| {
                u.write_u32(addr, 7).unwrap();
                assert_eq!(u.read_u32(addr).unwrap(), 7);
            });
        }
    }

    #[test]
    fn vm_read_and_write_cross_space() {
        let k = boot();
        let task = k.create_task();
        let ps = k.page_size();
        let addr = task.map().allocate(k.ctx(), None, 2 * ps, true).unwrap();
        // Kernel writes into the task's space (spanning a page boundary).
        let data: Vec<u8> = (0..=255u8).cycle().take(ps as usize + 100).collect();
        k.vm_write(&task, addr + ps / 2, &data).unwrap();
        // The task sees the bytes.
        task.user(0, |u| {
            let got = u.read_bytes(addr + ps / 2, data.len()).unwrap();
            assert_eq!(got, data);
        });
        // And vm_read round-trips.
        let back = k.vm_read(&task, addr + ps / 2, data.len() as u64).unwrap();
        assert_eq!(back, data);
        // Unallocated ranges are refused.
        assert!(k.vm_read(&task, 0x4000_0000, 8).is_err());
    }

    #[test]
    fn vm_copy_is_lazy_and_correct() {
        let k = boot();
        let task = k.create_task();
        let ps = k.page_size();
        let src = task.map().allocate(k.ctx(), None, 4 * ps, true).unwrap();
        let dst = task.map().allocate(k.ctx(), None, 4 * ps, true).unwrap();
        k.vm_write(&task, src, &vec![0xABu8; (4 * ps) as usize])
            .unwrap();
        let cow_before = k.statistics().cow_faults;
        k.vm_copy(&task, src, 4 * ps, dst).unwrap();
        // No data moved yet.
        assert_eq!(k.statistics().cow_faults, cow_before);
        task.user(0, |u| {
            assert_eq!(u.read_u32(dst).unwrap(), 0xABABABAB);
            // Writing the copy does not disturb the source.
            u.write_u32(dst, 1).unwrap();
            assert_eq!(u.read_u32(src).unwrap(), 0xABABABAB);
            // Writing the source does not disturb the copy.
            u.write_u32(src + ps, 2).unwrap();
            assert_eq!(u.read_u32(dst + ps).unwrap(), 0xABABABAB);
        });
        assert!(k.statistics().cow_faults > cow_before);
    }

    #[test]
    fn vm_copy_between_tasks_moves_address_spaces() {
        // "An entire address space may be sent in a single message with no
        // actual data copy operations performed" (§2.1).
        let k = boot();
        let a = k.create_task();
        let b = k.create_task();
        let ps = k.page_size();
        let src = a.map().allocate(k.ctx(), None, 8 * ps, true).unwrap();
        k.vm_write(&a, src, &vec![0x42u8; (8 * ps) as usize])
            .unwrap();
        let dst = k.vm_copy_between(&a, src, 8 * ps, &b).unwrap();
        b.user(0, |u| {
            assert_eq!(u.read_u32(dst).unwrap(), 0x42424242);
            u.write_u32(dst, 7).unwrap();
        });
        a.user(0, |u| assert_eq!(u.read_u32(src).unwrap(), 0x42424242));
    }

    #[test]
    fn mapped_file_reads_through_inode_pager() {
        let machine = Machine::boot(MachineModel::vax_8200());
        let k = Kernel::boot(&machine);
        let dev = BlockDevice::new(&machine, 512);
        let fs = SimFs::format(&dev);
        let f = fs.create("data").unwrap();
        let content: Vec<u8> = (0u32..5000).flat_map(|i| i.to_le_bytes()).collect();
        fs.write_at(f, 0, &content).unwrap();

        let task = k.create_task();
        let addr = k
            .map_file(&task, &fs, f, None, Protection::DEFAULT)
            .unwrap();
        task.user(0, |u| {
            assert_eq!(u.read_u32(addr).unwrap(), 0);
            assert_eq!(u.read_u32(addr + 4000).unwrap(), 1000);
            assert_eq!(u.read_u32(addr + 19996).unwrap(), 4999);
        });
        assert!(k.statistics().pageins > 0);
    }

    #[test]
    fn object_cache_makes_second_mapping_free() {
        let machine = Machine::boot(MachineModel::vax_8200());
        let k = Kernel::boot(&machine);
        let dev = BlockDevice::new(&machine, 512);
        let fs = SimFs::format(&dev);
        let f = fs.create("hot").unwrap();
        fs.write_at(f, 0, &vec![9u8; 64 * 1024]).unwrap();

        let ps = k.page_size();
        let t1 = k.create_task();
        let addr = k.map_file(&t1, &fs, f, None, Protection::DEFAULT).unwrap();
        t1.user(0, |u| u.touch_range(addr, 64 * 1024).unwrap());
        let pageins_first = k.statistics().pageins;
        assert!(pageins_first >= 64 * 1024 / ps);

        // Unmap (drop the task): the object parks in the cache.
        drop(t1);
        assert_eq!(k.object_cache_len(), 1);

        // Second mapping: all pages still resident, no pager traffic.
        let t2 = k.create_task();
        let addr2 = k.map_file(&t2, &fs, f, None, Protection::DEFAULT).unwrap();
        t2.user(0, |u| u.touch_range(addr2, 64 * 1024).unwrap());
        assert_eq!(
            k.statistics().pageins,
            pageins_first,
            "second mapping must not touch the disk"
        );
        assert_eq!(k.statistics().object_cache_hits, 1);
    }

    #[test]
    fn statistics_reflect_queue_state() {
        let k = boot();
        let task = k.create_task();
        let ps = k.page_size();
        let s0 = k.statistics();
        assert_eq!(s0.pagesize, ps);
        assert!(s0.free_count > 0);
        let addr = task.map().allocate(k.ctx(), None, 8 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 8 * ps).unwrap());
        let s1 = k.statistics();
        assert_eq!(s1.free_count, s0.free_count - 8);
        assert_eq!(s1.active_count, s0.active_count + 8);
        assert_eq!(s1.zero_fill_count, s0.zero_fill_count + 8);
    }

    #[test]
    fn deallocate_returns_pages() {
        let k = boot();
        let task = k.create_task();
        let ps = k.page_size();
        let free0 = k.statistics().free_count;
        let addr = task.map().allocate(k.ctx(), None, 8 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 8 * ps).unwrap());
        task.map().deallocate(k.ctx(), addr, 8 * ps).unwrap();
        assert_eq!(k.statistics().free_count, free0, "all pages came back");
        // Access after deallocate is invalid.
        task.user(0, |u| {
            assert_eq!(u.read_u32(addr).unwrap_err(), VmError::InvalidAddress);
        });
    }

    #[test]
    fn wire_and_unwire() {
        let k = boot();
        let task = k.create_task();
        let ps = k.page_size();
        let addr = task.map().allocate(k.ctx(), None, 2 * ps, true).unwrap();
        k.vm_wire(&task, addr, 2 * ps).unwrap();
        assert_eq!(k.statistics().wire_count, 2);
        k.vm_unwire(&task, addr, 2 * ps);
        assert_eq!(k.statistics().wire_count, 0);
    }

    #[test]
    fn reclaim_pages_under_explicit_pressure() {
        let k = boot();
        let task = k.create_task();
        let ps = k.page_size();
        let addr = task.map().allocate(k.ctx(), None, 16 * ps, true).unwrap();
        task.user(0, |u| u.dirty_range(addr, 16 * ps).unwrap());
        let free0 = k.statistics().free_count;
        let got = k.reclaim(8);
        assert!(got >= 8);
        assert!(k.statistics().free_count >= free0 + 8);
        assert!(
            k.statistics().pageouts >= 8,
            "dirty pages went to the default pager"
        );
        // Data still fully recoverable.
        task.user(0, |u| {
            for i in 0..16 {
                assert_eq!(u.read_u32(addr + i * ps).unwrap(), 0x5A5A_5A5A);
            }
        });
    }
}

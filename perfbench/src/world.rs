//! One booted machine + kernel with a workload's tasks, and the
//! closed-loop executor that drives it through the kernel's public API
//! (`Kernel`, `Task`, `UserCtx`, `VmMap`, `Machine`) only.
//!
//! Every read is checked against the executor's own model of what the
//! address holds, and every `Err` a call returns is counted by kind; no
//! workload code unwraps a `VmResult`.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use mach_fs::{BlockDevice, FileId, SimFs};
use mach_hw::cost::ClockSnapshot;
use mach_hw::machine::{Machine, MachineModel};
use mach_vm::{BootOptions, FleetOptions, Inheritance, Kernel, Protection, Task, UserCtx, VmError};

use crate::gen::{self, Access, Plan, Region, Step, Workload, CPUS};
use crate::host;
use crate::spans::{Span, Spans};

/// Pager services of the `paging_fleet` workload's fleet.
const FLEET_PAGERS: usize = 2;
/// Port queue depth of each fleet service.
const FLEET_QUEUE: usize = 8;

/// The machine model a workload runs on, and its port name.
pub fn model(workload: Workload) -> (MachineModel, &'static str) {
    let (mut m, port) = match workload {
        Workload::ForkStorm => (MachineModel::sun_3_160(), "sun3"),
        _ => (MachineModel::micro_vax_ii(), "vax"),
    };
    m.n_cpus = CPUS;
    (m, port)
}

/// A task of one CPU's tenant.
struct Tenant {
    task: Arc<Task>,
    /// Base of the anonymous region. Under `fork_storm` its first
    /// [`gen::FORK_SHARED_PAGES`] pages are the `Shared` half and the rest
    /// the `Copy` half.
    anon: u64,
    /// The mapped file and its current base address.
    file: Option<(FileId, u64)>,
}

/// A booted world ready for one round of a plan.
pub struct World {
    seed: u64,
    workload: Workload,
    /// The simulated machine.
    pub machine: Arc<Machine>,
    /// Its kernel.
    pub kernel: Arc<Kernel>,
    /// The file system holding the mapped files and any paging file.
    pub fs: Arc<SimFs>,
    tenants: Vec<Tenant>,
}

/// What one CPU thread did in one round.
#[derive(Debug, Default)]
pub struct CpuOutcome {
    /// Host nanoseconds of each step.
    pub step_ns: Vec<u64>,
    /// Kernel operations issued.
    pub attempted: u64,
    /// `Err` returns, by error kind.
    pub errors: BTreeMap<String, u64>,
    /// Reads that returned something other than the model's value.
    pub mismatches: u64,
    /// The first mismatch, described.
    pub first_mismatch: Option<String>,
    /// `(cpu, step index)` being executed, for mismatch reports.
    step: (usize, usize),
    /// Pages asked of and freed by `Kernel::reclaim`.
    pub reclaim_asked: u64,
    /// See [`CpuOutcome::reclaim_asked`].
    pub reclaim_freed: u64,
    /// Lowest free-page count seen at a step boundary (traced rounds).
    pub free_min: Option<u64>,
    /// Spans (traced rounds only).
    pub spans: Vec<Span>,
    /// Tasks still alive when the steps ended; dropped with the world so
    /// their teardown stays outside the measured body.
    pub keep: Vec<Arc<Task>>,
}

impl CpuOutcome {
    /// Failed operations: error returns plus read-back mismatches.
    pub fn failed(&self) -> u64 {
        self.errors.values().sum::<u64>() + self.mismatches
    }

    fn error(&mut self, e: VmError) {
        *self.errors.entry(format!("{e:?}")).or_default() += 1;
    }
}

/// What a task's words should read: values written by the plan, or
/// `None` for a word whose store failed. Words absent from the map hold
/// their initial value.
#[derive(Clone, Debug, Default)]
struct Model(HashMap<(u32, u32), Option<u32>>);

impl Model {
    fn expect(&self, a: &Access, initial: u32) -> Option<u32> {
        self.0
            .get(&(a.page, a.offset))
            .copied()
            .unwrap_or(Some(initial))
    }
}

/// Tag for file contents in [`gen::word`].
const FILE_TAG: u64 = 0xF11E;

/// Initial value of an anonymous word of `cpu`'s tenant.
fn initial(seed: u64, cpu: usize, region: Region, page: u32, offset: u32) -> u32 {
    gen::word(
        seed,
        ((cpu as u64) << 8) | region as u64,
        u64::from(page),
        u64::from(offset),
    )
}

/// The word at byte `at` (4-aligned) of file `file`.
fn file_word(seed: u64, file: usize, at: u64) -> u32 {
    gen::word(seed, FILE_TAG + file as u64, at / 4, 0)
}

fn file_bytes(seed: u64, file: usize, len: u64) -> Vec<u8> {
    (0..len / 4)
        .flat_map(|i| file_word(seed, file, i * 4).to_le_bytes())
        .collect()
}

fn verr(what: &str) -> impl Fn(VmError) -> String + '_ {
    move |e| format!("setup: {what}: {e:?}")
}

/// Format a file system on a fresh device holding one file of
/// `files[i]` pages each (contents from [`file_word`]), with room for
/// `spare_pages` more (a paging file).
fn format_fs(
    machine: &Arc<Machine>,
    seed: u64,
    page_size: u64,
    files: &[u32],
    spare_pages: u32,
) -> Result<(Arc<SimFs>, Vec<FileId>), String> {
    let pages: u64 = files.iter().map(|&p| u64::from(p)).sum::<u64>() + u64::from(spare_pages);
    let bs = machine.disk().block_size;
    let dev = BlockDevice::new(machine, (2 * pages * page_size).div_ceil(bs) + 128);
    let fs = SimFs::format(&dev);
    let mut ids = Vec::new();
    for (i, &n) in files.iter().enumerate() {
        let f = fs
            .create(&format!("file{i}"))
            .map_err(|e| format!("setup: create file: {e:?}"))?;
        fs.write_at(f, 0, &file_bytes(seed, i, u64::from(n) * page_size))
            .map_err(|e| format!("setup: write file: {e:?}"))?;
        ids.push(f);
    }
    Ok((fs, ids))
}

impl World {
    /// Boot the workload's machine and kernel and build its tasks (the
    /// unmeasured set-up of a round).
    ///
    /// # Errors
    ///
    /// A description of the first set-up call that failed.
    pub fn setup(plan: &Plan) -> Result<World, String> {
        let (m, _) = model(plan.workload);
        let machine = Machine::boot(m);
        let mut opts = BootOptions::for_machine(&machine);
        let ps = opts.page_multiple * machine.hw_page_size();
        let (files, swap): (&[u32], u32) = match plan.workload {
            Workload::ForkStorm => (&[gen::FORK_FILE_PAGES], 0),
            Workload::FaultStream => (&[], 0),
            Workload::Paging | Workload::PagingFleet => (
                &[gen::PAGING_FILE_PAGES; CPUS],
                gen::PAGING_ANON_PAGES * CPUS as u32,
            ),
        };
        let (fs, files) = format_fs(&machine, plan.seed, ps, files, swap)?;
        let kernel = match plan.workload {
            // The default pager writes a paging file on the same fs.
            Workload::Paging => Kernel::boot_with_paging_file_opts(&machine, &fs, opts),
            Workload::PagingFleet => {
                opts.pager_fleet = Some(FleetOptions {
                    pagers: FLEET_PAGERS,
                    queue_capacity: FLEET_QUEUE,
                });
                Kernel::boot_with(&machine, opts)
            }
            Workload::ForkStorm | Workload::FaultStream => Kernel::boot_with(&machine, opts),
        };
        let mut world = World {
            seed: plan.seed,
            workload: plan.workload,
            machine,
            kernel,
            fs,
            tenants: Vec::new(),
        };
        match plan.workload {
            Workload::ForkStorm => world.setup_fork_storm(files[0])?,
            Workload::FaultStream => {
                for _ in 0..CPUS {
                    let task = world.kernel.create_task();
                    world.tenants.push(Tenant {
                        task,
                        anon: 0,
                        file: None,
                    });
                }
            }
            Workload::Paging | Workload::PagingFleet => world.setup_paging(&files)?,
        }
        Ok(world)
    }

    fn page_size(&self) -> u64 {
        self.kernel.page_size()
    }

    /// Every simulated CPU's clock, now.
    pub fn clocks(&self) -> Vec<ClockSnapshot> {
        (0..CPUS)
            .map(|i| self.machine.cpu(i).clock.snapshot())
            .collect()
    }

    /// A task with an anonymous region of `pages` whose words hold their
    /// initial values, written from CPU 0.
    fn anon_task(
        &self,
        cpu: usize,
        pages: u32,
        regions: &[(Region, u32)],
    ) -> Result<Tenant, String> {
        let ps = self.page_size();
        let task = self.kernel.create_task();
        let anon = task
            .map()
            .allocate(self.kernel.ctx(), None, u64::from(pages) * ps, true)
            .map_err(verr("allocate"))?;
        task.user(0, |u| -> Result<(), VmError> {
            let mut base = anon;
            for &(region, n) in regions {
                for page in 0..n {
                    for offset in gen::SLOT_OFFSETS {
                        let v = initial(self.seed, cpu, region, page, offset);
                        u.write_u32(base + u64::from(page) * ps + u64::from(offset), v)?;
                    }
                }
                base += u64::from(n) * ps;
            }
            Ok(())
        })
        .map_err(verr("initial writes"))?;
        Ok(Tenant {
            task,
            anon,
            file: None,
        })
    }

    /// Each CPU is a tenant whose parent maps a `Shared` half, a `Copy`
    /// half, and one file that both tenants map.
    fn setup_fork_storm(&mut self, file: FileId) -> Result<(), String> {
        let ps = self.page_size();
        let fs = Arc::clone(&self.fs);
        for cpu in 0..CPUS {
            let mut t = self.anon_task(
                cpu,
                gen::FORK_SHARED_PAGES + gen::FORK_COPY_PAGES,
                &[
                    (Region::Shared, gen::FORK_SHARED_PAGES),
                    (Region::Anon, gen::FORK_COPY_PAGES),
                ],
            )?;
            t.task
                .map()
                .inherit(
                    self.kernel.ctx(),
                    t.anon,
                    u64::from(gen::FORK_SHARED_PAGES) * ps,
                    Inheritance::Shared,
                )
                .map_err(verr("inherit"))?;
            let at = self
                .kernel
                .map_file(&t.task, &fs, file, None, Protection::READ)
                .map_err(verr("map file"))?;
            t.file = Some((file, at));
            self.tenants.push(t);
        }
        // Page the shared file in now: in the body, whichever CPU touched
        // a file page first would pay its disk wait, and the slowest CPU's
        // simulated elapsed time would depend on who won each race.
        let t = &self.tenants[0];
        let at = t.file.map_or(0, |(_, at)| at);
        t.task
            .user(0, |u| {
                u.touch_range(at, u64::from(gen::FORK_FILE_PAGES) * ps)
            })
            .map_err(verr("warm file"))?;
        Ok(())
    }

    /// Each CPU owns a dirty anonymous region and a read-only mapping of
    /// its own file.
    fn setup_paging(&mut self, files: &[FileId]) -> Result<(), String> {
        let fs = Arc::clone(&self.fs);
        for (cpu, &file) in files.iter().enumerate() {
            let mut t = self.anon_task(
                cpu,
                gen::PAGING_ANON_PAGES,
                &[(Region::Anon, gen::PAGING_ANON_PAGES)],
            )?;
            let at = self
                .kernel
                .map_file(&t.task, &fs, file, None, Protection::READ)
                .map_err(verr("map file"))?;
            t.file = Some((file, at));
            self.tenants.push(t);
        }
        Ok(())
    }

    /// Run one round of `plan`. Each simulated CPU gets a host thread of
    /// its own, pinned to its own host core and bound to its CPU for the
    /// whole round, except under [`Lockstep::Turns`].
    pub fn run(&self, plan: &Plan, traced: bool, cores: &[usize]) -> Vec<CpuOutcome> {
        let epoch = Instant::now();
        let mut runs: Vec<CpuRun> = (0..CPUS)
            .map(|cpu| self.cpu_run(cpu, Spans::new(traced, epoch, cpu)))
            .collect();
        let steps = plan.cpus[0].len();
        // fork_storm's CPUs contend on the SUN 3 pmap guard. Free-running,
        // they drift in and out of phase and a round meets anywhere from
        // none to dozens of forced 100 ms shootdown timeouts; in lockstep
        // the contention repeats. The paging workloads take turns: run
        // side by side, a reclaim removes mappings the other CPU has live
        // and its shootdown sometimes meets that CPU blocked on a lock the
        // reclaimer holds (a forced 100 ms timeout), and concurrent
        // pageins contend on the file system's locks, so their host time
        // followed the host's scheduling more than the program.
        let lockstep = match self.workload {
            Workload::ForkStorm => Some(Lockstep::EachStep),
            Workload::Paging | Workload::PagingFleet => Some(Lockstep::Turns),
            Workload::FaultStream => None,
        };
        if lockstep == Some(Lockstep::Turns) {
            // One host thread binds each CPU for its turn. Between turns a
            // CPU is unbound, hence quiescent: shootdowns flush its TLB
            // directly. Turns on two threads left the waiting one spinning
            // against the working one whenever the host lent fewer than
            // two cores.
            std::thread::scope(|s| {
                s.spawn(|| {
                    host::pin_to(cores[0]);
                    for i in 0..steps {
                        for r in runs.iter_mut() {
                            let _bind = self.machine.bind_cpu(r.cpu);
                            self.step(r, i, &plan.cpus[r.cpu][i]);
                        }
                    }
                })
                .join()
                .expect("the simulated CPUs' thread panicked");
            });
            return runs.into_iter().map(CpuRun::finish).collect();
        }
        // Without a common start, one CPU can finish a short round before
        // the other's thread is running, and nothing contends.
        let start = Barrier::new(CPUS);
        let spin = Spin::default();
        std::thread::scope(|s| {
            let handles: Vec<_> = runs
                .into_iter()
                .map(|mut r| {
                    let core = cores[r.cpu % cores.len()];
                    let (start, spin) = (&start, &spin);
                    s.spawn(move || {
                        host::pin_to(core);
                        let _bind = self.machine.bind_cpu(r.cpu);
                        start.wait();
                        for (i, step) in plan.cpus[r.cpu].iter().enumerate() {
                            if lockstep == Some(Lockstep::EachStep) {
                                spin.wait(&self.machine, r.cpu);
                            }
                            self.step(&mut r, i, step);
                        }
                        r.finish()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a simulated CPU's thread panicked"))
                .collect()
        })
    }

    fn cpu_run(&self, cpu: usize, spans: Spans) -> CpuRun {
        let exec = match self.workload {
            Workload::ForkStorm => Exec::Fork(ForkState::new(&self.tenants[cpu])),
            Workload::FaultStream => Exec::Stream,
            Workload::Paging | Workload::PagingFleet => {
                Exec::Paging(Model::default(), self.tenants[cpu].file)
            }
        };
        CpuRun {
            cpu,
            exec,
            out: CpuOutcome::default(),
            spans,
        }
    }

    /// Run and time step `i` of CPU `r.cpu`, which the calling thread
    /// has bound.
    fn step(&self, r: &mut CpuRun, i: usize, step: &Step) {
        let CpuRun {
            cpu,
            exec,
            out,
            spans,
        } = r;
        let cpu = *cpu;
        out.step = (cpu, i);
        let t0 = Instant::now();
        if spans.is_on() {
            let free = self.kernel.statistics().free_count;
            out.free_min = Some(out.free_min.map_or(free, |m| m.min(free)));
        }
        spans.begin_step();
        if step.reclaim > 0 {
            out.attempted += 1;
            let freed = spans.call("pageout.reclaim", || {
                self.kernel.reclaim(step.reclaim as usize)
            });
            out.reclaim_asked += u64::from(step.reclaim);
            out.reclaim_freed += freed as u64;
        }
        match exec {
            Exec::Fork(st) => self.fork_step(cpu, step, st, spans, out),
            Exec::Stream => self.stream_step(cpu, step, spans, out),
            Exec::Paging(model, file) => self.paging_step(cpu, step, model, file, spans, out),
        }
        spans.end_step();
        out.step_ns.push(t0.elapsed().as_nanos() as u64);
    }

    /// Fork the lineage; the child makes the step's accesses.
    fn fork_step(
        &self,
        cpu: usize,
        step: &Step,
        st: &mut ForkState,
        spans: &mut Spans,
        out: &mut CpuOutcome,
    ) {
        let ps = self.page_size();
        let t = &self.tenants[cpu];
        let copy_base = t.anon + u64::from(gen::FORK_SHARED_PAGES) * ps;
        let file_base = t.file.map_or(0, |(_, at)| at);
        out.attempted += 1;
        let child = spans.call("task.fork", || st.lineage.fork());
        let mut model = st.lineage_model.clone();
        let shared = &mut st.shared_model;
        spans.call("task.user", || {
            child.user(cpu, |u| {
                for a in &step.accesses {
                    let at = u64::from(a.page) * ps + u64::from(a.offset);
                    match a.region {
                        Region::Anon => {
                            let init = initial(self.seed, cpu, a.region, a.page, a.offset);
                            access(u, copy_base + at, a, &mut model, init, out);
                        }
                        Region::Shared => {
                            let init = initial(self.seed, cpu, a.region, a.page, a.offset);
                            access(u, t.anon + at, a, shared, init, out);
                        }
                        Region::File => {
                            let want = file_word(self.seed, 0, at);
                            access(u, file_base + at, a, &mut Model::default(), want, out);
                        }
                    }
                }
            })
        });
        // The lineage's own view must be untouched by the child's writes.
        let mut view = st.lineage_model.clone();
        spans.call("task.user", || {
            st.lineage.user(cpu, |u| {
                for a in &step.lineage_reads {
                    let at = u64::from(a.page) * ps + u64::from(a.offset);
                    let init = initial(self.seed, cpu, a.region, a.page, a.offset);
                    access(u, copy_base + at, a, &mut view, init, out);
                }
            })
        });
        let retired = if step.advance {
            st.lineage_model = model;
            Some(std::mem::replace(&mut st.lineage, child))
        } else {
            st.live.push_back(child);
            if st.live.len() > gen::FORK_LIVE {
                st.live.pop_front()
            } else {
                None
            }
        };
        if let Some(task) = retired {
            spans.call("task.drop", || drop(task));
        }
    }

    /// Allocate a fresh region, touch and verify it, deallocate it.
    fn stream_step(&self, cpu: usize, step: &Step, spans: &mut Spans, out: &mut CpuOutcome) {
        let ctx = self.kernel.ctx();
        let task = &self.tenants[cpu].task;
        let ps = self.page_size();
        let size = u64::from(gen::STREAM_PAGES) * ps;
        out.attempted += 1;
        let base = match spans.call("map.allocate", || {
            task.map().allocate(ctx, None, size, true)
        }) {
            Ok(base) => base,
            Err(e) => return out.error(e),
        };
        let mut model = Model::default();
        spans.call("task.user", || {
            task.user(cpu, |u| {
                for a in &step.accesses {
                    let va = base + u64::from(a.page) * ps + u64::from(a.offset);
                    access(u, va, a, &mut model, 0, out);
                }
            })
        });
        out.attempted += 1;
        if let Err(e) = spans.call("map.deallocate", || task.map().deallocate(ctx, base, size)) {
            out.error(e);
        }
    }

    /// Optionally remap the file, then write and read back anonymous
    /// pages and read file pages.
    fn paging_step(
        &self,
        cpu: usize,
        step: &Step,
        model: &mut Model,
        file: &mut Option<(FileId, u64)>,
        spans: &mut Spans,
        out: &mut CpuOutcome,
    ) {
        let ctx = self.kernel.ctx();
        let t = &self.tenants[cpu];
        let ps = self.page_size();
        let fs = &self.fs;
        if step.remap {
            if let Some((id, at)) = *file {
                out.attempted += 2;
                let len = u64::from(gen::PAGING_FILE_PAGES) * ps;
                if let Err(e) =
                    spans.call("map.deallocate", || t.task.map().deallocate(ctx, at, len))
                {
                    out.error(e);
                }
                match spans.call("object.map_file", || {
                    self.kernel
                        .map_file(&t.task, fs, id, None, Protection::READ)
                }) {
                    Ok(at) => *file = Some((id, at)),
                    Err(e) => out.error(e),
                }
            }
        }
        let file_base = file.map_or(0, |(_, at)| at);
        spans.call("task.user", || {
            t.task.user(cpu, |u| {
                for a in &step.accesses {
                    let at = u64::from(a.page) * ps + u64::from(a.offset);
                    match a.region {
                        Region::File => {
                            let want = file_word(self.seed, cpu, at);
                            access(u, file_base + at, a, &mut Model::default(), want, out);
                        }
                        _ => {
                            let init = initial(self.seed, cpu, a.region, a.page, a.offset);
                            access(u, t.anon + at, a, model, init, out);
                        }
                    }
                }
            })
        });
    }
}

/// How a workload's CPUs are kept in step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lockstep {
    /// Every CPU starts each step together, at a [`Spin`] barrier.
    EachStep,
    /// The CPUs take each step in turn, CPU 0 first, on one host thread.
    Turns,
}

/// A spinning barrier whose waiters keep servicing their CPU's IPIs. A
/// CPU parked bound and active in an ordinary barrier would answer no IPI,
/// and every waited shootdown aimed at it would time out.
#[derive(Debug, Default)]
struct Spin {
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

impl Spin {
    fn wait(&self, machine: &Machine, cpu: usize) {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == CPUS {
            self.arrived.store(0, Ordering::SeqCst);
            self.generation.fetch_add(1, Ordering::SeqCst);
        } else {
            // A pure spin: with short sleeps between polls the acks come
            // later, the CPUs' contention settles differently from run to
            // run, and the median step flips between the 100 ms and the
            // 200 ms pile of forced timeouts.
            while self.generation.load(Ordering::SeqCst) == generation {
                machine.poll_cpu(cpu);
                std::hint::spin_loop();
            }
        }
    }
}

/// One simulated CPU's executor: its workload state, outcome and spans.
struct CpuRun {
    cpu: usize,
    exec: Exec,
    out: CpuOutcome,
    spans: Spans,
}

impl CpuRun {
    fn finish(self) -> CpuOutcome {
        let mut out = self.out;
        if let Exec::Fork(st) = self.exec {
            out.keep = st.live.into_iter().chain([st.lineage]).collect();
        }
        out.spans = self.spans.spans;
        out
    }
}

/// Per-CPU executor state.
enum Exec {
    Fork(ForkState),
    Stream,
    Paging(Model, Option<(FileId, u64)>),
}

/// A `fork_storm` tenant's lineage, live set and models.
struct ForkState {
    lineage: Arc<Task>,
    /// The lineage's `Copy` half (children start from a clone).
    lineage_model: Model,
    /// The `Shared` half, one for the whole tenant.
    shared_model: Model,
    live: VecDeque<Arc<Task>>,
}

impl ForkState {
    fn new(t: &Tenant) -> ForkState {
        ForkState {
            lineage: Arc::clone(&t.task),
            lineage_model: Model::default(),
            shared_model: Model::default(),
            live: VecDeque::new(),
        }
    }
}

/// Issue one access, update the model and check reads against it.
fn access(u: &UserCtx, va: u64, a: &Access, model: &mut Model, initial: u32, out: &mut CpuOutcome) {
    out.attempted += 1;
    match a.write {
        Some(v) => match u.write_u32(va, v) {
            Ok(()) => {
                model.0.insert((a.page, a.offset), Some(v));
            }
            Err(e) => {
                // A failed store leaves the word unknown until rewritten.
                model.0.insert((a.page, a.offset), None);
                out.error(e);
            }
        },
        None => match u.read_u32(va) {
            Ok(got) => {
                if let Some(want) = model.expect(a, initial) {
                    if got != want {
                        out.mismatches += 1;
                        let (cpu, step) = out.step;
                        out.first_mismatch.get_or_insert_with(|| {
                            format!(
                                "cpu {cpu} step {step}: {:?} page {} offset {}: read {got:#x}, expected {want:#x}",
                                a.region, a.page, a.offset
                            )
                        });
                    }
                }
            }
            Err(e) => out.error(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(plan: &Plan) -> (Vec<ClockSnapshot>, Vec<CpuOutcome>) {
        let world = World::setup(plan).expect("set-up succeeds");
        let c0 = world.clocks();
        let out = world.run(plan, false, &host::allowed_cores());
        let d = c0
            .iter()
            .zip(world.clocks())
            .map(|(a, b)| a.delta(b))
            .collect();
        (d, out)
    }

    #[test]
    fn fault_stream_simulated_clock_repeats_exactly() {
        let plan = gen::plan(Workload::FaultStream, 5);
        let (a, _) = round(&plan);
        let (b, _) = round(&plan);
        assert_eq!(a, b);
        assert!(a.iter().all(|d| d.system_cycles > 0));
    }

    #[test]
    fn every_workload_reads_back_what_it_wrote() {
        for w in Workload::ALL {
            let (_, out) = round(&gen::plan(w, 9));
            for (cpu, c) in out.iter().enumerate() {
                assert_eq!(
                    c.failed(),
                    0,
                    "{} cpu {cpu}: {:?} {:?}",
                    w.name(),
                    c.errors,
                    c.first_mismatch
                );
                assert_eq!(c.step_ns.len(), gen::plan(w, 9).cpus[cpu].len());
                assert!(c.attempted > 0);
            }
        }
    }
}

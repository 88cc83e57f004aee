//! The replay driver and differential conformance harness of the
//! scenario engine.
//!
//! [`replay`] executes a parsed [`Scenario`] against a freshly booted
//! kernel on any of the five architecture ports at any CPU count,
//! optionally under the scenario's deterministic chaos seed, and returns
//! the machine-independent [`Observables`]. [`differential`] replays one
//! scenario across the full port matrix and demands the observables agree
//! *exactly* — the executable form of the paper's §4 claim that the pmap
//! layer is a cache whose behaviour never leaks into machine-independent
//! results.
//!
//! # The lockstep multiplex engine
//!
//! A trace records per-CPU op streams; replay multiplexes stream `s` onto
//! pinned thread `s % n_cpus` (the real per-CPU threads of
//! [`measured_parallel`]) and executes ops in **strict recorded order**:
//! a cursor over the global stream advances one op at a time, and the
//! thread owning the next op runs it while every other thread waits
//! **quiescent** — parked in [`Machine::kernel_block`] so shootdowns
//! against them complete without their participation. One CPU executing
//! at a time makes the interleaving (and therefore every observable,
//! including simulated elapsed time) a pure function of the trace and the
//! CPU count: the same trace replays byte-identically, which is what the
//! golden corpus and the `trace_replay` bench family gate on. What the
//! multiplexing *does* vary with CPU count is real per-CPU state — pmap
//! activations, shard homes, shootdown targets — so a 4-CPU replay still
//! exercises genuinely different machine-dependent paths than a 1-CPU
//! replay of the same trace.
//!
//! # What must agree across ports
//!
//! Exactly the counters the paper's machine-independent layer owns:
//! zero-fill / COW / pagein / pageout / clean-reclaim resolutions, the
//! final address-space contents (FNV-1a checksum over region metadata and
//! READ-able bytes), and **logical faults** = `faults − resident_hits`.
//! Raw fault and resident-hit counts are machine-*dependent*: a port may
//! discard MMU state behind a running task (SUN 3 pmeg/context steals,
//! §5.1), which adds refault/resident-hit pairs — always in equal number,
//! so the difference is invariant and is what gets gated.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use mach_fs::{BlockDevice, FileId, SimFs};
use mach_hw::machine::{Machine, MachineCounts, MachineModel};
use mach_vm::kernel::{BootOptions, Kernel};
use mach_vm::{InjectPlan, Protection, Task, VmOp, VmStats};

use crate::measure::{measured_parallel, SimTime};
use crate::scenario::{Expectation, Scenario};

/// The five architecture ports, in canonical order.
pub const PORTS: [&str; 5] = ["vax", "romp", "sun3", "ns32082", "tlbsoft"];

/// The machine model a port name boots with (`cpus` is honoured even on
/// historically uniprocessor models, so every port exercises the
/// multi-CPU paths).
///
/// # Panics
///
/// On an unknown port name.
pub fn port_model(port: &str, cpus: usize) -> MachineModel {
    let mut model = match port {
        "vax" => MachineModel::micro_vax_ii(),
        "romp" => MachineModel::rt_pc(),
        "sun3" => MachineModel::sun_3_160(),
        "ns32082" => MachineModel::multimax(cpus),
        "tlbsoft" => MachineModel::rp3(cpus),
        _ => panic!("unknown port {port:?} (expected one of {PORTS:?})"),
    };
    model.n_cpus = cpus;
    model
}

/// The observables of one replay. The first seven fields are the
/// machine-independent set that must agree exactly across ports (see the
/// module docs); the rest are reported for diagnosis but not gated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observables {
    /// `faults − resident_hits` (refault-invariant).
    pub logical_faults: u64,
    /// Zero-fill fault resolutions.
    pub zero_fill: u64,
    /// Copy-on-write fault resolutions.
    pub cow: u64,
    /// Pager data requests.
    pub pageins: u64,
    /// Dirty pages written out.
    pub pageouts: u64,
    /// Clean pages reclaimed.
    pub reclaims: u64,
    /// FNV-1a 64 over final address-space metadata and contents.
    pub checksum: u64,
    /// Raw fault count (machine-dependent: includes hardware refaults).
    pub faults: u64,
    /// Raw resident-hit count (machine-dependent).
    pub resident_hits: u64,
    /// Pages reactivated by the daemon (machine-dependent: depends on
    /// which candidates the home shard offered).
    pub reactivations: u64,
    /// 95th-percentile shadow-chain depth walked by faults.
    pub shadow_depth_p95: u64,
}

impl Observables {
    /// The gated fields, labelled — what [`differential`] compares.
    pub fn gated(&self) -> [(&'static str, u64); 7] {
        [
            ("logical_faults", self.logical_faults),
            ("zero_fill", self.zero_fill),
            ("cow", self.cow),
            ("pageins", self.pageins),
            ("pageouts", self.pageouts),
            ("reclaims", self.reclaims),
            ("checksum", self.checksum),
        ]
    }

    /// These observables as a scenario `expect` line.
    pub fn to_expectation(&self) -> Expectation {
        Expectation {
            logical_faults: self.logical_faults,
            zero_fill: self.zero_fill,
            cow: self.cow,
            pageins: self.pageins,
            pageouts: self.pageouts,
            reclaims: self.reclaims,
            checksum: self.checksum,
        }
    }

    /// Check against a scenario's pinned expectation.
    ///
    /// # Errors
    ///
    /// Names every field that differs.
    pub fn matches(&self, e: &Expectation) -> Result<(), String> {
        let want = Observables {
            logical_faults: e.logical_faults,
            zero_fill: e.zero_fill,
            cow: e.cow,
            pageins: e.pageins,
            pageouts: e.pageouts,
            reclaims: e.reclaims,
            checksum: e.checksum,
            ..*self
        };
        let diffs: Vec<String> = self
            .gated()
            .iter()
            .zip(want.gated().iter())
            .filter(|(got, want)| got.1 != want.1)
            .map(|(got, want)| format!("{}: got {}, expected {}", got.0, got.1, want.1))
            .collect();
        if diffs.is_empty() {
            Ok(())
        } else {
            Err(diffs.join("; "))
        }
    }
}

/// Everything one replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The machine-independent observables (plus reported extras).
    pub obs: Observables,
    /// Simulated time of the op stream (system summed, elapsed max).
    pub time: SimTime,
    /// The full [`VmStats`] delta over the replay.
    pub stats: VmStats,
    /// The machine's cross-processor counters at the end of the replay.
    pub machine: MachineCounts,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(FNV_OFFSET)
    }
    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.byte(b);
        }
    }
    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// FNV-1a 64 over the final address spaces of `tasks`, **in the order
/// given** (callers pass creation order, so recorded and replayed runs
/// hash the same ordinals regardless of raw task-id values): for every
/// region, its metadata (bounds, protections, inheritance, sharing), and
/// for READ-able regions the full page contents via `vm_read`.
///
/// Call *after* capturing a stats delta — the reads fault non-resident
/// pages back in.
pub fn address_space_checksum(kernel: &Arc<Kernel>, tasks: &[Arc<Task>]) -> u64 {
    let page = kernel.page_size();
    let mut h = Fnv::new();
    for (ordinal, task) in tasks.iter().enumerate() {
        h.u64(ordinal as u64);
        for r in task.map().regions() {
            h.u64(r.start);
            h.u64(r.end);
            h.u64(u64::from(r.prot.bits()));
            h.u64(u64::from(r.max_prot.bits()));
            h.u64(match r.inheritance {
                mach_vm::Inheritance::Shared => 1,
                mach_vm::Inheritance::Copy => 2,
                mach_vm::Inheritance::None => 3,
            });
            h.u64(u64::from(r.shared));
            if r.prot.contains(Protection::READ) {
                let mut at = r.start;
                while at < r.end {
                    let take = page.min(r.end - at);
                    let data = kernel
                        .vm_read(task, at, take)
                        .expect("READ-able region readable");
                    h.bytes(&data);
                    at += take;
                }
            }
        }
    }
    h.0
}

/// Replay `scenario` on `port` with `cpus` CPUs and return the outcome.
///
/// Boots a fresh machine and kernel (page size forced to the scenario's
/// via `page_multiple`), creates the scenario's files, then drives the op
/// stream through the lockstep multiplex engine (module docs). The stats
/// delta covers exactly the op stream; the checksum is computed after.
///
/// # Errors
///
/// If the port cannot honour the scenario's page size, or an op fails
/// (the message names the op index).
pub fn replay(scenario: &Scenario, port: &str, cpus: usize) -> Result<ReplayOutcome, String> {
    replay_with_fleet(scenario, port, cpus, None)
}

/// [`replay`], but with the default pager optionally run as a
/// [`mach_vm::PagerFleet`] over real `mach-ipc` port queues. The fleet
/// client is conformance-transparent — counters, charged latency, and
/// final contents match the in-process pager — so a golden trace must
/// produce identical gated observables either way; the IPC-transport
/// differential suite holds the corpus to that.
///
/// # Errors
///
/// As for [`replay`].
pub fn replay_with_fleet(
    scenario: &Scenario,
    port: &str,
    cpus: usize,
    fleet: Option<mach_vm::FleetOptions>,
) -> Result<ReplayOutcome, String> {
    scenario.validate()?;
    let machine = Machine::boot(port_model(port, cpus));
    let hw = machine.hw_page_size();
    if !scenario.page_size.is_multiple_of(hw) {
        return Err(format!(
            "port {port} hardware page {hw} cannot compose the scenario's page {}",
            scenario.page_size
        ));
    }
    let mut opts = BootOptions::for_machine(&machine);
    opts.page_multiple = scenario.page_size / hw;
    opts.pager_fleet = fleet;
    if let Some(c) = &scenario.chaos {
        opts.inject = Some(
            InjectPlan::new(c.seed)
                .pager_stall(c.pager_stall)
                .msg_delay(c.msg_delay)
                .msg_duplicate(c.msg_duplicate)
                .io_transient(c.io_transient),
        );
    }
    let kernel = Kernel::boot_with(&machine, opts);

    // Create the scenario's files on a private device (unmeasured setup).
    let mut file_ids: HashMap<u64, FileId> = HashMap::new();
    let fs = if scenario.files.is_empty() {
        None
    } else {
        let bs = machine.disk().block_size;
        let total: u64 = scenario.files.iter().map(|f| f.size).sum();
        let dev = BlockDevice::new(&machine, total / bs + 64);
        let fs = SimFs::format(&dev);
        for f in &scenario.files {
            let id = fs
                .create(&format!("f{}", f.id))
                .map_err(|e| format!("create file {}: {e:?}", f.id))?;
            let chunk = vec![f.fill; 64 * 1024];
            let mut at = 0u64;
            while at < f.size {
                let take = (f.size - at).min(chunk.len() as u64);
                fs.write_at(id, at, &chunk[..take as usize])
                    .map_err(|e| format!("fill file {}: {e:?}", f.id))?;
                at += take;
            }
            file_ids.insert(f.id, id);
        }
        Some(fs)
    };

    kernel.enable_health();
    let baseline = kernel.statistics();

    // ---- the lockstep multiplex engine ----
    let n = cpus.max(1);
    let tasks: Mutex<HashMap<u64, Arc<Task>>> = Mutex::new(HashMap::new());
    let cursor = Mutex::new(0usize);
    let done = scenario.ops.len();
    let cv = Condvar::new();
    let error: Mutex<Option<String>> = Mutex::new(None);
    let (time, _per_cpu) = measured_parallel(&machine, n, |cpu| {
        // Every thread is kernel-blocked (quiescent) at all times except
        // while executing its own op, and the guard is re-taken *before*
        // the cursor unlocks to hand the turn over. The invariant makes
        // timing deterministic: a shootdown raised by the executing op
        // always finds every other engine CPU quiescent and takes the
        // free flush path — never a raced IPI-ack wait.
        let mut blk = machine.kernel_block();
        loop {
            let mut g = cursor.lock().expect("cursor lock");
            while *g < done && (scenario.ops[*g].cpu as usize % n) != cpu {
                g = cv.wait(g).expect("cursor wait");
            }
            if *g >= done {
                cv.notify_all();
                drop(blk);
                return;
            }
            let idx = *g;
            drop(blk);
            let r = exec_op(
                &kernel,
                fs.as_ref(),
                &file_ids,
                &tasks,
                &scenario.ops[idx].op,
                cpu,
            );
            if let Err(e) = r {
                let mut err = error.lock().expect("error lock");
                if err.is_none() {
                    *err = Some(format!("op {idx} ({:?}): {e}", scenario.ops[idx].op));
                }
                *g = done;
            } else {
                *g = idx + 1;
            }
            blk = machine.kernel_block();
            cv.notify_all();
        }
    });
    if let Some(e) = error.lock().expect("error lock").take() {
        return Err(format!("[{port} x{cpus}] {e}"));
    }

    let stats = kernel.statistics().delta(&baseline);
    kernel.disable_health();
    let shadow_depth_p95 = kernel.health_report().shadow_depth.percentile(0.95);

    // Checksum the surviving address spaces in trace-id order (dense
    // exports assign ids in creation order, so this is the recording's
    // creation order too).
    let live = tasks.into_inner().expect("tasks lock");
    let mut ids: Vec<u64> = live.keys().copied().collect();
    ids.sort_unstable();
    let ordered: Vec<Arc<Task>> = ids.iter().map(|i| Arc::clone(&live[i])).collect();
    let checksum = address_space_checksum(&kernel, &ordered);

    let obs = Observables {
        logical_faults: stats.faults.saturating_sub(stats.resident_hits),
        zero_fill: stats.zero_fill_count,
        cow: stats.cow_faults,
        pageins: stats.pageins,
        pageouts: stats.pageouts,
        reclaims: stats.reclaims,
        checksum,
        faults: stats.faults,
        resident_hits: stats.resident_hits,
        reactivations: stats.reactivations,
        shadow_depth_p95,
    };
    Ok(ReplayOutcome {
        obs,
        time,
        stats,
        machine: machine.stats.snapshot(),
    })
}

fn exec_op(
    kernel: &Arc<Kernel>,
    fs: Option<&Arc<SimFs>>,
    file_ids: &HashMap<u64, FileId>,
    tasks: &Mutex<HashMap<u64, Arc<Task>>>,
    op: &VmOp,
    cpu: usize,
) -> Result<(), String> {
    let get = |t: u64| -> Result<Arc<Task>, String> {
        tasks
            .lock()
            .expect("tasks lock")
            .get(&t)
            .cloned()
            .ok_or_else(|| format!("task {t} not live"))
    };
    let vm = |e: mach_vm::VmError| format!("{e:?}");
    match *op {
        VmOp::TaskCreate { task } => {
            let t = kernel.create_task();
            tasks.lock().expect("tasks lock").insert(task, t);
        }
        VmOp::TaskDrop { task } => {
            tasks.lock().expect("tasks lock").remove(&task);
        }
        VmOp::Fork { parent, child } => {
            let c = get(parent)?.fork();
            tasks.lock().expect("tasks lock").insert(child, c);
        }
        VmOp::Allocate { task, addr, size } => {
            let t = get(task)?;
            let got = t
                .map()
                .allocate(kernel.ctx(), Some(addr), size, false)
                .map_err(vm)?;
            if got != addr {
                return Err(format!("allocate landed at {got:#x}, trace says {addr:#x}"));
            }
        }
        VmOp::MapFile {
            task,
            file,
            addr,
            size,
            prot,
        } => {
            let t = get(task)?;
            let fs = fs.ok_or("trace maps a file but declares none")?;
            let fid = file_ids[&file];
            let got = kernel.map_file(&t, fs, fid, Some(addr), prot).map_err(vm)?;
            if got != addr {
                return Err(format!("map_file landed at {got:#x}, trace says {addr:#x}"));
            }
            let have = kernel.ctx().round_page(fs.size(fid).unwrap_or(0).max(1));
            if have != size {
                return Err(format!(
                    "map_file size {have:#x} disagrees with trace {size:#x}"
                ));
            }
        }
        VmOp::Deallocate { task, addr, size } => {
            get(task)?
                .map()
                .deallocate(kernel.ctx(), addr, size)
                .map_err(vm)?;
        }
        VmOp::Protect {
            task,
            addr,
            size,
            set_maximum,
            prot,
        } => {
            get(task)?
                .map()
                .protect(kernel.ctx(), addr, size, set_maximum, prot)
                .map_err(vm)?;
        }
        VmOp::Inherit {
            task,
            addr,
            size,
            inheritance,
        } => {
            get(task)?
                .map()
                .inherit(kernel.ctx(), addr, size, inheritance)
                .map_err(vm)?;
        }
        VmOp::Touch { task, addr, len } => {
            let t = get(task)?;
            let page = kernel.page_size();
            t.user(cpu, |u| {
                let mut a = addr;
                while a < addr + len.max(1) {
                    u.read_u32(a)?;
                    a += page;
                }
                Ok(())
            })
            .map_err(vm)?;
        }
        VmOp::Write {
            task,
            addr,
            len,
            value,
        } => {
            let t = get(task)?;
            let page = kernel.page_size();
            t.user(cpu, |u| {
                let mut a = addr;
                while a < addr + len.max(1) {
                    u.write_u32(a, value)?;
                    a += page;
                }
                Ok(())
            })
            .map_err(vm)?;
        }
        VmOp::Rmw { task, addr } => {
            get(task)?
                .user(cpu, |u| u.rmw_u32(addr, |v| v))
                .map_err(vm)?;
        }
        VmOp::Reclaim { n } => {
            kernel.reclaim(n as usize);
        }
        VmOp::Balance => kernel.balance(),
    }
    Ok(())
}

/// One row of a differential run.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Port name.
    pub port: &'static str,
    /// CPU count.
    pub cpus: usize,
    /// The replay's outcome.
    pub outcome: ReplayOutcome,
}

/// Replay `scenario` on every port at each CPU count and demand the
/// machine-independent observables agree exactly — plus, when the
/// scenario pins an `expect` line or a `gate shadow_p95_max`, that every
/// replay honours them.
///
/// # Errors
///
/// A message naming the first diverging (port, cpus, field) triple, with
/// both values.
pub fn differential(scenario: &Scenario, cpu_counts: &[usize]) -> Result<Vec<DiffRow>, String> {
    let mut rows: Vec<DiffRow> = Vec::new();
    for &cpus in cpu_counts {
        for port in PORTS {
            let outcome = replay(scenario, port, cpus)?;
            if let Some(e) = &scenario.expect {
                outcome
                    .obs
                    .matches(e)
                    .map_err(|d| format!("[{} {port} x{cpus}] expectation: {d}", scenario.name))?;
            }
            if let Some(max) = scenario.shadow_p95_max {
                if outcome.obs.shadow_depth_p95 > max {
                    return Err(format!(
                        "[{} {port} x{cpus}] shadow depth p95 {} exceeds gate {max}",
                        scenario.name, outcome.obs.shadow_depth_p95
                    ));
                }
            }
            if let Some(first) = rows.first() {
                for (name, got) in outcome.obs.gated() {
                    let want = first
                        .outcome
                        .obs
                        .gated()
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map(|(_, v)| *v)
                        .expect("same field set");
                    if got != want {
                        return Err(format!(
                            "[{}] {name} diverges: {} x{} says {want}, {port} x{cpus} says {got}",
                            scenario.name, first.port, first.cpus
                        ));
                    }
                }
            }
            rows.push(DiffRow {
                port,
                cpus,
                outcome,
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::FileSpec;
    use mach_vm::OpRecord;

    fn mini() -> Scenario {
        Scenario {
            name: "mini".to_string(),
            page_size: 8192,
            streams: 2,
            files: vec![FileSpec {
                id: 1,
                size: 4 * 8192,
                fill: 0xA7,
            }],
            chaos: None,
            shadow_p95_max: None,
            ops: vec![
                OpRecord {
                    cpu: 0,
                    op: VmOp::TaskCreate { task: 1 },
                },
                OpRecord {
                    cpu: 0,
                    op: VmOp::Allocate {
                        task: 1,
                        addr: 0x40000,
                        size: 4 * 8192,
                    },
                },
                OpRecord {
                    cpu: 0,
                    op: VmOp::Write {
                        task: 1,
                        addr: 0x40000,
                        len: 4 * 8192,
                        value: 0xBEEF,
                    },
                },
                OpRecord {
                    cpu: 1,
                    op: VmOp::Fork {
                        parent: 1,
                        child: 2,
                    },
                },
                OpRecord {
                    cpu: 1,
                    op: VmOp::Write {
                        task: 2,
                        addr: 0x40000,
                        len: 8192,
                        value: 0xF00D,
                    },
                },
                OpRecord {
                    cpu: 0,
                    op: VmOp::MapFile {
                        task: 1,
                        file: 1,
                        addr: 0x80000,
                        size: 4 * 8192,
                        prot: Protection::READ,
                    },
                },
                OpRecord {
                    cpu: 0,
                    op: VmOp::Touch {
                        task: 1,
                        addr: 0x80000,
                        len: 4 * 8192,
                    },
                },
            ],
            expect: None,
        }
    }

    #[test]
    fn replay_is_deterministic_per_config() {
        let s = mini();
        let a = replay(&s, "vax", 1).unwrap();
        let b = replay(&s, "vax", 1).unwrap();
        assert_eq!(a.obs, b.obs);
        assert_eq!(a.time, b.time, "lockstep replay pins simulated time");
        let c = replay(&s, "vax", 2).unwrap();
        let d = replay(&s, "vax", 2).unwrap();
        assert_eq!(c.obs, d.obs);
        assert_eq!(c.time, d.time);
    }

    #[test]
    fn replay_counts_the_expected_resolutions() {
        let s = mini();
        let o = replay(&s, "vax", 1).unwrap().obs;
        // 4 zero-fills (parent dirty), 1 COW (child write), 4 pageins
        // (file touch); the fork and map cost no faults by themselves.
        assert_eq!(o.zero_fill, 4);
        assert_eq!(o.cow, 1);
        assert_eq!(o.pageins, 4);
        assert_eq!(o.pageouts, 0);
    }

    #[test]
    fn observables_match_reports_field_diffs() {
        let s = mini();
        let o = replay(&s, "vax", 1).unwrap().obs;
        let mut e = o.to_expectation();
        assert!(o.matches(&e).is_ok());
        e.cow += 1;
        let err = o.matches(&e).unwrap_err();
        assert!(err.contains("cow"), "{err}");
    }

    #[test]
    fn bad_port_page_combination_is_reported() {
        let mut s = mini();
        s.page_size = 4096; // below the SUN 3's 8 KB hardware page
        let err = replay(&s, "sun3", 1).unwrap_err();
        assert!(err.contains("cannot compose"), "{err}");
    }
}

//! Simulated-time measurement helpers.
//!
//! Workloads run on the simulated machine; their cost is the cycles and
//! I/O waits charged to the CPU clocks, converted to time by the machine's
//! clock rate. This is what lets the harness print paper-style
//! milliseconds without 1987 hardware.

use std::sync::Arc;

use mach_hw::machine::Machine;
use mach_vm::kernel::Kernel;
use mach_vm::trace::TraceLog;

/// A simulated duration, split the way the paper's Table 7-1 splits it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimTime {
    /// CPU (system) time, microseconds.
    pub system_us: u64,
    /// Elapsed time (system + I/O waits), microseconds.
    pub elapsed_us: u64,
}

impl SimTime {
    /// system time in milliseconds.
    pub fn system_ms(&self) -> f64 {
        self.system_us as f64 / 1000.0
    }

    /// elapsed time in milliseconds.
    pub fn elapsed_ms(&self) -> f64 {
        self.elapsed_us as f64 / 1000.0
    }
}

impl std::fmt::Display for SimTime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.2}/{:.2} ms (sys/elapsed)",
            self.system_ms(),
            self.elapsed_ms()
        )
    }
}

/// Run `f` with the current thread bound to `cpu` and return the
/// simulated time it charged to that CPU.
pub fn measured<R>(machine: &Arc<Machine>, cpu: usize, f: impl FnOnce() -> R) -> (SimTime, R) {
    let _bind = machine.bind_cpu(cpu);
    let mhz = machine.model().mhz;
    let before = machine.cpu(cpu).clock.snapshot();
    let r = f();
    let d = before.delta(machine.cpu(cpu).clock.snapshot());
    (
        SimTime {
            system_us: d.system_us(mhz),
            elapsed_us: d.elapsed_us(mhz),
        },
        r,
    )
}

/// Run `f(cpu)` concurrently on `cpus` simulated CPUs — one pinned OS
/// thread per CPU, so fault streams genuinely race through the kernel —
/// and return the aggregate simulated time plus each CPU's own interval.
///
/// Aggregation follows the multiprocessor reading of Table 7-1:
/// `system_us` is the **sum** of CPU time charged across all CPUs (total
/// work), `elapsed_us` the **maximum** (the wall clock of the slowest
/// CPU, since they run concurrently). Throughput metrics should divide
/// operation counts by the aggregate `elapsed_us`.
pub fn measured_parallel(
    machine: &Arc<Machine>,
    cpus: usize,
    f: impl Fn(usize) + Send + Sync,
) -> (SimTime, Vec<SimTime>) {
    let cpus = cpus.max(1);
    let per_cpu: Vec<SimTime> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..cpus)
            .map(|cpu| {
                let f = &f;
                s.spawn(move || measured(machine, cpu, || f(cpu)).0)
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cpu thread panicked"))
            .collect()
    });
    let agg = SimTime {
        system_us: per_cpu.iter().map(|t| t.system_us).sum(),
        elapsed_us: per_cpu.iter().map(|t| t.elapsed_us).max().unwrap_or(0),
    };
    (agg, per_cpu)
}

/// Run `f` with VM event tracing enabled on `kernel` (ring capacity
/// `capacity_per_cpu` records per CPU) and return the captured
/// [`TraceLog`] alongside `f`'s result. Tracing is switched off again
/// before returning, so a benchmark's warm-up and teardown stay unpaid.
///
/// This is the bench-harness hook of the trace analyzer: pair it with
/// [`TraceLog::latency_histogram`] or [`TraceLog::totals`] to turn one
/// benchmark number into a before/after event diff.
pub fn traced<R>(kernel: &Kernel, capacity_per_cpu: usize, f: impl FnOnce() -> R) -> (TraceLog, R) {
    kernel.enable_tracing(capacity_per_cpu);
    let r = f();
    let log = kernel.trace_log();
    kernel.disable_tracing();
    (log, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mach_hw::machine::MachineModel;

    #[test]
    fn measured_reports_only_the_interval() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        {
            let _b = machine.bind_cpu(0);
            machine.charge(5_000_000); // pre-existing work
        }
        let (t, val) = measured(&machine, 0, || {
            machine.charge(10_000_000); // 2 s at 5 MHz
            machine.charge_wait_us(500);
            7
        });
        assert_eq!(val, 7);
        assert_eq!(t.system_us, 2_000_000);
        assert_eq!(t.elapsed_us, 2_000_500);
        assert_eq!(t.system_ms(), 2000.0);
    }

    #[test]
    fn measured_parallel_sums_system_and_takes_max_elapsed() {
        let machine = Machine::boot(MachineModel::multimax(4));
        let mhz = machine.model().mhz;
        let (agg, per_cpu) = measured_parallel(&machine, 4, |cpu| {
            // CPU i charges (i+1) million cycles: distinct clocks prove
            // each thread charged its own CPU.
            machine.charge((cpu as u64 + 1) * 1_000_000);
        });
        assert_eq!(per_cpu.len(), 4);
        let us = |cycles: u64| cycles / mhz;
        for (cpu, t) in per_cpu.iter().enumerate() {
            assert_eq!(t.system_us, us((cpu as u64 + 1) * 1_000_000));
        }
        assert_eq!(
            agg.system_us,
            us(1_000_000) + us(2_000_000) + us(3_000_000) + us(4_000_000)
        );
        assert_eq!(agg.elapsed_us, per_cpu[3].elapsed_us, "max of the four");
    }

    #[test]
    fn traced_captures_fault_events_and_disables_after() {
        let machine = Machine::boot(MachineModel::micro_vax_ii());
        let kernel = Kernel::boot(&machine);
        let task = kernel.create_task();
        let ps = kernel.page_size();
        let addr = task
            .map()
            .allocate(kernel.ctx(), None, 4 * ps, true)
            .unwrap();
        let (log, ()) = traced(&kernel, 1024, || {
            task.user(0, |u| {
                for i in 0..4 {
                    u.write_u32(addr + i * ps, i as u32).unwrap();
                }
            });
        });
        assert_eq!(log.totals().faults, 4);
        assert_eq!(log.fault_pairs().len(), 4);
        assert!(!kernel.trace().is_enabled());
    }

    #[test]
    fn simtime_display() {
        let a = SimTime {
            system_us: 1000,
            elapsed_us: 2000,
        };
        assert!(a.to_string().contains("sys/elapsed"));
    }
}

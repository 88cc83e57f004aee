//! Multiprocessor memory sharing and TLB shootdown (paper §5.2).
//!
//! Four simulated NS32082 CPUs (an Encore MultiMax) run real host threads
//! against one read/write-shared region. None of the hardware keeps TLBs
//! coherent: when one CPU narrows protection, the others' stale entries
//! must be shot down with inter-processor interrupts — or tolerated,
//! depending on the strategy.
//!
//! ```text
//! cargo run --example multiprocessor
//! ```
//!
//! It exits non-zero if a write slipped past a shootdown or a shootdown
//! timed out; CI runs it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mach_hw::machine::{Machine, MachineModel};
use mach_vm::kernel::Kernel;
use mach_vm::types::{Inheritance, Protection};

fn main() {
    let n_cpus = 4;
    let machine = Machine::boot(MachineModel::multimax(n_cpus));
    let kernel = Kernel::boot(&machine);
    let ps = kernel.page_size();
    println!(
        "booted {} with {} CPUs (no hardware TLB coherence)",
        machine.model().name,
        n_cpus
    );

    // A shared counter region, inherited read/write by worker tasks.
    let parent = kernel.create_task();
    let addr = parent.map().allocate(kernel.ctx(), None, ps, true).unwrap();
    parent
        .map()
        .inherit(kernel.ctx(), addr, ps, Inheritance::Shared)
        .unwrap();
    parent.user(0, |u| u.write_u32(addr, 0).unwrap());

    // One worker task per extra CPU, each incrementing a private slot of
    // the shared page (no data race on the same word).
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    let mut threads = Vec::new();
    for cpu in 1..n_cpus {
        let worker = parent.fork();
        let stop = Arc::clone(&stop);
        let total = Arc::clone(&total);
        threads.push(std::thread::spawn(move || {
            worker.user(cpu, |u| {
                let slot = addr + 4 * cpu as u64;
                let mut n = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let v = u.read_u32(slot).unwrap_or(0);
                    if u.write_u32(slot, v + 1).is_ok() {
                        n += 1;
                    }
                }
                total.fetch_add(n, Ordering::Relaxed);
            });
        }));
    }

    // Meanwhile CPU 0 periodically write-protects the page: every worker's
    // cached translation must be invalidated *immediately* (time-critical
    // strategy), or their next write would sneak past the protection.
    let mut toggles = 0;
    {
        let _bind = machine.bind_cpu(0);
        parent.activate(0);
        for _ in 0..20 {
            parent
                .map()
                .protect(kernel.ctx(), addr, ps, false, Protection::READ)
                .unwrap();
            // While read-only, no worker may write: their TLBs were shot.
            std::thread::sleep(std::time::Duration::from_millis(2));
            parent
                .map()
                .protect(kernel.ctx(), addr, ps, false, Protection::DEFAULT)
                .unwrap();
            toggles += 1;
            std::thread::sleep(std::time::Duration::from_millis(3));
        }
    }
    stop.store(true, Ordering::Release);
    for t in threads {
        t.join().unwrap();
    }

    // Every worker's slot is consistent with what it believes it wrote.
    let sum: u64 = parent.user(0, |u| {
        (1..n_cpus as u64)
            .map(|c| u.read_u32(addr + 4 * c).unwrap() as u64)
            .sum()
    });
    println!(
        "workers completed {} increments; shared page holds {}",
        total.load(Ordering::Relaxed),
        sum
    );
    assert_eq!(
        sum,
        total.load(Ordering::Relaxed),
        "no write slipped a protection window"
    );

    let timeouts = machine.stats.shootdown_timeouts.load(Ordering::Relaxed);
    println!(
        "protection toggles: {toggles}; IPIs sent {} / handled {}; shootdown timeouts {timeouts}",
        machine.stats.ipis_sent.load(Ordering::Relaxed),
        machine.stats.ipis_handled.load(Ordering::Relaxed),
    );
    // A timed-out round flushed its stuck CPUs by force: a protocol bug
    // that the forced flush hides from the check above.
    assert_eq!(timeouts, 0, "every shootdown was acknowledged");
    let s = kernel.statistics();
    println!(
        "faults {} (the workers refault after each shootdown and heal lazily)",
        s.faults
    );

    // ------------------------------------------------------------------
    // Scaling table: the same machine model at 1/2/4/8 CPUs, every CPU
    // running its own zero-fill fault stream from a pinned host thread.
    // With the resident table sharded and free pages handed out from
    // per-CPU lists, aggregate fault throughput should grow ~linearly.
    // ------------------------------------------------------------------
    println!("\nweak-scaling zero-fill, {} pages per CPU:", 64);
    println!(
        "{:>5} {:>10} {:>14} {:>8}",
        "cpus", "faults", "faults/sim-s", "gain"
    );
    let mut base = 0u64;
    for cpus in [1usize, 2, 4, 8] {
        let machine = Machine::boot(MachineModel::multimax(cpus));
        let kernel = Kernel::boot(&machine);
        let ps = kernel.page_size();
        let size = 64 * ps;
        let tasks: Vec<_> = (0..cpus)
            .map(|_| {
                let t = kernel.create_task();
                let a = t.map().allocate(kernel.ctx(), None, size, true).unwrap();
                (t, a)
            })
            .collect();
        let before = kernel.statistics();
        let (agg, _) = mach_bench::measure::measured_parallel(&machine, cpus, |cpu| {
            let (task, a) = &tasks[cpu];
            task.user(cpu, |u| u.dirty_range(*a, size).unwrap());
        });
        let faults = kernel.statistics().delta(&before).faults;
        let per_sec = faults * 1_000_000 / agg.elapsed_us.max(1);
        if cpus == 1 {
            base = per_sec;
        }
        println!(
            "{:>5} {:>10} {:>14} {:>7.2}x",
            cpus,
            faults,
            per_sec,
            per_sec as f64 / base.max(1) as f64
        );
    }
}

//! Multi-CPU concurrency properties: N OS threads drive fault, COW,
//! pageout and termination traffic through one kernel, and the
//! double-entry invariants must hold whatever the host scheduler did.
//!
//! These are the stress-level companions to `tests/interleave_model.rs`
//! (which enumerates small schedules exhaustively): here the schedules
//! are real and uncontrolled, so every assertion is about properties
//! that are interleaving-independent — page conservation, trace
//! begin/end pairing, shared-vs-copy visibility, data integrity through
//! racing reclaim.
//!
//! The `physical_memory_*` cases drive simulated physical memory
//! directly from two threads: its lock-free word accesses must keep every
//! store and publish a page together with the PTE that maps it.
//!
//! The CI `tsan` job additionally runs this suite under
//! ThreadSanitizer (`-Zsanitizer=thread`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};

use mach_hw::addr::PAddr;
use mach_hw::machine::{Machine, MachineModel};
use mach_hw::phys::PhysMem;
use mach_vm::kernel::Kernel;
use mach_vm::types::{Inheritance, Protection};

fn total_pages(kernel: &Kernel) -> u64 {
    let s = kernel.statistics();
    s.free_count + s.active_count + s.inactive_count + s.wire_count
}

/// Drain every reclaimable page, then assert the ledger balances and
/// nothing is left resident. The queue counts are relaxed per-shard
/// tallies and the pager service thread completes write-backs
/// asynchronously, so a freshly-joined test can observe a transient
/// off-by-one mid-migration; poll until the ledger settles — a real
/// leak or double-count never settles and still fails at the deadline.
fn assert_ledger_empty(kernel: &Kernel, total: u64) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let s = loop {
        while kernel.reclaim(64) > 0 {}
        let s = kernel.statistics();
        let settled = s.free_count + s.active_count + s.inactive_count + s.wire_count == total
            && s.active_count + s.inactive_count + s.wire_count == 0;
        if settled || std::time::Instant::now() >= deadline {
            break s;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    assert_eq!(
        s.free_count + s.active_count + s.inactive_count + s.wire_count,
        total,
        "pages conserved"
    );
    assert_eq!(
        s.active_count + s.inactive_count + s.wire_count,
        0,
        "nothing left resident after teardown"
    );
}

/// Eight CPUs running private allocate/dirty/deallocate churn with
/// reclaims mixed in: the sharded resident table and per-CPU free lists
/// must conserve every physical page.
#[test]
fn racing_fault_streams_conserve_the_ledger() {
    let machine = Machine::boot(MachineModel::multimax(8));
    let kernel = Kernel::boot(&machine);
    let ps = kernel.page_size();
    let total = total_pages(&kernel);

    let handles: Vec<_> = (0..8usize)
        .map(|cpu| {
            let k = Arc::clone(&kernel);
            std::thread::spawn(move || {
                let task = k.create_task();
                for round in 0..10u64 {
                    let addr = task.map().allocate(k.ctx(), None, 32 * ps, true).unwrap();
                    task.user(cpu, |u| u.dirty_range(addr, 32 * ps).unwrap());
                    if round % 2 == 0 {
                        task.map().deallocate(k.ctx(), addr, 32 * ps).unwrap();
                    }
                    if round % 3 == cpu as u64 % 3 {
                        k.reclaim(16);
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_ledger_empty(&kernel, total);
}

/// A `Share` region and `Copy` regions inherited through forks, written
/// from every CPU at once: shared writes are visible to the root, copy
/// writes are not, and the grandchild forks' COW pushes racing the
/// parents' writes never lose an update or a page.
#[test]
fn share_and_copy_inheritance_mix_under_racing_faults() {
    let machine = Machine::boot(MachineModel::multimax(6));
    let kernel = Kernel::boot(&machine);
    let ps = kernel.page_size();
    let total = total_pages(&kernel);

    let root = kernel.create_task();
    let shared = root
        .map()
        .allocate(kernel.ctx(), None, 2 * ps, true)
        .unwrap();
    root.map()
        .inherit(kernel.ctx(), shared, 2 * ps, Inheritance::Shared)
        .unwrap();
    let private = root
        .map()
        .allocate(kernel.ctx(), None, 4 * ps, true)
        .unwrap();
    root.user(0, |u| {
        u.dirty_range(shared, 2 * ps).unwrap();
        for p in 0..4u64 {
            u.write_u32(private + p * ps, 0xAAAA_0000 + p as u32)
                .unwrap();
        }
    });

    const ROUNDS: u64 = 8;
    let handles: Vec<_> = (0..6u64)
        .map(|worker| {
            let child = root.fork();
            let k = Arc::clone(&kernel);
            let cpu = worker as usize;
            std::thread::spawn(move || {
                for round in 1..=ROUNDS {
                    child.user(cpu, |u| {
                        // Shared slot: visible to everyone, last write wins.
                        u.write_u32(shared + 4 * worker, (worker << 8 | round) as u32)
                            .unwrap();
                        // Copy region: private to this fork — COW faults
                        // racing five sibling forks on the same backing
                        // object.
                        u.write_u32(private + (worker % 4) * ps, round as u32)
                            .unwrap();
                    });
                    if round % 3 == 0 {
                        // A grandchild COW-forks the already-shadowed map,
                        // writes, and terminates while siblings fault.
                        let grand = child.fork();
                        grand.user(cpu, |u| {
                            u.write_u32(private + (worker % 4) * ps, 0xDEAD_0000 + round as u32)
                                .unwrap();
                        });
                        drop(grand);
                    }
                    if round % 4 == 0 {
                        k.reclaim(8);
                    }
                }
                child
            })
        })
        .collect();
    let children: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    root.user(0, |u| {
        // Every worker's final shared write is visible to the root.
        for worker in 0..6u64 {
            assert_eq!(
                u.read_u32(shared + 4 * worker).unwrap(),
                (worker << 8 | ROUNDS) as u32,
                "shared slot {worker} shows the last write"
            );
        }
        // No child or grandchild write leaked through a Copy inheritance.
        for p in 0..4u64 {
            assert_eq!(
                u.read_u32(private + p * ps).unwrap(),
                0xAAAA_0000 + p as u32,
                "root's copy-inherited page {p} is untouched"
            );
        }
    });
    // Each child sees its own final copy-region value.
    for (worker, child) in children.iter().enumerate() {
        child.user(worker % 6, |u| {
            assert_eq!(
                u.read_u32(private + (worker as u64 % 4) * ps).unwrap(),
                ROUNDS as u32,
                "child {worker} kept its own copy"
            );
        });
    }

    drop(children);
    drop(root);
    assert_ledger_empty(&kernel, total);
}

/// Trace double-entry bookkeeping across racing CPUs: every `FaultBegin`
/// has exactly one `FaultEnd`, the pair count matches, and the trace
/// totals agree with the `vm_statistics` counters updated by the same
/// racing faults.
#[test]
fn fault_trace_double_entry_across_cpus() {
    let machine = Machine::boot(MachineModel::multimax(4));
    let kernel = Kernel::boot(&machine);
    let ps = kernel.page_size();

    kernel.enable_tracing(65_536);
    let base = kernel.statistics();
    let handles: Vec<_> = (0..4usize)
        .map(|cpu| {
            let k = Arc::clone(&kernel);
            std::thread::spawn(move || {
                let task = k.create_task();
                let addr = task.map().allocate(k.ctx(), None, 48 * ps, true).unwrap();
                task.user(cpu, |u| u.dirty_range(addr, 48 * ps).unwrap());
                let child = task.fork();
                child.user(cpu, |u| {
                    for p in 0..48u64 {
                        u.write_u32(addr + p * ps, p as u32).unwrap();
                    }
                });
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let log = kernel.trace_log();
    let stats = kernel.statistics().delta(&base);
    kernel.disable_tracing();

    let totals = log.totals();
    assert_eq!(totals.faults, totals.fault_ends, "begin/end double entry");
    assert_eq!(
        log.fault_pairs().len() as u64,
        totals.faults,
        "every begin paired with its end"
    );
    assert_eq!(totals.faults, stats.faults, "trace and counters agree");
    assert_eq!(totals.zero_fill, stats.zero_fill_count);
    assert_eq!(totals.cow_faults, stats.cow_faults);
}

/// Tasks terminating (and with them their objects) while sibling threads
/// fault the same files: the object cache take/terminate path racing
/// live lookups must neither serve dead objects nor leak pages.
#[test]
fn termination_races_faults_on_shared_files() {
    let machine = Machine::boot(MachineModel::multimax(6));
    let kernel = Kernel::boot(&machine);
    let ps = kernel.page_size();
    let dev = mach_fs::BlockDevice::new(&machine, 512);
    let fs = mach_fs::SimFs::format(&dev);
    let total = total_pages(&kernel);

    let files: Vec<_> = (0..3u8)
        .map(|i| {
            let f = fs.create(&format!("shared{i}")).unwrap();
            fs.write_at(f, 0, &vec![0x10 + i; (4 * ps) as usize])
                .unwrap();
            f
        })
        .collect();

    let handles: Vec<_> = (0..6usize)
        .map(|cpu| {
            let k = Arc::clone(&kernel);
            let fs = fs.clone();
            let files = files.clone();
            std::thread::spawn(move || {
                for round in 0..8usize {
                    let f = files[(cpu + round) % files.len()];
                    let task = k.create_task();
                    let addr = k.map_file(&task, &fs, f, None, Protection::READ).unwrap();
                    task.user(cpu, |u| {
                        let v = u.read_u32(addr + (round as u64 % 4) * ps).unwrap();
                        let expect = 0x10 + ((cpu + round) % files.len()) as u32;
                        assert_eq!(v & 0xFF, expect, "file bytes never torn by termination");
                    });
                    // Dropping the task terminates it mid-stream: the
                    // object goes back to (or out of) the cache while
                    // other CPUs fault it.
                    drop(task);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert_ledger_empty(&kernel, total);
}

/// Writers dirtying distinctive values race dedicated reclaimer threads
/// pushing those pages out through the default pager; every value must
/// survive the round trip.
#[test]
fn dirty_data_survives_racing_reclaim() {
    let machine = Machine::boot(MachineModel::multimax(6));
    let kernel = Kernel::boot(&machine);
    let ps = kernel.page_size();
    let total = total_pages(&kernel);
    let stop = Arc::new(AtomicU64::new(0));

    let reclaimers: Vec<_> = (0..2)
        .map(|_| {
            let k = Arc::clone(&kernel);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while stop.load(Ordering::Acquire) == 0 {
                    k.reclaim(8);
                    std::thread::yield_now();
                }
            })
        })
        .collect();

    let writers: Vec<_> = (0..4u64)
        .map(|worker| {
            let k = Arc::clone(&kernel);
            let cpu = worker as usize;
            std::thread::spawn(move || {
                let task = k.create_task();
                let pages = 64u64;
                let addr = task
                    .map()
                    .allocate(k.ctx(), None, pages * ps, true)
                    .unwrap();
                task.user(cpu, |u| {
                    for p in 0..pages {
                        u.write_u32(addr + p * ps, (worker << 16 | p) as u32)
                            .unwrap();
                    }
                    // Re-read everything: anything the reclaimers pushed
                    // out comes back from the default pager.
                    for p in 0..pages {
                        assert_eq!(
                            u.read_u32(addr + p * ps).unwrap(),
                            (worker << 16 | p) as u32,
                            "worker {worker} page {p} survived pageout"
                        );
                    }
                });
            })
        })
        .collect();
    for h in writers {
        h.join().unwrap();
    }
    stop.store(1, Ordering::Release);
    for h in reclaimers {
        h.join().unwrap();
    }
    assert_ledger_empty(&kernel, total);
}

/// Simulated physical memory takes no lock, yet a CPU that fills a page
/// and then publishes a PTE word for it makes the fill visible to any CPU
/// that sees the PTE.
#[test]
fn physical_memory_publishes_a_page_with_its_pte() {
    const ROUNDS: u32 = 2_000;
    let mem = PhysMem::new(64 * 1024, Vec::new());
    let (page, pte, ack) = (PAddr(8192), PAddr(40_960), PAddr(40_964));
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 1..=ROUNDS {
                mem.write(page, &[round as u8; 4096]).unwrap();
                mem.write_u32(pte, round).unwrap();
                // The reader acknowledges before the page is refilled.
                while mem.read_u32(ack).unwrap() != round {
                    std::hint::spin_loop();
                }
            }
        });
        s.spawn(|| {
            let mut buf = [0u8; 4096];
            for round in 1..=ROUNDS {
                while mem.read_u32(pte).unwrap() != round {
                    std::hint::spin_loop();
                }
                mem.read(page, &mut buf).unwrap();
                assert!(
                    buf.iter().all(|&b| b == round as u8),
                    "round {round}: PTE visible before the page it maps"
                );
                mem.write_u32(ack, round).unwrap();
            }
        });
    });
}

/// Two CPUs storing to different bytes of one word never lose each
/// other's stores: partial-word writes merge atomically.
#[test]
fn physical_memory_keeps_racing_byte_writes_to_one_word() {
    const WRITES: u32 = 50_000;
    let mem = PhysMem::new(4096, Vec::new());
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        // One CPU owns byte 1 of the word at 64, the other bytes 2 and 3.
        for (at, len) in [(65u64, 1usize), (66, 2)] {
            let (mem, barrier) = (&mem, &barrier);
            s.spawn(move || {
                barrier.wait();
                let mut got = [0u8; 2];
                for v in 1..=WRITES {
                    let bytes = &v.to_le_bytes()[..len];
                    mem.write(PAddr(at), bytes).unwrap();
                    mem.read(PAddr(at), &mut got[..len]).unwrap();
                    assert_eq!(&got[..len], bytes, "store {v} at {at} was lost");
                }
            });
        }
    });
    let last = WRITES.to_le_bytes();
    assert_eq!(
        mem.read_u32(PAddr(64)).unwrap(),
        u32::from_le_bytes([0, last[0], last[0], last[1]])
    );
}

/// Two CPUs applying `update_u32` to one word — table walkers setting
/// reference and modify bits — never lose an update.
#[test]
fn physical_memory_keeps_racing_word_updates() {
    const UPDATES: u32 = 100_000;
    let mem = PhysMem::new(4096, Vec::new());
    let barrier = Barrier::new(2);
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                barrier.wait();
                for _ in 0..UPDATES {
                    mem.update_u32(PAddr(128), |w| w + 1).unwrap();
                }
            });
        }
    });
    assert_eq!(mem.read_u32(PAddr(128)).unwrap(), 2 * UPDATES);
}

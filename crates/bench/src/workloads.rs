//! The workloads behind Tables 7-1 and 7-2, runnable on both systems.
//!
//! Each function boots a fresh simulated machine of the requested model,
//! runs the paper's operation under Mach or under the 4.3bsd-style
//! baseline, and returns simulated time. Sizes are the paper's (256 KB
//! forks, 2.5 MB and 50 KB file reads, a 13-program compile suite).

use std::sync::Arc;

use mach_fs::{BlockDevice, SimFs};
use mach_hw::machine::{Machine, MachineModel};
use mach_unix::UnixKernel;
use mach_vm::kernel::{BootOptions, Kernel};
use mach_vm::types::Protection;
use mach_vm::{FleetOptions, TraceLog};

use crate::measure::{measured, traced, SimTime};

/// Fixed process-bookkeeping cost charged by *both* systems' forks
/// (process table, u-area, kernel stack — machinery outside the VM system
/// that both kernels pay identically).
pub const PROC_CREATE_CYCLES: u64 = 60_000;

/// The buffer-cache size (in blocks) standing in for a 4.3bsd "generic
/// configuration": roughly 10% of a 16 MB machine.
pub const GENERIC_BUFFERS: usize = 200;

/// The Table 7-2 "400 buffers" configuration.
pub const FOUR_HUNDRED_BUFFERS: usize = 400;

// ----------------------------------------------------------------------
// T7-1a: zero fill
// ----------------------------------------------------------------------

/// Mach: average cost of zero-filling 1 KB (measured over many pages).
pub fn zero_fill_mach(model: MachineModel) -> SimTime {
    let machine = Machine::boot(model);
    let kernel = Kernel::boot(&machine);
    let task = kernel.create_task();
    let ps = kernel.page_size();
    let pages = 128u64;
    let addr = task
        .map()
        .allocate(kernel.ctx(), None, pages * ps, true)
        .expect("allocate");
    let (t, _) = measured(&machine, 0, || {
        task.user(0, |u| u.dirty_range(addr, pages * ps).unwrap());
    });
    per_kb(t, pages * ps / 1024)
}

/// 4.3bsd: the same, through the heavier UNIX fault path.
pub fn zero_fill_unix(model: MachineModel) -> SimTime {
    let machine = Machine::boot(model);
    let dev = BlockDevice::new(&machine, 64);
    let fs = SimFs::format(&dev);
    let kernel = UnixKernel::boot(&machine, &fs, GENERIC_BUFFERS);
    let proc = kernel.create_proc();
    let ps = kernel.page_size();
    let pages = 128u64;
    proc.add_segment(0x10000, pages * ps, true);
    let (t, _) = measured(&machine, 0, || {
        proc.user(0, |u| u.dirty_range(0x10000, pages * ps).unwrap());
    });
    per_kb(t, pages * ps / 1024)
}

fn per_kb(t: SimTime, kb: u64) -> SimTime {
    SimTime {
        system_us: t.system_us / kb.max(1),
        elapsed_us: t.elapsed_us / kb.max(1),
    }
}

// ----------------------------------------------------------------------
// T7-1b: fork 256K
// ----------------------------------------------------------------------

/// Mach: fork a task with `kb` KB of dirty memory (copy-on-write).
pub fn fork_mach(model: MachineModel, kb: u64) -> SimTime {
    let machine = Machine::boot(model);
    let kernel = Kernel::boot(&machine);
    let task = kernel.create_task();
    let size = kb * 1024;
    let addr = task
        .map()
        .allocate(kernel.ctx(), None, size, true)
        .expect("allocate");
    task.user(0, |u| u.dirty_range(addr, size).unwrap());
    let (t, child) = measured(&machine, 0, || {
        machine.charge(PROC_CREATE_CYCLES);
        task.fork()
    });
    drop(child);
    t
}

/// 4.3bsd: fork a process with `kb` KB resident (eager copy).
pub fn fork_unix(model: MachineModel, kb: u64) -> SimTime {
    let machine = Machine::boot(model);
    let dev = BlockDevice::new(&machine, 64);
    let fs = SimFs::format(&dev);
    let kernel = UnixKernel::boot(&machine, &fs, GENERIC_BUFFERS);
    let proc = kernel.create_proc();
    let size = kb * 1024;
    proc.add_segment(0x10000, size, true);
    proc.user(0, |u| u.dirty_range(0x10000, size).unwrap());
    let (t, child) = measured(&machine, 0, || {
        machine.charge(PROC_CREATE_CYCLES);
        proc.fork().expect("fork")
    });
    drop(child);
    t
}

// ----------------------------------------------------------------------
// T7-1c/d: file reads, first and second time
// ----------------------------------------------------------------------

/// First- and second-read times of a file.
#[derive(Debug, Clone, Copy)]
pub struct FileReadResult {
    /// Cold read (pages from disk).
    pub first: SimTime,
    /// Re-read immediately afterwards.
    pub second: SimTime,
}

/// Mach: "read" a file by mapping it and touching every page; the second
/// read remaps from the object cache (paper §3.3).
pub fn file_read_mach(model: MachineModel, file_kb: u64) -> FileReadResult {
    let machine = Machine::boot(model);
    let kernel = Kernel::boot(&machine);
    let bs = machine.disk().block_size;
    let dev = BlockDevice::new(&machine, (2 * file_kb * 1024).div_ceil(bs) + 64);
    let fs = SimFs::format(&dev);
    let f = fs.create("data").unwrap();
    fs.write_at(f, 0, &vec![0x11u8; (file_kb * 1024) as usize])
        .unwrap();
    machine.reset_clocks();

    let task = kernel.create_task();
    let (first, addr) = measured(&machine, 0, || {
        let addr = kernel
            .map_file(&task, &fs, f, None, Protection::READ)
            .expect("map");
        task.user(0, |u| u.touch_range(addr, file_kb * 1024).unwrap());
        addr
    });
    task.map()
        .deallocate(kernel.ctx(), addr, file_kb * 1024)
        .unwrap();
    let (second, _) = measured(&machine, 0, || {
        let addr = kernel
            .map_file(&task, &fs, f, None, Protection::READ)
            .expect("map");
        task.user(0, |u| u.touch_range(addr, file_kb * 1024).unwrap());
    });
    FileReadResult { first, second }
}

/// 4.3bsd: `read(2)` through a buffer cache of `buffers` blocks.
pub fn file_read_unix(model: MachineModel, file_kb: u64, buffers: usize) -> FileReadResult {
    let machine = Machine::boot(model);
    let bs = machine.disk().block_size;
    let dev = BlockDevice::new(&machine, (2 * file_kb * 1024).div_ceil(bs) + 64);
    let fs = SimFs::format(&dev);
    let f = fs.create("data").unwrap();
    fs.write_at(f, 0, &vec![0x11u8; (file_kb * 1024) as usize])
        .unwrap();
    let kernel = UnixKernel::boot(&machine, &fs, buffers);
    machine.reset_clocks();

    let proc = kernel.create_proc();
    proc.add_segment(0x10_0000, file_kb * 1024 + 4096, true);
    let (first, _) = measured(&machine, 0, || {
        kernel
            .read(&proc, f, 0, 0x10_0000, file_kb * 1024)
            .expect("read");
    });
    let (second, _) = measured(&machine, 0, || {
        kernel
            .read(&proc, f, 0, 0x10_0000, file_kb * 1024)
            .expect("read");
    });
    FileReadResult { first, second }
}

// ----------------------------------------------------------------------
// T7-2: the compile model
// ----------------------------------------------------------------------

/// Parameters of the synthetic compilation workload.
#[derive(Debug, Clone, Copy)]
pub struct CompileConfig {
    /// Number of programs compiled (13 in the paper's small suite).
    pub n_jobs: usize,
    /// Compiler binary size (text mapped/read every job), KB.
    pub binary_kb: u64,
    /// Per-job source size, KB.
    pub source_kb: u64,
    /// Per-job scratch (compiler heap) dirtied, KB.
    pub scratch_kb: u64,
    /// Object file written per job, KB.
    pub object_kb: u64,
    /// Shell image forked per job, KB.
    pub image_kb: u64,
}

impl CompileConfig {
    /// The "13 programs" suite.
    pub fn thirteen_programs() -> CompileConfig {
        CompileConfig {
            n_jobs: 13,
            binary_kb: 300,
            source_kb: 50,
            scratch_kb: 200,
            object_kb: 20,
            image_kb: 256,
        }
    }

    /// A kernel-build-sized suite (scaled down from ~250 files to keep
    /// the harness quick; the per-job structure is identical).
    pub fn kernel_build() -> CompileConfig {
        CompileConfig {
            n_jobs: 60,
            source_kb: 30,
            ..CompileConfig::thirteen_programs()
        }
    }

    /// The single small "fork test program" compile of Table 7-2's SUN row.
    pub fn fork_test_program() -> CompileConfig {
        CompileConfig {
            n_jobs: 1,
            binary_kb: 300,
            source_kb: 5,
            scratch_kb: 50,
            object_kb: 5,
            image_kb: 128,
        }
    }
}

fn make_fs(
    machine: &Arc<Machine>,
    cfg: &CompileConfig,
) -> (Arc<SimFs>, mach_fs::FileId, Vec<mach_fs::FileId>) {
    let total_kb = cfg.binary_kb + (cfg.source_kb + cfg.object_kb + 16) * cfg.n_jobs as u64 + 1024;
    let bs = machine.disk().block_size;
    let dev = BlockDevice::new(machine, (total_kb * 1024).div_ceil(bs) + 128);
    let fs = SimFs::format(&dev);
    let cc = fs.create("cc").unwrap();
    fs.write_at(cc, 0, &vec![0xCCu8; (cfg.binary_kb * 1024) as usize])
        .unwrap();
    let sources = (0..cfg.n_jobs)
        .map(|i| {
            let f = fs.create(&format!("src{i}.c")).unwrap();
            fs.write_at(
                f,
                0,
                &vec![b'a' + (i % 26) as u8; (cfg.source_kb * 1024) as usize],
            )
            .unwrap();
            f
        })
        .collect();
    (fs, cc, sources)
}

/// Run the compile suite under Mach: COW forks, mapped files, the object
/// cache keeping the compiler binary hot across jobs.
pub fn compile_mach(model: MachineModel, cfg: CompileConfig) -> SimTime {
    let machine = Machine::boot(model);
    let kernel = Kernel::boot(&machine);
    let (fs, cc, sources) = make_fs(&machine, &cfg);
    machine.reset_clocks();

    let shell = kernel.create_task();
    let image = cfg.image_kb * 1024;
    let image_addr = shell
        .map()
        .allocate(kernel.ctx(), None, image, true)
        .unwrap();
    shell.user(0, |u| u.dirty_range(image_addr, image).unwrap());

    let (t, _) = measured(&machine, 0, || {
        for (i, &src) in sources.iter().enumerate() {
            machine.charge(PROC_CREATE_CYCLES);
            let job = shell.fork(); // COW fork of the shell image

            // "exec": map the compiler text. Demand paging touches only
            // the pages a compile actually executes (about half); after
            // the first job the object cache supplies them all. This is
            // exactly the mechanism the paper credits: mapped text pages
            // in, `read(2)` cannot.
            let text = kernel
                .map_file(&job, &fs, cc, None, Protection::READ)
                .unwrap();
            job.user(0, |u| {
                let ps = kernel.page_size();
                let mut off = 0;
                while off < cfg.binary_kb * 1024 {
                    u.read_u32(text + off).unwrap();
                    off += 2 * ps; // every other page
                }
            });

            // Read the source through a mapping.
            let sa = kernel
                .map_file(&job, &fs, src, None, Protection::READ)
                .unwrap();
            job.user(0, |u| u.touch_range(sa, cfg.source_kb * 1024).unwrap());

            // Compiler heap: zero-fill allocations.
            let scratch = cfg.scratch_kb * 1024;
            let heap = job
                .map()
                .allocate(kernel.ctx(), None, scratch, true)
                .unwrap();
            job.user(0, |u| u.dirty_range(heap, scratch).unwrap());

            // Emit the object file.
            let out = fs.create(&format!("obj{i}.o")).unwrap();
            let obj = kernel.vm_read(&job, heap, cfg.object_kb * 1024).unwrap();
            fs.write_at(out, 0, &obj).unwrap();

            drop(job); // task exit; cc's object parks in the cache
            kernel.balance();
        }
    });
    t
}

/// Run the compile suite under 4.3bsd with `buffers` cache blocks: eager
/// fork copies and double-copy reads, the compiler binary re-read through
/// the bounded buffer cache each job.
pub fn compile_unix(model: MachineModel, cfg: CompileConfig, buffers: usize) -> SimTime {
    let machine = Machine::boot(model);
    let (fs, cc, sources) = make_fs(&machine, &cfg);
    let kernel = UnixKernel::boot(&machine, &fs, buffers);
    machine.reset_clocks();

    let shell = kernel.create_proc();
    let image = cfg.image_kb * 1024;
    shell.add_segment(0, image, true);
    shell.user(0, |u| u.dirty_range(0, image).unwrap());

    let text_base = 0x100_0000u64;
    let src_base = 0x200_0000u64;
    let heap_base = 0x300_0000u64;
    let (t, _) = measured(&machine, 0, || {
        for (i, &src) in sources.iter().enumerate() {
            machine.charge(PROC_CREATE_CYCLES);
            let job = shell.fork().expect("fork"); // eager page copies

            // "exec": read the compiler text through the buffer cache.
            job.add_segment(text_base, cfg.binary_kb * 1024, true);
            kernel
                .read(&job, cc, 0, text_base, cfg.binary_kb * 1024)
                .unwrap();

            // Read the source.
            job.add_segment(src_base, cfg.source_kb * 1024, true);
            kernel
                .read(&job, src, 0, src_base, cfg.source_kb * 1024)
                .unwrap();

            // Compiler heap.
            let scratch = cfg.scratch_kb * 1024;
            job.add_segment(heap_base, scratch, true);
            job.user(0, |u| u.dirty_range(heap_base, scratch).unwrap());

            // Emit the object file.
            let out = fs.create(&format!("obj{i}.o")).unwrap();
            kernel
                .write(&job, out, 0, heap_base, cfg.object_kb * 1024)
                .unwrap();

            drop(job);
        }
    });
    t
}

// ----------------------------------------------------------------------
// Causal-trace export: fleet refaults
// ----------------------------------------------------------------------

/// The pager-fleet refault workload the Perfetto export renders: a 2 MB
/// uVAX II whose default pager runs as three fleet services, three tasks
/// that dirty 16 pages each, a reclaim that evicts them all, and a
/// read-back of every page — so each refault is a pagein across a fleet
/// port carrying a causal id end to end. Returns the trace log of the
/// whole run. Everything that reaches the ring is driven by the
/// simulated clock of one CPU, so every call returns the same log.
pub fn fleet_refault_trace() -> TraceLog {
    // A small machine so reclaim pressure is cheap to create.
    let mut model = MachineModel::micro_vax_ii();
    model.mem_bytes = 2 << 20;
    let machine = Machine::boot(model);
    let mut opts = BootOptions::for_machine(&machine);
    opts.pager_fleet = Some(FleetOptions {
        pagers: 3,
        queue_capacity: 8,
    });
    let kernel = Kernel::boot_with(&machine, opts);
    let ps = kernel.page_size();
    // The tasks outlive the capture: their teardown is not part of it.
    let (log, _tasks) = traced(&kernel, 65_536, || {
        let tasks: Vec<_> = (0..3)
            .map(|_| {
                let t = kernel.create_task();
                let addr = t
                    .map()
                    .allocate(kernel.ctx(), None, 16 * ps, true)
                    .expect("allocate");
                t.user(0, |u| u.dirty_range(addr, 16 * ps).expect("dirty"));
                (t, addr)
            })
            .collect();
        while kernel.reclaim(32) > 0 {}
        for (t, addr) in &tasks {
            t.user(0, |u| {
                for p in 0..16u64 {
                    u.read_u32(addr + p * ps).expect("refault");
                }
            });
        }
        tasks
    });
    log
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_shape_mach_wins() {
        // Table 7-1: Mach .45ms vs UNIX .58ms (RT PC) — Mach faster but
        // the gap is modest.
        let mach = zero_fill_mach(MachineModel::rt_pc());
        let unix = zero_fill_unix(MachineModel::rt_pc());
        assert!(
            mach.elapsed_us < unix.elapsed_us,
            "Mach {mach} must beat UNIX {unix}"
        );
        assert!(
            unix.elapsed_us < mach.elapsed_us * 4,
            "gap should be modest, got Mach {mach} vs UNIX {unix}"
        );
    }

    #[test]
    fn fork_shape_mach_wins_big() {
        // Table 7-1: fork 256K — RT PC 41ms vs 145ms, uVAX 59 vs 220:
        // UNIX pays the full copy, Mach does not.
        let mach = fork_mach(MachineModel::micro_vax_ii(), 256);
        let unix = fork_unix(MachineModel::micro_vax_ii(), 256);
        assert!(
            unix.elapsed_us as f64 > mach.elapsed_us as f64 * 1.5,
            "UNIX fork ({unix}) must cost well over Mach's ({mach})"
        );
    }

    #[test]
    fn file_reread_shape() {
        // Table 7-1 (VAX 8200): first reads comparable (disk bound);
        // Mach's second read is much cheaper than its first, and much
        // cheaper than UNIX's second read.
        let mach = file_read_mach(MachineModel::vax_8200(), 2560);
        let unix = file_read_unix(MachineModel::vax_8200(), 2560, GENERIC_BUFFERS);
        // First time: both disk-dominated, within 2x.
        let ratio = mach.first.elapsed_us as f64 / unix.first.elapsed_us as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "cold reads comparable, got mach={:?} unix={:?}",
            mach.first,
            unix.first
        );
        // Second time: Mach >> faster.
        assert!(
            mach.second.elapsed_us * 3 < mach.first.elapsed_us,
            "Mach second read from the object cache must be much cheaper"
        );
        assert!(
            mach.second.elapsed_us * 2 < unix.second.elapsed_us,
            "Mach second read must beat UNIX's (mach={:?} unix={:?})",
            mach.second,
            unix.second
        );
    }

    #[test]
    fn small_file_reread_shape() {
        // 50 KB file: both systems cheap the second time; differences
        // shrink (paper: .1/.1 vs .2/.2).
        let mach = file_read_mach(MachineModel::vax_8200(), 50);
        let unix = file_read_unix(MachineModel::vax_8200(), 50, GENERIC_BUFFERS);
        assert!(mach.second.elapsed_us <= unix.second.elapsed_us);
        assert!(unix.second.elapsed_us < unix.first.elapsed_us);
    }

    #[test]
    fn compile_shape_generic_config() {
        // Table 7-2 (generic configuration): Mach 19 sec vs 4.3bsd 1:16 —
        // a large factor, driven by the bounded buffer cache.
        let mut cfg = CompileConfig::thirteen_programs();
        cfg.n_jobs = 8; // keep the unit test quick; the harness runs 13
        let mach = compile_mach(MachineModel::vax_8650(), cfg);
        let unix = compile_unix(MachineModel::vax_8650(), cfg, 16);
        assert!(
            unix.elapsed_us as f64 > mach.elapsed_us as f64 * 1.5,
            "generic config: UNIX ({unix}) must lose badly to Mach ({mach})"
        );
    }

    #[test]
    fn compile_shape_400_buffers() {
        // With 400 buffers the cache absorbs the binary: UNIX closes most
        // of the gap (paper: 23s vs 28s) but Mach still wins.
        let mut cfg = CompileConfig::thirteen_programs();
        cfg.n_jobs = 4;
        let mach = compile_mach(MachineModel::vax_8650(), cfg);
        let unix = compile_unix(MachineModel::vax_8650(), cfg, FOUR_HUNDRED_BUFFERS);
        assert!(
            mach.elapsed_us < unix.elapsed_us,
            "Mach ({mach}) still ahead of well-cached UNIX ({unix})"
        );
        assert!(
            unix.elapsed_us < mach.elapsed_us * 3,
            "but the gap narrows with a big buffer cache"
        );
    }
}

//! Regenerates the committed golden-trace corpus under `tests/traces/`.
//!
//! Each corpus entry is **recorded live**: the workload runs on a real
//! kernel with op recording enabled (`Kernel::enable_op_recording`), the
//! log is exported through [`Scenario::from_recording`], the expected
//! observables are filled by replaying the export on the VAX port at one
//! CPU, and the result is only written after the full differential matrix
//! (five ports x {1, 4} CPUs) agrees on every gated observable. A corpus
//! refresh is therefore also a conformance run:
//!
//! ```text
//! cargo run -p mach-bench --bin trace_record --release
//! ```
//!
//! The traces deliberately stay small (tens of ops): they are parsed and
//! replayed by the tier-1 suite on every port, so corpus size is test
//! latency. Coverage, not volume, is the goal — each trace pins one
//! machine-independent behaviour family (fork/COW lineages, the object
//! cache, protection narrowing, inheritance modes, pageout/reclaim, and
//! chaos under injection).

use std::sync::Arc;

use mach_bench::replay::{differential, make_files, port_model, replay};
use mach_bench::scenario::{ChaosSpec, FileSpec, Scenario, GOLDEN_TRACES};
use mach_fs::{FileId, SimFs};
use mach_hw::machine::Machine;
use mach_vm::{BootOptions, Inheritance, Kernel, Protection};

/// The common page size every golden trace uses: composable on all five
/// ports (largest hardware page is the SUN 3's 8192).
const PAGE: u64 = 8192;

fn boot(port: &str, cpus: usize) -> (Arc<Machine>, Arc<Kernel>) {
    let machine = Machine::boot(port_model(port, cpus));
    let mut opts = BootOptions::for_machine(&machine);
    opts.page_multiple = PAGE / machine.hw_page_size();
    let kernel = Kernel::boot_with(&machine, opts);
    (machine, kernel)
}

/// One file of `size` bytes of `fill` on a fresh private device, created
/// before recording starts (so the setup writes are not part of the
/// trace), with the [`FileSpec`] table `from_recording` will renumber.
fn one_file(machine: &Arc<Machine>, size: u64, fill: u8) -> (Arc<SimFs>, FileId, Vec<FileSpec>) {
    let spec = FileSpec { id: 1, size, fill };
    let (fs, ids) = make_files(machine, &[spec]).expect("create trace file");
    let raw = FileSpec {
        id: ids[0].0,
        ..spec
    };
    (fs, ids[0], vec![raw])
}

/// `fork_storm`: four fork generations advancing a lineage, each child
/// writing one page and touching the whole range, parents dropped as the
/// lineage advances — the shadow-chain stress of paper section 2.3, with
/// a depth gate riding along. Two CPU streams.
fn fork_storm() -> Scenario {
    let (_machine, kernel) = boot("ns32082", 2);
    let ps = kernel.page_size();
    kernel.enable_op_recording();
    let t0 = kernel.create_task();
    let a = t0
        .map()
        .allocate(kernel.ctx(), None, 8 * ps, true)
        .expect("allocate");
    t0.user(0, |u| u.dirty_range(a, 8 * ps).unwrap());
    let mut cur = t0;
    for g in 0..4u32 {
        let child = cur.fork();
        let cpu = (g % 2) as usize;
        child.user(cpu, |u| {
            u.write_u32(a + u64::from(g % 8) * ps, 0xF0_0000 + g)
                .unwrap();
            u.touch_range(a, 8 * ps).unwrap();
        });
        cur = child; // the previous generation drops here (recorded)
    }
    kernel.disable_op_recording();
    let mut s = Scenario::from_recording("fork_storm", PAGE, 2, Vec::new(), &kernel.op_log())
        .expect("export recording");
    s.shadow_p95_max = Some(6);
    s
}

/// `file_reread`: map + touch + unmap + remap + retouch of one file — the
/// second pass must be satisfied from the object cache (paper Table 7-1
/// "read cached file"), so `pageins` stays at the first pass's count.
fn file_reread() -> Scenario {
    let (machine, kernel) = boot("vax", 1);
    let ps = kernel.page_size();
    let (fs, file, table) = one_file(&machine, 8 * ps, 0xC3);
    kernel.enable_op_recording();
    let t = kernel.create_task();
    let addr = kernel
        .map_file(&t, &fs, file, None, Protection::READ)
        .expect("map_file");
    t.user(0, |u| u.touch_range(addr, 8 * ps).unwrap());
    t.map()
        .deallocate(kernel.ctx(), addr, 8 * ps)
        .expect("deallocate");
    let again = kernel
        .map_file(&t, &fs, file, None, Protection::READ)
        .expect("map_file again");
    t.user(0, |u| u.touch_range(again, 8 * ps).unwrap());
    kernel.disable_op_recording();
    Scenario::from_recording("file_reread", PAGE, 1, table, &kernel.op_log())
        .expect("export recording")
}

/// `cow_narrowing`: a fork followed by protection games — the child
/// narrowed to read-only while the parent pushes COW copies, the child
/// widened back to write through an RMW and a store, and finally a
/// `set_maximum` narrowing that can never be undone (paper section 3.1).
fn cow_narrowing() -> Scenario {
    let (_machine, kernel) = boot("vax", 1);
    let ps = kernel.page_size();
    kernel.enable_op_recording();
    let p = kernel.create_task();
    let a = p
        .map()
        .allocate(kernel.ctx(), None, 8 * ps, true)
        .expect("allocate");
    p.user(0, |u| u.dirty_range(a, 8 * ps).unwrap());
    let c = p.fork();
    c.map()
        .protect(kernel.ctx(), a, 8 * ps, false, Protection::READ)
        .expect("narrow child");
    p.user(0, |u| {
        for i in 0..8 {
            u.write_u32(a + i * ps, 0x00C0_DE00 + i as u32).unwrap();
        }
    });
    c.map()
        .protect(kernel.ctx(), a, 8 * ps, false, Protection::DEFAULT)
        .expect("widen child");
    c.user(0, |u| {
        // Replay pins RMW to the identity function, so record it that way
        // too: the committed expectation stays re-recordable.
        u.rmw_u32(a, |v| v).unwrap();
        u.write_u32(a + 3 * ps, 7).unwrap();
    });
    p.map()
        .protect(kernel.ctx(), a, 2 * ps, true, Protection::READ)
        .expect("narrow maximum");
    p.user(0, |u| u.touch_range(a, 2 * ps).unwrap());
    kernel.disable_op_recording();
    Scenario::from_recording("cow_narrowing", PAGE, 1, Vec::new(), &kernel.op_log())
        .expect("export recording")
}

/// `mixed_inherit`: one region per inheritance mode (paper Table 3-1
/// `vm_inherit`), forked, then written from both sides — shared pages
/// must stay shared, copy pages must diverge, none pages must not exist
/// in the child. Two CPU streams.
fn mixed_inherit() -> Scenario {
    let (_machine, kernel) = boot("ns32082", 2);
    let ps = kernel.page_size();
    kernel.enable_op_recording();
    let p = kernel.create_task();
    let a = p
        .map()
        .allocate(kernel.ctx(), None, 4 * ps, true)
        .expect("allocate a");
    let b = p
        .map()
        .allocate(kernel.ctx(), None, 4 * ps, true)
        .expect("allocate b");
    let n = p
        .map()
        .allocate(kernel.ctx(), None, 2 * ps, true)
        .expect("allocate n");
    p.map()
        .inherit(kernel.ctx(), b, 4 * ps, Inheritance::Shared)
        .expect("inherit shared");
    p.map()
        .inherit(kernel.ctx(), n, 2 * ps, Inheritance::None)
        .expect("inherit none");
    p.user(0, |u| {
        u.dirty_range(a, 4 * ps).unwrap();
        u.dirty_range(b, 4 * ps).unwrap();
        u.dirty_range(n, 2 * ps).unwrap();
    });
    let ch = p.fork();
    ch.user(1, |u| {
        u.touch_range(a, 4 * ps).unwrap();
        u.write_u32(b, 0xB0B0).unwrap();
        u.write_u32(b + 2 * ps, 0xB1B1).unwrap();
    });
    p.user(0, |u| {
        u.write_u32(b + ps, 0xA0A0).unwrap();
        u.touch_range(a, 4 * ps).unwrap();
    });
    p.map()
        .deallocate(kernel.ctx(), n, 2 * ps)
        .expect("deallocate n");
    kernel.disable_op_recording();
    Scenario::from_recording("mixed_inherit", PAGE, 2, Vec::new(), &kernel.op_log())
        .expect("export recording")
}

/// `reclaim_pressure`: dirty a homogeneous anonymous population, evict
/// all of it (dirty pageouts through the default pager), fault it back,
/// then evict again (clean reclaims) — every Table 2-1 pageout counter
/// exercised with counts that cannot depend on queue-shard layout
/// because every pass drains the whole population.
fn reclaim_pressure() -> Scenario {
    let (_machine, kernel) = boot("vax", 1);
    let ps = kernel.page_size();
    kernel.enable_op_recording();
    let t = kernel.create_task();
    let a = t
        .map()
        .allocate(kernel.ctx(), None, 16 * ps, true)
        .expect("allocate");
    t.user(0, |u| u.dirty_range(a, 16 * ps).unwrap());
    kernel.reclaim(16);
    t.user(0, |u| u.touch_range(a, 16 * ps).unwrap());
    kernel.reclaim(16);
    kernel.disable_op_recording();
    Scenario::from_recording("reclaim_pressure", PAGE, 1, Vec::new(), &kernel.op_log())
        .expect("export recording")
}

/// `chaos_pager`: the `file_reread`/`reclaim` mix under a deterministic
/// injector — transient block-I/O faults on the mapped file plus pager
/// message chaos. The injections must be absorbed (bounded retries,
/// at-least-once message handling) without moving any gated observable,
/// on every port.
fn chaos_pager() -> Scenario {
    let (machine, kernel) = boot("vax", 1);
    let ps = kernel.page_size();
    let (fs, file, table) = one_file(&machine, 8 * ps, 0x7E);
    kernel.enable_op_recording();
    let t = kernel.create_task();
    let addr = kernel
        .map_file(&t, &fs, file, None, Protection::READ)
        .expect("map_file");
    t.user(0, |u| u.touch_range(addr, 8 * ps).unwrap());
    let anon = t
        .map()
        .allocate(kernel.ctx(), None, 4 * ps, true)
        .expect("allocate");
    t.user(0, |u| u.dirty_range(anon, 4 * ps).unwrap());
    // Drain the WHOLE resident population (8 clean file + 4 dirty anon).
    // A partial reclaim would leave the evictee choice to physical-page
    // shard layout, which is machine-dependent — full drains are the only
    // reclaim shape the cross-port oracle can gate.
    kernel.reclaim(12);
    t.user(0, |u| u.touch_range(anon, 4 * ps).unwrap());
    t.map()
        .deallocate(kernel.ctx(), addr, 8 * ps)
        .expect("deallocate");
    kernel.disable_op_recording();
    let mut s = Scenario::from_recording("chaos_pager", PAGE, 1, table, &kernel.op_log())
        .expect("export recording");
    s.chaos = Some(ChaosSpec {
        seed: 7,
        pager_stall: 150,
        msg_delay: 150,
        msg_duplicate: 100,
        io_transient: 120,
    });
    s
}

fn main() {
    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/traces");
    std::fs::create_dir_all(&out_dir).expect("create tests/traces");

    let builders = [
        fork_storm,
        file_reread,
        cow_narrowing,
        mixed_inherit,
        reclaim_pressure,
        chaos_pager,
    ];
    assert_eq!(builders.len(), GOLDEN_TRACES.len());
    for (build, &name) in builders.into_iter().zip(GOLDEN_TRACES) {
        let mut s = build();
        assert_eq!(
            s.name, name,
            "generator and scenario::GOLDEN_TRACES must list the same corpus"
        );
        // Pin the expectation from the canonical replay (VAX, one CPU),
        // then demand the whole matrix reproduces it before committing.
        let one = replay(&s, "vax", 1).unwrap_or_else(|e| panic!("{name}: vax replay: {e}"));
        s.expect = Some(one.obs.to_expectation());
        let rows =
            differential(&s, &[1, 4]).unwrap_or_else(|e| panic!("{name}: differential: {e}"));
        let text = s.to_text();
        let back = Scenario::parse(&text).unwrap_or_else(|e| panic!("{name}: reparse: {e}"));
        assert_eq!(back, s, "{name}: serialization must round-trip");
        let path = out_dir.join(format!("{name}.trace"));
        std::fs::write(&path, &text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        let o = &one.obs;
        println!(
            "{name}: {} ops, {} rows agree — logical_faults={} zero_fill={} cow={} pageins={} pageouts={} reclaims={} checksum=0x{:x}",
            s.ops.len(),
            rows.len(),
            o.logical_faults,
            o.zero_fill,
            o.cow,
            o.pageins,
            o.pageouts,
            o.reclaims,
            o.checksum
        );
    }
}

//! Regenerate the measurement tables of the ASPLOS 1987 Mach VM paper.
//!
//! ```text
//! tables [--table 7-1|7-2|ablations|all] [--quick]
//! ```
//!
//! Any other argument, or an unknown table, exits 2 before a table runs.
//!
//! Absolute numbers come from the simulator's cost model (printed below);
//! the claim being reproduced is the *shape* — which system wins each row
//! and by roughly what factor.

use std::process::ExitCode;

use mach_bench::ablate;
use mach_bench::report::{duration, header, ms, row, sec_pair};
use mach_bench::workloads::{self, CompileConfig, FOUR_HUNDRED_BUFFERS, GENERIC_BUFFERS};
use mach_hw::cost::{CostModel, DiskModel};
use mach_hw::machine::MachineModel;
use mach_pmap::ShootdownStrategy;

/// The values `--table` accepts.
const TABLES: [&str; 4] = ["7-1", "7-2", "ablations", "all"];

/// Parse the arguments after the program name into the table filter and
/// the `--quick` switch, refusing anything else before a table runs.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<(String, bool), String> {
    let (mut table, mut quick) = ("all".to_string(), false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--table" => {
                table = args.next().ok_or("--table needs a value")?;
                if !TABLES.contains(&table.as_str()) {
                    return Err(format!(
                        "unknown table {table:?} (valid: {})",
                        TABLES.join(", ")
                    ));
                }
            }
            _ => {
                return Err(format!(
                    "unknown argument {arg:?} (usage: tables [--table {}] [--quick])",
                    TABLES.join("|")
                ))
            }
        }
    }
    Ok((table, quick))
}

fn main() -> ExitCode {
    let (table, quick) = match parse_args(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("tables: {e}");
            return ExitCode::from(2);
        }
    };

    println!("Reproduction of Rashid et al., \"Machine-Independent Virtual Memory");
    println!("Management for Paged Uniprocessor and Multiprocessor Architectures\"");
    println!("(ASPLOS 1987) — simulated-time measurements.\n");
    print_cost_model();

    if table == "7-1" || table == "all" {
        table_7_1();
    }
    if table == "7-2" || table == "all" {
        table_7_2(quick);
    }
    if table == "ablations" || table == "all" {
        ablations(quick);
    }
    ExitCode::SUCCESS
}

fn print_cost_model() {
    let c = CostModel::standard();
    let d = DiskModel::standard();
    println!(
        "cost model: memref={} tlb_fill={} trap={} kernel_entry={} copy={}c/100B zero={}c/100B",
        c.memref, c.tlb_fill, c.trap, c.kernel_entry, c.copy_per_byte_c, c.zero_per_byte_c
    );
    println!(
        "            pmap_op={}+{}/page ipi={}tx/{}rx ctxsw={} disk={}us+{}us/{}B block",
        c.pmap_op,
        c.pmap_per_page,
        c.ipi_send,
        c.ipi_handle,
        c.context_switch,
        d.seek_us,
        d.per_block_us,
        d.block_size
    );
}

fn table_7_1() {
    header(
        "Table 7-1: Performance of Mach VM operations (simulated ms)",
        &["Mach", "UNIX", "paper Mach", "paper UNIX"],
    );
    let machines = [
        (
            "zero fill 1K (RT PC)",
            MachineModel::rt_pc(),
            "0.45ms",
            "0.58ms",
        ),
        (
            "zero fill 1K (uVAX II)",
            MachineModel::micro_vax_ii(),
            "0.58ms",
            "1.2ms",
        ),
        (
            "zero fill 1K (SUN 3/160)",
            MachineModel::sun_3_160(),
            "0.23ms",
            "0.27ms",
        ),
    ];
    for (label, model, pm, pu) in machines {
        let m = workloads::zero_fill_mach(model.clone());
        let u = workloads::zero_fill_unix(model);
        row(
            label,
            &[ms(m.elapsed_ms()), ms(u.elapsed_ms()), pm.into(), pu.into()],
        );
    }
    let machines = [
        ("fork 256K (RT PC)", MachineModel::rt_pc(), "41ms", "145ms"),
        (
            "fork 256K (uVAX II)",
            MachineModel::micro_vax_ii(),
            "59ms",
            "220ms",
        ),
        (
            "fork 256K (SUN 3/160)",
            MachineModel::sun_3_160(),
            "68ms",
            "89ms",
        ),
    ];
    for (label, model, pm, pu) in machines {
        let m = workloads::fork_mach(model.clone(), 256);
        let u = workloads::fork_unix(model, 256);
        row(
            label,
            &[ms(m.elapsed_ms()), ms(u.elapsed_ms()), pm.into(), pu.into()],
        );
    }
    println!();
    println!("  file reads on the VAX 8200 (system/elapsed seconds):");
    let m = workloads::file_read_mach(MachineModel::vax_8200(), 2560);
    let u = workloads::file_read_unix(MachineModel::vax_8200(), 2560, GENERIC_BUFFERS);
    row(
        "read 2.5M file, first time",
        &[
            sec_pair(m.first),
            sec_pair(u.first),
            "5.2/? s".into(),
            "5.0/11 s".into(),
        ],
    );
    row(
        "read 2.5M file, second time",
        &[
            sec_pair(m.second),
            sec_pair(u.second),
            "1.2/1.4 s".into(),
            "5.0/11 s".into(),
        ],
    );
    let m = workloads::file_read_mach(MachineModel::vax_8200(), 50);
    let u = workloads::file_read_unix(MachineModel::vax_8200(), 50, GENERIC_BUFFERS);
    row(
        "read 50K file, first time",
        &[
            sec_pair(m.first),
            sec_pair(u.first),
            ".2/.5 s".into(),
            ".2/.5 s".into(),
        ],
    );
    row(
        "read 50K file, second time",
        &[
            sec_pair(m.second),
            sec_pair(u.second),
            ".1/.1 s".into(),
            ".2/.2 s".into(),
        ],
    );
}

fn table_7_2(quick: bool) {
    header(
        "Table 7-2: Compilation performance, Mach vs 4.3bsd (simulated)",
        &["Mach", "4.3bsd", "paper Mach", "paper 4.3bsd"],
    );
    let mut thirteen = CompileConfig::thirteen_programs();
    let mut kernel_cfg = CompileConfig::kernel_build();
    if quick {
        thirteen.n_jobs = 6;
        kernel_cfg.n_jobs = 15;
    }
    // VAX 8650, 400 buffers.
    let m = workloads::compile_mach(MachineModel::vax_8650(), thirteen);
    let u = workloads::compile_unix(MachineModel::vax_8650(), thirteen, FOUR_HUNDRED_BUFFERS);
    row(
        "13 programs (8650, 400 buffers)",
        &[duration(m), duration(u), "23sec".into(), "28sec".into()],
    );
    let m = workloads::compile_mach(MachineModel::vax_8650(), kernel_cfg);
    let u = workloads::compile_unix(MachineModel::vax_8650(), kernel_cfg, FOUR_HUNDRED_BUFFERS);
    row(
        "kernel build (8650, 400 buffers)",
        &[
            duration(m),
            duration(u),
            "19:58min".into(),
            "23:38min".into(),
        ],
    );
    // VAX 8650, generic configuration (small fixed pool).
    let m = workloads::compile_mach(MachineModel::vax_8650(), thirteen);
    let u = workloads::compile_unix(MachineModel::vax_8650(), thirteen, 32);
    row(
        "13 programs (8650, generic)",
        &[duration(m), duration(u), "19sec".into(), "1:16min".into()],
    );
    let m = workloads::compile_mach(MachineModel::vax_8650(), kernel_cfg);
    let u = workloads::compile_unix(MachineModel::vax_8650(), kernel_cfg, 32);
    row(
        "kernel build (8650, generic)",
        &[
            duration(m),
            duration(u),
            "15:50min".into(),
            "34:10min".into(),
        ],
    );
    // SUN 3/160: single small compile.
    let cfg = CompileConfig::fork_test_program();
    let m = workloads::compile_mach(MachineModel::sun_3_160(), cfg);
    let u = workloads::compile_unix(MachineModel::sun_3_160(), cfg, GENERIC_BUFFERS);
    row(
        "compile fork test (SUN 3/160)",
        &[duration(m), duration(u), "3sec".into(), "6sec".into()],
    );
}

fn ablations(quick: bool) {
    header(
        "S5-RT: page sharing on the inverted page table (RT PC)",
        &["shared", "copy-based", "evictions"],
    );
    let rounds = if quick { 4 } else { 10 };
    let r = ablate::alias_sharing(MachineModel::rt_pc(), rounds, 20);
    row(
        "2 tasks, 16 pages, 20% writes",
        &[
            format!("{:.1}ms", r.shared_time.elapsed_ms()),
            format!("{:.1}ms", r.copy_time.elapsed_ms()),
            r.alias_evictions.to_string(),
        ],
    );
    let v = ablate::alias_sharing(MachineModel::micro_vax_ii(), rounds, 20);
    row(
        "same on uVAX II (no restriction)",
        &[
            format!("{:.1}ms", v.shared_time.elapsed_ms()),
            format!("{:.1}ms", v.copy_time.elapsed_ms()),
            v.alias_evictions.to_string(),
        ],
    );

    header(
        "S5-SUN: context thrash past 8 active tasks (SUN 3/160)",
        &["time/task", "ctx steals", "faults"],
    );
    for n in [4usize, 8, 12, 16] {
        let r = ablate::sun3_contexts(n, if quick { 4 } else { 8 });
        row(
            &format!("{n} tasks round-robin"),
            &[
                format!("{:.2}ms", r.time.elapsed_ms() / n as f64),
                r.context_steals.to_string(),
                r.faults.to_string(),
            ],
        );
    }

    header(
        "S5-NS: NS32082 read-modify-write erratum (MultiMax)",
        &["time", "COW faults"],
    );
    let r = ablate::ns32082_erratum(16);
    row(
        "erratum present (workaround)",
        &[
            format!("{:.2}ms", r.buggy_time.elapsed_ms()),
            r.buggy_cow_faults.to_string(),
        ],
    );
    row(
        "fixed chip (NS32382)",
        &[
            format!("{:.2}ms", r.fixed_time.elapsed_ms()),
            r.fixed_cow_faults.to_string(),
        ],
    );

    header(
        "S5-VAX: page-table space for one page high in a sparse space",
        &["table bytes"],
    );
    for mb in [16u64, 64, 256] {
        let r = ablate::table_space(mb);
        row(
            &format!("VAX, {mb} MB span"),
            &[r.vax_table_bytes.to_string()],
        );
        if mb == 16 {
            row(
                "RT PC, any span (global IPT)",
                &[r.romp_table_bytes.to_string()],
            );
            row(
                "RP3, any span (TLB only)",
                &[r.tlbsoft_table_bytes.to_string()],
            );
        }
    }
    println!("  (a full 2 GB VAX user space would need 8388608 bytes of table)");

    header(
        "S5.2: TLB shootdown strategies (4-CPU MultiMax, protect storm)",
        &["initiator time", "IPIs"],
    );
    let ops = if quick { 8 } else { 24 };
    for s in [
        ShootdownStrategy::Immediate,
        ShootdownStrategy::Deferred,
        ShootdownStrategy::Lazy,
    ] {
        let r = ablate::shootdown_storm(4, s, ops);
        row(
            &format!("{s:?}"),
            &[format!("{:.2}ms", r.time.elapsed_ms()), r.ipis.to_string()],
        );
    }

    header(
        "§3.1: boot-time Mach page size (uVAX II, 512 B hardware pages)",
        &["zero-fill/KB", "fork 256K", "faults/256K"],
    );
    for mult in [1u64, 2, 8, 16, 32] {
        let r = ablate::page_size_sweep(mult);
        row(
            &format!("{} B Mach pages", r.page_size),
            &[
                format!("{:.3}ms", r.zero_fill_per_kb.elapsed_ms()),
                format!("{:.1}ms", r.fork_256k.elapsed_ms()),
                r.faults.to_string(),
            ],
        );
    }

    header(
        "S3.4: shadow-chain garbage collection (uVAX II, 12 generations)",
        &["final chain", "fault storm", "collapses"],
    );
    for on in [true, false] {
        let r = ablate::shadow_chain(12, on);
        row(
            if on {
                "collapse enabled"
            } else {
                "collapse disabled"
            },
            &[
                r.final_chain.to_string(),
                format!("{:.2}ms", r.fault_time.elapsed_ms()),
                r.gcs.to_string(),
            ],
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, bool), String> {
        parse_args(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn table_filter_must_name_a_table() {
        assert_eq!(parse(&[]), Ok(("all".to_string(), false)));
        assert_eq!(
            parse(&["--table", "7-2", "--quick"]),
            Ok(("7-2".to_string(), true))
        );
        let e = parse(&["--table", "7-3"]).unwrap_err();
        assert!(
            e.contains("\"7-3\"") && e.contains("7-1, 7-2, ablations, all"),
            "{e}"
        );
        assert_eq!(parse(&["--table"]).unwrap_err(), "--table needs a value");
        assert!(parse(&["--help"]).unwrap_err().contains("usage: tables"));
    }
}

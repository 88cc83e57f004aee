//! Seeded op generation. A [`Plan`] is a pure function of
//! `(workload, seed)`: the kernel only ever sees the ops listed here, and
//! the executor checks every read against the values these ops imply.
//!
//! Per-step op *counts* are constants of the workload; the seed chooses
//! pages, offsets, values and order. That keeps the simulated cost of a
//! plan nearly seed-independent, so ten seeds measure one workload rather
//! than ten.

/// Simulated CPUs every workload drives.
pub const CPUS: usize = 2;

/// Byte offsets, within a Mach page, of the two words each page slot
/// holds. They sit in different hardware pages on every port (512-byte
/// VAX pages included), so re-touching a page exercises two TLB entries.
pub const SLOT_OFFSETS: [u32; 2] = [0, 2564];

/// The three benchmark workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Fork storm on the SUN 3/160 model (shadow chains, shootdowns).
    ForkStorm,
    /// Allocate/touch/verify/deallocate on the MicroVAX II model.
    FaultStream,
    /// Reclaim plus pagein/pageout through the default pager's paging
    /// file, MicroVAX II.
    Paging,
    /// `Paging`'s plan with the default pager run as a pager-service
    /// fleet over IPC.
    PagingFleet,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::ForkStorm,
        Workload::FaultStream,
        Workload::Paging,
        Workload::PagingFleet,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ForkStorm => "fork_storm",
            Workload::FaultStream => "fault_stream",
            Workload::Paging => "paging",
            Workload::PagingFleet => "paging_fleet",
        }
    }

    /// Parse a command-line workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// `fork_storm` shape: pages of the `Shared`-inheritance half and of the
/// `Copy` half of each tenant's anonymous region, and of the shared file.
pub const FORK_SHARED_PAGES: u32 = 8;
/// See [`FORK_SHARED_PAGES`].
pub const FORK_COPY_PAGES: u32 = 8;
/// See [`FORK_SHARED_PAGES`].
pub const FORK_FILE_PAGES: u32 = 8;
/// Forks per CPU per round.
pub const FORK_STEPS: usize = 16;
/// Children kept alive besides the lineage; older ones are torn down.
pub const FORK_LIVE: usize = 4;
/// Every this many steps the lineage advances to the newest child.
///
/// `fork_storm` runs no reclaim pass: `vm_fault` zero-fills at an
/// intermediate shadow object whose pager lacks the page instead of
/// descending the chain, so once pageout has given a shadow object a
/// pager, reads through it return zeros. `paging` covers pageout.
const FORK_ADVANCE_EVERY: usize = 4;

/// `fault_stream` shape: pages of the region each step allocates.
pub const STREAM_PAGES: u32 = 48;
/// Steps per CPU per round.
pub const STREAM_STEPS: usize = 64;

/// `paging` shape: anonymous pages each CPU owns.
pub const PAGING_ANON_PAGES: u32 = 160;
/// File pages each CPU maps read-only.
pub const PAGING_FILE_PAGES: u32 = 32;
/// Steps per CPU per round.
pub const PAGING_STEPS: usize = 8;
/// Pages each step's reclaim pass asks for.
const PAGING_RECLAIM: u32 = 48;
/// Every this many steps the file is unmapped and mapped again, which
/// goes through the object cache.
const PAGING_REMAP_EVERY: usize = 4;

/// Which of a task's regions an access targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Region {
    /// Private anonymous memory (`Copy` inheritance under `fork_storm`).
    Anon,
    /// The `Shared`-inheritance half of a `fork_storm` tenant.
    Shared,
    /// The read-only file mapping.
    File,
}

/// One user-mode word access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access {
    /// The region accessed.
    pub region: Region,
    /// Page index within the region.
    pub page: u32,
    /// Byte offset within the page (one of [`SLOT_OFFSETS`]).
    pub offset: u32,
    /// `Some(v)` stores `v`; `None` loads and checks the expected value.
    pub write: Option<u32>,
}

/// One closed-loop step of one CPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Step {
    /// Pages a `Kernel::reclaim` pass asks for before the step (0: none).
    pub reclaim: u32,
    /// `fork_storm`: the step's child becomes the lineage afterwards.
    pub advance: bool,
    /// `paging`: unmap and re-map the file before the accesses.
    pub remap: bool,
    /// The accesses, in issue order.
    pub accesses: Vec<Access>,
    /// `fork_storm`: reads the lineage makes after its child's accesses,
    /// of the pages the child wrote (copy-on-write isolation checks).
    pub lineage_reads: Vec<Access>,
}

/// Everything a run feeds the kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The seed the plan was made from.
    pub seed: u64,
    /// Steps of each simulated CPU.
    pub cpus: Vec<Vec<Step>>,
}

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    /// A nonzero random word (zero is what fresh memory reads as).
    pub fn value(&mut self) -> u32 {
        (self.next_u64() as u32) | 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u32 + 1) as usize;
            v.swap(i, j);
        }
    }

    /// `k` distinct values from `0..n`, in random order.
    pub fn distinct(&mut self, n: u32, k: usize) -> Vec<u32> {
        let mut all: Vec<u32> = (0..n).collect();
        self.shuffle(&mut all);
        all.truncate(k);
        all
    }

    fn offset(&mut self) -> u32 {
        SLOT_OFFSETS[self.below(SLOT_OFFSETS.len() as u32) as usize]
    }
}

/// The SplitMix64 output function (also a good 64-bit hash).
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic word for `(seed, a, b, c)`: initial anonymous contents
/// and file contents are functions, not stored tables.
pub fn word(seed: u64, a: u64, b: u64, c: u64) -> u32 {
    (mix(seed ^ mix(a ^ mix(b ^ mix(c)))) as u32) | 1
}

/// The plan for `(workload, seed)`.
pub fn plan(workload: Workload, seed: u64) -> Plan {
    let cpus = (0..CPUS)
        .map(|cpu| {
            // One independent stream per (workload, cpu); both paging
            // workloads run one plan.
            let stream = match workload {
                Workload::PagingFleet => Workload::Paging,
                w => w,
            };
            let mut rng = Rng::new(mix(seed ^ mix(stream as u64 * 131 + cpu as u64)));
            match workload {
                Workload::ForkStorm => fork_steps(&mut rng),
                Workload::FaultStream => stream_steps(&mut rng),
                Workload::Paging | Workload::PagingFleet => paging_steps(&mut rng),
            }
        })
        .collect();
    Plan {
        workload,
        seed,
        cpus,
    }
}

fn read(region: Region, page: u32, offset: u32) -> Access {
    Access {
        region,
        page,
        offset,
        write: None,
    }
}

fn write(region: Region, page: u32, offset: u32, value: u32) -> Access {
    Access {
        region,
        page,
        offset,
        write: Some(value),
    }
}

/// Each child makes two COW writes and one shared write, reads two file
/// pages, and reads back two copy pages and one shared page; then the
/// lineage reads the two pages the child wrote.
fn fork_steps(rng: &mut Rng) -> Vec<Step> {
    (0..FORK_STEPS)
        .map(|g| {
            let mut accesses = Vec::new();
            let mut lineage_reads = Vec::new();
            for page in rng.distinct(FORK_COPY_PAGES, 2) {
                let offset = rng.offset();
                accesses.push(write(Region::Anon, page, offset, rng.value()));
                lineage_reads.push(read(Region::Anon, page, offset));
            }
            let page = rng.below(FORK_SHARED_PAGES);
            accesses.push(write(Region::Shared, page, rng.offset(), rng.value()));
            for page in rng.distinct(FORK_FILE_PAGES, 2) {
                accesses.push(read(Region::File, page, rng.offset()));
            }
            for page in rng.distinct(FORK_COPY_PAGES, 2) {
                accesses.push(read(Region::Anon, page, rng.offset()));
            }
            let page = rng.below(FORK_SHARED_PAGES);
            accesses.push(read(Region::Shared, page, rng.offset()));
            rng.shuffle(&mut accesses);
            Step {
                reclaim: 0,
                advance: g % FORK_ADVANCE_EVERY == FORK_ADVANCE_EVERY - 1,
                remap: false,
                accesses,
                lineage_reads,
            }
        })
        .collect()
}

/// Each step first-touches every slot of a fresh region in random order,
/// three quarters of them as writes (zero-fill faults), then reads every
/// slot back twice in two further random orders (TLB-miss re-touches).
fn stream_steps(rng: &mut Rng) -> Vec<Step> {
    let slots: Vec<(u32, u32)> = (0..STREAM_PAGES)
        .flat_map(|p| SLOT_OFFSETS.map(|o| (p, o)))
        .collect();
    (0..STREAM_STEPS)
        .map(|_| {
            let mut first = slots.clone();
            rng.shuffle(&mut first);
            let writes = first.len() * 3 / 4;
            let mut accesses: Vec<Access> = first
                .iter()
                .enumerate()
                .map(|(i, &(p, o))| {
                    if i < writes {
                        write(Region::Anon, p, o, rng.value())
                    } else {
                        read(Region::Anon, p, o)
                    }
                })
                .collect();
            // The writes and reads of the first touch were drawn in one
            // order; interleave them in another.
            rng.shuffle(&mut accesses);
            for _ in 0..2 {
                let mut again = slots.clone();
                rng.shuffle(&mut again);
                accesses.extend(again.iter().map(|&(p, o)| read(Region::Anon, p, o)));
            }
            Step {
                reclaim: 0,
                advance: false,
                remap: false,
                accesses,
                lineage_reads: Vec::new(),
            }
        })
        .collect()
}

/// Each step reclaims, then dirties 16 anonymous pages, reads back 16
/// (pageins once evicted) and reads 8 file pages.
fn paging_steps(rng: &mut Rng) -> Vec<Step> {
    (0..PAGING_STEPS)
        .map(|s| {
            let mut accesses = Vec::new();
            for page in rng.distinct(PAGING_ANON_PAGES, 16) {
                accesses.push(write(Region::Anon, page, rng.offset(), rng.value()));
            }
            for page in rng.distinct(PAGING_ANON_PAGES, 16) {
                accesses.push(read(Region::Anon, page, rng.offset()));
            }
            for page in rng.distinct(PAGING_FILE_PAGES, 8) {
                accesses.push(read(Region::File, page, rng.offset()));
            }
            rng.shuffle(&mut accesses);
            Step {
                reclaim: PAGING_RECLAIM,
                advance: false,
                remap: s % PAGING_REMAP_EVERY == PAGING_REMAP_EVERY - 1,
                accesses,
                lineage_reads: Vec::new(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_gives_the_same_ops() {
        for w in Workload::ALL {
            assert_eq!(plan(w, 7), plan(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn two_seeds_give_different_ops() {
        for w in Workload::ALL {
            assert_ne!(plan(w, 7).cpus, plan(w, 8).cpus, "{}", w.name());
        }
    }

    #[test]
    fn both_paging_workloads_run_one_plan() {
        assert_eq!(
            plan(Workload::Paging, 4).cpus,
            plan(Workload::PagingFleet, 4).cpus
        );
    }

    #[test]
    fn cpus_get_different_streams() {
        for w in Workload::ALL {
            let p = plan(w, 1);
            assert_ne!(p.cpus[0], p.cpus[1], "{}", w.name());
        }
    }

    #[test]
    fn op_counts_do_not_depend_on_the_seed() {
        let shape = |p: &Plan| -> Vec<(usize, usize, u32, bool, bool)> {
            p.cpus
                .iter()
                .flatten()
                .map(|s| {
                    let writes = s.accesses.iter().filter(|a| a.write.is_some()).count();
                    (s.accesses.len(), writes, s.reclaim, s.advance, s.remap)
                })
                .collect()
        };
        for w in Workload::ALL {
            assert_eq!(shape(&plan(w, 1)), shape(&plan(w, 99)), "{}", w.name());
        }
    }

    #[test]
    fn accesses_stay_inside_their_regions() {
        for w in Workload::ALL {
            let steps = plan(w, 3).cpus.concat();
            for a in steps
                .iter()
                .flat_map(|s| s.accesses.iter().chain(&s.lineage_reads))
            {
                let pages = match (w, a.region) {
                    (Workload::ForkStorm, Region::Anon) => FORK_COPY_PAGES,
                    (Workload::ForkStorm, Region::Shared) => FORK_SHARED_PAGES,
                    (Workload::ForkStorm, Region::File) => FORK_FILE_PAGES,
                    (Workload::FaultStream, Region::Anon) => STREAM_PAGES,
                    (Workload::Paging | Workload::PagingFleet, Region::Anon) => PAGING_ANON_PAGES,
                    (Workload::Paging | Workload::PagingFleet, Region::File) => PAGING_FILE_PAGES,
                    other => panic!("unexpected region {other:?}"),
                };
                assert!(a.page < pages);
                assert!(SLOT_OFFSETS.contains(&a.offset));
                assert!(
                    a.region != Region::File || a.write.is_none(),
                    "files are read-only"
                );
            }
        }
    }
}

//! Deterministic fault injection — the chaos layer.
//!
//! The paper's robustness story is that the machine-independent layer
//! holds all authoritative state: pmap entries can vanish "at almost any
//! time" and external pagers are untrusted user tasks that may stall or
//! die (§3, Tables 3-1/3-2). This module makes those failures happen *on
//! demand and reproducibly*: an [`InjectPlan`] carries a seed plus
//! per-kind rates, and an [`Injector`] (one per booted kernel, in
//! [`crate::CoreRefs`]) answers "should this fault fire here?" from a
//! splitmix64 PRNG — never from wall-clock time or host randomness.
//!
//! Injection sites consult [`Injector::fire`], which makes the decision,
//! appends an [`InjectedEvent`] to the replayable event log, and notifies
//! the observer hook (the kernel wires it to emit
//! [`crate::trace::TraceEvent::Injected`] so every injected fault is
//! visible in the PR 2 trace ring). The sites are:
//!
//! | kind | where | effect |
//! |---|---|---|
//! | [`InjectKind::PagerStall`] | `xpager` proxy `data_request` | request never sent; fault waits out `pager_timeout` |
//! | [`InjectKind::PagerDeath`] | `xpager` proxy `data_request` | pager declared dead; object quarantined |
//! | [`InjectKind::MsgDrop`] | both `xpager` directions | Table 3-1/3-2 message silently lost |
//! | [`InjectKind::MsgDuplicate`] | pager → kernel messages | message processed twice (dedup must hold) |
//! | [`InjectKind::MsgDelay`] | both `xpager` directions | message delayed by [`InjectPlan::delay`] |
//! | [`InjectKind::IoTransient`] | `mach-fs` block device | transfer fails, retry may succeed |
//! | [`InjectKind::IoPermanent`] | `mach-fs` block device | transfer fails for good |
//! | [`InjectKind::MemPressure`] | pageout daemon loop | free pages held hostage, forcing reclaim |
//!
//! **Determinism.** One PRNG stream **per CPU** (slot keyed by
//! [`mach_hw::machine::bound_cpu`]; stream 0 is seeded with the plan seed
//! verbatim, stream *i* with a splitmix-derived sub-seed), one draw per
//! `fire` call with a non-zero rate (zero-rate kinds draw nothing, so
//! enabling an unrelated kind does not perturb the sequence). A
//! single-threaded workload runs entirely on stream 0 and with the same
//! seed produces a byte-identical event log — `tests/chaos_replay.rs`
//! enforces this. With threads racing on several CPUs, each CPU's
//! *decision sequence* is still a pure function of (seed, cpu, its own
//! call order): timing changes which decision meets which fault, but
//! never re-rolls the dice. Cross-CPU guarantees are the *invariants*
//! (no leaked pages, no hung faults), not one global sequence; the `seq`
//! field records the global interleaving actually observed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use parking_lot::Mutex;

use crate::ctx::CoreRefs;
use crate::page::PageId;

/// The kinds of fault the chaos layer can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum InjectKind {
    /// The external pager never answers a `data_request`.
    PagerStall,
    /// The external pager dies mid-protocol.
    PagerDeath,
    /// A pager-protocol message is dropped.
    MsgDrop,
    /// A pager → kernel message is delivered twice.
    MsgDuplicate,
    /// A pager-protocol message is delayed by [`InjectPlan::delay`].
    MsgDelay,
    /// The block device fails a transfer transiently.
    IoTransient,
    /// The block device fails a transfer permanently.
    IoPermanent,
    /// The free pool shrinks under the pageout daemon.
    MemPressure,
}

impl std::fmt::Display for InjectKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            InjectKind::PagerStall => "pager-stall",
            InjectKind::PagerDeath => "pager-death",
            InjectKind::MsgDrop => "msg-drop",
            InjectKind::MsgDuplicate => "msg-duplicate",
            InjectKind::MsgDelay => "msg-delay",
            InjectKind::IoTransient => "io-transient",
            InjectKind::IoPermanent => "io-permanent",
            InjectKind::MemPressure => "mem-pressure",
        })
    }
}

/// What to inject and how often: a seed plus one rate per [`InjectKind`],
/// in permille (0 = never, 1000 = every opportunity).
///
/// # Examples
///
/// ```
/// use mach_vm::inject::InjectPlan;
/// let plan = InjectPlan::new(42).io_transient(250).msg_drop(100);
/// assert_eq!(plan.seed, 42);
/// assert_eq!(plan.rate(mach_vm::inject::InjectKind::IoTransient), 250);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectPlan {
    /// PRNG seed. Same seed + same (single-threaded) workload ⇒ same
    /// injected-event sequence.
    pub seed: u64,
    /// [`InjectKind::PagerStall`] rate, permille.
    pub pager_stall: u32,
    /// [`InjectKind::PagerDeath`] rate, permille.
    pub pager_death: u32,
    /// [`InjectKind::MsgDrop`] rate, permille.
    pub msg_drop: u32,
    /// [`InjectKind::MsgDuplicate`] rate, permille.
    pub msg_duplicate: u32,
    /// [`InjectKind::MsgDelay`] rate, permille.
    pub msg_delay: u32,
    /// [`InjectKind::IoTransient`] rate, permille.
    pub io_transient: u32,
    /// [`InjectKind::IoPermanent`] rate, permille.
    pub io_permanent: u32,
    /// [`InjectKind::MemPressure`] rate, permille (evaluated once per
    /// daemon pass).
    pub mem_pressure: u32,
    /// How long a delayed message waits.
    pub delay: Duration,
    /// Free pages held hostage per pressure pulse.
    pub pressure_pages: u64,
}

impl InjectPlan {
    /// A plan that injects nothing (all rates zero) under `seed`.
    pub fn new(seed: u64) -> InjectPlan {
        InjectPlan {
            seed,
            pager_stall: 0,
            pager_death: 0,
            msg_drop: 0,
            msg_duplicate: 0,
            msg_delay: 0,
            io_transient: 0,
            io_permanent: 0,
            mem_pressure: 0,
            delay: Duration::from_millis(5),
            pressure_pages: 4,
        }
    }

    /// The rate for `kind`, permille.
    pub fn rate(&self, kind: InjectKind) -> u32 {
        match kind {
            InjectKind::PagerStall => self.pager_stall,
            InjectKind::PagerDeath => self.pager_death,
            InjectKind::MsgDrop => self.msg_drop,
            InjectKind::MsgDuplicate => self.msg_duplicate,
            InjectKind::MsgDelay => self.msg_delay,
            InjectKind::IoTransient => self.io_transient,
            InjectKind::IoPermanent => self.io_permanent,
            InjectKind::MemPressure => self.mem_pressure,
        }
    }

    /// Set the [`InjectKind::PagerStall`] rate (permille).
    #[must_use]
    pub fn pager_stall(mut self, permille: u32) -> Self {
        self.pager_stall = permille;
        self
    }

    /// Set the [`InjectKind::PagerDeath`] rate (permille).
    #[must_use]
    pub fn pager_death(mut self, permille: u32) -> Self {
        self.pager_death = permille;
        self
    }

    /// Set the [`InjectKind::MsgDrop`] rate (permille).
    #[must_use]
    pub fn msg_drop(mut self, permille: u32) -> Self {
        self.msg_drop = permille;
        self
    }

    /// Set the [`InjectKind::MsgDuplicate`] rate (permille).
    #[must_use]
    pub fn msg_duplicate(mut self, permille: u32) -> Self {
        self.msg_duplicate = permille;
        self
    }

    /// Set the [`InjectKind::MsgDelay`] rate (permille).
    #[must_use]
    pub fn msg_delay(mut self, permille: u32) -> Self {
        self.msg_delay = permille;
        self
    }

    /// Set the [`InjectKind::IoTransient`] rate (permille).
    #[must_use]
    pub fn io_transient(mut self, permille: u32) -> Self {
        self.io_transient = permille;
        self
    }

    /// Set the [`InjectKind::IoPermanent`] rate (permille).
    #[must_use]
    pub fn io_permanent(mut self, permille: u32) -> Self {
        self.io_permanent = permille;
        self
    }

    /// Set the [`InjectKind::MemPressure`] rate (permille) and pages held
    /// per pulse.
    #[must_use]
    pub fn mem_pressure(mut self, permille: u32, pages: u64) -> Self {
        self.mem_pressure = permille;
        self.pressure_pages = pages;
        self
    }

    /// Set the [`InjectKind::MsgDelay`] duration.
    #[must_use]
    pub fn delay(mut self, delay: Duration) -> Self {
        self.delay = delay;
        self
    }
}

/// One injected fault, in decision order — the replayable record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedEvent {
    /// Position in the global injection sequence.
    pub seq: u64,
    /// What was injected.
    pub kind: InjectKind,
    /// Memory-object id at the site (0 when not applicable — device and
    /// pressure sites).
    pub object: u64,
    /// Byte offset (device sites: block number; pressure: pages held).
    pub offset: u64,
    /// The CPU whose decision stream fired this event.
    pub cpu: u32,
}

/// Sebastiano Vigna's splitmix64 — tiny, full-period, and plenty for
/// deciding whether a fault fires. Not cryptographic, which is the point:
/// the sequence must be boringly reproducible.
#[derive(Debug)]
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Observer invoked on every injected fault (kind, object, offset). The
/// kernel installs one that emits [`crate::trace::TraceEvent::Injected`].
pub type InjectObserver = Arc<dyn Fn(InjectKind, u64, u64) + Send + Sync>;

/// The per-kernel injection engine. Disabled (the default) it is inert:
/// [`Injector::fire`] is a single branch and draws nothing.
/// Number of per-CPU PRNG decision streams (covers any simulated CPU
/// count; threads bound to CPU `c` draw from stream `c % INJECT_STREAMS`).
pub const INJECT_STREAMS: usize = 16;

pub struct Injector {
    enabled: bool,
    plan: InjectPlan,
    /// One decision stream per CPU slot. Stream 0 carries the plan seed
    /// verbatim so single-threaded runs replay byte-identically against
    /// logs recorded before streams existed.
    rngs: Vec<Mutex<SplitMix64>>,
    log: Mutex<Vec<InjectedEvent>>,
    seq: AtomicU64,
    observer: Mutex<Option<InjectObserver>>,
    /// Pages currently held hostage by memory pressure, and the offset
    /// counter that keeps their (object, offset) identities unique.
    held: Mutex<Vec<PageId>>,
    pressure_off: AtomicU64,
}

impl std::fmt::Debug for Injector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Injector")
            .field("enabled", &self.enabled)
            .field("plan", &self.plan)
            .field("fired", &self.seq.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The pseudo-object id pressure pages are parked under; no real object
/// ever gets this id, so nothing faults on them.
const PRESSURE_OBJECT: u64 = u64::MAX;

/// One [`SplitMix64`] per CPU slot: stream 0 gets `seed` verbatim,
/// stream *i* a splitmix-derived sub-seed, so streams are mutually
/// well-separated yet each a pure function of (seed, i).
fn streams_for(seed: u64) -> Vec<Mutex<SplitMix64>> {
    (0..INJECT_STREAMS)
        .map(|i| {
            let s = if i == 0 {
                seed
            } else {
                SplitMix64::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)).next()
            };
            Mutex::new(SplitMix64::new(s))
        })
        .collect()
}

impl Injector {
    /// An engine executing `plan`.
    pub fn new(plan: InjectPlan) -> Arc<Injector> {
        let seed = plan.seed;
        Arc::new(Injector {
            enabled: true,
            plan,
            rngs: streams_for(seed),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            observer: Mutex::new(None),
            held: Mutex::new(Vec::new()),
            pressure_off: AtomicU64::new(0),
        })
    }

    /// The inert engine every kernel without an
    /// [`crate::BootOptions::inject`] plan gets.
    pub fn disabled() -> Arc<Injector> {
        Arc::new(Injector {
            enabled: false,
            plan: InjectPlan::new(0),
            rngs: streams_for(0),
            log: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
            observer: Mutex::new(None),
            held: Mutex::new(Vec::new()),
            pressure_off: AtomicU64::new(0),
        })
    }

    /// Whether any injection can ever fire.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The plan being executed.
    pub fn plan(&self) -> &InjectPlan {
        &self.plan
    }

    /// Install the fired-fault observer (the kernel's trace bridge).
    pub fn set_observer(&self, obs: Option<InjectObserver>) {
        *self.observer.lock() = obs;
    }

    /// Decide whether `kind` fires at this site. A firing decision is
    /// logged (see [`Injector::events`]) and reported to the observer.
    /// Zero-rate kinds consume no PRNG draw, so enabling one kind never
    /// perturbs another kind's sequence. The draw comes from the calling
    /// CPU's own decision stream, so racing CPUs never perturb each
    /// other's sequences either.
    pub fn fire(&self, kind: InjectKind, object: u64, offset: u64) -> bool {
        if !self.enabled {
            return false;
        }
        let rate = self.plan.rate(kind);
        if rate == 0 {
            return false;
        }
        let cpu = mach_hw::machine::bound_cpu();
        let draw = {
            let mut rng = self.rngs[cpu % INJECT_STREAMS].lock();
            rng.next() % 1000
        };
        if draw >= u64::from(rate) {
            return false;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.log.lock().push(InjectedEvent {
            seq,
            kind,
            object,
            offset,
            cpu: cpu as u32,
        });
        if let Some(obs) = self.observer.lock().clone() {
            obs(kind, object, offset);
        }
        true
    }

    /// The injected-event log so far, in decision order.
    pub fn events(&self) -> Vec<InjectedEvent> {
        self.log.lock().clone()
    }

    /// How long a delayed message waits.
    pub fn delay(&self) -> Duration {
        self.plan.delay
    }

    /// One memory-pressure opportunity, called by the pageout daemon each
    /// pass: releases the previous pulse's hostages, then (PRNG willing)
    /// grabs [`InjectPlan::pressure_pages`] free pages and wires them so
    /// nothing — fault handler or daemon — can have them back until the
    /// next pulse. Returns pages grabbed.
    pub fn pressure_pulse(&self, ctx: &CoreRefs) -> u64 {
        if !self.enabled || self.plan.mem_pressure == 0 {
            return 0;
        }
        self.release_pressure(ctx);
        if !self.fire(InjectKind::MemPressure, 0, self.plan.pressure_pages) {
            return 0;
        }
        let mut held = self.held.lock();
        let mut grabbed = 0;
        for _ in 0..self.plan.pressure_pages {
            let off = self.pressure_off.fetch_add(1, Ordering::Relaxed) * ctx.page_size;
            let Some(page) = ctx.resident.alloc(PRESSURE_OBJECT, off, Weak::new()) else {
                break;
            };
            // alloc hands the page back busy; it is ours, not in transit,
            // and in no object a fault could wait on.
            ctx.resident.release(page, false);
            ctx.resident.wire(page);
            held.push(page);
            grabbed += 1;
        }
        grabbed
    }

    /// Give every pressure-held page back to the free pool.
    pub fn release_pressure(&self, ctx: &CoreRefs) {
        let pages = std::mem::take(&mut *self.held.lock());
        for page in pages {
            ctx.resident.unwire(page);
            ctx.resident.free_page(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_moves() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..8).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut c = SplitMix64::new(8);
        assert_ne!(c.next(), xs[0]);
    }

    #[test]
    fn disabled_injector_never_fires() {
        let i = Injector::disabled();
        assert!(!i.is_enabled());
        for _ in 0..100 {
            assert!(!i.fire(InjectKind::MsgDrop, 1, 0));
        }
        assert!(i.events().is_empty());
    }

    #[test]
    fn full_rate_always_fires_and_zero_rate_draws_nothing() {
        let a = Injector::new(InjectPlan::new(1).msg_drop(1000));
        let b = Injector::new(InjectPlan::new(1).msg_drop(1000));
        for k in 0..50 {
            assert!(a.fire(InjectKind::MsgDrop, 1, k));
            // Zero-rate kind: no draw, no event — so b's extra calls do
            // not perturb its MsgDrop sequence relative to a's.
            assert!(!b.fire(InjectKind::IoTransient, 1, k));
            assert!(b.fire(InjectKind::MsgDrop, 1, k));
        }
        assert_eq!(a.events().len(), 50);
        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn same_seed_same_sequence_different_seed_diverges() {
        let mk = |seed| Injector::new(InjectPlan::new(seed).io_transient(300));
        let (a, b, c) = (mk(11), mk(11), mk(12));
        let fire_all = |i: &Injector| -> Vec<bool> {
            (0..200)
                .map(|k| i.fire(InjectKind::IoTransient, 0, k))
                .collect()
        };
        let (fa, fb, fc) = (fire_all(&a), fire_all(&b), fire_all(&c));
        assert_eq!(fa, fb);
        assert_eq!(a.events(), b.events());
        assert_ne!(fa, fc, "different seed gives a different schedule");
        let hits = fa.iter().filter(|&&x| x).count();
        assert!(hits > 20 && hits < 120, "≈30% rate, got {hits}/200");
    }

    #[test]
    fn per_cpu_streams_are_independent() {
        use mach_hw::machine::{Machine, MachineModel};
        // A run where CPU 1 races 100 draws of its own must leave CPU 0's
        // decision sequence exactly what it is in a solo run: streams are
        // a pure function of (seed, cpu, own call order).
        let solo = Injector::new(InjectPlan::new(9).io_transient(500));
        let solo_fires: Vec<bool> = (0..100)
            .map(|k| solo.fire(InjectKind::IoTransient, 0, k))
            .collect();

        let mixed = Injector::new(InjectPlan::new(9).io_transient(500));
        let machine = Machine::boot(MachineModel::multimax(2));
        std::thread::scope(|s| {
            s.spawn(|| {
                let _bind = machine.bind_cpu(1);
                for k in 0..100 {
                    mixed.fire(InjectKind::IoTransient, 1, k);
                }
            });
        });
        let mixed_fires: Vec<bool> = (0..100)
            .map(|k| mixed.fire(InjectKind::IoTransient, 0, k))
            .collect();
        assert_eq!(solo_fires, mixed_fires);
        let cpus: std::collections::HashSet<u32> = mixed.events().iter().map(|e| e.cpu).collect();
        assert!(cpus.contains(&0) && cpus.contains(&1), "both streams fired");
    }

    #[test]
    fn observer_sees_every_fired_event() {
        let i = Injector::new(InjectPlan::new(3).msg_duplicate(1000));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        i.set_observer(Some(Arc::new(move |kind, object, offset| {
            sink.lock().push((kind, object, offset));
        })));
        assert!(i.fire(InjectKind::MsgDuplicate, 9, 4096));
        assert_eq!(
            seen.lock().as_slice(),
            &[(InjectKind::MsgDuplicate, 9, 4096)]
        );
    }

    #[test]
    fn display_names_are_stable() {
        assert_eq!(InjectKind::PagerDeath.to_string(), "pager-death");
        assert_eq!(InjectKind::IoTransient.to_string(), "io-transient");
    }
}

//! The inter-processor interrupt bus.
//!
//! None of the multiprocessors that ran Mach could touch a remote CPU's
//! TLB; the only tool was an interrupt (paper §5.2). This module provides
//! exactly that: a mailbox per CPU, delivered when the target CPU next
//! polls (which the simulated CPUs do at every memory access boundary).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::tlb::FlushScope;

/// What an inter-processor interrupt asks the target CPU to do.
#[derive(Debug, Clone)]
pub enum IpiKind {
    /// Flush part of the target's TLB.
    FlushTlb(FlushScope),
    /// Flush several scopes in one interrupt — the coalesced form: the
    /// dominant cost of a shootdown is taking the interrupt, not the
    /// individual invalidations, so a range operation batches all its
    /// page flushes onto a single IPI per target.
    FlushTlbMulti(Arc<[FlushScope]>),
    /// A clock tick (used by the deferred shootdown strategy).
    Timer,
}

/// One inter-processor interrupt, possibly carrying an acknowledgement
/// latch the sender is waiting on.
#[derive(Debug, Clone)]
pub struct Ipi {
    /// The request.
    pub kind: IpiKind,
    /// Acknowledgement latch, decremented by the target after handling.
    pub ack: Option<Arc<AckLatch>>,
}

/// A per-target acknowledgement latch: the sender waits until every
/// target CPU has acknowledged, and can see *which* ones still owe an
/// acknowledgement (so it can flush a target that went quiescent before
/// answering). Acknowledging twice is harmless.
#[derive(Debug)]
pub struct AckLatch {
    /// Bit `i` set: CPU `i` still owes an acknowledgement.
    owing: Mutex<u64>,
    cv: Condvar,
}

impl AckLatch {
    /// A latch expecting one acknowledgement from each CPU in `targets`.
    ///
    /// # Panics
    ///
    /// Panics if a target id is 64 or more.
    pub fn new(targets: &[usize]) -> Arc<AckLatch> {
        let owing = targets.iter().fold(0u64, |m, &t| {
            assert!(t < 64, "ack latch tracks at most 64 CPUs");
            m | 1 << t
        });
        Arc::new(AckLatch {
            owing: Mutex::new(owing),
            cv: Condvar::new(),
        })
    }

    /// Record `cpu`'s acknowledgement.
    pub fn ack(&self, cpu: usize) {
        let mut g = self.owing.lock();
        *g &= !(1u64 << cpu);
        if *g == 0 {
            self.cv.notify_all();
        }
    }

    /// Wait until all acknowledgements arrive or `timeout` elapses.
    /// Returns `true` if fully acknowledged.
    pub fn wait(&self, timeout: Duration) -> bool {
        let mut g = self.owing.lock();
        let deadline = std::time::Instant::now() + timeout;
        while *g != 0 {
            if self.cv.wait_until(&mut g, deadline).timed_out() {
                return *g == 0;
            }
        }
        true
    }

    /// Bitmask of the CPUs that still owe an acknowledgement.
    pub fn owing(&self) -> u64 {
        *self.owing.lock()
    }
}

/// The interrupt fabric connecting the CPUs.
#[derive(Debug)]
pub struct InterruptBus {
    queues: Vec<Mutex<VecDeque<Ipi>>>,
    /// `pending[i]` mirrors `!queues[i].is_empty()`, so a poll can test
    /// for interrupts without taking the queue's lock.
    pending: Vec<AtomicBool>,
}

impl InterruptBus {
    /// A bus for `n_cpus` processors.
    pub fn new(n_cpus: usize) -> InterruptBus {
        InterruptBus {
            queues: (0..n_cpus).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: (0..n_cpus).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Number of CPUs on the bus.
    pub fn n_cpus(&self) -> usize {
        self.queues.len()
    }

    /// Post an IPI to `cpu`.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn send(&self, cpu: usize, ipi: Ipi) {
        let mut q = self.queues[cpu].lock();
        q.push_back(ipi);
        // Set under the queue lock, as `drain` clears it, so the flag
        // matches the queue whenever the lock is free. Release pairs with
        // the Acquire in `has_pending`.
        self.pending[cpu].store(true, Ordering::Release);
    }

    /// Post an IPI to every CPU except `sender`.
    pub fn broadcast_except(&self, sender: usize, ipi: &Ipi) {
        for cpu in (0..self.n_cpus()).filter(|&cpu| cpu != sender) {
            self.send(cpu, ipi.clone());
        }
    }

    /// Take all pending IPIs for `cpu` (the target's poll).
    pub fn drain(&self, cpu: usize) -> Vec<Ipi> {
        let mut q = self.queues[cpu].lock();
        self.pending[cpu].store(false, Ordering::Release);
        q.drain(..).collect()
    }

    /// True if `cpu` has pending interrupts (cheap check before drain):
    /// one atomic load, no lock. A send racing this check is seen at the
    /// next poll.
    pub fn has_pending(&self, cpu: usize) -> bool {
        self.pending[cpu].load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_drain() {
        let bus = InterruptBus::new(2);
        bus.send(
            1,
            Ipi {
                kind: IpiKind::Timer,
                ack: None,
            },
        );
        assert!(!bus.has_pending(0));
        assert!(bus.has_pending(1));
        let got = bus.drain(1);
        assert_eq!(got.len(), 1);
        assert!(matches!(got[0].kind, IpiKind::Timer));
        assert!(!bus.has_pending(1));
    }

    #[test]
    fn broadcast_skips_sender() {
        let bus = InterruptBus::new(3);
        let ipi = Ipi {
            kind: IpiKind::FlushTlb(FlushScope::All),
            ack: None,
        };
        bus.broadcast_except(1, &ipi);
        assert!(bus.has_pending(0));
        assert!(!bus.has_pending(1));
        assert!(bus.has_pending(2));
    }

    #[test]
    fn ack_latch_tracks_each_target() {
        let latch = AckLatch::new(&[1, 3]);
        assert!(!latch.wait(Duration::from_millis(1)));
        latch.ack(3);
        assert_eq!(latch.owing(), 0b10);
        // A repeated acknowledgement from the same CPU counts once.
        latch.ack(3);
        assert_eq!(latch.owing(), 0b10);
        latch.ack(1);
        assert!(latch.wait(Duration::from_millis(1)));
        assert_eq!(latch.owing(), 0);
    }

    #[test]
    fn ack_latch_cross_thread() {
        let latch = AckLatch::new(&[1]);
        let l2 = latch.clone();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            l2.ack(1);
        });
        assert!(latch.wait(Duration::from_secs(5)));
        t.join().unwrap();
    }

    #[test]
    fn empty_latch_is_immediately_done() {
        let latch = AckLatch::new(&[]);
        assert!(latch.wait(Duration::from_millis(0)));
    }
}

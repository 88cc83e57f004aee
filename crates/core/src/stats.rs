//! `vm_statistics` (Table 2-1) and internal event counters.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::page::PageCounts;

/// Internal atomic counters; snapshot with [`VmStatsAtomic::snapshot`].
#[derive(Debug, Default)]
pub struct VmStatsAtomic {
    /// Page faults handled.
    pub faults: AtomicU64,
    /// Faults resolved by zero-filling a fresh page.
    pub zero_fill: AtomicU64,
    /// Faults that pushed a copy-on-write page.
    pub cow_faults: AtomicU64,
    /// Faults that found the page resident in an object's map.
    pub resident_hits: AtomicU64,
    /// Faults that called a pager for data.
    pub pageins: AtomicU64,
    /// Pages written to a pager by the paging daemon.
    pub pageouts: AtomicU64,
    /// Pages reclaimed from the inactive queue without I/O.
    pub reclaims: AtomicU64,
    /// Inactive pages saved by a reference bit (reactivated).
    pub reactivations: AtomicU64,
    /// Shadow-chain full collapses.
    pub collapses: AtomicU64,
    /// Shadow-chain bypasses.
    pub bypasses: AtomicU64,
    /// Object-cache hits (cheap reuse of a cached object).
    pub object_cache_hits: AtomicU64,
    /// Object-cache misses.
    pub object_cache_misses: AtomicU64,
    /// Map-entry lookups that were satisfied by the hint.
    pub hint_hits: AtomicU64,
    /// Map-entry lookups that walked the list.
    pub hint_misses: AtomicU64,
    /// External pagers declared dead (port died or injected death); each
    /// one quarantines its memory object.
    pub pager_deaths: AtomicU64,
    /// Transient backing-store errors that were retried (fault pageins and
    /// daemon pageouts both count here).
    pub io_retries: AtomicU64,
    /// Pageout writes abandoned after retries; the page stayed dirty and
    /// resident for a later daemon pass.
    pub failed_pageouts: AtomicU64,
    /// Kernel-side throttles: a pager-fleet request found the service's
    /// bounded port queue full and had to wait (backpressure).
    pub pager_throttles: AtomicU64,
    /// Fleet failovers: an orphaned object was re-bound from a dead pager
    /// service to a live one.
    pub pager_rebinds: AtomicU64,
}

/// A point-in-time copy of the statistics, in the spirit of the paper's
/// `vm_statistics(target_task, vm_stats)` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// The machine-independent page size in bytes.
    pub pagesize: u64,
    /// Pages on the free queue.
    pub free_count: u64,
    /// Pages on the active queue.
    pub active_count: u64,
    /// Pages on the inactive queue.
    pub inactive_count: u64,
    /// Wired pages.
    pub wire_count: u64,
    /// Page faults handled.
    pub faults: u64,
    /// Zero-fill faults.
    pub zero_fill_count: u64,
    /// Copy-on-write faults.
    pub cow_faults: u64,
    /// Faults satisfied by a resident page.
    pub resident_hits: u64,
    /// Pager data requests.
    pub pageins: u64,
    /// Pages written out.
    pub pageouts: u64,
    /// Pages reclaimed clean.
    pub reclaims: u64,
    /// Pages reactivated by the daemon.
    pub reactivations: u64,
    /// Shadow collapses performed.
    pub collapses: u64,
    /// Shadow bypasses performed.
    pub bypasses: u64,
    /// Object-cache hits.
    pub object_cache_hits: u64,
    /// Object-cache misses.
    pub object_cache_misses: u64,
    /// Map lookups satisfied by the hint.
    pub hint_hits: u64,
    /// Map lookups that had to walk.
    pub hint_misses: u64,
    /// External pagers declared dead.
    pub pager_deaths: u64,
    /// Transient backing-store errors retried.
    pub io_retries: u64,
    /// Pageout writes abandoned after retries.
    pub failed_pageouts: u64,
    /// Pager-fleet requests throttled on a full service queue.
    pub pager_throttles: u64,
    /// Objects re-bound to a surviving pager-fleet service.
    pub pager_rebinds: u64,
}

impl VmStats {
    /// The event counters accumulated since `baseline` was snapshot —
    /// what a benchmark reports so warm-up/boot activity stays unpaid.
    ///
    /// Event counters subtract (saturating, so a mismatched baseline
    /// cannot wrap); `pagesize` and the queue lengths are *state*, not
    /// events, and pass through from `self`.
    pub fn delta(&self, baseline: &VmStats) -> VmStats {
        VmStats {
            pagesize: self.pagesize,
            free_count: self.free_count,
            active_count: self.active_count,
            inactive_count: self.inactive_count,
            wire_count: self.wire_count,
            faults: self.faults.saturating_sub(baseline.faults),
            zero_fill_count: self
                .zero_fill_count
                .saturating_sub(baseline.zero_fill_count),
            cow_faults: self.cow_faults.saturating_sub(baseline.cow_faults),
            resident_hits: self.resident_hits.saturating_sub(baseline.resident_hits),
            pageins: self.pageins.saturating_sub(baseline.pageins),
            pageouts: self.pageouts.saturating_sub(baseline.pageouts),
            reclaims: self.reclaims.saturating_sub(baseline.reclaims),
            reactivations: self.reactivations.saturating_sub(baseline.reactivations),
            collapses: self.collapses.saturating_sub(baseline.collapses),
            bypasses: self.bypasses.saturating_sub(baseline.bypasses),
            object_cache_hits: self
                .object_cache_hits
                .saturating_sub(baseline.object_cache_hits),
            object_cache_misses: self
                .object_cache_misses
                .saturating_sub(baseline.object_cache_misses),
            hint_hits: self.hint_hits.saturating_sub(baseline.hint_hits),
            hint_misses: self.hint_misses.saturating_sub(baseline.hint_misses),
            pager_deaths: self.pager_deaths.saturating_sub(baseline.pager_deaths),
            io_retries: self.io_retries.saturating_sub(baseline.io_retries),
            failed_pageouts: self
                .failed_pageouts
                .saturating_sub(baseline.failed_pageouts),
            pager_throttles: self
                .pager_throttles
                .saturating_sub(baseline.pager_throttles),
            pager_rebinds: self.pager_rebinds.saturating_sub(baseline.pager_rebinds),
        }
    }
}

impl VmStatsAtomic {
    /// Snapshot every counter. The caller supplies the current resident
    /// queue counts (from [`crate::page::ResidentTable::counts`]) so a
    /// snapshot is always complete — free/active/inactive/wired are queue
    /// state, not event counters, and used to be silently left at 0 here.
    pub fn snapshot(&self, pagesize: u64, queues: PageCounts) -> VmStats {
        VmStats {
            pagesize,
            free_count: queues.free,
            active_count: queues.active,
            inactive_count: queues.inactive,
            wire_count: queues.wired,
            faults: self.faults.load(Ordering::Relaxed),
            zero_fill_count: self.zero_fill.load(Ordering::Relaxed),
            cow_faults: self.cow_faults.load(Ordering::Relaxed),
            resident_hits: self.resident_hits.load(Ordering::Relaxed),
            pageins: self.pageins.load(Ordering::Relaxed),
            pageouts: self.pageouts.load(Ordering::Relaxed),
            reclaims: self.reclaims.load(Ordering::Relaxed),
            reactivations: self.reactivations.load(Ordering::Relaxed),
            collapses: self.collapses.load(Ordering::Relaxed),
            bypasses: self.bypasses.load(Ordering::Relaxed),
            object_cache_hits: self.object_cache_hits.load(Ordering::Relaxed),
            object_cache_misses: self.object_cache_misses.load(Ordering::Relaxed),
            hint_hits: self.hint_hits.load(Ordering::Relaxed),
            hint_misses: self.hint_misses.load(Ordering::Relaxed),
            pager_deaths: self.pager_deaths.load(Ordering::Relaxed),
            io_retries: self.io_retries.load(Ordering::Relaxed),
            failed_pageouts: self.failed_pageouts.load(Ordering::Relaxed),
            pager_throttles: self.pager_throttles.load(Ordering::Relaxed),
            pager_rebinds: self.pager_rebinds.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reads_counters_and_queue_counts() {
        let a = VmStatsAtomic::default();
        a.faults.fetch_add(3, Ordering::Relaxed);
        a.cow_faults.fetch_add(1, Ordering::Relaxed);
        a.failed_pageouts.fetch_add(2, Ordering::Relaxed);
        let queues = PageCounts {
            free: 10,
            active: 4,
            inactive: 2,
            wired: 1,
        };
        let s = a.snapshot(8192, queues);
        assert_eq!(s.pagesize, 8192);
        assert_eq!(s.faults, 3);
        assert_eq!(s.cow_faults, 1);
        assert_eq!(s.pageouts, 0);
        assert_eq!(s.failed_pageouts, 2);
        assert_eq!(s.pager_deaths, 0);
        assert_eq!(s.free_count, 10);
        assert_eq!(s.active_count, 4);
        assert_eq!(s.inactive_count, 2);
        assert_eq!(s.wire_count, 1);
    }

    #[test]
    fn delta_subtracts_events_and_keeps_state() {
        let a = VmStatsAtomic::default();
        a.faults.fetch_add(5, Ordering::Relaxed);
        a.zero_fill.fetch_add(2, Ordering::Relaxed);
        let q0 = PageCounts {
            free: 100,
            active: 0,
            inactive: 0,
            wired: 0,
        };
        let baseline = a.snapshot(4096, q0);
        a.faults.fetch_add(7, Ordering::Relaxed);
        a.cow_faults.fetch_add(3, Ordering::Relaxed);
        let q1 = PageCounts {
            free: 90,
            active: 8,
            inactive: 2,
            wired: 0,
        };
        let now = a.snapshot(4096, q1);
        let d = now.delta(&baseline);
        // Events: only what happened after the baseline.
        assert_eq!(d.faults, 7);
        assert_eq!(d.cow_faults, 3);
        assert_eq!(d.zero_fill_count, 0);
        // State: the current values, not a difference.
        assert_eq!(d.pagesize, 4096);
        assert_eq!(d.free_count, 90);
        assert_eq!(d.active_count, 8);
        assert_eq!(d.inactive_count, 2);
        // A stale baseline saturates instead of wrapping.
        let wrapped = baseline.delta(&now);
        assert_eq!(wrapped.faults, 0);
    }
}

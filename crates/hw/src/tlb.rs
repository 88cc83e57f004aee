//! A per-CPU software-simulated translation lookaside buffer.
//!
//! The defining property for the paper's multiprocessor discussion (§5.2)
//! is what this TLB does **not** have: any way for one CPU to flush another
//! CPU's entries. Consistency is software's problem, solved by the
//! machine-dependent layer's shootdown strategies.
//!
//! Entries are tagged with a *space* identifier whose meaning is
//! per-architecture (SUN 3 context number, ROMP segment id, or 0 for
//! untagged TLBs that flush on every address-space switch).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::addr::{Access, HwProt, Pfn};

/// One TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Architecture-defined address-space tag.
    pub space: u32,
    /// Virtual page number (in hardware pages).
    pub vpn: u64,
    /// Physical frame.
    pub pfn: Pfn,
    /// Hardware permissions.
    pub prot: HwProt,
    /// True once a write has been performed through this entry (the modify
    /// bit is already set in the in-memory table).
    pub dirty: bool,
}

/// What to remove from a TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushScope {
    /// Everything.
    All,
    /// Every entry of one address space.
    Space(u32),
    /// One page of one address space.
    Page {
        /// Address-space tag.
        space: u32,
        /// Virtual page number.
        vpn: u64,
    },
}

/// Result of a TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbLookup {
    /// No matching entry.
    Miss,
    /// Matching entry permits the access; translation proceeds.
    Hit {
        /// The translated frame.
        pfn: Pfn,
        /// True if this is the first write through the entry, so the walker
        /// must be re-run to set the modify bit in the in-memory table.
        needs_dirty_walk: bool,
    },
    /// Matching entry forbids the access (protection fault, no walk).
    Denied,
}

/// Running statistics, readable at any time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries removed by flush operations.
    pub flushed: u64,
}

/// A fully-associative, FIFO-replacement TLB.
///
/// A free slot is filled lowest-index first; once every slot is live, the
/// victim pointer evicts round-robin. A `(space, vpn)` index and a
/// free-slot bitmap make lookup, insert and page flush O(1).
///
/// # Examples
///
/// ```
/// use mach_hw::tlb::{Tlb, TlbLookup};
/// use mach_hw::addr::{Access, HwProt, Pfn};
/// let mut tlb = Tlb::new(64);
/// assert_eq!(tlb.lookup(0, 5, Access::Read), TlbLookup::Miss);
/// tlb.insert(0, 5, Pfn(9), HwProt::READ, false);
/// assert!(matches!(tlb.lookup(0, 5, Access::Read), TlbLookup::Hit { .. }));
/// ```
#[derive(Debug)]
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    /// Slot of every live entry, by `(space, vpn)`.
    index: HashMap<(u32, u64), usize, BuildHasherDefault<KeyHasher>>,
    /// Bit `i % 64` of word `i / 64` set: slot `i` is free.
    free: Vec<u64>,
    next_victim: usize,
    stats: TlbStats,
}

impl Tlb {
    /// A TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Tlb {
        assert!(capacity > 0, "a TLB needs at least one entry");
        let mut tlb = Tlb {
            entries: vec![None; capacity],
            index: HashMap::with_capacity_and_hasher(capacity, Default::default()),
            free: vec![0; capacity.div_ceil(64)],
            next_victim: 0,
            stats: TlbStats::default(),
        };
        (0..capacity).for_each(|slot| tlb.set_free(slot, true));
        tlb
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Statistics so far.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    fn set_free(&mut self, slot: usize, free: bool) {
        let bit = 1u64 << (slot % 64);
        if free {
            self.free[slot / 64] |= bit;
        } else {
            self.free[slot / 64] &= !bit;
        }
    }

    /// The lowest-numbered free slot.
    fn first_free(&self) -> Option<usize> {
        let (word, bits) = self.free.iter().enumerate().find(|(_, &b)| b != 0)?;
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Empty `slot`, returning whether it held an entry.
    fn clear_slot(&mut self, slot: usize) -> bool {
        let Some(e) = self.entries[slot].take() else {
            return false;
        };
        self.index.remove(&(e.space, e.vpn));
        self.set_free(slot, true);
        true
    }

    /// Look up `(space, vpn)` for `access`.
    pub fn lookup(&mut self, space: u32, vpn: u64, access: Access) -> TlbLookup {
        let Some(e) = self.index.get(&(space, vpn)).and_then(|&i| self.entries[i]) else {
            self.stats.misses += 1;
            return TlbLookup::Miss;
        };
        // A protection miss counts as a hit for stats: the hardware found
        // the entry.
        self.stats.hits += 1;
        if !e.prot.allows(access) {
            return TlbLookup::Denied;
        }
        TlbLookup::Hit {
            pfn: e.pfn,
            needs_dirty_walk: access.is_write() && !e.dirty,
        }
    }

    /// Insert (or replace) the entry for `(space, vpn)`.
    pub fn insert(&mut self, space: u32, vpn: u64, pfn: Pfn, prot: HwProt, dirty: bool) {
        let new = TlbEntry {
            space,
            vpn,
            pfn,
            prot,
            dirty,
        };
        // Replace an existing mapping of the same page if present;
        // otherwise take a free slot, else FIFO-evict.
        let slot = match self.index.get(&(space, vpn)) {
            Some(&slot) => slot,
            None => {
                let slot = self.first_free().unwrap_or_else(|| {
                    let v = self.next_victim;
                    self.next_victim = (v + 1) % self.entries.len();
                    self.clear_slot(v);
                    v
                });
                self.set_free(slot, false);
                self.index.insert((space, vpn), slot);
                slot
            }
        };
        self.entries[slot] = Some(new);
    }

    /// Mark the entry for `(space, vpn)` dirty (after a dirty walk).
    pub fn set_dirty(&mut self, space: u32, vpn: u64) {
        if let Some(&slot) = self.index.get(&(space, vpn)) {
            if let Some(e) = &mut self.entries[slot] {
                e.dirty = true;
            }
        }
    }

    /// Remove entries matching `scope`, returning how many were removed.
    pub fn flush(&mut self, scope: FlushScope) -> usize {
        let n = match scope {
            FlushScope::Page { space, vpn } => self
                .index
                .get(&(space, vpn))
                .copied()
                .map_or(0, |slot| usize::from(self.clear_slot(slot))),
            FlushScope::Space(s) => (0..self.entries.len())
                .filter(|&slot| {
                    self.entries[slot].is_some_and(|e| e.space == s) && self.clear_slot(slot)
                })
                .count(),
            FlushScope::All => (0..self.entries.len())
                .filter(|&slot| self.clear_slot(slot))
                .count(),
        };
        self.stats.flushed += n as u64;
        n
    }

    /// Iterate over live entries (for tests and diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = &TlbEntry> {
        self.entries.iter().flatten()
    }
}

/// Hasher for the TLB's `(space, vpn)` keys: one multiply-rotate per
/// integer, as in rustc's `FxHasher`. Keys are simulated page numbers,
/// and a TLB holds at most its capacity of them, so a worst-case collision
/// chain costs no more than a scan of the slots.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl KeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::HwProt;

    fn rw() -> HwProt {
        HwProt::READ | HwProt::WRITE
    }

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert_eq!(t.lookup(1, 10, Access::Read), TlbLookup::Miss);
        t.insert(1, 10, Pfn(3), rw(), false);
        match t.lookup(1, 10, Access::Read) {
            TlbLookup::Hit {
                pfn,
                needs_dirty_walk,
            } => {
                assert_eq!(pfn, Pfn(3));
                assert!(!needs_dirty_walk);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(t.stats().hits, 1);
        assert_eq!(t.stats().misses, 1);
    }

    #[test]
    fn space_tags_disambiguate() {
        let mut t = Tlb::new(4);
        t.insert(1, 10, Pfn(3), rw(), false);
        t.insert(2, 10, Pfn(4), rw(), false);
        assert!(matches!(
            t.lookup(1, 10, Access::Read),
            TlbLookup::Hit { pfn: Pfn(3), .. }
        ));
        assert!(matches!(
            t.lookup(2, 10, Access::Read),
            TlbLookup::Hit { pfn: Pfn(4), .. }
        ));
    }

    #[test]
    fn first_write_needs_dirty_walk() {
        let mut t = Tlb::new(4);
        t.insert(0, 7, Pfn(1), rw(), false);
        assert!(matches!(
            t.lookup(0, 7, Access::Write),
            TlbLookup::Hit {
                needs_dirty_walk: true,
                ..
            }
        ));
        t.set_dirty(0, 7);
        assert!(matches!(
            t.lookup(0, 7, Access::Write),
            TlbLookup::Hit {
                needs_dirty_walk: false,
                ..
            }
        ));
    }

    #[test]
    fn read_only_entry_denies_write() {
        let mut t = Tlb::new(4);
        t.insert(0, 7, Pfn(1), HwProt::READ, false);
        assert_eq!(t.lookup(0, 7, Access::Write), TlbLookup::Denied);
        assert!(matches!(
            t.lookup(0, 7, Access::Read),
            TlbLookup::Hit { .. }
        ));
    }

    #[test]
    fn insert_replaces_same_page() {
        let mut t = Tlb::new(2);
        t.insert(0, 7, Pfn(1), HwProt::READ, false);
        t.insert(0, 7, Pfn(2), rw(), true);
        assert_eq!(t.iter().count(), 1);
        assert!(matches!(
            t.lookup(0, 7, Access::Write),
            TlbLookup::Hit {
                pfn: Pfn(2),
                needs_dirty_walk: false
            }
        ));
    }

    #[test]
    fn fifo_eviction() {
        let mut t = Tlb::new(2);
        t.insert(0, 1, Pfn(1), rw(), false);
        t.insert(0, 2, Pfn(2), rw(), false);
        t.insert(0, 3, Pfn(3), rw(), false); // evicts slot 0 (vpn 1)
        assert_eq!(t.lookup(0, 1, Access::Read), TlbLookup::Miss);
        assert!(matches!(
            t.lookup(0, 2, Access::Read),
            TlbLookup::Hit { .. }
        ));
        assert!(matches!(
            t.lookup(0, 3, Access::Read),
            TlbLookup::Hit { .. }
        ));
    }

    #[test]
    fn flush_scopes() {
        let mut t = Tlb::new(8);
        t.insert(1, 1, Pfn(1), rw(), false);
        t.insert(1, 2, Pfn(2), rw(), false);
        t.insert(2, 1, Pfn(3), rw(), false);
        assert_eq!(t.flush(FlushScope::Page { space: 1, vpn: 2 }), 1);
        assert_eq!(t.flush(FlushScope::Space(1)), 1);
        assert!(matches!(
            t.lookup(2, 1, Access::Read),
            TlbLookup::Hit { .. }
        ));
        assert_eq!(t.flush(FlushScope::All), 1);
        assert_eq!(t.iter().count(), 0);
        assert_eq!(t.stats().flushed, 3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_panics() {
        let _ = Tlb::new(0);
    }

    /// A TLB whose every operation scans the slots: the reference for
    /// [`indexed_tlb_matches_linear_scan`].
    struct LinearTlb {
        entries: Vec<Option<TlbEntry>>,
        next_victim: usize,
        stats: TlbStats,
    }

    impl LinearTlb {
        fn new(capacity: usize) -> LinearTlb {
            LinearTlb {
                entries: vec![None; capacity],
                next_victim: 0,
                stats: TlbStats::default(),
            }
        }

        fn lookup(&mut self, space: u32, vpn: u64, access: Access) -> TlbLookup {
            for e in self.entries.iter().flatten() {
                if e.space == space && e.vpn == vpn {
                    self.stats.hits += 1;
                    if !e.prot.allows(access) {
                        return TlbLookup::Denied;
                    }
                    return TlbLookup::Hit {
                        pfn: e.pfn,
                        needs_dirty_walk: access.is_write() && !e.dirty,
                    };
                }
            }
            self.stats.misses += 1;
            TlbLookup::Miss
        }

        fn insert(&mut self, new: TlbEntry) {
            for slot in self.entries.iter_mut() {
                if slot.is_some_and(|e| e.space == new.space && e.vpn == new.vpn) {
                    *slot = Some(new);
                    return;
                }
            }
            if let Some(slot) = self.entries.iter_mut().find(|s| s.is_none()) {
                *slot = Some(new);
                return;
            }
            let v = self.next_victim;
            self.entries[v] = Some(new);
            self.next_victim = (v + 1) % self.entries.len();
        }

        fn set_dirty(&mut self, space: u32, vpn: u64) {
            for e in self.entries.iter_mut().flatten() {
                if e.space == space && e.vpn == vpn {
                    e.dirty = true;
                }
            }
        }

        fn flush(&mut self, scope: FlushScope) -> usize {
            let mut n = 0;
            for slot in self.entries.iter_mut() {
                let matches = match (*slot, scope) {
                    (None, _) => false,
                    (Some(_), FlushScope::All) => true,
                    (Some(e), FlushScope::Space(s)) => e.space == s,
                    (Some(e), FlushScope::Page { space, vpn }) => e.space == space && e.vpn == vpn,
                };
                if matches {
                    *slot = None;
                    n += 1;
                }
            }
            self.stats.flushed += n as u64;
            n
        }
    }

    /// A seeded stream of inserts, lookups, dirty marks and flushes of
    /// every scope drives the indexed TLB and the linear-scan reference
    /// side by side: after every operation both must agree on the result,
    /// the live entries in slot order and the statistics.
    #[test]
    fn indexed_tlb_matches_linear_scan() {
        let accesses = [Access::Read, Access::Write, Access::Execute];
        for capacity in [1, 64, 128] {
            let mut rng = capacity as u64;
            let mut next = |n: u64| crate::splitmix64(&mut rng) % n;
            let mut tlb = Tlb::new(capacity);
            let mut reference = LinearTlb::new(capacity);
            // Twice the capacity in pages over three spaces, so the TLB
            // fills, evicts and refills.
            let pages = 2 * capacity as u64 + 3;
            for step in 0..20_000 {
                let (space, vpn) = (next(3) as u32, next(pages));
                match next(100) {
                    0..=39 => {
                        let access = accesses[next(3) as usize];
                        assert_eq!(
                            tlb.lookup(space, vpn, access),
                            reference.lookup(space, vpn, access),
                            "lookup, step {step}"
                        );
                    }
                    40..=79 => {
                        let e = TlbEntry {
                            space,
                            vpn,
                            pfn: Pfn(next(1 << 20)),
                            prot: HwProt::from_bits(next(8) as u8),
                            dirty: next(2) == 0,
                        };
                        tlb.insert(e.space, e.vpn, e.pfn, e.prot, e.dirty);
                        reference.insert(e);
                    }
                    80..=89 => {
                        tlb.set_dirty(space, vpn);
                        reference.set_dirty(space, vpn);
                    }
                    r => {
                        let scope = match r {
                            90..=96 => FlushScope::Page { space, vpn },
                            97 | 98 => FlushScope::Space(space),
                            _ => FlushScope::All,
                        };
                        assert_eq!(
                            tlb.flush(scope),
                            reference.flush(scope),
                            "flush, step {step}"
                        );
                    }
                }
                assert!(
                    tlb.iter().eq(reference.entries.iter().flatten()),
                    "entries, step {step}"
                );
                assert_eq!(tlb.stats(), reference.stats, "stats, step {step}");
            }
        }
    }
}

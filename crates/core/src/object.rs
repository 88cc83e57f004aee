//! Memory objects, shadow objects and the object cache (paper §3.3–§3.5).
//!
//! A memory object is "a repository for data, indexed by byte, upon which
//! various operations can be performed"; physical memory is just a cache
//! of its contents. Copy-on-write is implemented with **shadow objects**:
//! an initially-empty internal object that "collects and remembers
//! modified pages", relying on the object it shadows for everything
//! unmodified. Repeated copying builds shadow *chains*, and most of the
//! complexity of Mach memory management — reproduced faithfully here — is
//! the garbage collection that keeps those chains short
//! ([`collapse`]).
//!
//! Frequently-used objects (program text, mapped files) can outlive their
//! last mapping in the **object cache** so that reuse costs nothing
//! (`pager_cache`, paper §3.3) — this is what makes the second 2.5 MB file
//! read of Table 7-1 fast under Mach.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mach_hw::lock::{KernelGuard, KernelMutex, LockSite};
use parking_lot::Condvar;

use crate::ctx::CoreRefs;
use crate::page::PageId;
use crate::pager::{Pager, PagerIdent};

static NEXT_OBJECT_ID: AtomicU64 = AtomicU64::new(1);

/// Mutable state of a memory object.
#[derive(Debug)]
pub struct ObjState {
    /// Size in bytes (page aligned).
    pub size: u64,
    /// Mapping references (map entries, kernel users). The object cache
    /// holds objects whose count reached zero.
    pub ref_count: usize,
    /// The object's resident pages: offset → page (the paper's
    /// per-object page list).
    pub resident: BTreeMap<u64, PageId>,
    /// The object this one shadows, if any.
    pub shadow: Option<Arc<VmObject>>,
    /// Offset into the shadow at which this object's offset 0 falls.
    pub shadow_offset: u64,
    /// How many objects currently shadow this one.
    pub shadow_count: usize,
    /// Backing-store manager; `None` means transient zero-fill until the
    /// default pager adopts the pages at pageout time.
    pub pager: Option<Arc<dyn Pager>>,
    /// `true` for kernel-created (zero-fill / shadow) objects.
    pub internal: bool,
    /// Keep in the object cache after the last reference dies
    /// (`pager_cache`).
    pub can_persist: bool,
    /// Terminated objects are dead husks awaiting `Drop`.
    pub terminated: bool,
    /// True while a pageout is writing some page of this object.
    pub paging_in_progress: u32,
    /// Set by `pager_readonly` (Table 3-2): a write attempt must allocate
    /// a new (shadow) object rather than dirty this one.
    pub pager_readonly: bool,
    /// Per-page access locks set by `pager_data_lock` (Table 3-2):
    /// offset → protection bits the pager has *revoked*. Faults needing a
    /// revoked access send `pager_data_unlock` and wait.
    pub locks: HashMap<u64, u8>,
    /// The object's pager died (its port vanished, or the chaos layer
    /// killed it). In-flight and future faults fail fast with
    /// [`crate::types::VmError::PagerDied`] instead of waiting out
    /// `pager_timeout` — see [`quarantine`].
    pub pager_dead: bool,
}

/// A Mach memory object.
#[derive(Debug)]
pub struct VmObject {
    id: u64,
    state: KernelMutex<ObjState>,
    /// Wakes waiters for busy pages of this object.
    pub(crate) busy_wakeup: Condvar,
}

impl VmObject {
    /// A new internal (zero-fill) object of `size` bytes.
    pub fn new_internal(size: u64) -> Arc<VmObject> {
        Arc::new(VmObject {
            id: NEXT_OBJECT_ID.fetch_add(1, Ordering::Relaxed),
            state: KernelMutex::new(
                LockSite::VmObject,
                ObjState {
                    size,
                    ref_count: 1,
                    resident: BTreeMap::new(),
                    shadow: None,
                    shadow_offset: 0,
                    shadow_count: 0,
                    pager: None,
                    internal: true,
                    can_persist: false,
                    terminated: false,
                    paging_in_progress: 0,
                    pager_readonly: false,
                    locks: HashMap::new(),
                    pager_dead: false,
                },
            ),
            busy_wakeup: Condvar::new(),
        })
    }

    /// A new object managed by `pager`.
    pub fn new_with_pager(size: u64, pager: Arc<dyn Pager>, can_persist: bool) -> Arc<VmObject> {
        let o = VmObject::new_internal(size);
        {
            let mut s = o.lock();
            s.pager = Some(pager);
            s.internal = false;
            s.can_persist = can_persist;
        }
        o
    }

    /// A shadow of `backing`: empty, internal, deferring to `backing` for
    /// all unmodified data (paper §3.4). Takes a new reference to
    /// `backing`.
    pub fn new_shadow(size: u64, backing: &Arc<VmObject>, shadow_offset: u64) -> Arc<VmObject> {
        {
            let mut b = backing.lock();
            b.ref_count += 1;
            b.shadow_count += 1;
        }
        let o = VmObject::new_internal(size);
        {
            let mut s = o.lock();
            s.shadow = Some(Arc::clone(backing));
            s.shadow_offset = shadow_offset;
        }
        o
    }

    /// The object's unique id (its `paging_name` in paper terms).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Lock the object state.
    pub fn lock(&self) -> KernelGuard<'_, ObjState> {
        self.state.lock()
    }

    /// Try to lock the object state without blocking (the paging daemon
    /// skips contended objects rather than deadlocking — the "complex
    /// object locking rules" of paper §3.5).
    pub fn try_lock_state(&self) -> Option<KernelGuard<'_, ObjState>> {
        self.state.try_lock()
    }

    /// Wake every fault asleep on this object. A fault checks what it
    /// waits for (a busy page's `wanted`, `pager_dead`, a data lock) and
    /// goes to sleep without letting go of the object lock, so taking the
    /// lock first orders the wakeup after its check.
    pub(crate) fn wake_waiters(&self) {
        let _s = self.lock();
        self.busy_wakeup.notify_all();
    }

    /// Take an additional mapping reference.
    pub fn reference(&self) {
        self.lock().ref_count += 1;
    }

    /// Length of the shadow chain hanging off this object (diagnostic;
    /// the quantity the collapse code exists to bound).
    pub fn chain_length(self: &Arc<VmObject>) -> usize {
        let mut n = 0;
        let mut cur = Arc::clone(self);
        loop {
            let next = cur.lock().shadow.clone();
            match next {
                Some(s) => {
                    n += 1;
                    cur = s;
                }
                None => return n,
            }
        }
    }
}

/// Claim every resident page of `obj` (wired ones only when
/// `allow_wired`), take it out of the object and free it, then wake every
/// fault asleep on the object.
///
/// Pages an in-flight fill or pageout has claimed busy are skipped: their
/// owner frees or releases them itself (a reclaimer frees its page when
/// the write completes, or, if the write fails, a later daemon pass frees
/// it once the object's `Weak` is dead). Claiming under the shard lock is
/// what makes this safe against a concurrent `claim_evict`: exactly one
/// side wins the frame.
fn release_pages(obj: &VmObject, ctx: &CoreRefs, allow_wired: bool) {
    let mut victims = Vec::new();
    obj.lock().resident.retain(|_, &mut page| {
        let claimed = ctx.resident.claim_teardown(page, allow_wired);
        if claimed {
            victims.push(page);
        }
        !claimed
    });
    for page in victims {
        // No mapping (and no stale modify/reference attribute) may
        // survive the page's death.
        ctx.machdep
            .page_free(page.base(ctx.page_size), ctx.page_size);
        ctx.resident.with_page(page, |p| p.wire_count = 0);
        ctx.resident.free_page(page);
    }
    obj.busy_wakeup.notify_all();
}

/// Quarantine `obj` after its pager died — for real (its port vanished)
/// or by injection ([`crate::inject::InjectKind::PagerDeath`]).
///
/// Marks the object dead so every fault blocked on it wakes *now* and
/// fails with [`crate::types::VmError::PagerDied`] (instead of burning the
/// full `pager_timeout`), and future faults fail fast without ever
/// messaging the corpse. Resident pages are torn down — the cache has
/// lost its backing store — except busy or wired ones, whose owners
/// (an in-flight fill or pageout) will release them against the dead
/// flag. Idempotent; the caller must hold no object locks.
pub fn quarantine(obj: &Arc<VmObject>, ctx: &CoreRefs) {
    {
        let mut s = obj.lock();
        if s.pager_dead {
            return;
        }
        s.pager_dead = true;
    }
    ctx.stats.pager_deaths.fetch_add(1, Ordering::Relaxed);
    release_pages(obj, ctx, false);
}

/// Terminate `obj`: free pages, notify the pager, release the shadow
/// reference. The caller must hold **no** object locks.
pub fn terminate(obj: &Arc<VmObject>, ctx: &CoreRefs) {
    let (pager, shadow) = {
        let mut s = obj.lock();
        if s.terminated {
            return;
        }
        s.terminated = true;
        (s.pager.take(), s.shadow.take())
    };
    finish_terminate(obj, ctx, pager, shadow);
}

/// The tail of termination, after the `terminated` flag has been claimed
/// (and `pager`/`shadow` taken) under the object lock — split out so the
/// cache reaper can claim its victim under the cache shard lock (which
/// excludes concurrent revival through the live index) and still run the
/// teardown without any lock held.
fn finish_terminate(
    obj: &Arc<VmObject>,
    ctx: &CoreRefs,
    pager: Option<Arc<dyn Pager>>,
    shadow: Option<Arc<VmObject>>,
) {
    if let Some(ident) = pager.as_ref().and_then(|p| p.ident()) {
        ctx.cache.unregister_live(&ident, obj);
    }
    release_pages(obj, ctx, true);
    if let Some(p) = pager {
        // Trace first: `terminate` may tear down the pager-side binding
        // that `port_id` attributes the event to.
        ctx.trace_emit(
            0,
            obj.id(),
            0,
            crate::trace::TraceEvent::PagerRequest {
                msg: crate::trace::PagerMsg::Terminate,
                pager: p.port_id(obj.id()),
                causal: crate::trace::current_causal(),
            },
        );
        p.terminate(obj.id());
    }
    if let Some(sh) = shadow {
        {
            let mut b = sh.lock();
            b.shadow_count = b.shadow_count.saturating_sub(1);
        }
        deallocate(&sh, ctx);
        // Fork teardown just removed a shadower: the surviving chain
        // below the junction may now be collapsible (one branch of a
        // fork diamond died). `collapse` no-ops on terminated objects.
        collapse(&sh, ctx);
    }
}

/// Drop one reference; the last reference terminates the object or parks
/// it in the object cache (`pager_cache` semantics).
pub fn deallocate(obj: &Arc<VmObject>, ctx: &CoreRefs) {
    let cache_me = {
        let mut s = obj.lock();
        assert!(s.ref_count > 0, "over-deallocation of object {}", obj.id());
        s.ref_count -= 1;
        if s.ref_count > 0 {
            return;
        }
        s.can_persist && !s.terminated && s.pager.is_some()
    };
    if cache_me {
        {
            let _oc = ctx.prof_span(crate::profile::SpanKind::ObjectCache);
            ctx.cache.insert(obj, ctx);
        }
        if ctx.health.is_enabled() {
            ctx.health.cache_occupancy(ctx.cache.len() as u64);
        }
    } else {
        terminate(obj, ctx);
    }
}

/// Shadow-chain garbage collection (paper §3.5): "Mach automatically
/// garbage collects shadow objects when it recognizes that an intermediate
/// shadow is no longer needed."
///
/// Three transformations, applied until none fires:
///
/// - **collapse**: the backing object is internal and referenced only by
///   `obj`, so its pages are *moved* up (no copy) and the backing object
///   disappears from the chain;
/// - **bypass**: `obj` already has every page in its window resident, so
///   the backing object can be skipped entirely;
/// - **obscured splice**: every page the backing object actually holds
///   within `obj`'s window is shadowed by `obj`'s own copy, and no map
///   entry references the backing object directly — `obj` can then link
///   straight to the deeper shadow even though other chains keep the
///   backing object alive (the fork-diamond case bypass cannot touch).
///
/// # Invariants
///
/// Only **internal, pagerless, quiescent** backing objects are ever
/// restructured (`collapse_level`'s guard): a pager could supply pages we
/// cannot see, and an in-progress pageout pins the page list. Lock order
/// is front-then-backing (top-down, matching the fault path's shadow
/// descent), and page moves go through [`crate::page::ResidentTable`]
/// `rekey` so physical page identity stays consistent. Obscured-ness is
/// stable: a shadowed object with no direct map references can never
/// *gain* resident pages (nothing faults on it), so a splice decided
/// under both locks stays valid after they drop.
///
/// Beyond the historical trigger (a COW write that hit its backing
/// object), this runs proactively from fork teardown
/// (`finish_terminate`), the pageout sweep, and deep-chain faults, so
/// fleet workloads with thousands of forks keep bounded chain depth —
/// the `shadow_depth` health gauge is the acceptance check.
pub fn collapse(obj: &Arc<VmObject>, ctx: &CoreRefs) {
    if !ctx.collapse_enabled.load(Ordering::Relaxed) {
        return; // ablation: let chains grow
    }
    // Apply transformations at every level of the chain: an intermediate
    // shadow often becomes garbage only after the task holding it exits,
    // which a check at the top level alone would never notice.
    let mut cur = Arc::clone(obj);
    loop {
        collapse_level(&cur, ctx);
        let next = cur.lock().shadow.clone();
        match next {
            Some(n) => cur = n,
            None => return,
        }
    }
}

/// Apply collapse/bypass at `obj` ↔ `obj.shadow` until neither fires.
fn collapse_level(obj: &Arc<VmObject>, ctx: &CoreRefs) {
    loop {
        let backing = {
            let s = obj.lock();
            match &s.shadow {
                Some(b) => Arc::clone(b),
                None => return,
            }
        };
        // Lock order: front object, then backing (top-down).
        let mut s = obj.lock();
        // Re-check: the chain may have changed while unlocked.
        let unchanged = matches!(&s.shadow, Some(b) if Arc::ptr_eq(b, &backing));
        if !unchanged {
            drop(s);
            continue;
        }
        let mut b = backing.lock();
        if !b.internal || b.pager.is_some() || b.terminated || b.paging_in_progress > 0 {
            return;
        }
        if b.ref_count == 1 && b.shadow_count == 1 {
            // --- Full collapse: steal the backing object's pages. ---
            let delta = s.shadow_offset;
            let pages: Vec<(u64, PageId)> = std::mem::take(&mut b.resident).into_iter().collect();
            let mut orphans = Vec::new();
            for (boff, page) in pages {
                let in_window = boff >= delta && boff - delta < s.size;
                if in_window && !s.resident.contains_key(&(boff - delta)) {
                    let ooff = boff - delta;
                    ctx.resident
                        .rekey(page, obj.id(), ooff, Arc::downgrade(obj));
                    let prev = s.resident.insert(ooff, page);
                    assert!(prev.is_none(), "rekey target already occupied");
                } else {
                    orphans.push(page);
                }
            }
            // Splice the backing object out of the chain.
            s.shadow = b.shadow.take();
            s.shadow_offset = delta + b.shadow_offset;
            b.terminated = true;
            b.ref_count = 0;
            drop(b);
            drop(s);
            for page in orphans {
                let pa = page.base(ctx.page_size);
                ctx.machdep.page_free(pa, ctx.page_size);
                ctx.resident.free_page(page);
            }
            ctx.stats.collapses.fetch_add(1, Ordering::Relaxed);
            ctx.trace_emit(0, obj.id(), 0, crate::trace::TraceEvent::ShadowCollapse);
            continue;
        }
        // --- Bypass: obj obscures the whole window by itself. ---
        let page = ctx.page_size;
        let covered = (0..s.size / page).all(|i| s.resident.contains_key(&(i * page)));
        if covered {
            let next = b.shadow.clone();
            if let Some(n) = &next {
                // The front object takes over the reference the backing
                // object held on the deeper shadow.
                n.lock().ref_count += 1;
                n.lock().shadow_count += 1;
            }
            s.shadow = next;
            s.shadow_offset += b.shadow_offset;
            b.shadow_count = b.shadow_count.saturating_sub(1);
            drop(b);
            drop(s);
            deallocate(&backing, ctx);
            ctx.stats.bypasses.fetch_add(1, Ordering::Relaxed);
            ctx.trace_emit(0, obj.id(), 0, crate::trace::TraceEvent::ShadowBypass);
            continue;
        }
        // --- Obscured splice: every page the backing object holds in our
        // window is shadowed by our own copy, and no map entry references
        // the backing object directly (all its references come from
        // shadowing objects), so looking through it and skipping it are
        // indistinguishable from here. Other chains keep it alive; this
        // chain drops a level. Accounted as a bypass (same chain effect).
        let delta = s.shadow_offset;
        let obscured = b.ref_count == b.shadow_count
            && b.resident
                .range(delta..delta.saturating_add(s.size))
                .all(|(&boff, _)| s.resident.contains_key(&(boff - delta)));
        if obscured {
            let next = b.shadow.clone();
            if let Some(n) = &next {
                let mut ns = n.lock();
                ns.ref_count += 1;
                ns.shadow_count += 1;
            }
            s.shadow = next;
            s.shadow_offset += b.shadow_offset;
            b.shadow_count = b.shadow_count.saturating_sub(1);
            drop(b);
            drop(s);
            deallocate(&backing, ctx);
            ctx.stats.bypasses.fetch_add(1, Ordering::Relaxed);
            ctx.trace_emit(0, obj.id(), 0, crate::trace::TraceEvent::ShadowBypass);
            continue;
        }
        return;
    }
}

/// Object-cache shard count (power of two).
pub const CACHE_SHARDS: usize = 8;

/// The cache of recently-used unreferenced memory objects (paper §3.3).
///
/// Sharded by pager identity so concurrent `map_file`/`deallocate`
/// streams on different CPUs do not serialize on one lock; eviction order
/// stays **globally** LRU via a monotonic stamp per parked entry (the
/// reaper scans shard minima, one shard lock at a time). The parked count
/// is a relaxed atomic so [`ObjectCache::len`] — polled by the health
/// gauges — never touches a shard lock.
#[derive(Debug)]
pub struct ObjectCache {
    capacity: usize,
    shards: Vec<KernelMutex<CacheShard>>,
    stamp: AtomicU64,
    parked: AtomicU64,
}

#[derive(Debug, Default)]
struct CacheShard {
    /// Parked (unreferenced) objects: ident → (LRU stamp, object).
    map: HashMap<PagerIdent, (u64, Arc<VmObject>)>,
    /// Every *live* pager-backed object, so concurrent mappings of the
    /// same backing store share one object (one physical copy of the
    /// pages), exactly as Mach's port→object association did.
    live: HashMap<PagerIdent, std::sync::Weak<VmObject>>,
}

impl ObjectCache {
    /// A cache retaining up to `capacity` unreferenced objects.
    pub fn new(capacity: usize) -> ObjectCache {
        ObjectCache {
            capacity,
            shards: (0..CACHE_SHARDS)
                .map(|_| KernelMutex::new(LockSite::ObjectCacheShard, CacheShard::default()))
                .collect(),
            stamp: AtomicU64::new(1),
            parked: AtomicU64::new(0),
        }
    }

    fn shard(&self, ident: &PagerIdent) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        ident.hash(&mut h);
        (h.finish() as usize) & (self.shards.len() - 1)
    }

    /// Number of cached (parked) objects. Lock-free.
    pub fn len(&self) -> usize {
        self.parked.load(Ordering::Relaxed) as usize
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Park an unreferenced object. Evicts (terminates) the globally
    /// least-recently-parked object when full.
    ///
    /// Parking re-checks `ref_count == 0` under the shard *and* object
    /// locks: between the caller's deallocation and this call, a
    /// concurrent [`ObjectCache::lookup`] may have revived the object
    /// through the live index, and parking a referenced object would let
    /// the reaper terminate it out from under its mappings.
    pub fn insert(&self, obj: &Arc<VmObject>, ctx: &CoreRefs) {
        let ident = {
            let s = obj.lock();
            match s.pager.as_ref().and_then(|p| p.ident()) {
                Some(i) => i,
                None => {
                    drop(s);
                    terminate(obj, ctx);
                    return;
                }
            }
        };
        let stamp = self.stamp.fetch_add(1, Ordering::Relaxed);
        {
            let shard = self.shard(&ident);
            let mut g = self.shards[shard].lock();
            let s = obj.lock();
            if s.ref_count > 0 || s.terminated {
                return; // revived (or died) while we were parking it
            }
            drop(s);
            if g.map.insert(ident, (stamp, Arc::clone(obj))).is_none() {
                self.parked.fetch_add(1, Ordering::Relaxed);
            }
        }
        while self.parked.load(Ordering::Relaxed) as usize > self.capacity {
            if !self.reap_one(ctx) {
                break;
            }
        }
    }

    /// Revive the cached object for `ident`, if present (the cheap-reuse
    /// path: a cache hit costs a hash lookup, not a disk).
    pub fn take(&self, ident: &PagerIdent) -> Option<Arc<VmObject>> {
        let mut g = self.shards[self.shard(ident)].lock();
        let (_stamp, o) = g.map.remove(ident)?;
        self.parked.fetch_sub(1, Ordering::Relaxed);
        // Reference under the shard lock: every park/revive transition
        // serializes here, so two revivals can never share one count.
        o.lock().ref_count += 1;
        drop(g);
        Some(o)
    }

    /// Find the object for `ident`, parked *or live*: a parked object is
    /// revived (removed from the unreferenced pool), a live one gains a
    /// reference. One backing store, one object, one set of pages.
    ///
    /// Both paths take the reference while still holding the shard lock —
    /// the lock that [`ObjectCache::insert`] and [`ObjectCache::reap_one`]
    /// hold for their `ref_count == 0` decisions — so a revival and a
    /// park/reap of the same object are strictly ordered.
    pub fn lookup(&self, ident: &PagerIdent) -> Option<Arc<VmObject>> {
        let mut g = self.shards[self.shard(ident)].lock();
        if let Some((_stamp, o)) = g.map.remove(ident) {
            self.parked.fetch_sub(1, Ordering::Relaxed);
            o.lock().ref_count += 1;
            drop(g);
            return Some(o);
        }
        if let Some(o) = g.live.get(ident).and_then(|w| w.upgrade()) {
            let mut s = o.lock();
            if !s.terminated {
                // The object may be unreferenced and mid-park in
                // `insert` (its Weak stays in the live index until
                // termination); taking the reference here under the
                // shard lock makes `insert`'s re-check skip the park.
                s.ref_count += 1;
                drop(s);
                drop(g);
                return Some(o);
            }
        }
        None
    }

    /// Register a freshly created pager-backed object as live.
    pub fn register_live(&self, ident: PagerIdent, obj: &Arc<VmObject>) {
        let shard = self.shard(&ident);
        self.shards[shard]
            .lock()
            .live
            .insert(ident, Arc::downgrade(obj));
    }

    /// Forget a terminated object's live registration (only if it still
    /// names this object).
    pub fn unregister_live(&self, ident: &PagerIdent, obj: &VmObject) {
        let mut g = self.shards[self.shard(ident)].lock();
        if let Some(w) = g.live.get(ident) {
            let same = w
                .upgrade()
                .map(|o| std::ptr::eq(Arc::as_ptr(&o), obj as *const _))
                .unwrap_or(true); // dead weak: safe to drop
            if same {
                g.live.remove(ident);
            }
        }
    }

    /// Terminate the globally least-recently-parked cached object to
    /// relieve memory pressure; returns `false` when the cache is empty.
    ///
    /// Scans every shard's minimum stamp holding one shard lock at a
    /// time, then re-locks the winning shard to claim the victim (a
    /// concurrent revival of the victim simply makes this pass a no-op).
    /// The claim — `terminated` set, pager and shadow taken, live-index
    /// entry dropped — happens under the shard lock, so a racing
    /// [`ObjectCache::lookup`] either revives the victim before the claim
    /// (the reaper backs off) or finds it terminated after; it can never
    /// hand out an object the reaper is tearing down.
    pub fn reap_one(&self, ctx: &CoreRefs) -> bool {
        let mut best: Option<(u64, usize, PagerIdent)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            let g = shard.lock();
            for (ident, (stamp, _)) in &g.map {
                if best.as_ref().is_none_or(|(s, _, _)| stamp < s) {
                    best = Some((*stamp, i, ident.clone()));
                }
            }
        }
        let Some((stamp, shard, ident)) = best else {
            return false;
        };
        let victim = {
            let mut g = self.shards[shard].lock();
            match g.map.get(&ident) {
                Some((s, _)) if *s == stamp => {
                    let (_, o) = g.map.remove(&ident).expect("present");
                    self.parked.fetch_sub(1, Ordering::Relaxed);
                    let mut st = o.lock();
                    if st.ref_count > 0 || st.terminated {
                        None // revived through the live index; unparked, alive
                    } else {
                        st.terminated = true;
                        let pager = st.pager.take();
                        let shadow = st.shadow.take();
                        drop(st);
                        let same = g
                            .live
                            .get(&ident)
                            .map(|w| match w.upgrade() {
                                Some(l) => Arc::ptr_eq(&l, &o),
                                None => true, // dead weak: safe to drop
                            })
                            .unwrap_or(false);
                        if same {
                            g.live.remove(&ident);
                        }
                        Some((o, pager, shadow))
                    }
                }
                _ => None, // revived or re-parked concurrently
            }
        };
        if let Some((v, pager, shadow)) = victim {
            finish_terminate(&v, ctx, pager, shadow);
        }
        true
    }

    /// Drop every cached object (unmount / shutdown).
    pub fn clear(&self, ctx: &CoreRefs) {
        while self.reap_one(ctx) {}
    }
}

//! The pager service fleet: the default pager run as N concurrent
//! external pager services over real `mach-ipc` port queues.
//!
//! The paper treats pagers as ordinary tasks reached by messages (§3.3),
//! which makes them independently schedulable — and independently
//! killable. This module promotes the in-process [`DefaultPager`] call
//! path to that arrangement: each anonymous memory object is **bound** to
//! one of N pager services, each service drains its own bounded port
//! queue on its own thread, and the kernel side talks to whichever
//! service an object is bound to through a [`Pager`]-shaped client.
//!
//! Three properties fall out of the port transport:
//!
//! - **Backpressure.** A service's queue is bounded. When it fills, the
//!   kernel's send blocks until the service drains — counted in
//!   [`VmStatsAtomic::pager_throttles`] so saturation is observable.
//! - **Failover.** A dead service's port dies with it. Surviving objects
//!   are re-bound to a live service — eagerly by [`PagerFleet::kill`],
//!   lazily by the client when a send or reply-wait discovers the death —
//!   exactly once per orphaned object
//!   ([`VmStatsAtomic::pager_rebinds`]). Backing pages live in a store
//!   shared by all services and every `pager_data_write` is acknowledged,
//!   so a crash loses no dirty data: unacknowledged writes are simply
//!   retried against the successor (the store is idempotent).
//! - **Conformance transparency.** The client is synchronous and charges
//!   the same per-page disk latency as [`DefaultPager`], so the seven
//!   gated replay observables are identical whether a scenario runs over
//!   the in-process pager or the fleet. It never consults the fault
//!   [`Injector`](crate::inject::Injector) — chaos against the fleet is
//!   explicit ([`PagerFleet::kill`]) precisely so the deterministic
//!   injection draw sequence is untouched.
//!
//! [`DefaultPager`]: crate::pager::DefaultPager

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mach_hw::lock::{KernelMutex, LockSite};
use mach_hw::machine::Machine;
use mach_ipc::{IpcError, Message, MsgField, Port, ReceiveRight, SendRight};
use parking_lot::Mutex;

use crate::pager::{Pager, PagerReply};
use crate::stats::VmStatsAtomic;
use crate::trace::{CausalPhase, TraceEvent, TraceSink};
use crate::types::{VmError, VmResult};
use crate::xpager::ops;

/// How a [`PagerFleet`] is shaped. Passed through
/// [`BootOptions::pager_fleet`](crate::kernel::BootOptions::pager_fleet).
#[derive(Debug, Clone)]
pub struct FleetOptions {
    /// Number of pager services (threads, each with its own port).
    pub pagers: usize,
    /// Bounded depth of each service's port queue — the backpressure
    /// threshold: the kernel blocks (and counts a throttle) when a
    /// service is this many requests behind.
    pub queue_capacity: usize,
}

impl Default for FleetOptions {
    fn default() -> FleetOptions {
        FleetOptions {
            pagers: 4,
            queue_capacity: 8,
        }
    }
}

/// Pages held by the fleet, keyed `(object id, offset)`. Shared by every
/// service so a binding can move between services without copying data.
type FleetStore = Mutex<HashMap<(u64, u64), Vec<u8>>>;

/// One pager service: a port plus the thread draining it.
struct Service {
    tx: SendRight,
    /// Set by [`PagerFleet::kill`] (and `Drop`); the thread exits at its
    /// next poll tick and drops its receive right, killing the port.
    kill: AtomicBool,
    /// Freezes the drain loop without killing the service — lets a bench
    /// probe fill the queue deterministically ([`PagerFleet::burst_probe`]).
    pause: AtomicBool,
    /// The thread acknowledges `pause` here once it is actually parked.
    parked: AtomicBool,
    /// High-water mark of queue depth observed at dequeue time.
    depth_hwm: AtomicU64,
    /// Messages this service has handled.
    served: AtomicU64,
    thread: Mutex<Option<JoinHandle<()>>>,
}

/// A fleet of N pager services over `mach-ipc` port queues, plus the
/// object→service binding table and the shared page store.
pub struct PagerFleet {
    machine: Arc<Machine>,
    services: Vec<Arc<Service>>,
    store: Arc<FleetStore>,
    /// object id → service index. Lock order: leaf — nothing else is
    /// acquired while held (see DESIGN.md, "Lock ordering").
    bindings: KernelMutex<HashMap<u64, usize>>,
    next_bind: AtomicUsize,
    stats: Arc<VmStatsAtomic>,
    trace: Arc<TraceSink>,
    pager_timeout: Duration,
}

impl fmt::Debug for PagerFleet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagerFleet")
            .field("pagers", &self.services.len())
            .field("live", &self.live_count())
            .field("pages", &self.store.lock().len())
            .finish()
    }
}

impl PagerFleet {
    /// Boot a fleet: allocate one port per service and start the drain
    /// threads. `stats` is the kernel's stats block (throttles and
    /// re-binds are counted there); `pager_timeout` bounds every client
    /// RPC, mirroring the fault path's distrust of pagers (§3.3).
    pub fn spawn(
        machine: &Arc<Machine>,
        opts: FleetOptions,
        stats: Arc<VmStatsAtomic>,
        trace: Arc<TraceSink>,
        pager_timeout: Duration,
    ) -> Arc<PagerFleet> {
        let n = opts.pagers.max(1);
        let capacity = opts.queue_capacity.max(1);
        let store: Arc<FleetStore> = Arc::new(Mutex::new(HashMap::new()));
        let mut services = Vec::with_capacity(n);
        for i in 0..n {
            let (tx, rx) = Port::allocate(&format!("pager-fleet-{i}"), capacity);
            let svc = Arc::new(Service {
                tx,
                kill: AtomicBool::new(false),
                pause: AtomicBool::new(false),
                parked: AtomicBool::new(false),
                depth_hwm: AtomicU64::new(0),
                served: AtomicU64::new(0),
                thread: Mutex::new(None),
            });
            let handle = std::thread::Builder::new()
                .name(format!("pager-fleet-{i}"))
                .spawn({
                    let svc = Arc::clone(&svc);
                    let store = Arc::clone(&store);
                    move || service_loop(rx, &svc, &store)
                })
                .expect("spawn pager service");
            *svc.thread.lock() = Some(handle);
            services.push(svc);
        }
        Arc::new(PagerFleet {
            machine: Arc::clone(machine),
            services,
            store,
            bindings: KernelMutex::new(LockSite::FleetBindings, HashMap::new()),
            next_bind: AtomicUsize::new(0),
            stats,
            trace,
            pager_timeout,
        })
    }

    /// The kernel-side [`Pager`] speaking to this fleet. Handed to the
    /// kernel as its default pager.
    pub fn client(self: &Arc<PagerFleet>) -> Arc<dyn Pager> {
        Arc::new(FleetClient {
            fleet: Arc::clone(self),
        })
    }

    /// Number of services (live or dead).
    pub fn pagers(&self) -> usize {
        self.services.len()
    }

    /// Number of services still alive.
    pub fn live_count(&self) -> usize {
        self.services
            .iter()
            .filter(|s| !s.kill.load(Ordering::Acquire))
            .count()
    }

    /// Whether service `idx` is still alive.
    pub fn is_live(&self, idx: usize) -> bool {
        !self.services[idx].kill.load(Ordering::Acquire)
    }

    /// The port id of service `idx` — what
    /// [`Pager::port_id`] reports for objects bound to it.
    pub fn port_id_of(&self, idx: usize) -> u64 {
        self.services[idx].tx.id()
    }

    /// Instantaneous queue depth of service `idx` (a racy sample, for
    /// gauges; the invariant a gauge may assert is `depth <= capacity`).
    pub fn depth(&self, idx: usize) -> usize {
        self.services[idx].tx.queued()
    }

    /// The bounded queue capacity of service `idx`.
    pub fn queue_capacity(&self, idx: usize) -> usize {
        self.services[idx].tx.capacity()
    }

    /// High-water mark of service `idx`'s queue depth, observed at
    /// dequeue time. Advisory (scheduling-dependent).
    pub fn depth_hwm(&self, idx: usize) -> u64 {
        self.services[idx].depth_hwm.load(Ordering::Relaxed)
    }

    /// Messages service `idx` has handled.
    pub fn served(&self, idx: usize) -> u64 {
        self.services[idx].served.load(Ordering::Relaxed)
    }

    /// Pages currently held across all objects.
    pub fn pages_stored(&self) -> usize {
        self.store.lock().len()
    }

    /// Which service `object_id` is currently bound to, if any. Test and
    /// gauge introspection; does not create a binding.
    pub fn binding(&self, object_id: u64) -> Option<usize> {
        self.bindings.lock().get(&object_id).copied()
    }

    /// Kill service `idx`: the thread exits, its port dies, and every
    /// object bound to it is re-bound to a live service (exactly once —
    /// the client's lazy path and this eager sweep race benignly because
    /// both re-bind only under the bindings lock *and* only while the
    /// recorded binding still names the dead service).
    ///
    /// This is the chaos entry point. It is deliberately *not* driven by
    /// the fault [`Injector`](crate::inject::Injector): consuming
    /// injector draws here would shift the deterministic per-CPU
    /// injection sequence that golden chaos traces replay against.
    pub fn kill(&self, idx: usize) {
        let svc = &self.services[idx];
        if svc.kill.swap(true, Ordering::SeqCst) {
            return; // already dead
        }
        if let Some(h) = svc.thread.lock().take() {
            let _ = h.join(); // bounded: the loop polls every 10 ms
        }
        // Eager sweep: re-home everything the dead service was serving.
        let mut bindings = self.bindings.lock();
        let orphans: Vec<u64> = bindings
            .iter()
            .filter(|&(_, &s)| s == idx)
            .map(|(&oid, _)| oid)
            .collect();
        for oid in orphans {
            if let Some(new) = self.pick_live() {
                bindings.insert(oid, new);
                self.stats.pager_rebinds.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Deterministic backpressure probe for the bench gauges: pause
    /// service `idx` (so nothing drains), `try_send` `n` probe requests,
    /// and report what happened — with the service parked the counts are
    /// exact: depth saturates at the queue capacity and every overflow is
    /// a throttle. Throttles are also counted in the kernel stats. The
    /// service is resumed and the probe drained before returning.
    pub fn burst_probe(&self, idx: usize, n: usize) -> BurstProbe {
        let svc = &self.services[idx];
        svc.pause.store(true, Ordering::Release);
        while !svc.parked.load(Ordering::Acquire) && !svc.kill.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Replies go to a port we immediately kill: the service's reply
        // sends are best-effort no-ops on a dead port, so probe traffic
        // needs no receiver (and can never block the drain loop).
        let (reply_tx, reply_rx) = Port::allocate("pager-fleet-probe", 1);
        drop(reply_rx);
        let mut throttles = 0u64;
        for k in 0..n {
            let msg = Message::new(ops::PAGER_DATA_REQUEST)
                .with(MsgField::U64(u64::MAX)) // an object no one stores
                .with(MsgField::Port(reply_tx.clone()))
                .with(MsgField::U64(k as u64 * 4096))
                .with(MsgField::U64(4096))
                .with(MsgField::U64(u64::from(
                    crate::types::Protection::READ.bits(),
                )));
            match svc.tx.try_send(msg) {
                Ok(()) => {}
                Err(IpcError::WouldBlock) => {
                    throttles += 1;
                    self.stats.pager_throttles.fetch_add(1, Ordering::Relaxed);
                }
                Err(IpcError::DeadPort) => break,
            }
        }
        let depth = svc.tx.queued();
        svc.pause.store(false, Ordering::Release);
        let deadline = Instant::now() + Duration::from_secs(5);
        while svc.tx.queued() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        // The wait each throttle *would* charge a faulting thread (the
        // client's model: a full queue of one-page requests ahead of it)
        // — computed rather than charged, the probe must not move the
        // simulated clock.
        let disk = self.machine.disk();
        let one_page = disk.io_us(4096u64.div_ceil(disk.block_size).max(1));
        BurstProbe {
            throttles,
            depth,
            queue_wait_us: throttles * svc.tx.capacity() as u64 * one_page,
        }
    }

    /// Next live service in round-robin order, or `None` when the whole
    /// fleet is dead.
    fn pick_live(&self) -> Option<usize> {
        let n = self.services.len();
        for _ in 0..n {
            let i = self.next_bind.fetch_add(1, Ordering::Relaxed) % n;
            if !self.services[i].kill.load(Ordering::Acquire) {
                return Some(i);
            }
        }
        None
    }

    /// The service `object_id` is (now) bound to: existing live binding,
    /// else bind/re-bind to a live service. A re-bind of a dead binding
    /// is counted; a first bind is not.
    fn binding_for(&self, object_id: u64) -> Option<usize> {
        let mut b = self.bindings.lock();
        match b.get(&object_id) {
            Some(&i) if !self.services[i].kill.load(Ordering::Acquire) => Some(i),
            Some(_dead) => {
                let new = self.pick_live()?;
                b.insert(object_id, new);
                self.stats.pager_rebinds.fetch_add(1, Ordering::Relaxed);
                Some(new)
            }
            None => {
                let new = self.pick_live()?;
                b.insert(object_id, new);
                Some(new)
            }
        }
    }

    /// Same per-page disk latency the in-process [`DefaultPager`] charges
    /// — keeping the fleet transparent to the replay observables.
    ///
    /// [`DefaultPager`]: crate::pager::DefaultPager
    fn charge_io(&self, bytes: u64) {
        let disk = self.machine.disk();
        let blocks = bytes.div_ceil(disk.block_size).max(1);
        self.machine.charge_wait_us(disk.io_us(blocks));
    }

    /// Modeled queue wait for a send that throttled: a full queue —
    /// `capacity` requests of this size — had to drain ahead of it.
    /// Charged *only* on the throttled path so a non-saturated run stays
    /// cycle-identical to the in-process pager (conformance transparency
    /// above): un-throttled sends charge nothing here.
    fn charge_queue_wait(&self, capacity: usize, bytes: u64) {
        let disk = self.machine.disk();
        let blocks = bytes.div_ceil(disk.block_size).max(1);
        self.machine
            .charge_wait_us(capacity as u64 * disk.io_us(blocks));
    }

    /// One causal boundary stamp ([`CausalPhase`]) on the calling CPU's
    /// simulated clock.
    fn chain(
        &self,
        causal: u64,
        pager: u64,
        object: u64,
        offset: u64,
        phase: CausalPhase,
        depth: u64,
    ) {
        self.trace.emit(
            &self.machine,
            0,
            object,
            offset,
            TraceEvent::PagerChain {
                phase,
                causal,
                pager,
                depth,
            },
        );
    }
}

/// What one [`PagerFleet::burst_probe`] run observed.
#[derive(Debug, Clone, Copy)]
pub struct BurstProbe {
    /// Sends that overflowed the paused queue (each also counted in
    /// [`VmStatsAtomic::pager_throttles`]).
    pub throttles: u64,
    /// Peak queue depth — saturates at the queue capacity.
    pub depth: usize,
    /// Modeled queue wait the throttles correspond to, in microseconds
    /// of simulated disk time (`throttles × capacity × one-page I/O`).
    /// Non-zero exactly when `throttles > 0`.
    pub queue_wait_us: u64,
}

impl Drop for PagerFleet {
    fn drop(&mut self) {
        for svc in &self.services {
            svc.kill.store(true, Ordering::SeqCst);
        }
        for svc in &self.services {
            if let Some(h) = svc.thread.lock().take() {
                let _ = h.join();
            }
        }
    }
}

/// One service's drain loop: receive with a timeout (so `kill` and
/// `pause` are observed promptly), answer data requests from the shared
/// store, acknowledge writes. Exiting drops `rx`, which kills the port —
/// senders then fail with [`IpcError::DeadPort`] and fail over.
fn service_loop(rx: ReceiveRight, svc: &Service, store: &FleetStore) {
    loop {
        if svc.kill.load(Ordering::Acquire) {
            return;
        }
        if svc.pause.load(Ordering::Acquire) {
            svc.parked.store(true, Ordering::Release);
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        svc.parked.store(false, Ordering::Release);
        let Some(msg) = rx.receive_timeout(Duration::from_millis(10)) else {
            continue;
        };
        // Depth as seen the moment a message is taken: what was behind it
        // plus the message itself.
        svc.depth_hwm
            .fetch_max(rx.queued() as u64 + 1, Ordering::Relaxed);
        svc.served.fetch_add(1, Ordering::Relaxed);
        match msg.op() {
            ops::PAGER_DATA_REQUEST => {
                let object_id = msg.u64(0);
                let reply = msg.port(1);
                let offset = msg.u64(2);
                let length = msg.u64(3);
                // Echo the optional trailing causal id (field 5) so the
                // reply attributes to the originating fault, exactly as a
                // conformant user-state pager would.
                let causal = if msg.fields().len() > 5 {
                    msg.u64(5)
                } else {
                    0
                };
                let page = store.lock().get(&(object_id, offset)).cloned();
                // Replies are best-effort: the client may have timed out
                // (or a probe never listened) and dropped the reply port.
                let _ = match page {
                    Some(data) => reply.send(
                        Message::new(ops::PAGER_DATA_PROVIDED)
                            .with(MsgField::U64(offset))
                            .with(MsgField::Bytes(Arc::new(data)))
                            .with(MsgField::U64(0))
                            .with(MsgField::U64(causal)),
                    ),
                    None => reply.send(
                        Message::new(ops::PAGER_DATA_UNAVAILABLE)
                            .with(MsgField::U64(offset))
                            .with(MsgField::U64(length))
                            .with(MsgField::U64(causal)),
                    ),
                };
            }
            ops::PAGER_DATA_WRITE => {
                let object_id = msg.u64(0);
                let offset = msg.u64(1);
                let data = msg.bytes(2).as_ref().clone();
                store.lock().insert((object_id, offset), data);
                // The fleet extends the write with a reply port (field 3)
                // and acknowledges *after* the store insert: an un-acked
                // write is by construction not yet durable, so the client
                // may re-send it to a successor without risking loss.
                if msg.fields().len() > 3 {
                    let _ = msg.port(3).send(Message::new(ops::PAGER_DATA_WRITE));
                }
            }
            ops::PAGER_TERMINATE => {
                let object_id = msg.u64(0);
                store.lock().retain(|&(oid, _), _| oid != object_id);
            }
            _ => {}
        }
    }
}

/// The kernel-side [`Pager`] for a fleet: synchronous RPC over the bound
/// service's port, with throttle counting, failover re-send, and
/// [`DefaultPager`](crate::pager::DefaultPager)-identical I/O charging.
pub struct FleetClient {
    fleet: Arc<PagerFleet>,
}

impl fmt::Debug for FleetClient {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FleetClient")
            .field("fleet", &self.fleet)
            .finish()
    }
}

impl FleetClient {
    /// Send via `try_send` first so a full queue is observed (and
    /// counted) before blocking on it. `Some(throttled)` once enqueued —
    /// `throttled` says whether the queue was full and the send had to
    /// block; `None` when the port died (caller re-binds).
    fn send_throttled(&self, svc: &Service, mk: impl Fn() -> Message) -> Option<bool> {
        match svc.tx.try_send(mk()) {
            Ok(()) => Some(false),
            Err(IpcError::WouldBlock) => {
                self.fleet
                    .stats
                    .pager_throttles
                    .fetch_add(1, Ordering::Relaxed);
                svc.tx.send(mk()).is_ok().then_some(true)
            }
            Err(IpcError::DeadPort) => None,
        }
    }
}

/// How long the client sleeps between reply polls — short enough that a
/// service death is noticed promptly, long enough not to spin.
const REPLY_POLL: Duration = Duration::from_millis(1);

impl Pager for FleetClient {
    fn data_request(&self, object_id: u64, offset: u64, length: u64) -> PagerReply {
        let f = &self.fleet;
        // The faulting thread's causal id: every boundary stamp below
        // joins the fault's `pager_wait` span into queue/service/
        // transport/wake components. 0 (→ no stamps) when tracing is off.
        let causal = crate::trace::current_causal();
        // The calling CPU is quiescent for the RPC, exactly as the fault
        // path treats an external pager wait.
        let _q = f.machine.kernel_block();
        let deadline = Instant::now() + f.pager_timeout;
        // Boundary stamps and the queue-wait charge are confined to the
        // first attempt: a failover re-send neither double-charges nor
        // re-opens the chain (its chain stays incomplete and analyzers
        // drop it — failover latency is not a steady-state decomposition).
        let mut first_attempt = true;
        loop {
            let Some(idx) = f.binding_for(object_id) else {
                return PagerReply::Error(VmError::PagerDied); // whole fleet dead
            };
            let svc = &f.services[idx];
            let pager = svc.tx.id();
            let (reply_tx, reply_rx) = Port::allocate("pager-fleet-reply", 2);
            let mk = || {
                Message::new(ops::PAGER_DATA_REQUEST)
                    .with(MsgField::U64(object_id))
                    .with(MsgField::Port(reply_tx.clone()))
                    .with(MsgField::U64(offset))
                    .with(MsgField::U64(length))
                    .with(MsgField::U64(u64::from(
                        crate::types::Protection::READ.bits(),
                    )))
                    .with(MsgField::U64(causal))
            };
            // Enqueue is stamped before the send so a throttled send's
            // wait lands between Enqueue and Dequeue. Nothing charges
            // cycles between the `pager_wait` span opening and this stamp,
            // so Enqueue == span open — the exactness anchor.
            if first_attempt && causal != 0 {
                f.chain(causal, pager, object_id, offset, CausalPhase::Enqueue, 0);
            }
            let sent = self.send_throttled(svc, mk);
            if let Some(throttled) = sent {
                if first_attempt {
                    let mut depth = 0u64;
                    if throttled {
                        // Modeled depth at enqueue time: the queue was
                        // full, i.e. `capacity` requests ahead of us.
                        depth = svc.tx.capacity() as u64;
                        f.charge_queue_wait(svc.tx.capacity(), length);
                    }
                    if causal != 0 {
                        f.chain(
                            causal,
                            pager,
                            object_id,
                            offset,
                            CausalPhase::Dequeue,
                            depth,
                        );
                    }
                }
                first_attempt = false;
                loop {
                    if let Some(reply) = reply_rx.receive_timeout(REPLY_POLL) {
                        let result = match reply.op() {
                            ops::PAGER_DATA_PROVIDED => {
                                let data = reply.bytes(1).as_ref().clone();
                                // The service's I/O — everything between
                                // Dequeue and Served is service time.
                                f.charge_io(data.len() as u64);
                                PagerReply::Data(data)
                            }
                            _ => PagerReply::Unavailable,
                        };
                        if causal != 0 {
                            // The reply transport and the faulter wakeup
                            // are free in the simulated-cycle model (the
                            // CPU is quiescent; wall-clock waits do not
                            // advance its clock), so these stamps pin
                            // transport and wake to exactly 0 cycles.
                            f.chain(causal, pager, object_id, offset, CausalPhase::Served, 0);
                            f.chain(causal, pager, object_id, offset, CausalPhase::Delivered, 0);
                            f.chain(causal, pager, object_id, offset, CausalPhase::Wake, 0);
                        }
                        return result;
                    }
                    if svc.kill.load(Ordering::Acquire) {
                        break; // failover: re-bind and re-send
                    }
                    if Instant::now() >= deadline {
                        return PagerReply::Error(VmError::PagerDied);
                    }
                }
            } else {
                first_attempt = false;
            }
            if Instant::now() >= deadline {
                return PagerReply::Error(VmError::PagerDied);
            }
        }
    }

    fn data_write(&self, object_id: u64, offset: u64, data: Vec<u8>) -> VmResult<()> {
        let f = &self.fleet;
        f.charge_io(data.len() as u64);
        let payload = Arc::new(data);
        let _q = f.machine.kernel_block();
        let deadline = Instant::now() + f.pager_timeout;
        loop {
            let Some(idx) = f.binding_for(object_id) else {
                return Err(VmError::PagerDied);
            };
            let svc = &f.services[idx];
            let (reply_tx, reply_rx) = Port::allocate("pager-fleet-ack", 1);
            let mk = || {
                Message::new(ops::PAGER_DATA_WRITE)
                    .with(MsgField::U64(object_id))
                    .with(MsgField::U64(offset))
                    .with(MsgField::Bytes(Arc::clone(&payload)))
                    .with(MsgField::Port(reply_tx.clone()))
            };
            if self.send_throttled(svc, mk).is_some() {
                loop {
                    if reply_rx.receive_timeout(REPLY_POLL).is_some() {
                        return Ok(()); // acknowledged: durably in the store
                    }
                    if svc.kill.load(Ordering::Acquire) {
                        break; // un-acked: re-send to the successor
                    }
                    if Instant::now() >= deadline {
                        return Err(VmError::PagerDied);
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(VmError::PagerDied);
            }
        }
    }

    fn terminate(&self, object_id: u64) {
        let f = &self.fleet;
        let purged = match f.binding_for(object_id) {
            Some(idx) => f.services[idx]
                .tx
                .send(Message::new(ops::PAGER_TERMINATE).with(MsgField::U64(object_id)))
                .is_ok(),
            None => false,
        };
        if !purged {
            // No live service to do it: reclaim the backing store here.
            f.store.lock().retain(|&(oid, _), _| oid != object_id);
        }
        f.bindings.lock().remove(&object_id);
    }

    fn port_id(&self, object_id: u64) -> u64 {
        // Bind-if-absent so the trace emitted *before* a data request is
        // attributed to the same service the request will reach.
        match self.fleet.binding_for(object_id) {
            Some(idx) => self.fleet.services[idx].tx.id(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mach_hw::machine::MachineModel;

    fn fleet(pagers: usize, capacity: usize) -> Arc<PagerFleet> {
        let machine = Machine::boot(MachineModel::vax_8200());
        let trace = Arc::new(TraceSink::new(machine.n_cpus()));
        PagerFleet::spawn(
            &machine,
            FleetOptions {
                pagers,
                queue_capacity: capacity,
            },
            Arc::new(VmStatsAtomic::default()),
            trace,
            Duration::from_secs(5),
        )
    }

    #[test]
    fn roundtrip_over_ports() {
        let f = fleet(4, 8);
        let client = f.client();
        assert!(matches!(
            client.data_request(1, 0, 4096),
            PagerReply::Unavailable
        ));
        client.data_write(1, 4096, vec![7u8; 4096]).unwrap();
        match client.data_request(1, 4096, 4096) {
            PagerReply::Data(d) => assert_eq!(d, vec![7u8; 4096]),
            other => panic!("expected data, got {other:?}"),
        }
        // Object isolation and termination, as for the in-process pager.
        assert!(matches!(
            client.data_request(2, 4096, 4096),
            PagerReply::Unavailable
        ));
        client.terminate(1);
        let deadline = Instant::now() + Duration::from_secs(5);
        while f.pages_stored() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(f.pages_stored(), 0);
    }

    #[test]
    fn objects_spread_over_services() {
        let f = fleet(4, 8);
        let client = f.client();
        for oid in 0..8u64 {
            client.data_write(oid, 0, vec![oid as u8; 64]).unwrap();
        }
        let mut used: Vec<usize> = (0..8u64).filter_map(|oid| f.binding(oid)).collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 4, "round-robin binding uses every service");
        // port_id attributes to the bound service.
        for oid in 0..8u64 {
            let idx = f.binding(oid).unwrap();
            assert_eq!(client.port_id(oid), f.port_id_of(idx));
        }
    }

    #[test]
    fn failover_loses_no_data_and_rebinds_once() {
        let stats = Arc::new(VmStatsAtomic::default());
        let machine = Machine::boot(MachineModel::vax_8200());
        let f = PagerFleet::spawn(
            &machine,
            FleetOptions {
                pagers: 3,
                queue_capacity: 4,
            },
            Arc::clone(&stats),
            Arc::new(TraceSink::new(machine.n_cpus())),
            Duration::from_secs(5),
        );
        let client = f.client();
        for oid in 0..9u64 {
            client.data_write(oid, 0, vec![oid as u8; 128]).unwrap();
        }
        let victim = f.binding(0).unwrap();
        let orphans: Vec<u64> = (0..9u64)
            .filter(|&o| f.binding(o) == Some(victim))
            .collect();
        f.kill(victim);
        assert_eq!(f.live_count(), 2);
        assert_eq!(
            stats.pager_rebinds.load(Ordering::Relaxed),
            orphans.len() as u64,
            "eager sweep re-binds each orphan exactly once"
        );
        // Every page, including the dead service's, is still served.
        for oid in 0..9u64 {
            match client.data_request(oid, 0, 128) {
                PagerReply::Data(d) => assert_eq!(d, vec![oid as u8; 128]),
                other => panic!("object {oid} lost after failover: {other:?}"),
            }
            assert_ne!(f.binding(oid), Some(victim));
        }
        // The lazy path finds nothing left to re-bind.
        assert_eq!(
            stats.pager_rebinds.load(Ordering::Relaxed),
            orphans.len() as u64
        );
    }

    #[test]
    fn whole_fleet_dead_reports_pager_died() {
        let f = fleet(2, 4);
        let client = f.client();
        client.data_write(1, 0, vec![1u8; 64]).unwrap();
        f.kill(0);
        f.kill(1);
        assert!(matches!(
            client.data_request(1, 0, 64),
            PagerReply::Error(VmError::PagerDied)
        ));
        assert!(matches!(
            client.data_write(1, 64, vec![2u8; 64]),
            Err(VmError::PagerDied)
        ));
    }

    #[test]
    fn burst_probe_saturates_and_counts_throttles() {
        let stats = Arc::new(VmStatsAtomic::default());
        let machine = Machine::boot(MachineModel::vax_8200());
        let f = PagerFleet::spawn(
            &machine,
            FleetOptions {
                pagers: 2,
                queue_capacity: 4,
            },
            Arc::clone(&stats),
            Arc::new(TraceSink::new(machine.n_cpus())),
            Duration::from_secs(5),
        );
        let probe = f.burst_probe(0, 10);
        assert_eq!(probe.depth, 4, "paused queue saturates at capacity");
        assert_eq!(probe.throttles, 6, "every overflow past capacity throttles");
        assert_eq!(stats.pager_throttles.load(Ordering::Relaxed), 6);
        // The modeled wait is exact: throttles × capacity × one-page I/O.
        let disk = machine.disk();
        let one_page = disk.io_us(4096u64.div_ceil(disk.block_size).max(1));
        assert_eq!(probe.queue_wait_us, 6 * 4 * one_page);
        // Resumed service drained the probe traffic.
        assert_eq!(f.depth(0), 0);
        assert!(f.depth_hwm(0) >= 1);
        // The probe leaves the service fully functional.
        let client = f.client();
        client.data_write(5, 0, vec![9u8; 32]).unwrap();
        assert!(matches!(
            client.data_request(5, 0, 32),
            PagerReply::Data(d) if d == vec![9u8; 32]
        ));
    }

    #[test]
    fn traced_request_leaves_a_complete_causal_chain() {
        let machine = Machine::boot(MachineModel::vax_8200());
        let trace = Arc::new(TraceSink::new(machine.n_cpus()));
        let f = PagerFleet::spawn(
            &machine,
            FleetOptions {
                pagers: 2,
                queue_capacity: 4,
            },
            Arc::new(VmStatsAtomic::default()),
            Arc::clone(&trace),
            Duration::from_secs(5),
        );
        let client = f.client();
        client.data_write(1, 0, vec![3u8; 4096]).unwrap();
        trace.enable(1024);
        let _scope = crate::trace::causal_scope(42);
        assert!(matches!(
            client.data_request(1, 0, 4096),
            PagerReply::Data(_)
        ));
        let log = trace.snapshot();
        let b = log.causal_breakdowns();
        assert_eq!(b.len(), 1, "one traced request, one complete chain");
        let b = &b[0];
        assert_eq!(b.causal, 42);
        assert_eq!(b.pager, f.port_id_of(f.binding(1).unwrap()));
        assert_eq!(b.queue_wait, 0, "un-throttled send waits for no queue");
        assert!(b.service_time > 0, "the page I/O is the service time");
        assert_eq!(b.transport, 0, "reply transport is free in cycles");
        assert_eq!(b.wake, 0, "faulter wakeup is free in cycles");
    }
}

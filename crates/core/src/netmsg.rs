//! The §6 two-kernel shared-memory scenario: a netmsg-server-style proxy
//! pager keeping one memory object consistent across kernels.
//!
//! "When tasks on two different computers map the same memory object into
//! their address spaces, the network server on each machine acts as the
//! local representative of the memory object" (§6, paraphrased): each
//! kernel believes it is talking to an ordinary external pager, while the
//! proxy — the [`NetmsgServer`] — enforces single-writer consistency by
//! *recalling* a page from one kernel before granting it to the other.
//!
//! A recall is the sequence-numbered invalidation handshake layered on
//! the Table 3-2 messages:
//!
//! 1. proxy → kernel A: `pager_clean_request [offset, len, seq]`
//! 2. proxy → kernel A: `pager_flush_request [offset, len, seq+1]`
//! 3. kernel A → proxy: `pager_data_write` for each dirty page (FIFO
//!    ahead of the acks on the same port, so the data always arrives
//!    before the grant proceeds)
//! 4. kernel A → proxy: `pager_lock_completed [.., seq]`, `[.., seq+1]`
//! 5. proxy → kernel B: `pager_data_provided` with the current bytes
//!
//! Sequence numbers make the handshake idempotent: the kernel treats
//! pager messages as at-least-once deliveries (duplicates from chaos
//! injection re-run the handler), and the proxy records only
//! `max(completed, seq)` — a duplicated or re-sent recall converges to
//! the same state. The proxy re-sends an unacknowledged recall after
//! `RECALL_RESEND` (200 ms), which also covers *delayed* messages.
//!
//! The proxy drains both kernels' pager ports through one
//! [`mach_ipc::PortSet`] — the netmsg server is a single task
//! multiplexing conversations, exactly as §6 describes it.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mach_ipc::{Message, MsgField, Port, PortSet, SendRight};

use crate::xpager::ops;

/// How long a recall waits before re-sending the clean/flush pair.
const RECALL_RESEND: Duration = Duration::from_millis(200);

/// How long a recall tries before giving up on a kernel (it is then
/// treated as having nothing to contribute — its acks may still arrive
/// later and are absorbed harmlessly).
const RECALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Counters the server reports when it exits.
#[derive(Debug, Default, Clone)]
pub struct NetmsgStats {
    /// Pages recalled from one kernel for the benefit of the other.
    pub recalls: u64,
    /// Recall rounds re-sent because the ack had not arrived in time.
    pub resends: u64,
    /// `pager_data_write` messages absorbed into the master copy.
    pub writes: u64,
    /// `pager_data_request` messages served.
    pub requests: u64,
}

/// The master copy plus final counters, returned by [`NetmsgServer::run`].
pub struct NetmsgReport {
    /// Counter totals.
    pub stats: NetmsgStats,
    /// The surviving master copy, offset → page bytes.
    pub pages: HashMap<u64, Vec<u8>>,
}

impl NetmsgReport {
    /// FNV-1a over the master copy in offset order — the checksum both
    /// kernels' views must agree with once their caches are recalled.
    pub fn checksum(&self) -> u64 {
        let mut offsets: Vec<&u64> = self.pages.keys().collect();
        offsets.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for off in offsets {
            for chunk in off.to_le_bytes().iter().chain(self.pages[off].iter()) {
                h ^= u64::from(*chunk);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }
}

/// One kernel's half of the conversation, as the proxy sees it.
struct KernelSide {
    /// Send right to this kernel's paging-object-request port (learned
    /// from `pager_init`).
    request: Option<SendRight>,
    /// Highest recall sequence number this kernel has acknowledged.
    completed: u64,
    /// The kernel sent `pager_terminate`: its object is gone.
    terminated: bool,
}

/// The netmsg-server proxy pager for one memory object shared by two
/// kernels. Allocate with [`NetmsgServer::new`], hand each kernel its
/// pager port (`vm_allocate_with_pager`), then [`NetmsgServer::run`] on a
/// dedicated thread until both kernels terminate the object.
pub struct NetmsgServer {
    set: PortSet,
    /// Pager-port id → kernel index, to attribute portset arrivals.
    side_of: HashMap<u64, usize>,
    sides: [KernelSide; 2],
    /// The master copy: offset → page bytes.
    data: HashMap<u64, Vec<u8>>,
    /// offset → kernel index currently holding the (exclusive) copy.
    owner: HashMap<u64, usize>,
    /// Messages that arrived mid-recall and must wait their turn.
    deferred: VecDeque<(usize, Message)>,
    next_seq: u64,
    stats: NetmsgStats,
}

impl fmt::Debug for NetmsgServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetmsgServer")
            .field("pages", &self.data.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl NetmsgServer {
    /// A proxy for one shared object; returns the server and the two
    /// pager ports, one per kernel. `queue_capacity` bounds each pager
    /// port queue.
    pub fn new(queue_capacity: usize) -> (NetmsgServer, [SendRight; 2]) {
        let mut set = PortSet::new("netmsg-proxy");
        let mut side_of = HashMap::new();
        let mut txs = Vec::with_capacity(2);
        for k in 0..2 {
            let (tx, rx) = Port::allocate(&format!("netmsg-pager-{k}"), queue_capacity);
            side_of.insert(rx.id(), k);
            set.add(rx);
            txs.push(tx);
        }
        let server = NetmsgServer {
            set,
            side_of,
            sides: [
                KernelSide {
                    request: None,
                    completed: 0,
                    terminated: false,
                },
                KernelSide {
                    request: None,
                    completed: 0,
                    terminated: false,
                },
            ],
            data: HashMap::new(),
            owner: HashMap::new(),
            deferred: VecDeque::new(),
            next_seq: 0,
            stats: NetmsgStats::default(),
        };
        let ports = [txs.remove(0), txs.remove(0)];
        (server, ports)
    }

    /// Serve both kernels until each has sent `pager_terminate` (or both
    /// pager ports die). Returns the master copy and counters.
    pub fn run(mut self) -> NetmsgReport {
        while !(self.sides[0].terminated && self.sides[1].terminated) {
            let Some((k, msg)) = self.next_message() else {
                if self.set.is_empty() {
                    break;
                }
                continue;
            };
            self.handle(k, &msg);
        }
        NetmsgReport {
            stats: self.stats,
            pages: self.data,
        }
    }

    /// Next message: deferred backlog first, then the port set.
    fn next_message(&mut self) -> Option<(usize, Message)> {
        if let Some(m) = self.deferred.pop_front() {
            return Some(m);
        }
        let (port, msg) = self.set.receive_timeout(Duration::from_millis(10))?;
        let k = *self.side_of.get(&port).expect("portset member");
        Some((k, msg))
    }

    fn handle(&mut self, k: usize, msg: &Message) {
        match msg.op() {
            ops::PAGER_INIT | ops::PAGER_CREATE => {
                self.sides[k].request = Some(msg.port(1).clone());
            }
            ops::PAGER_DATA_REQUEST => {
                // [object_id, reply_port, offset, length, access, causal?]
                // — the trailing causal id survives the proxy hop: it is
                // echoed on the reply so the requesting kernel attributes
                // the latency (recall included) to the originating fault.
                self.stats.requests += 1;
                let reply = msg.port(1).clone();
                let offset = msg.u64(2);
                let length = msg.u64(3);
                let causal = if msg.fields().len() > 5 {
                    msg.u64(5)
                } else {
                    0
                };
                // Single-writer: if the peer holds the page, recall it
                // (clean + flush + wait for the seq echo) before granting.
                let peer = 1 - k;
                if self.owner.get(&offset) == Some(&peer) {
                    self.recall(peer, offset, length);
                }
                self.owner.insert(offset, k);
                let reply_msg = match self.data.get(&offset) {
                    Some(bytes) => Message::new(ops::PAGER_DATA_PROVIDED)
                        .with(MsgField::U64(offset))
                        .with(MsgField::Bytes(Arc::new(bytes.clone())))
                        .with(MsgField::U64(0))
                        .with(MsgField::U64(causal)),
                    None => Message::new(ops::PAGER_DATA_UNAVAILABLE)
                        .with(MsgField::U64(offset))
                        .with(MsgField::U64(length))
                        .with(MsgField::U64(causal)),
                };
                let _ = reply.send(reply_msg);
            }
            ops::PAGER_DATA_WRITE => {
                // [object_id, offset, bytes]
                self.stats.writes += 1;
                self.data.insert(msg.u64(1), msg.bytes(2).as_ref().clone());
            }
            ops::PAGER_LOCK_COMPLETED => {
                // [offset, length, seq] — record monotonically, so a
                // duplicated or stale ack cannot move the watermark back.
                let seq = msg.u64(2);
                let side = &mut self.sides[k];
                side.completed = side.completed.max(seq);
            }
            ops::PAGER_DATA_UNLOCK => {
                // We never lock, so always grant: pager_data_lock(0),
                // echoing the optional trailing causal id.
                let reply = msg.port(1).clone();
                let causal = if msg.fields().len() > 5 {
                    msg.u64(5)
                } else {
                    0
                };
                let _ = reply.send(
                    Message::new(ops::PAGER_DATA_LOCK)
                        .with(MsgField::U64(msg.u64(2)))
                        .with(MsgField::U64(msg.u64(3)))
                        .with(MsgField::U64(0))
                        .with(MsgField::U64(causal)),
                );
            }
            ops::PAGER_TERMINATE => {
                self.sides[k].terminated = true;
                // Pages it owned are now masterless; the master copy
                // (kept current by termination's implicit cleans from
                // pageout writes) stays authoritative.
                self.owner.retain(|_, &mut o| o != k);
            }
            _ => {}
        }
    }

    /// Recall `offset` from kernel `from`: sequence-numbered clean then
    /// flush, then wait for the flush's echo while continuing to absorb
    /// that kernel's writes and acks (other traffic is deferred).
    /// Re-sends the pair every [`RECALL_RESEND`] until acknowledged.
    fn recall(&mut self, from: usize, offset: u64, length: u64) {
        let Some(request) = self.sides[from].request.clone() else {
            return; // never initialized: it cannot hold a copy
        };
        self.stats.recalls += 1;
        let clean_seq = self.next_seq + 1;
        let flush_seq = self.next_seq + 2;
        self.next_seq += 2;
        let send_pair = |req: &SendRight| {
            let _ = req.send(
                Message::new(ops::PAGER_CLEAN_REQUEST)
                    .with(MsgField::U64(offset))
                    .with(MsgField::U64(length))
                    .with(MsgField::U64(clean_seq)),
            );
            let _ = req.send(
                Message::new(ops::PAGER_FLUSH_REQUEST)
                    .with(MsgField::U64(offset))
                    .with(MsgField::U64(length))
                    .with(MsgField::U64(flush_seq)),
            );
        };
        send_pair(&request);
        let deadline = Instant::now() + RECALL_TIMEOUT;
        let mut resend_at = Instant::now() + RECALL_RESEND;
        while self.sides[from].completed < flush_seq {
            if self.sides[from].terminated || Instant::now() >= deadline {
                return; // nothing more will come; master copy stands
            }
            if Instant::now() >= resend_at {
                // The request (or its ack) was lost or delayed: re-send.
                // The kernel side is idempotent and the ack watermark is
                // monotonic, so over-delivery is harmless.
                self.stats.resends += 1;
                send_pair(&request);
                resend_at = Instant::now() + RECALL_RESEND;
            }
            let Some((k, msg)) = self.next_message() else {
                continue;
            };
            match msg.op() {
                // Data and acks (from either side) keep flowing so the
                // handshake can finish; anything else waits its turn.
                ops::PAGER_DATA_WRITE
                | ops::PAGER_LOCK_COMPLETED
                | ops::PAGER_TERMINATE
                | ops::PAGER_INIT
                | ops::PAGER_CREATE => self.handle(k, &msg),
                _ => self.deferred.push_back((k, msg)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::Kernel;
    use mach_hw::machine::{Machine, MachineModel};

    #[test]
    fn two_kernels_share_one_object_with_recalls() {
        let (server, [port_a, port_b]) = NetmsgServer::new(32);
        let proxy = std::thread::spawn(move || server.run());

        let ka = Kernel::boot(&Machine::boot(MachineModel::micro_vax_ii()));
        let kb = Kernel::boot(&Machine::boot(MachineModel::micro_vax_ii()));
        let ta = ka.create_task();
        let tb = kb.create_task();
        let ps = ka.page_size();
        let pages = 3u64;
        let aa = ka
            .allocate_with_pager(&ta, None, pages * ps, true, port_a, 0)
            .unwrap();
        let ab = kb
            .allocate_with_pager(&tb, None, pages * ps, true, port_b, 0)
            .unwrap();

        // A writes, B must observe through the recall; then B overwrites
        // and A must observe B's version — ping-pong per page.
        for i in 0..pages {
            ta.user(0, |u| u.write_u32(aa + i * ps, 0xA000 + i as u32).unwrap());
        }
        tb.user(0, |u| {
            for i in 0..pages {
                assert_eq!(
                    u.read_u32(ab + i * ps).unwrap(),
                    0xA000 + i as u32,
                    "B sees A's write after recall"
                );
                u.write_u32(ab + i * ps, 0xB000 + i as u32).unwrap();
            }
        });
        ta.user(0, |u| {
            for i in 0..pages {
                assert_eq!(
                    u.read_u32(aa + i * ps).unwrap(),
                    0xB000 + i as u32,
                    "A sees B's overwrite after recall back"
                );
            }
        });

        drop(ta);
        drop(tb);
        let report = proxy.join().unwrap();
        assert!(
            report.stats.recalls >= pages as u64,
            "B's reads recalled A's pages"
        );
        assert!(
            report.stats.writes >= pages as u64,
            "recalls carried dirty data"
        );
        // The master copy holds B's last version of every page.
        for i in 0..pages {
            let page = &report.pages[&(i * ps)];
            assert_eq!(&page[..4], &(0xB000u32 + i as u32).to_le_bytes());
        }
        assert_ne!(report.checksum(), 0);
    }
}

//! A simulated block device with seek + transfer latency.
//!
//! Every I/O charges elapsed-only wait time to the initiating CPU's clock
//! via the machine's [`mach_hw::cost::DiskModel`]; this is what produces
//! the paper's "system/elapsed sec" split in the file-reading rows of
//! Table 7-1.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mach_hw::machine::Machine;
use parking_lot::Mutex;

/// I/O statistics for a device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// Read operations (each pays one seek).
    pub reads: u64,
    /// Write operations.
    pub writes: u64,
    /// Blocks transferred in either direction.
    pub blocks_transferred: u64,
}

/// An I/O error reported by the device (today only ever produced by an
/// installed fault hook — the simulated medium itself never fails).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoError {
    /// The transfer failed but a retry may succeed (bus glitch, device
    /// busy).
    Transient,
    /// The transfer failed and retrying is pointless (bad sector, dead
    /// controller).
    Permanent,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IoError::Transient => "transient device error",
            IoError::Permanent => "permanent device error",
        })
    }
}

impl std::error::Error for IoError {}

/// Which direction a transfer goes, for fault hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Device → memory.
    Read,
    /// Memory → device.
    Write,
}

/// A fault hook: consulted before each fallible transfer with the
/// operation and starting block; returning `Some` fails the transfer
/// without touching the medium.
pub type IoFaultHook = Arc<dyn Fn(IoOp, u64) -> Option<IoError> + Send + Sync>;

/// A fixed-size array of blocks behind a simulated disk arm. A block is
/// allocated on its first write; until then it reads as zeros.
pub struct BlockDevice {
    machine: Arc<Machine>,
    block_size: u64,
    n_blocks: u64,
    blocks: Mutex<Vec<Option<Box<[u8]>>>>,
    reads: AtomicU64,
    writes: AtomicU64,
    transferred: AtomicU64,
    fault_hook: Mutex<Option<IoFaultHook>>,
}

impl std::fmt::Debug for BlockDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockDevice")
            .field("block_size", &self.block_size)
            .field("n_blocks", &self.n_blocks)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl BlockDevice {
    /// A device of `n_blocks` blocks, sized by the machine's disk model.
    ///
    /// # Panics
    ///
    /// Panics if `n_blocks` is zero.
    pub fn new(machine: &Arc<Machine>, n_blocks: u64) -> Arc<BlockDevice> {
        assert!(n_blocks > 0);
        let block_size = machine.disk().block_size;
        Arc::new(BlockDevice {
            machine: Arc::clone(machine),
            block_size,
            n_blocks,
            blocks: Mutex::new(vec![None; n_blocks as usize]),
            reads: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            transferred: AtomicU64::new(0),
            fault_hook: Mutex::new(None),
        })
    }

    /// Install (or clear) the fault hook consulted by the `try_*`
    /// transfer methods. Used by fault-injection harnesses; the infallible
    /// methods bypass it.
    pub fn set_fault_hook(&self, hook: Option<IoFaultHook>) {
        *self.fault_hook.lock() = hook;
    }

    fn injected_fault(&self, op: IoOp, block: u64) -> Option<IoError> {
        let g = self.fault_hook.lock();
        g.as_ref().and_then(|h| h(op, block))
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> u64 {
        self.n_blocks
    }

    /// The machine whose clock pays for I/O.
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// Statistics so far.
    pub fn stats(&self) -> DeviceStats {
        DeviceStats {
            reads: self.reads.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            blocks_transferred: self.transferred.load(Ordering::Relaxed),
        }
    }

    fn charge(&self, blocks: u64) {
        let us = self.machine.disk().io_us(blocks);
        self.machine.charge_wait_us(us);
        self.transferred.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Read `count` consecutive blocks starting at `block` (one seek).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `buf` is mis-sized.
    pub fn read_blocks(&self, block: u64, count: u64, buf: &mut [u8]) {
        assert!(block + count <= self.n_blocks, "read past end of device");
        assert_eq!(buf.len() as u64, count * self.block_size);
        {
            let g = self.blocks.lock();
            let stored = &g[block as usize..(block + count) as usize];
            for (dst, src) in buf.chunks_mut(self.block_size as usize).zip(stored) {
                match src {
                    Some(data) => dst.copy_from_slice(data),
                    None => dst.fill(0),
                }
            }
        }
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.charge(count);
    }

    /// Write `count` consecutive blocks starting at `block` (one seek).
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `buf` is mis-sized.
    pub fn write_blocks(&self, block: u64, count: u64, buf: &[u8]) {
        assert!(block + count <= self.n_blocks, "write past end of device");
        assert_eq!(buf.len() as u64, count * self.block_size);
        {
            let mut g = self.blocks.lock();
            let stored = &mut g[block as usize..(block + count) as usize];
            for (src, slot) in buf.chunks(self.block_size as usize).zip(stored) {
                match slot {
                    Some(data) => data.copy_from_slice(src),
                    None => *slot = Some(src.into()),
                }
            }
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.charge(count);
    }

    /// Read one block.
    pub fn read_block(&self, block: u64, buf: &mut [u8]) {
        self.read_blocks(block, 1, buf);
    }

    /// Write one block.
    pub fn write_block(&self, block: u64, buf: &[u8]) {
        self.write_blocks(block, 1, buf);
    }

    /// Fallible [`BlockDevice::read_blocks`]: consults the fault hook
    /// first and fails the transfer (medium untouched, latency still
    /// charged — the arm moved) when it injects an error.
    ///
    /// # Errors
    ///
    /// Whatever the installed fault hook returns.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `buf` is mis-sized.
    pub fn try_read_blocks(&self, block: u64, count: u64, buf: &mut [u8]) -> Result<(), IoError> {
        if let Some(e) = self.injected_fault(IoOp::Read, block) {
            self.charge(count);
            return Err(e);
        }
        self.read_blocks(block, count, buf);
        Ok(())
    }

    /// Fallible [`BlockDevice::write_blocks`]; see
    /// [`BlockDevice::try_read_blocks`].
    ///
    /// # Errors
    ///
    /// Whatever the installed fault hook returns.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds or `buf` is mis-sized.
    pub fn try_write_blocks(&self, block: u64, count: u64, buf: &[u8]) -> Result<(), IoError> {
        if let Some(e) = self.injected_fault(IoOp::Write, block) {
            self.charge(count);
            return Err(e);
        }
        self.write_blocks(block, count, buf);
        Ok(())
    }

    /// Fallible single-block read.
    ///
    /// # Errors
    ///
    /// Whatever the installed fault hook returns.
    pub fn try_read_block(&self, block: u64, buf: &mut [u8]) -> Result<(), IoError> {
        self.try_read_blocks(block, 1, buf)
    }

    /// Fallible single-block write.
    ///
    /// # Errors
    ///
    /// Whatever the installed fault hook returns.
    pub fn try_write_block(&self, block: u64, buf: &[u8]) -> Result<(), IoError> {
        self.try_write_blocks(block, 1, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mach_hw::machine::MachineModel;

    fn dev() -> Arc<BlockDevice> {
        let machine = Machine::boot(MachineModel::vax_8200());
        BlockDevice::new(&machine, 64)
    }

    #[test]
    fn blocks_roundtrip() {
        let d = dev();
        let bs = d.block_size() as usize;
        let mut out = vec![0u8; bs];
        let mut pattern = vec![0u8; bs];
        pattern.fill(0x5A);
        d.write_block(3, &pattern);
        d.read_block(3, &mut out);
        assert_eq!(out, pattern);
        // Neighbours untouched.
        d.read_block(2, &mut out);
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn multiblock_run_pays_one_seek() {
        let machine = Machine::boot(MachineModel::vax_8200());
        let d = BlockDevice::new(&machine, 64);
        let _b = machine.bind_cpu(0);
        let bs = d.block_size();
        let before = machine.clock().wait_us();
        let mut buf = vec![0u8; (4 * bs) as usize];
        d.read_blocks(0, 4, &mut buf);
        let run = machine.clock().wait_us() - before;
        let before = machine.clock().wait_us();
        for i in 0..4 {
            d.read_block(i, &mut buf[..bs as usize]);
        }
        let singles = machine.clock().wait_us() - before;
        assert!(singles > run, "4 seeks cost more than 1");
        assert_eq!(d.stats().reads, 5);
        assert_eq!(d.stats().blocks_transferred, 8);
    }

    #[test]
    fn io_charges_wait_not_system() {
        let machine = Machine::boot(MachineModel::vax_8200());
        let d = BlockDevice::new(&machine, 8);
        let _b = machine.bind_cpu(0);
        let sys0 = machine.clock().system_cycles();
        let mut buf = vec![0u8; d.block_size() as usize];
        d.read_block(0, &mut buf);
        assert_eq!(machine.clock().system_cycles(), sys0);
        assert!(machine.clock().wait_us() > 0);
    }

    #[test]
    #[should_panic(expected = "past end")]
    fn out_of_range_panics() {
        let d = dev();
        let mut buf = vec![0u8; d.block_size() as usize];
        d.read_block(64, &mut buf);
    }

    #[test]
    fn fault_hook_fails_try_paths_only() {
        let d = dev();
        let bs = d.block_size() as usize;
        let mut buf = vec![0u8; bs];
        d.set_fault_hook(Some(Arc::new(|op, block| {
            if op == IoOp::Write && block == 3 {
                Some(IoError::Permanent)
            } else if op == IoOp::Read {
                Some(IoError::Transient)
            } else {
                None
            }
        })));
        assert_eq!(
            d.try_write_block(3, &vec![1u8; bs]).unwrap_err(),
            IoError::Permanent
        );
        assert_eq!(
            d.try_read_block(0, &mut buf).unwrap_err(),
            IoError::Transient
        );
        // The medium was not touched by the failed write.
        d.read_block(3, &mut buf);
        assert!(buf.iter().all(|&b| b == 0));
        // Non-matching ops pass through, and clearing the hook restores all.
        d.try_write_block(4, &vec![2u8; bs]).unwrap();
        d.set_fault_hook(None);
        d.try_read_block(4, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }
}

//! The three workloads and why each exists.

/// Where the two ranks live and what carries their bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    /// Both ranks are threads of one process on the shared-memory fabric.
    Threads,
    /// One process per rank on the memfd segment fabric (`ipc`).
    Ipc,
    /// One process per rank on the UDS socket fabric.
    Uds,
}

/// One workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Rank placement and transport.
    pub fabric: Fabric,
    /// Partitions per direction per iteration.
    pub n_parts: usize,
    /// Bytes per partition.
    pub part_bytes: usize,
    /// Appendix-A stencil delays (otherwise every partition is ready at once).
    pub delayed: bool,
    /// Both ranks send and receive every iteration.
    pub bidirectional: bool,
    /// Partitioned iterations, bulk iterations and ping-pongs per block.
    /// A block is the unit of progress reporting and of failure counting.
    pub block: (u64, u64, u64),
    /// Partitioned iterations of the trace-ring round, sized so the
    /// runtime's per-thread ring does not wrap.
    pub ring_iters: u64,
}

impl Workload {
    /// Payload bytes per direction per iteration.
    pub fn payload(&self) -> usize {
        self.n_parts * self.part_bytes
    }

    /// Iterations in one block.
    pub fn block_len(&self) -> u64 {
        self.block.0 + self.block.1 + self.block.2
    }
}

/// Every workload, in the order `--workload all` runs them.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "small_shm",
        why: "64 x 64 B partitions ready at once between two threads of one process: \
              per-message cost of part, fabric and sync; no transport",
        fabric: Fabric::Threads,
        n_parts: 64,
        part_bytes: 64,
        delayed: false,
        bidirectional: false,
        block: (64, 64, 64),
        ring_iters: 100,
    },
    Workload {
        name: "earlybird_ipc",
        why: "16 x 256 KiB with Appendix-A stencil delays between two processes on the ipc \
              fabric: early-bird overlap, copies and doorbells",
        fabric: Fabric::Ipc,
        n_parts: 16,
        part_bytes: 256 << 10,
        delayed: true,
        bidirectional: false,
        block: (4, 4, 32),
        ring_iters: 200,
    },
    Workload {
        name: "halo_uds",
        why: "16 x 64 KiB each way at once with stencil delays over UDS sockets: \
              reader and writer threads under a bidirectional halo",
        fabric: Fabric::Uds,
        n_parts: 16,
        part_bytes: 64 << 10,
        delayed: true,
        bidirectional: true,
        block: (8, 8, 32),
        ring_iters: 200,
    },
];

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

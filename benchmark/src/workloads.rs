//! The four workloads: which generator, which deployment, and why.
//!
//! Sizes were tuned on a 2-vCPU VM so that one rep takes one to two seconds of
//! host time — ten or so reps fit a run — and the process stays under 200 MiB
//! resident; the README records the evidence. Simulated servers × sweep partitions never exceed
//! two, so the system's worker threads never outnumber that VM's cores.

use crate::sut::{ClusterSpec, InputSpec};

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: what only this workload exercises.
    pub why: &'static str,
    pub input: InputSpec,
    pub cluster: ClusterSpec,
    /// Expire and collect garbage inside ingest after every this many
    /// generations (0 = only in the maintain phase).
    pub gc_every: usize,
    /// Ingest reproduces the paper's §6.1 experiment, so its throughputs are
    /// also reported as errors against the paper's figures.
    pub paper_month: bool,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "month-records",
        why: "paper 6.1 month: fingerprint records skip chunk/hash, a day fits the preliminary filter; host time is filter+server, index sweeps and packing; compared with the paper's figures",
        input: InputSpec::Hust {
            clients: 8,
            days: 31,
            denom: 1024,
        },
        cluster: ClusterSpec {
            servers_log2: 0,
            denom: 1024,
            sweep_parts: 1,
            replication: 1,
            retention: 14,
            dedup2_at_cache_full: true,
        },
        gc_every: 0,
        paper_month: true,
    },
    Workload {
        name: "filetree-bytes",
        why: "real bytes: the only workload that runs CDC, SHA-1 and byte-verified restore (80% of host time is client prepare); so little is new that dedup-2 time is index sweeps",
        input: InputSpec::FileTree {
            files: 768,
            file_bytes: (24 << 10, 40 << 10),
            pool_blocks: 4096,
            block_bytes: 4096,
            generations: 8,
        },
        cluster: ClusterSpec {
            servers_log2: 0,
            denom: 1024,
            sweep_parts: 1,
            replication: 2,
            retention: 4,
            dedup2_at_cache_full: false,
        },
        gc_every: 0,
        paper_month: false,
    },
    Workload {
        name: "cluster-multistream",
        why: "paper 6.2 streams on 2 servers: the only workload with the undetermined exchange, cross-server PSIL/PSIU, per-server threads and cross-job duplicates the filter cannot catch",
        input: InputSpec::MultiStream {
            clients: 4,
            version_chunks: 32_768,
            dup_fraction: 0.9,
            cross_fraction: 0.3,
            run_len: (64, 256),
            rounds: 8,
        },
        cluster: ClusterSpec {
            servers_log2: 1,
            denom: 1024,
            sweep_parts: 1,
            replication: 2,
            retention: 4,
            dedup2_at_cache_full: false,
        },
        gc_every: 0,
        paper_month: false,
    },
    Workload {
        name: "lifecycle-churn",
        why: "delete/compact/rewrite beside append/read: generations are 2x the filter and overflow the index cache, GC every 4th generation, so layout, reclaim and stored bytes trade off",
        input: InputSpec::MultiStream {
            clients: 4,
            version_chunks: 18_724,
            dup_fraction: 0.9,
            cross_fraction: 0.3,
            run_len: (64, 256),
            rounds: 16,
        },
        cluster: ClusterSpec {
            servers_log2: 0,
            denom: 4096,
            sweep_parts: 2,
            replication: 2,
            retention: 4,
            dedup2_at_cache_full: false,
        },
        gc_every: 4,
        paper_month: false,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The same script at a sixteenth of the size, for the package's tests.
    pub fn tiny(&self) -> Workload {
        let mut w = *self;
        w.cluster.denom *= 16;
        w.input = match w.input {
            InputSpec::Hust {
                clients,
                days,
                denom,
            } => InputSpec::Hust {
                clients,
                days,
                denom: denom * 16,
            },
            InputSpec::FileTree {
                files,
                file_bytes,
                pool_blocks,
                block_bytes,
                generations,
            } => InputSpec::FileTree {
                files: files / 8,
                file_bytes: (file_bytes.0 / 2, file_bytes.1 / 2),
                pool_blocks: pool_blocks / 16,
                block_bytes,
                generations,
            },
            InputSpec::MultiStream {
                clients,
                version_chunks,
                dup_fraction,
                cross_fraction,
                run_len,
                rounds,
            } => InputSpec::MultiStream {
                clients,
                version_chunks: version_chunks / 16,
                dup_fraction,
                cross_fraction,
                run_len: (run_len.0 / 16, run_len.1 / 16),
                rounds,
            },
        };
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_works() {
        for w in &ALL {
            assert_eq!(by_name(w.name), Some(*w));
            assert_eq!(ALL.iter().filter(|o| o.name == w.name).count(), 1);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn retention_is_shorter_than_the_run() {
        // Otherwise nothing expires, GC reclaims nothing and
        // `sim_gc_reclaim_mibps` would be zero.
        for w in &ALL {
            let generations = match w.input {
                InputSpec::Hust { days, .. } => days,
                InputSpec::FileTree { generations, .. } => generations,
                InputSpec::MultiStream { rounds, .. } => rounds,
            };
            assert!((w.cluster.retention as usize) < generations, "{}", w.name);
            assert!((1usize << w.cluster.servers_log2) * w.cluster.sweep_parts <= 2);
        }
    }
}

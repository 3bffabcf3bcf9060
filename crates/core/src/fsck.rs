//! `fsck`: the cluster checks its own metadata against its storage.
//!
//! [`DebarCluster::fsck`] is read-only and uncharged — it ticks no device
//! and moves no clock — so it can run after any call without moving a
//! bench number. It checks every retained recipe, then walks two edges of
//! the durable state, and names the culprit of every discrepancy it finds:
//!
//! 0. **Recipes.** Every piece of a retained run's recipes lies inside its
//!    block, and the recipes count the run's `logical_chunks`
//!    ([`Discrepancy::MalformedRecipe`]).
//! 1. **Runs → index.** Every fingerprint of every retained run's recipe
//!    resolves through its owner index part, or through that server's
//!    pending updates (what the next SIU registers; a pending mapping is
//!    the newer one).
//! 2. **Index → repository.** The container it resolves to exists, with a
//!    clean copy on every node of its replica ring — `R` distinct nodes —
//!    and each copy's metadata section lists the fingerprint. A copy on a
//!    down node is its own kind, [`Discrepancy::UnderReplicated`]: it is
//!    there, but no read reaches it until the node is revived or repaired.

use super::DebarCluster;
use crate::ids::{RunId, ServerId};
use debar_hash::{ContainerId, Fingerprint, FpMap, FpSet};
use std::collections::BTreeMap;

/// One discrepancy [`DebarCluster::fsck`] found, naming its culprit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discrepancy {
    /// A recipe of `run` has a piece outside its block, or its recipes do
    /// not count the run's logical chunks.
    MalformedRecipe {
        /// The run.
        run: RunId,
    },
    /// A fingerprint of `run` resolves neither through its owner
    /// `server`'s index part nor through that server's pending updates.
    Unresolved {
        /// The first retained run (in run order) whose recipe needs it.
        run: RunId,
        /// The fingerprint.
        fp: Fingerprint,
        /// The server owning the index part it routes to.
        server: ServerId,
    },
    /// `fp` resolves to `container`, which the repository does not hold
    /// (never stored, or reclaimed).
    MissingContainer {
        /// The container the index names.
        container: ContainerId,
        /// The first fingerprint (in fingerprint order) resolving to it.
        fp: Fingerprint,
    },
    /// `node`, on the container's replica ring, is down: its copy may be
    /// there, but no read reaches it.
    UnderReplicated {
        /// The container.
        container: ContainerId,
        /// The down ring node.
        node: usize,
    },
    /// `node`, an up node of the container's replica ring, holds no copy.
    MissingCopy {
        /// The container.
        container: ContainerId,
        /// The ring node without a copy.
        node: usize,
    },
    /// The copy on `node` carries damage: it fails its checksum.
    CorruptCopy {
        /// The container.
        container: ContainerId,
        /// The node holding the damaged copy.
        node: usize,
    },
    /// The copy on `node` does not list `fp` in its metadata section,
    /// though the index resolves `fp` to this container.
    ChunkNotListed {
        /// The container.
        container: ContainerId,
        /// The node whose copy lacks it.
        node: usize,
        /// The fingerprint.
        fp: Fingerprint,
    },
}

/// What [`DebarCluster::fsck`] checked and found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FsckReport {
    /// Distinct fingerprints the retained runs reference.
    pub fingerprints: u64,
    /// Distinct containers they resolve to.
    pub containers: u64,
    /// Every discrepancy: check 0's in run order, check 1's in fingerprint
    /// order, then check 2's in container order, each container's by ring
    /// node.
    pub discrepancies: Vec<Discrepancy>,
}

impl FsckReport {
    /// Whether nothing was found.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }
}

impl DebarCluster {
    /// Check the durable state against itself (see the module docs):
    /// every retained recipe is well formed, every retained run's
    /// fingerprints resolve, and every container they resolve to has `R`
    /// clean copies on its ring listing them.
    /// Read-only and uncharged: no device op, no clock move.
    pub fn fsck(&self) -> FsckReport {
        let mut report = FsckReport::default();
        // Each fingerprint with the first retained run that needs it.
        let mut runs: Vec<_> = self.director.metadata.retained_runs().collect();
        runs.sort_by_key(|rec| rec.run);
        // Check 0: recipes.
        for rec in &runs {
            let chunks: usize = rec.files.iter().map(|f| f.recipe.len()).sum();
            let sound = rec.files.iter().all(|f| f.recipe.is_sound());
            if chunks as u64 != rec.logical_chunks || !sound {
                let run = rec.run;
                report
                    .discrepancies
                    .push(Discrepancy::MalformedRecipe { run });
            }
        }
        let mut needed: BTreeMap<Fingerprint, RunId> = BTreeMap::new();
        for rec in runs {
            for fp in rec.files.iter().flat_map(|f| f.recipe.iter()) {
                needed.entry(*fp).or_insert(rec.run);
            }
        }
        report.fingerprints = needed.len() as u64;
        // Check 1: runs → index. The last pending mapping of a fingerprint
        // is the one the next SIU leaves.
        let pending: Vec<FpMap<ContainerId>> = (self.servers.iter())
            .map(|srv| srv.pending_updates().iter().copied().collect())
            .collect();
        let mut held: BTreeMap<ContainerId, Vec<Fingerprint>> = BTreeMap::new();
        for (fp, run) in needed {
            let owner = fp.server_number(self.cfg.w_bits) as usize;
            let resolved = (pending[owner].get(&fp).copied())
                .or_else(|| self.servers[owner].index().lookup_uncharged(&fp));
            match resolved {
                Some(cid) => held.entry(cid).or_default().push(fp),
                None => report.discrepancies.push(Discrepancy::Unresolved {
                    run,
                    fp,
                    server: owner as ServerId,
                }),
            }
        }
        report.containers = held.len() as u64;
        // Check 2: index → repository.
        for (container, fps) in held {
            self.check_copies(container, &fps, &mut report.discrepancies);
        }
        report
    }

    /// Check 2 for one container and the fingerprints resolving to it.
    fn check_copies(
        &self,
        container: ContainerId,
        fps: &[Fingerprint],
        out: &mut Vec<Discrepancy>,
    ) {
        let repo = &self.repo;
        if !repo.contains(container) {
            let fp = fps[0];
            out.push(Discrepancy::MissingContainer { container, fp });
            return;
        }
        for node in repo.replica_nodes(container) {
            if repo.is_node_down(node) == Ok(true) {
                out.push(Discrepancy::UnderReplicated { container, node });
                continue;
            }
            let Some((copy, damage)) = repo.nodes()[node].copy(container) else {
                out.push(Discrepancy::MissingCopy { container, node });
                continue;
            };
            if damage.is_some() {
                out.push(Discrepancy::CorruptCopy { container, node });
            }
            let listed: FpSet = copy.fingerprints().collect();
            out.extend((fps.iter().filter(|fp| !listed.contains(fp))).map(|&fp| {
                Discrepancy::ChunkNotListed {
                    container,
                    node,
                    fp,
                }
            }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClientId, Dataset, DebarConfig};
    use debar_workload::drift::records;

    #[test]
    fn a_malformed_recipe_is_named_by_its_run() {
        let mut c = DebarCluster::new(DebarConfig::tiny_test(0));
        let job = c.define_job("j", ClientId(0));
        let runs: Vec<RunId> = (0..3)
            .map(|v| {
                let ds = Dataset::from_records("s", records(v * 100..v * 100 + 500));
                c.backup(job, &ds).expect("backup").run
            })
            .collect();
        c.run_dedup2().expect("dedup2");
        c.force_siu().expect("siu");
        assert!(c.fsck().is_clean());
        let meta = &mut c.director.metadata;
        // A piece past its block's end, and a recipe a chunk short.
        let rec = meta.run_mut(runs[2]).expect("retained");
        rec.files[0].recipe.overrun();
        meta.run_mut(runs[0]).expect("retained").logical_chunks += 1;
        let found = c.fsck().discrepancies;
        let malformed = |run| Discrepancy::MalformedRecipe { run };
        assert_eq!(found[..2], [malformed(runs[0]), malformed(runs[2])]);
    }
}

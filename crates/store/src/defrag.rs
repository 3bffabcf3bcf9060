//! Defragmentation (paper §6.3, implemented as the extension the discussion
//! describes).
//!
//! "De-duplication storage creates heavy chunk sharing among different
//! files and as a side effect, it can make file chunks spread among
//! multiple storage nodes of the chunk repository thus gradually reducing
//! read performance. To solve this problem, DEBAR employs a defragmentation
//! mechanism that automatically aggregates file chunks to one or few
//! storage nodes."
//!
//! [`defragment`] migrates the containers referenced by one job/file set
//! onto the smallest number of nodes, preferring the node that already
//! holds the most of them (minimum data movement).

use crate::error::StoreError;
use crate::repository::ChunkRepository;
use debar_hash::ContainerId;
use debar_simio::{Secs, Timed};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Result of a defragmentation pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct DefragReport {
    /// Containers examined.
    pub examined: u64,
    /// Containers migrated.
    pub migrated: u64,
    /// Distinct nodes the set spanned before.
    pub nodes_before: usize,
    /// Distinct nodes after (1 unless the target overflowed policy limits).
    pub nodes_after: usize,
}

/// Aggregate the given containers onto the node that already holds the
/// plurality of them. Returns the report and the total migration I/O cost.
///
/// A container id that does not exist in the repository is a typed
/// [`StoreError::MissingContainer`] — having migrated nothing — rather
/// than being silently skipped: a defrag plan referencing a reclaimed or
/// never-stored container is stale metadata the caller must see.
pub fn defragment(
    repo: &mut ChunkRepository,
    cids: &[ContainerId],
) -> Result<Timed<DefragReport>, StoreError> {
    let mut per_node: HashMap<usize, u64> = HashMap::new();
    let mut located = Vec::with_capacity(cids.len());
    for &cid in cids {
        let node = repo
            .locate(cid)
            .ok_or(StoreError::MissingContainer { container: cid })?;
        *per_node.entry(node).or_default() += 1;
        located.push((cid, node));
    }
    let nodes_before = per_node.len();
    // Deterministic plurality choice: most containers, ties to lowest node.
    let target = per_node
        .iter()
        .map(|(&n, &c)| (std::cmp::Reverse(c), n))
        .min()
        .map(|(_, n)| n)
        .unwrap_or(0);

    let mut cost: Secs = 0.0;
    let mut migrated = 0u64;
    for (cid, node) in &located {
        if *node != target {
            cost += repo.migrate(*cid, target)?;
            migrated += 1;
        }
    }
    let report = DefragReport {
        examined: located.len() as u64,
        migrated,
        nodes_before,
        nodes_after: if located.is_empty() { 0 } else { 1 },
    };
    Ok(Timed::new(report, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::container::{Container, Payload};
    use debar_hash::Fingerprint;
    use debar_simio::models::paper;

    fn container_with(range: std::ops::Range<u64>) -> Container {
        let mut c = Container::new(1 << 20);
        for i in range {
            c.try_append(Fingerprint::of_counter(i), Payload::Zero(100));
        }
        c
    }

    #[test]
    fn aggregates_spread_containers_to_plurality_node() {
        let mut repo = ChunkRepository::new(4, paper::repo_disk(), 1 << 20);
        // Store 8 containers: ids 0..8 land round-robin on nodes 0..3.
        let ids: Vec<ContainerId> = (0..8u64)
            .map(|i| repo.store(container_with(i * 2..i * 2 + 2)).value.unwrap())
            .collect();
        let t = defragment(&mut repo, &ids).expect("all containers exist");
        assert_eq!(t.value.examined, 8);
        assert_eq!(t.value.nodes_before, 4);
        assert_eq!(t.value.nodes_after, 1);
        assert_eq!(
            t.value.migrated, 6,
            "two containers already on the plurality node"
        );
        assert!(t.cost > 0.0);
        // Everything is findable afterwards on a single node.
        let homes: std::collections::HashSet<usize> =
            ids.iter().map(|&c| repo.locate(c).unwrap()).collect();
        assert_eq!(homes.len(), 1);
        for &cid in &ids {
            assert!(repo.read(cid).value.unwrap().is_some());
        }
    }

    #[test]
    fn empty_set_is_noop() {
        let mut repo = ChunkRepository::new(2, paper::repo_disk(), 1 << 20);
        let t = defragment(&mut repo, &[]).expect("empty set is valid");
        assert_eq!(t.value.examined, 0);
        assert_eq!(t.cost, 0.0);
    }

    #[test]
    fn missing_container_is_typed_and_moves_nothing() {
        let mut repo = ChunkRepository::new(4, paper::repo_disk(), 1 << 20);
        let ids: Vec<ContainerId> = (0..4u64)
            .map(|i| repo.store(container_with(i * 2..i * 2 + 2)).value.unwrap())
            .collect();
        let homes: Vec<usize> = ids.iter().map(|&c| repo.locate(c).unwrap()).collect();
        let ghost = ContainerId::new(42);
        let mut set = ids.clone();
        set.push(ghost);
        let err = defragment(&mut repo, &set).expect_err("stale plan must be typed");
        assert_eq!(err, StoreError::MissingContainer { container: ghost });
        // The refused plan changed nothing: every container is still on
        // its original node.
        let after: Vec<usize> = ids.iter().map(|&c| repo.locate(c).unwrap()).collect();
        assert_eq!(homes, after, "typed refusal must not have migrated");
    }

    #[test]
    fn already_aggregated_is_noop() {
        let mut repo = ChunkRepository::new(4, paper::repo_disk(), 1 << 20);
        let a = repo.store(container_with(0..2)).value.unwrap(); // node 0
        defragment(&mut repo, &[a]).expect("known container");
        let t = defragment(&mut repo, &[a]).expect("known container");
        assert_eq!(t.value.migrated, 0);
        assert_eq!(t.cost, 0.0);
    }
}

//! Real-byte synthetic file trees with version mutations.
//!
//! Used by end-to-end tests and examples that exercise the *full* pipeline:
//! CDC chunking → SHA-1 fingerprinting → preliminary filtering → container
//! storage → restore → byte-exact verification. File contents are assembled
//! from a shared pool of seeded byte blocks, which creates realistic
//! cross-file duplication; version mutations edit, insert, append, delete
//! and create files — insertions in particular exercise CDC's boundary
//! resynchronization.

use bytes::Bytes;
use debar_hash::SplitMix64;

/// A file in a synthetic dataset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileSpec {
    /// Path relative to the dataset root.
    pub path: String,
    /// File contents.
    pub data: Bytes,
}

/// Parameters of the tree generator.
#[derive(Debug, Clone, Copy)]
pub struct FileTreeConfig {
    /// Number of files.
    pub files: usize,
    /// File size bounds in bytes.
    pub file_size: (usize, usize),
    /// Size of the shared block pool the contents are assembled from; the
    /// smaller the pool, the more cross-file duplication.
    pub pool_blocks: usize,
    /// Block size in bytes.
    pub block_bytes: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for FileTreeConfig {
    fn default() -> Self {
        FileTreeConfig {
            files: 24,
            file_size: (4 * 1024, 96 * 1024),
            pool_blocks: 64,
            block_bytes: 4096,
            seed: 0xF11E_5EED,
        }
    }
}

/// Mutation intensity between versions.
#[derive(Debug, Clone, Copy)]
pub struct MutationConfig {
    /// Fraction of files receiving a byte-level edit.
    pub edit_fraction: f64,
    /// Fraction of files receiving a small insertion (shifts content).
    pub insert_fraction: f64,
    /// Files deleted per version.
    pub deletes: usize,
    /// Files created per version.
    pub creates: usize,
}

impl Default for MutationConfig {
    fn default() -> Self {
        MutationConfig {
            edit_fraction: 0.25,
            insert_fraction: 0.15,
            deletes: 1,
            creates: 2,
        }
    }
}

/// Generator of file-tree versions.
#[derive(Debug, Clone)]
pub struct FileTreeGen {
    cfg: FileTreeConfig,
    pool: Vec<Bytes>,
    rng: SplitMix64,
    next_file_id: usize,
}

impl FileTreeGen {
    /// Create a generator with a seeded block pool.
    pub fn new(cfg: FileTreeConfig) -> Self {
        assert!(cfg.files > 0 && cfg.pool_blocks > 0 && cfg.block_bytes > 0);
        assert!(cfg.file_size.0 >= 1 && cfg.file_size.0 <= cfg.file_size.1);
        let mut rng = SplitMix64::new(cfg.seed);
        let pool = (0..cfg.pool_blocks)
            .map(|_| {
                let mut block = vec![0u8; cfg.block_bytes];
                for b in block.iter_mut() {
                    *b = rng.next_u64() as u8;
                }
                Bytes::from(block)
            })
            .collect();
        FileTreeGen {
            cfg,
            pool,
            rng,
            next_file_id: 0,
        }
    }

    fn make_file(&mut self) -> FileSpec {
        let id = self.next_file_id;
        self.next_file_id += 1;
        let size = self
            .rng
            .range(self.cfg.file_size.0 as u64, self.cfg.file_size.1 as u64 + 1)
            as usize;
        let mut data = Vec::with_capacity(size);
        while data.len() < size {
            let block = self.rng.below(self.pool.len() as u64) as usize;
            let take = (size - data.len()).min(self.pool[block].len());
            data.extend_from_slice(&self.pool[block][..take]);
        }
        FileSpec {
            path: format!("dir{:02}/file{:05}.dat", id % 8, id),
            data: Bytes::from(data),
        }
    }

    /// Generate the initial version of the tree.
    pub fn initial(&mut self) -> Vec<FileSpec> {
        (0..self.cfg.files).map(|_| self.make_file()).collect()
    }

    /// Derive the next version from `current` by applying mutations.
    pub fn mutate(&mut self, current: &[FileSpec], m: MutationConfig) -> Vec<FileSpec> {
        let mut next: Vec<FileSpec> = Vec::with_capacity(current.len() + m.creates);
        for f in current {
            let roll = self.rng.next_f64();
            if roll < m.edit_fraction {
                let mut data = f.data.to_vec();
                if !data.is_empty() {
                    // Overwrite a small random region.
                    let at = self.rng.below(data.len() as u64) as usize;
                    let span = (self.rng.range(8, 64) as usize).min(data.len() - at);
                    for b in &mut data[at..at + span] {
                        *b ^= 0x5a;
                    }
                }
                next.push(FileSpec {
                    path: f.path.clone(),
                    data: Bytes::from(data),
                });
            } else if roll < m.edit_fraction + m.insert_fraction {
                // Insert a small run, shifting everything after it — the
                // CDC resynchronization scenario.
                let mut data = f.data.to_vec();
                let at = self.rng.below(data.len() as u64 + 1) as usize;
                let insert: Vec<u8> = (0..self.rng.range(16, 128))
                    .map(|_| self.rng.next_u64() as u8)
                    .collect();
                data.splice(at..at, insert);
                next.push(FileSpec {
                    path: f.path.clone(),
                    data: Bytes::from(data),
                });
            } else {
                next.push(f.clone());
            }
        }
        for _ in 0..m.deletes.min(next.len().saturating_sub(1)) {
            let at = self.rng.below(next.len() as u64) as usize;
            next.remove(at);
        }
        for _ in 0..m.creates {
            let f = self.make_file();
            next.push(f);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = FileTreeGen::new(FileTreeConfig::default());
        let mut b = FileTreeGen::new(FileTreeConfig::default());
        let va = a.initial();
        let vb = b.initial();
        assert_eq!(va, vb);
        assert_eq!(
            a.mutate(&va, MutationConfig::default()),
            b.mutate(&vb, MutationConfig::default())
        );
    }

    #[test]
    fn initial_tree_shape() {
        let mut g = FileTreeGen::new(FileTreeConfig::default());
        let v = g.initial();
        assert_eq!(v.len(), 24);
        for f in &v {
            assert!(
                (4 * 1024..=96 * 1024).contains(&f.data.len()),
                "size {}",
                f.data.len()
            );
            assert!(f.path.contains('/'));
        }
        // Paths unique.
        let paths: std::collections::HashSet<_> = v.iter().map(|f| &f.path).collect();
        assert_eq!(paths.len(), v.len());
    }

    #[test]
    fn mutation_changes_some_keeps_most() {
        let mut g = FileTreeGen::new(FileTreeConfig::default());
        let v0 = g.initial();
        let v1 = g.mutate(&v0, MutationConfig::default());
        let unchanged = v1
            .iter()
            .filter(|f| v0.iter().any(|o| o.path == f.path && o.data == f.data))
            .count();
        assert!(
            unchanged >= v0.len() / 3,
            "too much churn: {unchanged} unchanged"
        );
        assert!(unchanged < v1.len(), "nothing changed");
        assert_eq!(v1.len(), v0.len() - 1 + 2); // deletes=1, creates=2
    }

    #[test]
    fn cross_file_duplication_exists() {
        // Shared block pool must create byte-identical 4 KB regions across
        // different files.
        let mut g = FileTreeGen::new(FileTreeConfig {
            files: 8,
            pool_blocks: 4,
            ..FileTreeConfig::default()
        });
        let v = g.initial();
        let mut block_hits = std::collections::HashMap::new();
        for f in &v {
            for chunk in f.data.chunks(4096) {
                *block_hits.entry(chunk.to_vec()).or_insert(0u32) += 1;
            }
        }
        assert!(
            block_hits.values().any(|&c| c >= 2),
            "expected duplicated blocks across files"
        );
    }
}

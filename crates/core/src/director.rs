//! The director (paper §3.1): job scheduling, load balancing, metadata
//! management and dedup-2 initiation.

use crate::config::DebarConfig;
use crate::ids::{JobId, ServerId};
use crate::job::JobSpec;
use crate::metadata::{MetadataManager, RunRecord};

/// What one dedup-2 round does about the sequential index update (§5.4).
/// A pure function of the round number and `siu_interval`
/// ([`Director::peek_dedup2`]), so a redone round plans as its first
/// attempt did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiuPlan {
    /// No SIU: the round's updates wait in the unregistered fingerprint
    /// file, the checking file suppressing their re-store.
    Defer,
    /// The synchronous schedule (`siu_interval = 1`, the paper's degenerate
    /// case): a PSIU phase of its own — read + write sweep of every index
    /// part — after chunk storing.
    AfterStore,
    /// The SIU that fell due at the end of the previous round rides on this
    /// round's PSIL: each part's first sweep merges the pending updates
    /// and probes its sub-batch against the merged buckets in one read
    /// pass, then writes the part back (a part with nothing to sweep runs
    /// the update sweep alone). The PSIL commit registers them.
    Ride,
}

/// The control centre of the deployment.
#[derive(Debug, Clone)]
pub struct Director {
    /// Job and run metadata.
    pub metadata: MetadataManager,
    /// Trigger dedup-2 when any server's undetermined fingerprints reach
    /// this count (0 = manual only). The paper sizes batches to "fully
    /// utilize the index cache" (§5.2).
    dedup2_trigger_fps: usize,
    /// An SIU falls due once every this many dedup-2 rounds (§5.4
    /// asynchronous SIU; see [`SiuPlan`]).
    siu_interval: u32,
    /// Bytes of the runs recorded on each server since its last dedup-2
    /// (load balancing state).
    assigned_bytes: Vec<u64>,
    dedup2_rounds: u32,
}

impl Director {
    /// Create a director for a deployment.
    pub fn new(cfg: &DebarConfig) -> Self {
        Director {
            metadata: MetadataManager::new(),
            dedup2_trigger_fps: cfg.dedup2_trigger_fps,
            siu_interval: cfg.siu_interval,
            assigned_bytes: vec![0; cfg.servers()],
            dedup2_rounds: 0,
        }
    }

    /// Register a job object.
    pub fn define_job(&mut self, spec: JobSpec) -> JobId {
        self.metadata.register_job(spec)
    }

    /// Pick the backup server for a job run: least-loaded by the bytes of
    /// the runs recorded since the last dedup-2, ties to the lowest ID.
    /// Picking charges nothing: a run is charged when it is recorded
    /// (`record_run`, the backup's commit), so a run that aborts leaves the
    /// placement as a clean history has it.
    pub fn assign_server(&self) -> ServerId {
        let (server, _) = (self.assigned_bytes.iter().enumerate())
            .min_by_key(|&(i, &b)| (b, i))
            .expect("at least one server");
        server as ServerId
    }

    /// Record a completed run in the job chain and charge its bytes to the
    /// server that ran it — the commit of a backup.
    pub(crate) fn record_run(&mut self, record: RunRecord) {
        self.assigned_bytes[record.server as usize] += record.logical_bytes.max(1);
        self.metadata.record_run(record);
    }

    /// Whether the automatic dedup-2 trigger fires for the given per-server
    /// undetermined counts.
    pub fn should_run_dedup2(&self, undetermined: &[usize]) -> bool {
        self.dedup2_trigger_fps > 0 && undetermined.iter().any(|&u| u >= self.dedup2_trigger_fps)
    }

    /// Peek the next dedup-2 round without committing it: its number and
    /// its [`SiuPlan`]. An SIU falls due at the end of every
    /// `siu_interval`-th round; at `siu_interval = 1` it runs there
    /// ([`SiuPlan::AfterStore`]), otherwise it rides on the next round's
    /// PSIL ([`SiuPlan::Ride`]) — what it registers is exactly what was
    /// pending when it fell due, since a round queues its own updates only
    /// after its PSIL. The cluster commits the round only when it
    /// *completes* ([`Director::commit_dedup2`]) — an interrupted round is
    /// re-run under the same round number, so the asynchronous-SIU
    /// schedule (and therefore the final index bytes) are identical to an
    /// uninterrupted history.
    pub fn peek_dedup2(&self) -> (u32, SiuPlan) {
        let round = self.dedup2_rounds + 1;
        let interval = self.siu_interval;
        let plan = if interval == 1 {
            SiuPlan::AfterStore
        } else if round > 1 && (round - 1).is_multiple_of(interval) {
            SiuPlan::Ride
        } else {
            SiuPlan::Defer
        };
        (round, plan)
    }

    /// Commit a completed dedup-2 round (see [`Director::peek_dedup2`]).
    pub fn commit_dedup2(&mut self) {
        self.dedup2_rounds += 1;
        for b in &mut self.assigned_bytes {
            *b = 0;
        }
    }

    /// Dedup-2 rounds completed (a round in flight counts once it
    /// commits).
    pub fn dedup2_rounds(&self) -> u32 {
        self.dedup2_rounds
    }

    /// Resize load-balancing state after cluster scaling.
    pub fn resize_servers(&mut self, servers: usize) {
        self.assigned_bytes = vec![0; servers];
    }

    /// Jobs whose daily schedule matches the given wall-clock time — the
    /// director's scheduler tick ("a schedule of 'daily at 1.05am'
    /// specifies that the backup job should be scheduled to run at 1.05am
    /// each day", §3.1). Manual jobs never fire automatically.
    pub fn due_jobs(&self, hour: u8, minute: u8) -> Vec<JobId> {
        self.metadata
            .jobs()
            .iter()
            .filter(|j| match j.spec.schedule {
                crate::job::Schedule::Daily { hour: h, minute: m } => h == hour && m == minute,
                crate::job::Schedule::Manual => false,
            })
            .map(|j| j.id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClientId, RunId};
    use crate::job::Schedule;

    fn cfg(w: u32) -> DebarConfig {
        DebarConfig {
            dedup2_trigger_fps: 100,
            siu_interval: 3,
            ..DebarConfig::tiny_test(w)
        }
    }

    /// Pick a server for a run of `bytes` (of a job of its own) and record
    /// the run there.
    fn run(d: &mut Director, bytes: u64) -> ServerId {
        let job = d.define_job(JobSpec {
            name: "j".into(),
            client: ClientId(0),
            schedule: Schedule::Manual,
        });
        let server = d.assign_server();
        d.record_run(RunRecord {
            run: RunId { job, version: 0 },
            server,
            client: ClientId(0),
            files: Vec::new(),
            logical_bytes: bytes,
            logical_chunks: 0,
            summary_removals: 0,
        });
        server
    }

    #[test]
    fn least_loaded_assignment() {
        let mut d = Director::new(&cfg(2)); // 4 servers
        assert_eq!(run(&mut d, 100), 0);
        assert_eq!(run(&mut d, 10), 1);
        assert_eq!(run(&mut d, 10), 2);
        assert_eq!(run(&mut d, 10), 3);
        // Server 1 has the least bytes now (10 vs 100/10/10 → tie on 1..3
        // broken by the lowest ID).
        let next = run(&mut d, 1000);
        assert_ne!(next, 0, "most-loaded server must not win");
    }

    #[test]
    fn a_pick_charges_nothing_until_the_run_is_recorded() {
        let mut d = Director::new(&cfg(1)); // 2 servers
                                            // A run that aborts after its pick records nothing, so its retry
                                            // routes like a clean run.
        assert_eq!(d.assign_server(), 0);
        assert_eq!(d.assign_server(), 0, "a retry routes like a clean run");
        // A recorded zero-byte run is charged the one-byte floor.
        assert_eq!(run(&mut d, 0), 0);
        assert_eq!(d.assign_server(), 1, "the floor charge counts");
        assert_eq!(run(&mut d, 100), 1);
        assert_eq!(run(&mut d, 50), 0);
        // A completed round starts the balance afresh.
        d.commit_dedup2();
        assert_eq!(d.assign_server(), 0);
    }

    #[test]
    fn dedup2_trigger_threshold() {
        let d = Director::new(&cfg(1));
        assert!(!d.should_run_dedup2(&[99, 0]));
        assert!(d.should_run_dedup2(&[100, 0]));
        // Disabled trigger never fires.
        let d2 = Director::new(&DebarConfig::tiny_test(1));
        assert!(!d2.should_run_dedup2(&[1_000_000]));
    }

    #[test]
    fn siu_interval_schedule() {
        use SiuPlan::{AfterStore, Defer, Ride};
        let plans = |interval: u32| {
            let mut d = Director::new(&DebarConfig {
                siu_interval: interval,
                ..cfg(0)
            });
            let mut plans = Vec::new();
            for _ in 0..7 {
                let (_, plan) = d.peek_dedup2();
                // An uncommitted (interrupted) round does not advance the
                // schedule: peeking is idempotent.
                assert_eq!(d.peek_dedup2(), d.peek_dedup2());
                d.commit_dedup2();
                plans.push(plan);
            }
            plans
        };
        // Rounds 3 and 6 fall due; their SIUs ride on rounds 4 and 7.
        let every_third = [Defer, Defer, Defer, Ride, Defer, Defer, Ride];
        assert_eq!(plans(3), every_third);
        assert_eq!(plans(1), [AfterStore; 7], "the synchronous schedule");
    }

    #[test]
    fn define_job_delegates_to_metadata() {
        let mut d = Director::new(&cfg(0));
        let id = d.define_job(JobSpec {
            name: "j".into(),
            client: ClientId(0),
            schedule: Schedule::Manual,
        });
        assert_eq!(d.metadata.job(id).expect("registered").spec.name, "j");
    }
}

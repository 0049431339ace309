//! Distributed campaign execution: the `hetsched work` worker loop.
//!
//! A [`Worker`] wraps a [`Campaign`] and drives the same cell machinery
//! (watchdog, retries, quarantine — see [`Campaign::run`]) one cell at a
//! time, coordinating with other workers **entirely through the
//! manifest**: there is no network protocol, no coordinator process, and
//! no shared memory — just interleaved cell and [`LeaseRecord`] lines in
//! one append-only log (see [`crate::manifest`]).
//!
//! # The lease protocol
//!
//! For each cell a worker wants to run it executes a read-decide-append
//! critical section under the store lock:
//!
//! 1. **tail + replay** the manifest; pick the first cell in canonical
//!    grid order that has no surviving result and no live lease.
//! 2. **acquire**: append `Acquire` at `epoch = max_epoch(cell) + 1` with
//!    a wall-clock deadline `now + ttl`. Claiming over an *expired*
//!    lease (the holder stopped renewing — it is presumed dead) is a
//!    **steal**; the epoch bump is what fences the previous holder.
//! 3. **run** the cell (unchanged [`Campaign`] attempt machinery) while a
//!    renewal thread appends `Renew` every `ttl/3`. A renewal thread
//!    that oversleeps past its own deadline appends `Expire` and stops —
//!    self-fencing, so a paused worker never believes it still holds a
//!    lease another worker has since stolen.
//! 4. **append** the result tagged with `(worker, epoch)`, then
//!    `Release` — but only after re-checking under the lock that the
//!    epoch still admits: if another worker stole the lease while this
//!    one was stalled, the result is discarded *here*, and even a worker
//!    that skips this check (a true zombie) is fenced at merge time by
//!    [`crate::manifest::replay_records`].
//!
//! Because every cell runs on an RNG stream derived purely from its grid
//! coordinates, *which* worker runs a cell never affects its record:
//! the merged [`CampaignOutcome`] is byte-identical to a single-process
//! run of the same spec, no matter how workers raced, crashed, or stole.
//!
//! Fault points (`chaos` feature): `lease.acquire` fires after a cell is
//! chosen but before the Acquire append; `lease.renew` fires in the
//! renewal thread before each Renew append; `worker.cell.append` fires
//! after the admission re-check but before the result append. Each
//! simulates a worker killed at that instant.

use crate::campaign::{Campaign, CampaignOutcome, CellId, CellRecord};
use crate::chaos_hooks;
use crate::config::DatasetId;
use crate::framework::Framework;
use crate::lease::{LeaseAction, LeaseRecord, DEFAULT_SKEW_SLACK_S};
use crate::manifest::{replay_records, LocalManifestStore, ManifestStore, ManifestView};
use crate::telemetry::CampaignObserver;
use crate::{CoreError, Result};
use hetsched_heuristics::SeedKind;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wall-clock seconds since the Unix epoch — the shared clock lease
/// deadlines are written in. Workers on different machines compare these
/// through the skew slack (see [`crate::lease`]).
fn now_s() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs_f64())
        .unwrap_or(0.0)
}

/// What one worker process contributed to a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerOutcome {
    /// The merged campaign outcome as seen when this worker drained the
    /// grid (reports, failures, replays) — identical across workers and
    /// to a single-process run once the campaign completes.
    pub outcome: CampaignOutcome,
    /// Cells this worker executed and whose results survived fencing.
    pub executed: usize,
    /// Leases this worker stole from expired holders.
    pub stolen: usize,
    /// Results this worker computed but discarded because its lease had
    /// been superseded (it was presumed dead and the cell re-ran).
    pub fenced: usize,
}

/// A single worker process in a distributed campaign. See the module
/// docs for the protocol; construct with [`Worker::new`], tune the lease
/// with [`Worker::lease_ttl`] / [`Worker::skew_slack`], then call
/// [`Worker::run`] against the shared manifest path.
pub struct Worker {
    campaign: Campaign,
    id: String,
    ttl: Duration,
    slack_s: f64,
    poll: Duration,
}

impl Worker {
    /// A worker named `id` driving `campaign`'s spec. The id lands in
    /// every record the worker appends; give each process a unique one
    /// (`hetsched work` defaults to `host:pid`).
    pub fn new(campaign: Campaign, id: impl Into<String>) -> Self {
        Worker {
            campaign,
            id: id.into(),
            ttl: Duration::from_secs(30),
            slack_s: DEFAULT_SKEW_SLACK_S,
            poll: Duration::from_millis(50),
        }
    }

    /// Sets the lease time-to-live (default 30s; clamped to ≥ 10ms).
    /// Leases renew every `ttl/3`, so a worker must fall silent for a
    /// full `ttl` (plus slack) before its cell is up for stealing.
    pub fn lease_ttl(mut self, ttl: Duration) -> Self {
        self.ttl = ttl.max(Duration::from_millis(10));
        self
    }

    /// Sets the clock-skew slack added to lease deadlines before another
    /// worker may treat them as expired (default
    /// [`DEFAULT_SKEW_SLACK_S`]).
    pub fn skew_slack(mut self, slack_s: f64) -> Self {
        self.slack_s = slack_s.max(0.0);
        self
    }

    /// How long the worker sleeps between polls while every remaining
    /// cell is validly leased to someone else (default 50ms).
    pub fn poll_interval(mut self, poll: Duration) -> Self {
        self.poll = poll.max(Duration::from_millis(1));
        self
    }

    /// The worker's id.
    pub fn id(&self) -> &str {
        &self.id
    }

    /// Runs the worker loop until the grid is drained (every cell has a
    /// surviving record or is terminally quarantined) or the campaign's
    /// cancel token fires. Returns this worker's contribution plus the
    /// merged outcome.
    ///
    /// # Errors
    ///
    /// Spec validation, framework construction, manifest I/O, a manifest
    /// owned by a different spec, or an unbreakable store lock.
    pub fn run(&self, manifest: &Path) -> Result<WorkerOutcome> {
        let spec = self.campaign.spec();
        spec.validate()?;
        let cells = spec.cells();
        let fingerprint = spec.fingerprint();
        let store = Arc::new(LocalManifestStore::open(manifest, &fingerprint)?);

        let mut frameworks: HashMap<DatasetId, Framework> = HashMap::new();
        for &dataset in &spec.datasets {
            let mut config = spec.base.clone();
            config.dataset = dataset;
            frameworks.insert(dataset, Framework::new(&config)?);
        }
        let streams: HashMap<SeedKind, u64> = spec
            .base
            .seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u64))
            .collect();

        let observer = Arc::clone(self.campaign.observer());
        let observing = observer.enabled();
        let cancel = self.campaign.cancel_token();
        tracing::info!(
            "worker {}: joining campaign {fingerprint} ({} cells, ttl {:?})",
            self.id,
            cells.len(),
            self.ttl
        );

        let mut executed = 0usize;
        let mut executed_cells: Vec<CellId> = Vec::new();
        let mut stolen = 0usize;
        let mut fenced = 0usize;
        loop {
            if cancel.is_cancelled() {
                break;
            }
            // Read-decide-acquire under the store lock.
            let claim = {
                let _guard = store.lock()?;
                let view = self.replay(&store, &fingerprint)?;
                let known = self.known_cells(&view);
                match self.pick_cell(&cells, &known, &view) {
                    Pick::Done => break,
                    Pick::Wait => None,
                    Pick::Claim { cell, steal } => {
                        chaos_hooks::raise("lease.acquire", &cell);
                        let epoch = view.leases.next_epoch(&cell);
                        let deadline = now_s() + self.ttl.as_secs_f64();
                        let acquire = LeaseRecord::new(
                            cell,
                            self.id.clone(),
                            epoch,
                            LeaseAction::Acquire,
                            deadline,
                        );
                        store
                            .append_lease(&acquire)
                            .map_err(|e| CoreError::Io(format!("append lease acquire: {e}")))?;
                        Some((cell, epoch, deadline, steal))
                    }
                }
            };
            let Some((cell, epoch, deadline, steal)) = claim else {
                // Everything left is validly leased to someone else; wait
                // for results to land or leases to lapse.
                std::thread::sleep(self.poll);
                continue;
            };
            if steal {
                stolen += 1;
            }
            if observing {
                observer.on_lease_acquired(&cell, &self.id, steal);
            }
            tracing::debug!(
                "worker {}: leased cell {cell} at epoch {epoch}{}",
                self.id,
                if steal { " (stolen)" } else { "" }
            );

            let renewal = RenewalThread::spawn(
                Arc::clone(&store),
                Arc::clone(&observer),
                cell,
                self.id.clone(),
                epoch,
                deadline,
                self.ttl,
            );
            let mut record =
                self.campaign
                    .execute_cell(&frameworks[&cell.dataset], cell, streams[&cell.seed]);
            record.worker = Some(self.id.clone());
            record.epoch = Some(epoch);
            renewal.stop();

            // Commit under the lock, re-checking admission: a worker that
            // stalled long enough to be presumed dead must not clobber
            // its successor's claim.
            let _guard = store.lock()?;
            let view = self.replay(&store, &fingerprint)?;
            if view.leases.admits(&cell, Some(epoch)) {
                chaos_hooks::raise("worker.cell.append", &cell);
                let release =
                    LeaseRecord::new(cell, self.id.clone(), epoch, LeaseAction::Release, now_s());
                store
                    .append_cell(&record)
                    .and_then(|()| store.append_lease(&release))
                    .map_err(|e| CoreError::Io(format!("append cell result: {e}")))?;
                executed += 1;
                executed_cells.push(cell);
            } else {
                fenced += 1;
                if observing {
                    observer.on_lease_fenced(&cell, &self.id);
                }
                tracing::warn!(
                    "worker {}: lease for cell {cell} superseded (epoch {epoch} < {}); \
                     discarding result",
                    self.id,
                    view.leases.max_epoch(&cell)
                );
            }
        }

        // Assemble the merged outcome from the final manifest state,
        // exactly as a resuming single-process campaign would.
        let view = self.replay(&store, &fingerprint)?;
        let known = self.known_cells(&view);
        let replayed = cells
            .iter()
            .filter(|c| known.contains_key(c) && !executed_cells.contains(c))
            .count();
        let skipped: Vec<CellId> = cells
            .iter()
            .copied()
            .filter(|c| !known.contains_key(c))
            .collect();
        let outcome = self
            .campaign
            .assemble(&cells, known, skipped, executed, replayed);
        tracing::info!(
            "worker {}: done — {executed} executed, {stolen} stolen, {fenced} fenced",
            self.id
        );
        Ok(WorkerOutcome {
            outcome,
            executed,
            stolen,
            fenced,
        })
    }

    /// Tails and merges the manifest, checking ownership.
    fn replay(&self, store: &LocalManifestStore, fingerprint: &str) -> Result<ManifestView> {
        match store.tail()? {
            None => Ok(ManifestView::default()),
            Some((owner, records)) => {
                if owner != fingerprint {
                    return Err(CoreError::Manifest(format!(
                        "manifest belongs to campaign {owner} but this campaign is \
                         {fingerprint}; refusing to mix cells"
                    )));
                }
                Ok(replay_records(&records))
            }
        }
    }

    /// Last-record-wins cell map, honouring the campaign's quarantine
    /// policy (mirrors [`Campaign::run`]'s replay step).
    fn known_cells(&self, view: &ManifestView) -> HashMap<CellId, CellRecord> {
        let mut known: HashMap<CellId, CellRecord> = HashMap::new();
        for record in &view.cells {
            known.insert(record.cell, record.clone());
        }
        known.retain(|_, r| r.run.is_some() || !self.campaign.requeues_quarantined());
        known
    }

    /// Chooses the next cell: the first (canonical grid order) with no
    /// surviving record and no live lease.
    fn pick_cell(
        &self,
        cells: &[CellId],
        known: &HashMap<CellId, CellRecord>,
        view: &ManifestView,
    ) -> Pick {
        let now = now_s();
        let mut waiting = false;
        for &cell in cells {
            if known.contains_key(&cell) {
                continue;
            }
            match view.leases.holder(&cell) {
                Some(holder) if now < holder.deadline_s + self.slack_s => waiting = true,
                Some(_) => return Pick::Claim { cell, steal: true },
                None => return Pick::Claim { cell, steal: false },
            }
        }
        if waiting {
            Pick::Wait
        } else {
            Pick::Done
        }
    }
}

enum Pick {
    /// Every cell is recorded (or terminally quarantined): stop.
    Done,
    /// Unrecorded cells remain but all are validly leased: poll again.
    Wait,
    /// Claim this cell (stealing an expired lease or taking a free one).
    Claim { cell: CellId, steal: bool },
}

/// The heartbeat keeping a running cell's lease alive: appends `Renew`
/// every `ttl/3`, self-fences with `Expire` if it ever wakes past its
/// own deadline, and stops when the cell finishes.
struct RenewalThread {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl RenewalThread {
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        store: Arc<LocalManifestStore>,
        observer: Arc<dyn CampaignObserver>,
        cell: CellId,
        worker: String,
        epoch: u64,
        deadline: f64,
        ttl: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let deadline_bits = Arc::new(AtomicU64::new(deadline.to_bits()));
        let interval = (ttl / 3).max(Duration::from_millis(5));
        let handle = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("hetsched-renew-{cell}"))
                .spawn(move || {
                    let observing = observer.enabled();
                    loop {
                        // Sleep in small steps so stop() returns promptly
                        // even with long TTLs.
                        let mut slept = Duration::ZERO;
                        while slept < interval {
                            if stop.load(Ordering::Relaxed) {
                                return;
                            }
                            let step = Duration::from_millis(5).min(interval - slept);
                            std::thread::sleep(step);
                            slept += step;
                        }
                        let now = now_s();
                        let current = f64::from_bits(deadline_bits.load(Ordering::Relaxed));
                        if now >= current {
                            // Missed the renewal window (suspended, paged
                            // out…): the lease may already be stolen.
                            // Self-fence rather than renew a claim we can
                            // no longer trust.
                            let expire = LeaseRecord::new(
                                cell,
                                worker.clone(),
                                epoch,
                                LeaseAction::Expire,
                                now,
                            );
                            if let Err(e) = store.append_lease(&expire) {
                                tracing::warn!("lease expire append failed for {cell}: {e}");
                            }
                            if observing {
                                observer.on_lease_expired(&cell, &worker);
                            }
                            return;
                        }
                        chaos_hooks::raise("lease.renew", &cell);
                        let renewed = now + 3.0 * interval.as_secs_f64();
                        let renew = LeaseRecord::new(
                            cell,
                            worker.clone(),
                            epoch,
                            LeaseAction::Renew,
                            renewed,
                        );
                        match store.append_lease(&renew) {
                            Ok(()) => {
                                deadline_bits.store(renewed.to_bits(), Ordering::Relaxed);
                                if observing {
                                    observer.on_lease_renewed(&cell, &worker);
                                }
                            }
                            Err(e) => {
                                tracing::warn!("lease renew append failed for {cell}: {e}");
                            }
                        }
                    }
                })
                .ok()
        };
        RenewalThread { stop, handle }
    }

    /// Signals the thread and waits for it (a chaos-panicked thread just
    /// reports as finished).
    fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for RenewalThread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::CampaignSpec;
    use crate::config::ExperimentConfig;
    use std::path::PathBuf;

    fn tiny_spec() -> CampaignSpec {
        let mut base = ExperimentConfig::dataset1();
        base.tasks = 25;
        base.population = 10;
        base.snapshots = vec![2, 4];
        base.seeds = vec![SeedKind::MinEnergy, SeedKind::Random];
        CampaignSpec::single(&base)
    }

    fn temp_manifest(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "hetsched-worker-{tag}-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn one_worker_matches_the_single_process_run_bit_for_bit() {
        let spec = tiny_spec();
        let solo = Campaign::new(spec.clone()).run(None).unwrap();

        let path = temp_manifest("solo");
        let _ = std::fs::remove_file(&path);
        let outcome = Worker::new(Campaign::new(spec), "w1")
            .lease_ttl(Duration::from_secs(5))
            .run(&path)
            .unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.stolen, 0);
        assert_eq!(outcome.fenced, 0);
        assert_eq!(outcome.outcome.reports, solo.reports);
        assert!(outcome.outcome.is_complete());
    }

    #[test]
    fn second_worker_replays_what_the_first_ran() {
        let spec = tiny_spec();
        let path = temp_manifest("handoff");
        let _ = std::fs::remove_file(&path);
        let first = Worker::new(Campaign::new(spec.clone()), "w1")
            .run(&path)
            .unwrap();
        let second = Worker::new(Campaign::new(spec), "w2").run(&path).unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(first.executed, 2);
        assert_eq!(second.executed, 0);
        assert_eq!(second.outcome.replayed, 2);
        assert_eq!(second.outcome.reports, first.outcome.reports);
    }

    #[test]
    fn expired_leases_are_stolen_and_the_result_still_matches() {
        let spec = tiny_spec();
        let solo = Campaign::new(spec.clone()).run(None).unwrap();
        let cells = spec.cells();
        let fingerprint = spec.fingerprint();

        // A dead worker left an expired claim on the first cell.
        let path = temp_manifest("steal");
        let _ = std::fs::remove_file(&path);
        let store = LocalManifestStore::open(&path, &fingerprint).unwrap();
        store
            .append_lease(&LeaseRecord::new(
                cells[0],
                "dead",
                1,
                LeaseAction::Acquire,
                now_s() - 60.0,
            ))
            .unwrap();
        drop(store);

        let outcome = Worker::new(Campaign::new(spec), "w2")
            .lease_ttl(Duration::from_secs(5))
            .run(&path)
            .unwrap();
        let _ = std::fs::remove_file(&path);

        assert_eq!(outcome.stolen, 1, "the expired lease is stolen");
        assert_eq!(outcome.executed, 2);
        assert_eq!(outcome.outcome.reports, solo.reports);
    }

    #[test]
    fn zombie_result_is_fenced_after_a_steal() {
        let spec = tiny_spec();
        let cells = spec.cells();
        let fingerprint = spec.fingerprint();

        let path = temp_manifest("zombie");
        let _ = std::fs::remove_file(&path);
        {
            // The takeover worker re-ran the cell at epoch 2...
            let store = LocalManifestStore::open(&path, &fingerprint).unwrap();
            store
                .append_lease(&LeaseRecord::new(
                    cells[0],
                    "w2",
                    2,
                    LeaseAction::Acquire,
                    now_s() + 60.0,
                ))
                .unwrap();
            // ...and the presumed-dead w1 then wakes up and appends its
            // stale epoch-1 result straight to the log (no lock, no
            // re-check — a true zombie).
            let mut zombie = CellRecord {
                cell: cells[0],
                run: None,
                error: Some("zombie".to_string()),
                outcome: crate::campaign::CellOutcome::Poisoned,
                attempts: 1,
                duration_s: 0.1,
                worker: Some("w1".to_string()),
                epoch: Some(1),
            };
            store.append_cell(&zombie).unwrap();
            zombie.worker = Some("w2".to_string());
            zombie.epoch = Some(2);
            store.append_cell(&zombie).unwrap();
        }

        let (_, records) = crate::manifest::load_manifest_records(&path)
            .unwrap()
            .unwrap();
        let _ = std::fs::remove_file(&path);
        let view = replay_records(&records);
        assert_eq!(view.cells.len(), 1, "only the takeover's record survives");
        assert_eq!(view.cells[0].worker.as_deref(), Some("w2"));
        assert_eq!(view.fenced.get("w1"), Some(&1));
    }
}

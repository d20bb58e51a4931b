//! The server: a persistent worker pool multiplexing concurrent
//! sessions over one template [`Session`].
//!
//! Request lifecycle:
//!
//! ```text
//! submit(Request) ── admission ──► priority queue ── pop_batch ──► worker
//!      │  (reject / quarantine /                                     │
//!      ▼   shed / admit)                                             ▼
//!   Ticket ◄────────────── Served { RunOutcome, timings } ── execute via
//!                                                     Session::for_request_at
//! ```
//!
//! Every worker executes through the *same* unified path a standalone
//! [`Session`] uses ([`Session::run_workload`] on a per-request
//! specialization), so a served request's [`drt_accel::report::RunReport`]
//! is bit-identical to the same [`Workload`] run directly.
//!
//! # Survivability
//!
//! Execution is *supervised*: each request runs once under
//! [`drt_core::par::run_isolated`], so a panicking workload cannot take
//! its worker thread down — the panic is caught and stringified, the
//! ticket resolves [`ServeError::WorkerCrashed`], and the worker moves
//! on to the next request. Session execution is a pure function of the
//! request (deadlines and budgets degrade a run, they never panic it),
//! so a re-run would crash again and none is made. Crashes are counted
//! per workload fingerprint; once a fingerprint reaches
//! [`ServeConfig::quarantine_after`] crashes it is quarantined and
//! further submissions of the same workload are rejected at admission
//! ([`ServeError::Quarantined`]) instead of being allowed to crash
//! another worker — the serving-layer analogue of a poison-message
//! queue. [`Server::clear_quarantine`] lifts a quarantine.
//!
//! [`Workload`]: drt_accel::workload::Workload

use crate::config::ServeConfig;
use crate::error::ServeError;
use crate::queue::{request_cost, QueuedRequest, RequestQueue};
use crate::stats::{ServeStats, StatsSnapshot};
use drt_accel::report::{RunOutcome, RunReport};
use drt_accel::session::Session;
use drt_accel::workload::Request;
use drt_core::budget::ExecBudget;
use drt_core::cancel::CancelToken;
use drt_core::par::run_isolated;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A served request: the run outcome plus serving-side timings. Timings are
/// wall-clock measurements of this process (queue wait, execution) —
/// the *modeled* accelerator time stays inside the report and is
/// deterministic.
#[derive(Debug)]
pub struct Served {
    /// Server-assigned request id (submission order).
    pub id: u64,
    /// The outcome: a complete or degraded run, or a typed serving/run
    /// error.
    pub response: Result<RunOutcome, ServeError>,
    /// Time from admission to dequeue.
    pub queue_wait: Duration,
    /// Time executing (zero for cache hits).
    pub exec_time: Duration,
    /// Time from admission to completion.
    pub total_time: Duration,
    /// Served from the recurring-workload report cache.
    pub cache_hit: bool,
    /// Executed with the load-shed (S-U-C-only) budget.
    pub load_shed: bool,
    /// Index of the worker that served it.
    pub worker: usize,
}

/// A claim on one submitted request. `wait` blocks for the answer;
/// dropping the ticket abandons it (the worker still runs the request,
/// its answer is discarded).
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: Receiver<Served>,
}

impl Ticket {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Block until the request is served. [`ServeError::WorkerLost`]
    /// means the executing worker disappeared (server aborted).
    pub fn wait(self) -> Result<Served, ServeError> {
        self.rx.recv().map_err(|_| ServeError::WorkerLost)
    }

    /// Non-blocking probe: the served result if it is ready.
    pub fn try_wait(&self) -> Option<Served> {
        self.rx.try_recv().ok()
    }
}

/// The recurring-workload report cache: an LRU bounded by
/// [`ServeConfig::memo_capacity`]. Recency is a monotonic tick bumped on
/// every hit and insert; eviction removes the smallest tick. The scan is
/// `O(len)`, which is fine at report-cache sizes — each entry holds a
/// full [`RunReport`], so capacities are hundreds, not millions.
struct MemoCache {
    map: HashMap<u64, (u64, RunReport)>,
    tick: u64,
    capacity: usize,
}

impl MemoCache {
    fn new(capacity: usize) -> MemoCache {
        MemoCache { map: HashMap::new(), tick: 0, capacity: capacity.max(1) }
    }

    /// The cached report for `key`, refreshing its recency.
    fn get(&mut self, key: u64) -> Option<RunReport> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|slot| {
            slot.0 = tick;
            slot.1.clone()
        })
    }

    /// Insert (or refresh) `key`; returns `true` when a different entry
    /// was evicted to make room.
    fn insert(&mut self, key: u64, report: RunReport) -> bool {
        self.tick += 1;
        let mut evicted = false;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k) {
                self.map.remove(&oldest);
                evicted = true;
            }
        }
        self.map.insert(key, (self.tick, report));
        evicted
    }
}

struct Shared {
    queue: RequestQueue,
    cfg: ServeConfig,
    template: Session,
    stats: ServeStats,
    /// Recurring-workload report cache, keyed by content fingerprint.
    /// `None` when caching is off (config, or the template is probed —
    /// a cache hit would skip the trace events a probed run owes).
    memo: Option<Mutex<MemoCache>>,
    /// Crashed requests per workload fingerprint (poison quarantine). A
    /// fingerprint is quarantined while its count is at or above
    /// [`ServeConfig::quarantine_after`].
    poison: Mutex<HashMap<u64, u32>>,
    /// Global execution sequence, fed to the chaos injector's
    /// `before_request` (deterministic at pool size 1).
    exec_seq: AtomicU64,
    root: CancelToken,
}

/// The serving layer: a bounded priority queue in front of a persistent
/// pool of workers, each executing on its own clone of a template
/// [`Session`]. See the crate docs for the full architecture.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("workers", &self.workers.len())
            .field("cfg", &self.shared.cfg)
            .finish()
    }
}

impl Server {
    /// Start a server around `session` (the template every worker clones
    /// per request). The server derives a root kill switch as a child of
    /// the template's token, so cancelling the caller's original token
    /// still stops every in-flight request, while [`Server::abort`]
    /// cancels only this server's work.
    ///
    /// Fails with [`ServeError::Spawn`] when a worker thread cannot be
    /// spawned; workers already spawned are cleanly shut down first, so
    /// the error leaves nothing running.
    pub fn start(session: Session, cfg: ServeConfig) -> Result<Server, ServeError> {
        let root = session.cancel_token().child();
        let template = session.with_cancel_token(root.clone());
        let memo = (cfg.memoize && !template.is_probed())
            .then(|| Mutex::new(MemoCache::new(cfg.memo_capacity)));
        let pool = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: RequestQueue::new(),
            cfg,
            template,
            stats: ServeStats::default(),
            memo,
            poison: Mutex::new(HashMap::new()),
            exec_seq: AtomicU64::new(0),
            root,
        });
        let mut workers = Vec::with_capacity(pool);
        for i in 0..pool {
            let worker_shared = Arc::clone(&shared);
            let spawned = std::thread::Builder::new()
                .name(format!("drt-serve-{i}"))
                .spawn(move || worker_loop(i, &worker_shared));
            match spawned {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    shared.queue.close();
                    for w in workers {
                        let _ = w.join();
                    }
                    return Err(ServeError::Spawn { worker: i, message: e.to_string() });
                }
            }
        }
        Ok(Server { shared, workers, next_id: AtomicU64::new(0) })
    }

    /// Submit a request. Admission control answers immediately:
    /// `Ok(Ticket)` means the request is queued and will be served;
    /// [`ServeError::Rejected`] means the queue was full (resubmit after
    /// backoff); [`ServeError::Quarantined`] means the workload's
    /// fingerprint crashed too many workers;
    /// [`ServeError::ShuttingDown`] means the server no longer accepts
    /// work. A request deadline starts counting *now* — time spent
    /// queued is inside it.
    pub fn submit(&self, req: Request) -> Result<Ticket, ServeError> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = channel();
        let now = Instant::now();
        let tenant = req.tenant;
        let fingerprint = req.workload.fingerprint();
        if let Some(err) = self.quarantine_reject(fingerprint) {
            self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.quarantine_rejected.fetch_add(1, Ordering::Relaxed);
            self.shared.stats.tenant(tenant, |c| c.rejected += 1);
            return Err(err);
        }
        let nnz = req.workload.nnz_hint();
        let qr = QueuedRequest {
            id,
            small: nnz <= self.shared.cfg.small_nnz,
            deadline_at: req.deadline.map(|d| now + d),
            req,
            shed: false,
            submitted_at: now,
            fingerprint,
            cost: request_cost(nnz, self.shared.cfg.small_nnz),
            tx,
        };
        match self.shared.queue.admit(qr, &self.shared.cfg) {
            Ok((admitted, depth)) => {
                self.shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
                let shed = admitted == crate::queue::Admitted::Shed;
                if shed {
                    self.shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                }
                self.shared.stats.tenant(tenant, |c| {
                    c.submitted += 1;
                    if shed {
                        c.shed += 1;
                    }
                });
                self.shared.stats.note_queue_depth(depth);
                Ok(Ticket { id, rx })
            }
            Err(e) => {
                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                self.shared.stats.tenant(tenant, |c| c.rejected += 1);
                Err(e)
            }
        }
    }

    /// The quarantine rejection for `fingerprint`, if it is quarantined.
    fn quarantine_reject(&self, fingerprint: u64) -> Option<ServeError> {
        let poison = self.shared.poison.lock().unwrap_or_else(|p| p.into_inner());
        let crashes = *poison.get(&fingerprint)?;
        (crashes >= self.shared.cfg.quarantine_after)
            .then_some(ServeError::Quarantined { fingerprint, crashes })
    }

    /// Lift the quarantine (and forget the crash count) for a workload
    /// fingerprint. Returns `true` when a crash record existed.
    pub fn clear_quarantine(&self, fingerprint: u64) -> bool {
        self.shared.poison.lock().unwrap_or_else(|p| p.into_inner()).remove(&fingerprint).is_some()
    }

    /// The currently quarantined workload fingerprints (sorted).
    pub fn quarantined_fingerprints(&self) -> Vec<u64> {
        let poison = self.shared.poison.lock().unwrap_or_else(|p| p.into_inner());
        let threshold = self.shared.cfg.quarantine_after;
        let mut fps: Vec<u64> =
            poison.iter().filter(|(_, &crashes)| crashes >= threshold).map(|(fp, _)| *fp).collect();
        fps.sort_unstable();
        fps
    }

    /// Current queue depth (admitted, not yet dequeued).
    pub fn queue_len(&self) -> usize {
        self.shared.queue.len()
    }

    /// A point-in-time copy of the serving counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Graceful shutdown: stop admitting, serve everything already
    /// queued, join the workers.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats.snapshot()
    }

    /// Hard stop: cancel the root token (in-flight runs degrade at the
    /// next task boundary), discard the queue (those tickets resolve to
    /// [`ServeError::ShuttingDown`]), join the workers.
    pub fn abort(mut self) -> StatsSnapshot {
        self.abort_in_place();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.shared.stats.snapshot()
    }

    fn abort_in_place(&self) {
        self.shared.root.cancel();
        for qr in self.shared.queue.close_and_drain() {
            let _ = qr.tx.send(Served {
                id: qr.id,
                response: Err(ServeError::ShuttingDown),
                queue_wait: qr.submitted_at.elapsed(),
                exec_time: Duration::ZERO,
                total_time: qr.submitted_at.elapsed(),
                cache_hit: false,
                load_shed: false,
                worker: usize::MAX,
            });
        }
    }
}

impl Drop for Server {
    /// Abort semantics: a dropped server never hangs on queued work.
    /// Use [`Server::shutdown`] for a graceful drain.
    fn drop(&mut self) {
        if !self.workers.is_empty() {
            self.abort_in_place();
            for w in self.workers.drain(..) {
                let _ = w.join();
            }
        }
    }
}

fn worker_loop(worker: usize, shared: &Shared) {
    while let Some(batch) = shared.queue.pop_batch(&shared.cfg) {
        shared.stats.batches.fetch_add(1, Ordering::Relaxed);
        if batch.len() >= 2 {
            shared.stats.batched_requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
        }
        for qr in batch {
            serve_one(worker, shared, qr);
        }
    }
}

/// Record one crashed request against `fingerprint`; trips the
/// quarantine when the crash count reaches the threshold.
fn record_crash(shared: &Shared, fingerprint: u64) {
    let mut poison = shared.poison.lock().unwrap_or_else(|p| p.into_inner());
    let crashes = poison.entry(fingerprint).or_insert(0);
    *crashes = crashes.saturating_add(1);
    // `max(1)`: a fingerprint with a crash record is quarantined at any
    // threshold of 1 or less, so its first crash is the trip.
    if *crashes == shared.cfg.quarantine_after.max(1) {
        shared.stats.quarantined.fetch_add(1, Ordering::Relaxed);
    }
}

fn serve_one(worker: usize, shared: &Shared, qr: QueuedRequest) {
    let start = Instant::now();
    let queue_wait = start.duration_since(qr.submitted_at);
    let tenant = qr.req.tenant;

    // Recurring-workload cache: only memoizable requests (no deadline,
    // unlimited budget — their execution path applies no per-request
    // context, so a replayed report is exactly what a fresh run would
    // produce) and never for load-shed execution.
    let memo_key = match &shared.memo {
        Some(_) if qr.req.is_memoizable() && !qr.shed => Some(qr.fingerprint),
        _ => None,
    };
    if let (Some(key), Some(memo)) = (memo_key, &shared.memo) {
        let hit = memo.lock().unwrap_or_else(|p| p.into_inner()).get(key);
        if let Some(report) = hit {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant(tenant, |c| c.completed += 1);
            let _ = qr.tx.send(Served {
                id: qr.id,
                response: Ok(RunOutcome::from_report(report)),
                queue_wait,
                exec_time: Duration::ZERO,
                total_time: qr.submitted_at.elapsed(),
                cache_hit: true,
                load_shed: false,
                worker,
            });
            return;
        }
    }

    // Load-shed execution tightens the request budget to S-U-C-only;
    // everything else is the standalone Session path, verbatim.
    let shed_req;
    let req: &Request = if qr.shed {
        let mut eff = qr.req.clone();
        eff.budget = eff.budget.min_with(&ExecBudget::suc_only());
        shed_req = eff;
        &shed_req
    } else {
        &qr.req
    };

    // Supervised execution: the one run is panic-isolated, so a crashing
    // workload resolves its ticket instead of killing the worker thread.
    let seq = shared.exec_seq.fetch_add(1, Ordering::Relaxed);
    let result = run_isolated(|| {
        if let Some(chaos) = &shared.cfg.chaos {
            chaos.before_request(seq, qr.fingerprint);
        }
        shared.template.for_request_at(req, qr.deadline_at).run_workload(&req.workload)
    });
    let exec_time = start.elapsed();

    let response = match result {
        Ok(Ok(outcome)) => {
            match &outcome {
                RunOutcome::Complete(report) => {
                    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                    shared.stats.tenant(tenant, |c| c.completed += 1);
                    if let (Some(key), Some(memo)) = (memo_key, &shared.memo) {
                        let evicted = memo
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .insert(key, report.clone());
                        if evicted {
                            shared.stats.cache_evictions.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                RunOutcome::Degraded(_) => {
                    shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
                    shared.stats.tenant(tenant, |c| c.degraded += 1);
                }
            }
            Ok(outcome)
        }
        Ok(Err(e)) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant(tenant, |c| c.failed += 1);
            Err(ServeError::Run(e))
        }
        Err(message) => {
            shared.stats.crashed.fetch_add(1, Ordering::Relaxed);
            shared.stats.tenant(tenant, |c| c.crashed += 1);
            record_crash(shared, qr.fingerprint);
            Err(ServeError::WorkerCrashed { message })
        }
    };
    let _ = qr.tx.send(Served {
        id: qr.id,
        response,
        queue_wait,
        exec_time,
        total_time: qr.submitted_at.elapsed(),
        cache_hit: false,
        load_shed: qr.shed,
        worker,
    });
}

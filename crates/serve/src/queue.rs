//! The bounded multi-tenant priority queue with admission control and
//! deficit round-robin fair-share scheduling.
//!
//! A `Mutex + Condvar` multi-producer multi-consumer queue. Service
//! order is strict [`Priority`] classes (interactive first); *within*
//! each class, requests sit in per-tenant FIFO lanes served by deficit
//! round-robin (DRR): the scheduler rotates over the class's active
//! tenants, refilling each visited lane's deficit counter by one unit,
//! and serves a lane's head once its deficit covers the head's cost (one
//! cost unit per [`ServeConfig::small_nnz`] of operand data, capped so
//! one huge request cannot stall the rotation accounting). The result:
//! under contention every tenant receives an equal share of the work
//! regardless of how many requests it floods in, FIFO order within each
//! tenant is preserved, a tenant that goes idle loses its saved-up
//! deficit, and single-tenant traffic degenerates to plain
//! priority-then-FIFO (one lane, DRR is a no-op). Dequeue order stays
//! deterministic for a given admission order.
//!
//! Admission runs under the same lock as the push, so every check and
//! the enqueue are atomic:
//!
//! * depth `>= capacity` → the request is **rejected** (never queued) —
//!   the queue is strictly bounded;
//! * shedding latched (policy [`AdmissionPolicy::DegradeThenReject`])
//!   → the request is admitted but marked for **degraded execution**:
//!   the worker tightens its budget to [`ExecBudget::suc_only`], so the
//!   run skips DRT planning and covers its space with S-U-C fallback
//!   tiles — cheaper latency under pressure instead of an unbounded
//!   backlog (the paper's Algorithm 2 subdivision, repurposed as load
//!   shedding). Shedding is hysteretic: it latches on when the depth
//!   exceeds `degrade_above` and releases only when the depth falls to
//!   `restore_below` or less, so shed decisions cannot flap on every
//!   admission at one boundary depth;
//! * otherwise → admitted normally.
//!
//! [`ExecBudget::suc_only`]: drt_core::budget::ExecBudget::suc_only

use crate::config::{AdmissionPolicy, ServeConfig};
use crate::error::ServeError;
use crate::server::Served;
use drt_accel::workload::{Priority, Request, TenantId};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// One admitted request, with everything its worker needs to execute and
/// answer it.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    /// Server-assigned request id (also the submission sequence).
    pub id: u64,
    /// The request itself.
    pub req: Request,
    /// Whether the workload is small enough to ride in a dequeue batch.
    pub small: bool,
    /// Admitted above the load-shed watermark: execute S-U-C-only.
    pub shed: bool,
    /// When `submit` accepted the request.
    pub submitted_at: Instant,
    /// Absolute deadline (request deadline is measured from submission).
    pub deadline_at: Option<Instant>,
    /// The workload's content fingerprint, computed once at submission
    /// (quarantine admission check, crash accounting, report cache key).
    pub fingerprint: u64,
    /// Fair-share cost in scheduler units (see [`request_cost`]).
    pub cost: u64,
    /// Where the answer goes.
    pub tx: Sender<Served>,
}

/// Fair-share cost of a request: one unit plus one per `small_nnz` of
/// operand data, capped at 64 so a single giant request cannot make the
/// DRR rotation spin refilling deficits for thousands of rounds. Cost
/// only shapes *relative* service rates between tenants; correctness
/// (class order, per-tenant FIFO) never depends on it.
pub(crate) fn request_cost(nnz_hint: u64, small_nnz: u64) -> u64 {
    1 + (nnz_hint / small_nnz.max(1)).min(63)
}

/// Strict-priority class index: service order is ascending.
fn class_index(p: Priority) -> usize {
    match p {
        Priority::Interactive => 0,
        Priority::Normal => 1,
        Priority::Batch => 2,
    }
}

/// One tenant's FIFO lane within a priority class.
#[derive(Debug)]
struct TenantLane {
    tenant: TenantId,
    /// DRR deficit: how much cost this lane may spend before the
    /// rotation moves on. Refilled by one unit per visit;
    /// forfeited when the lane empties (an idle tenant does not bank
    /// credit).
    deficit: u64,
    fifo: VecDeque<QueuedRequest>,
}

/// One priority class: active tenant lanes under deficit round-robin.
#[derive(Debug, Default)]
struct ClassQueue {
    /// Active lanes, in first-appearance order; `cursor` rotates over
    /// them.
    lanes: Vec<TenantLane>,
    cursor: usize,
}

impl ClassQueue {
    fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    fn push(&mut self, qr: QueuedRequest) {
        match self.lanes.iter_mut().find(|l| l.tenant == qr.req.tenant) {
            Some(lane) => lane.fifo.push_back(qr),
            None => self.lanes.push(TenantLane {
                tenant: qr.req.tenant,
                deficit: 0,
                fifo: VecDeque::from([qr]),
            }),
        }
    }

    /// Advance the DRR rotation (refilling deficits) until the lane that
    /// will serve next can afford its head; returns that lane's index.
    /// Terminates because every visit adds one unit to some lane whose
    /// head cost is capped. Settling mutates only scheduler state
    /// (cursor, deficits), never the lanes' contents, so peek-then-pop
    /// under one lock serves exactly the settled entry.
    fn settle(&mut self) -> Option<usize> {
        if self.lanes.is_empty() {
            return None;
        }
        loop {
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
            }
            let lane = &mut self.lanes[self.cursor];
            let cost = lane.fifo.front().expect("active lanes hold >= 1 entry").cost;
            if lane.deficit >= cost {
                return Some(self.cursor);
            }
            lane.deficit += 1;
            self.cursor += 1;
        }
    }

    /// The entry the next [`ClassQueue::pop`] will serve.
    fn peek(&mut self) -> Option<&QueuedRequest> {
        let idx = self.settle()?;
        self.lanes[idx].fifo.front()
    }

    fn pop(&mut self) -> Option<QueuedRequest> {
        let idx = self.settle()?;
        let lane = &mut self.lanes[idx];
        let qr = lane.fifo.pop_front().expect("settled lane holds >= 1 entry");
        lane.deficit -= qr.cost;
        if lane.fifo.is_empty() {
            self.lanes.remove(idx);
            if self.cursor >= self.lanes.len() {
                self.cursor = 0;
            }
        }
        Some(qr)
    }

    fn drain_to(&mut self, out: &mut Vec<QueuedRequest>) {
        for lane in &mut self.lanes {
            out.extend(lane.fifo.drain(..));
        }
        self.lanes.clear();
        self.cursor = 0;
    }
}

#[derive(Debug)]
struct QueueState {
    classes: [ClassQueue; 3],
    len: usize,
    /// Load-shed hysteresis latch (see [`AdmissionPolicy`]).
    shedding: bool,
    shutdown: bool,
}

/// The shared request queue (see module docs for the admission rules).
#[derive(Debug)]
pub(crate) struct RequestQueue {
    state: Mutex<QueueState>,
    available: Condvar,
}

/// How a request was admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Admitted {
    /// Normal admission.
    Normal,
    /// Admitted while shedding is latched: marked for S-U-C-only
    /// execution.
    Shed,
}

impl RequestQueue {
    pub(crate) fn new() -> RequestQueue {
        RequestQueue {
            state: Mutex::new(QueueState {
                classes: Default::default(),
                len: 0,
                shedding: false,
                shutdown: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Admission checks + enqueue, atomically. Returns how the request
    /// was admitted, or the admission error; `qr.shed` is updated to
    /// match. Also reports the post-push depth for high-water tracking.
    pub(crate) fn admit(
        &self,
        mut qr: QueuedRequest,
        cfg: &ServeConfig,
    ) -> Result<(Admitted, usize), ServeError> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        if st.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let depth = st.len;
        if depth >= cfg.queue_capacity {
            return Err(ServeError::Rejected { queue_len: depth, capacity: cfg.queue_capacity });
        }
        let admitted = match cfg.admission {
            AdmissionPolicy::Reject => Admitted::Normal,
            AdmissionPolicy::DegradeThenReject { degrade_above, restore_below } => {
                let restore = restore_below.min(degrade_above);
                if st.shedding && depth <= restore {
                    st.shedding = false;
                }
                if !st.shedding && depth > degrade_above {
                    st.shedding = true;
                }
                if st.shedding {
                    Admitted::Shed
                } else {
                    Admitted::Normal
                }
            }
        };
        qr.shed = admitted == Admitted::Shed;
        st.classes[class_index(qr.req.priority)].push(qr);
        st.len += 1;
        let depth = st.len;
        drop(st);
        self.available.notify_one();
        Ok((admitted, depth))
    }

    /// Block until work is available, then pop a batch: the next entry
    /// in service order unconditionally, plus up to `batch_max - 1`
    /// further entries while both the already-popped tail and the next
    /// entry in service order are *small* workloads (service order is
    /// preserved — batching never reorders, it only lets one worker take
    /// several cheap kernels in one trip to the lock). Returns `None`
    /// when the queue is shut down and drained.
    pub(crate) fn pop_batch(&self, cfg: &ServeConfig) -> Option<Vec<QueuedRequest>> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if st.len > 0 {
                let mut batch = Vec::with_capacity(cfg.batch_max.max(1));
                let first = Self::pop_locked(&mut st).expect("len > 0 must pop");
                let mut all_small = first.small;
                batch.push(first);
                while all_small && batch.len() < cfg.batch_max.max(1) {
                    let next_small = Self::peek_locked(&mut st).is_some_and(|qr| qr.small);
                    if !next_small {
                        break;
                    }
                    let next = Self::pop_locked(&mut st).expect("peeked entry must pop");
                    all_small = next.small;
                    batch.push(next);
                }
                return Some(batch);
            }
            if st.shutdown {
                return None;
            }
            st = self.available.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }

    fn pop_locked(st: &mut QueueState) -> Option<QueuedRequest> {
        let class = st.classes.iter_mut().find(|c| !c.is_empty())?;
        let qr = class.pop().expect("non-empty class must pop");
        st.len -= 1;
        Some(qr)
    }

    fn peek_locked(st: &mut QueueState) -> Option<&QueuedRequest> {
        st.classes.iter_mut().find(|c| !c.is_empty())?.peek()
    }

    /// Current depth.
    pub(crate) fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).len
    }

    /// Stop accepting work and wake every waiting worker. Queued entries
    /// still drain (workers exit once the queue is empty).
    pub(crate) fn close(&self) {
        self.state.lock().unwrap_or_else(|p| p.into_inner()).shutdown = true;
        self.available.notify_all();
    }

    /// Close *and* discard everything still queued, returning the
    /// discarded entries so the caller can answer their tickets.
    pub(crate) fn close_and_drain(&self) -> Vec<QueuedRequest> {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        st.shutdown = true;
        let mut drained = Vec::with_capacity(st.len);
        for class in &mut st.classes {
            class.drain_to(&mut drained);
        }
        st.len = 0;
        drop(st);
        self.available.notify_all();
        // Order is irrelevant here — every entry gets the same answer.
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_accel::workload::Workload;
    use drt_tensor::{CsMatrix, MajorAxis};
    use std::sync::mpsc::channel;

    fn qr_for(id: u64, priority: Priority, small: bool, tenant: TenantId) -> QueuedRequest {
        let m = || CsMatrix::from_entries(2, 2, vec![(0, 0, 1.0)], MajorAxis::Row);
        let (tx, _rx) = channel();
        QueuedRequest {
            id,
            req: Request::new(Workload::spmspm(m(), m()))
                .with_priority(priority)
                .with_tenant(tenant),
            small,
            shed: false,
            submitted_at: Instant::now(),
            deadline_at: None,
            fingerprint: 0,
            cost: 1,
            tx,
        }
    }

    fn qr(id: u64, priority: Priority, small: bool) -> QueuedRequest {
        qr_for(id, priority, small, TenantId::ANONYMOUS)
    }

    fn cfg(capacity: usize, batch_max: usize, admission: AdmissionPolicy) -> ServeConfig {
        ServeConfig::default()
            .with_queue_capacity(capacity)
            .with_batch_max(batch_max)
            .with_admission(admission)
    }

    #[test]
    fn dequeue_is_priority_order_then_fifo_within_a_class() {
        let q = RequestQueue::new();
        let c = cfg(16, 1, AdmissionPolicy::Reject);
        for (id, p) in [
            (0, Priority::Normal),
            (1, Priority::Batch),
            (2, Priority::Interactive),
            (3, Priority::Normal),
            (4, Priority::Interactive),
        ] {
            q.admit(qr(id, p, false), &c).expect("admit");
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop_batch(&c).map(|b| b[0].id)).take(5).collect();
        assert_eq!(order, vec![2, 4, 0, 3, 1]);
    }

    #[test]
    fn batching_drains_consecutive_small_entries_only() {
        let q = RequestQueue::new();
        let c = cfg(16, 8, AdmissionPolicy::Reject);
        for (id, small) in [(0, true), (1, true), (2, true), (3, false), (4, true)] {
            q.admit(qr(id, Priority::Normal, small), &c).expect("admit");
        }
        let first = q.pop_batch(&c).expect("batch");
        assert_eq!(first.iter().map(|e| e.id).collect::<Vec<_>>(), vec![0, 1, 2]);
        // Entry 3 is large: it never rides in a batch, and 4 waits behind it.
        let second = q.pop_batch(&c).expect("batch");
        assert_eq!(second.iter().map(|e| e.id).collect::<Vec<_>>(), vec![3]);
        let third = q.pop_batch(&c).expect("batch");
        assert_eq!(third.iter().map(|e| e.id).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn a_large_head_is_never_batched() {
        let q = RequestQueue::new();
        let c = cfg(16, 8, AdmissionPolicy::Reject);
        q.admit(qr(0, Priority::Normal, false), &c).expect("admit");
        q.admit(qr(1, Priority::Normal, true), &c).expect("admit");
        let first = q.pop_batch(&c).expect("batch");
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, 0);
    }

    #[test]
    fn admission_sheds_above_watermark_and_rejects_at_capacity() {
        let q = RequestQueue::new();
        let c =
            cfg(2, 1, AdmissionPolicy::DegradeThenReject { degrade_above: 0, restore_below: 0 });
        let (first, _) = q.admit(qr(0, Priority::Normal, false), &c).expect("admit");
        assert_eq!(first, Admitted::Normal);
        let (second, _) = q.admit(qr(1, Priority::Normal, false), &c).expect("admit");
        assert_eq!(second, Admitted::Shed);
        match q.admit(qr(2, Priority::Normal, false), &c) {
            Err(ServeError::Rejected { queue_len: 2, capacity: 2 }) => {}
            other => panic!("expected rejection, got {other:?}"),
        }
        // The shed entry carries the flag into the queue.
        let shed_flags: Vec<bool> =
            std::iter::from_fn(|| q.pop_batch(&c).map(|b| b[0].shed)).take(2).collect();
        assert_eq!(shed_flags, vec![false, true]);
    }

    #[test]
    fn shedding_latches_between_watermarks() {
        let q = RequestQueue::new();
        let c =
            cfg(64, 1, AdmissionPolicy::DegradeThenReject { degrade_above: 3, restore_below: 1 });
        // Fill to depth 4: the 5th admission sees depth 4 > 3 and latches.
        for id in 0..5 {
            q.admit(qr(id, Priority::Normal, false), &c).expect("admit");
        }
        let shed_at = |q: &RequestQueue, id: u64| {
            let (a, _) = q.admit(qr(id, Priority::Normal, false), &c).expect("admit");
            a == Admitted::Shed
        };
        assert!(q.pop_batch(&c).is_some()); // depth 5 -> 4
                                            // Inside the band (depth 4, between restore_below and
                                            // degrade_above): the single-watermark policy would flap back to
                                            // normal here at depth <= 3; the latch keeps shedding.
        assert!(q.pop_batch(&c).is_some()); // depth 4 -> 3 (wait: popped after latched admit)
        assert!(shed_at(&q, 100), "depth 3 > restore_below: latch holds");
        for _ in 0..3 {
            assert!(q.pop_batch(&c).is_some());
        }
        // Depth is now 1 == restore_below: the next admission releases.
        assert_eq!(q.len(), 1);
        assert!(!shed_at(&q, 101), "depth at restore_below releases the latch");
        // And it stays released until degrade_above is exceeded again.
        assert!(!shed_at(&q, 102), "depth 2 <= degrade_above: still normal");
        assert!(!shed_at(&q, 103), "depth 3 <= degrade_above: still normal");
        assert!(shed_at(&q, 104), "depth 4 > degrade_above: latches again");
    }

    #[test]
    fn close_wakes_and_drains() {
        let q = RequestQueue::new();
        let c = cfg(4, 1, AdmissionPolicy::Reject);
        q.admit(qr(0, Priority::Normal, false), &c).expect("admit");
        q.close();
        assert!(matches!(
            q.admit(qr(1, Priority::Normal, false), &c),
            Err(ServeError::ShuttingDown)
        ));
        // Already-queued work still drains...
        assert_eq!(q.pop_batch(&c).expect("drain")[0].id, 0);
        // ...and an empty closed queue reports end-of-work.
        assert!(q.pop_batch(&c).is_none());
    }

    #[test]
    fn fair_share_interleaves_tenants_one_unit_per_visit() {
        // Two tenants flood the same class with unit-cost requests. Each
        // DRR visit refills a lane by one unit, so service alternates
        // strictly between the tenants, FIFO within each.
        let q = RequestQueue::new();
        let c = cfg(64, 1, AdmissionPolicy::Reject);
        for id in 0..8 {
            q.admit(qr_for(id, Priority::Normal, false, TenantId(1)), &c).expect("admit");
        }
        for id in 8..16 {
            q.admit(qr_for(id, Priority::Normal, false, TenantId(2)), &c).expect("admit");
        }
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop_batch(&c).map(|b| b[0].id)).take(16).collect();
        let alternating: Vec<u64> = (0..8).flat_map(|i| [i, i + 8]).collect();
        assert_eq!(order, alternating, "unit refill serves one request per tenant per rotation");
    }

    #[test]
    fn a_flooding_tenant_cannot_starve_a_light_one() {
        // Tenant 1 floods 12 requests before tenant 2's single request
        // arrives. The DRR rotation must reach tenant 2 within one
        // cycle, not after the flood drains.
        let q = RequestQueue::new();
        let c = cfg(64, 1, AdmissionPolicy::Reject);
        for id in 0..12 {
            q.admit(qr_for(id, Priority::Normal, false, TenantId(1)), &c).expect("admit");
        }
        q.admit(qr_for(99, Priority::Normal, false, TenantId(2)), &c).expect("admit");
        let order: Vec<u64> =
            std::iter::from_fn(|| q.pop_batch(&c).map(|b| b[0].id)).take(13).collect();
        let pos = order.iter().position(|&i| i == 99).expect("served");
        assert!(pos <= 2, "light tenant served within one rotation, got position {pos}: {order:?}");
    }

    #[test]
    fn request_cost_is_capped_and_floor_one() {
        assert_eq!(request_cost(0, 4096), 1);
        assert_eq!(request_cost(4096, 4096), 2);
        assert_eq!(request_cost(u64::MAX, 4096), 64);
        // small_nnz == 0 is treated as 1 (no division by zero).
        assert_eq!(request_cost(10, 0), 11);
        assert_eq!(request_cost(1000, 0), 64);
    }

    mod drr_properties {
        use super::*;
        use proptest::prelude::*;

        const PRIORITIES: [Priority; 3] =
            [Priority::Interactive, Priority::Normal, Priority::Batch];

        fn class_of(p: Priority) -> usize {
            match p {
                Priority::Interactive => 0,
                Priority::Normal => 1,
                Priority::Batch => 2,
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Under any interleaving of admissions and pops, with any
            /// request costs: (1) a popped entry always comes from the
            /// most urgent non-empty priority class (fair share never
            /// reorders across classes), and (2) each (class, tenant)
            /// stream pops in admission order (DRR interleaves *between*
            /// tenants, never *within* one).
            #[test]
            fn fair_share_preserves_class_order_and_per_tenant_fifo(
                ops in proptest::collection::vec((0u32..5, 0u32..3, 0u32..4, 1u64..5), 1..60),
            ) {
                let c = cfg(1024, 1, AdmissionPolicy::Reject);
                let q = RequestQueue::new();
                // Mirror of what is queued: (id, class, tenant).
                let mut queued: Vec<(u64, usize, u64)> = Vec::new();
                let mut last_popped: std::collections::HashMap<(usize, u64), u64> =
                    std::collections::HashMap::new();
                let mut next_id = 0u64;
                for (op, pri, ten, cost) in ops {
                    if op == 0 && !queued.is_empty() {
                        let popped = &q.pop_batch(&c).expect("non-empty queue pops")[0];
                        let class = class_of(popped.req.priority);
                        let min_class =
                            queued.iter().map(|(_, cl, _)| *cl).min().expect("mirror non-empty");
                        prop_assert!(
                            class <= min_class,
                            "popped class {class} while class {min_class} was queued"
                        );
                        let key = (class, popped.req.tenant.0);
                        if let Some(prev) = last_popped.insert(key, popped.id) {
                            prop_assert!(
                                popped.id > prev,
                                "tenant {} class {class}: id {} popped after {prev}",
                                popped.req.tenant.0,
                                popped.id
                            );
                        }
                        let pos = queued
                            .iter()
                            .position(|(id, _, _)| *id == popped.id)
                            .expect("popped entry was admitted");
                        queued.swap_remove(pos);
                    } else {
                        let id = next_id;
                        next_id += 1;
                        let priority = PRIORITIES[pri as usize];
                        let tenant = TenantId(u64::from(ten) + 1);
                        let mut entry = qr_for(id, priority, false, tenant);
                        entry.cost = cost;
                        q.admit(entry, &c).expect("admit");
                        queued.push((id, class_of(priority), tenant.0));
                    }
                }
                // Drain the rest under the same invariants.
                while !queued.is_empty() {
                    let popped = &q.pop_batch(&c).expect("drain")[0];
                    let class = class_of(popped.req.priority);
                    let min_class =
                        queued.iter().map(|(_, cl, _)| *cl).min().expect("mirror non-empty");
                    prop_assert!(class <= min_class);
                    let key = (class, popped.req.tenant.0);
                    if let Some(prev) = last_popped.insert(key, popped.id) {
                        prop_assert!(popped.id > prev);
                    }
                    let pos = queued.iter().position(|(id, _, _)| *id == popped.id);
                    queued.swap_remove(pos.expect("popped entry was admitted"));
                }
            }
        }
    }
}

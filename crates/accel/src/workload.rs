//! The unified typed request API: one [`Workload`] enum covering every
//! kind of run a [`crate::session::Session`] can execute, wrapped in a
//! [`Request`] (workload + priority + deadline + budget) and answered
//! with a [`crate::report::RunOutcome`].
//!
//! A serving layer needs a single owned, queueable, cheaply-clonable
//! description of "what to run". That is exactly what [`Workload`] is:
//! operands ride behind [`Arc`]s so a request can be queued or fanned
//! out without copying matrix data, and
//! [`crate::session::Session::execute`] runs any of them through the one
//! code path every session run takes ([`crate::session::Session::run_ref`]
//! over the borrowed [`WorkloadRef`]). A request executed by
//! `drt-serve` and the same request executed by a standalone session
//! produce bit-identical [`crate::report::RunReport`]s — that is the
//! serving layer's conformance contract.
//!
//! [`Workload::fingerprint`] gives a stable 64-bit content hash over the
//! operand structure *and* value bits, used by the server to recognize
//! recurring identical workloads (the "amortize planning across requests"
//! setting) and by caches as a key.

use crate::pipeline::{PipelineInput, PipelineSpec, Stage};
use drt_core::budget::ExecBudget;
use drt_tensor::{CsMatrix, CsfTensor, DenseMatrix, MajorAxis};
use std::sync::Arc;
use std::time::Duration;

/// Request priority class. Ordered: the queue serves `Interactive` before
/// `Normal` before `Batch`; within a class, first-come-first-served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Throughput work: served only when nothing more urgent waits.
    Batch,
    /// The default class.
    #[default]
    Normal,
    /// Latency-sensitive work: jumps the queue ahead of both other
    /// classes.
    Interactive,
}

impl Priority {
    /// Stable lower-case tag ("batch" / "normal" / "interactive").
    pub fn tag(&self) -> &'static str {
        match self {
            Priority::Batch => "batch",
            Priority::Normal => "normal",
            Priority::Interactive => "interactive",
        }
    }

    /// Parse a priority from its tag; `"low"`/`"high"` alias
    /// `Batch`/`Interactive`. `None` for anything else.
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "batch" | "low" => Some(Priority::Batch),
            "normal" => Some(Priority::Normal),
            "interactive" | "high" => Some(Priority::Interactive),
            _ => None,
        }
    }
}

/// Who a request is served on behalf of. Tenant 0 is the anonymous
/// default — single-tenant callers never have to think about it — and
/// any other id names a tenant for the serving layer's per-tenant
/// fair-share scheduling and stats rows. Standalone sessions
/// ignore it entirely (they have no queue to be fair about).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TenantId(pub u64);

impl TenantId {
    /// The anonymous default tenant (id 0).
    pub const ANONYMOUS: TenantId = TenantId(0);

    /// A tenant from a stable name, via the workload fingerprint mixer
    /// (id 0 is reserved for [`TenantId::ANONYMOUS`]; a name hashing to
    /// 0 is nudged to 1).
    pub fn from_name(name: &str) -> TenantId {
        let mut h = Fp::new(0x5445_4e54);
        h.str(name);
        TenantId(h.finish().max(1))
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

/// The sparse input a [`Workload::Pipeline`] starts from (the owned twin
/// of [`PipelineInput`]).
#[derive(Debug, Clone)]
pub enum WorkloadInput {
    /// A 2-D compressed matrix.
    Matrix(Arc<CsMatrix>),
    /// A 3-D CSF tensor.
    Tensor(Arc<CsfTensor>),
}

impl WorkloadInput {
    /// Borrow as the pipeline layer's input type.
    pub fn as_pipeline_input(&self) -> PipelineInput<'_> {
        match self {
            WorkloadInput::Matrix(a) => PipelineInput::Matrix(a),
            WorkloadInput::Tensor(x) => PipelineInput::Tensor(x),
        }
    }
}

/// The borrowed twin of [`Workload`]: what the session's single
/// execution path ([`crate::session::Session::run_ref`]) actually runs.
/// Every public entry point — `Session::run_spmspm`, owned
/// [`Workload`]s, and [`Request`]s — lowers to one of these two shapes
/// (MTTKRP and TTV lower to their one-stage pipelines).
#[derive(Debug, Clone, Copy)]
pub enum WorkloadRef<'a> {
    /// `Z = A · B`, sparse × sparse.
    Spmspm {
        /// Left operand.
        a: &'a CsMatrix,
        /// Right operand.
        b: &'a CsMatrix,
    },
    /// A staged pipeline over one sparse input.
    Pipeline {
        /// The first stage's sparse input.
        input: PipelineInput<'a>,
        /// The stages and fusion discipline.
        pipe: &'a PipelineSpec,
    },
}

/// One typed unit of work — everything a [`crate::session::Session`] can
/// run, in one enum. Operands are [`Arc`]-shared so workloads clone in
/// O(1) (queues and fan-out never copy matrix data).
#[derive(Debug, Clone)]
pub enum Workload {
    /// `Z = A · B`, sparse × sparse (the paper's core kernel).
    Spmspm {
        /// Left operand.
        a: Arc<CsMatrix>,
        /// Right operand.
        b: Arc<CsMatrix>,
    },
    /// A staged [`PipelineSpec`] over one sparse input.
    Pipeline {
        /// The sparse input of the first stage.
        input: WorkloadInput,
        /// The stages and fusion discipline.
        pipe: Arc<PipelineSpec>,
    },
    /// MTTKRP over a CSF 3-tensor (lowers to [`PipelineSpec::mttkrp`]).
    Mttkrp {
        /// The sparse 3-tensor.
        x: Arc<CsfTensor>,
        /// Mode-1 dense factor, `J × R`.
        b: Arc<DenseMatrix>,
        /// Mode-2 dense factor, `K × R`.
        c: Arc<DenseMatrix>,
    },
    /// Tensor-times-vector over a CSF 3-tensor's last mode (lowers to
    /// [`PipelineSpec::ttv`]).
    Ttv {
        /// The sparse 3-tensor.
        x: Arc<CsfTensor>,
        /// Dense vector over mode 2.
        v: Arc<Vec<f64>>,
    },
}

impl Workload {
    /// An SpMSpM workload. Accepts owned matrices or pre-shared `Arc`s.
    pub fn spmspm(a: impl Into<Arc<CsMatrix>>, b: impl Into<Arc<CsMatrix>>) -> Workload {
        Workload::Spmspm { a: a.into(), b: b.into() }
    }

    /// A pipeline workload over a sparse matrix input.
    pub fn pipeline_on_matrix(
        a: impl Into<Arc<CsMatrix>>,
        pipe: impl Into<Arc<PipelineSpec>>,
    ) -> Workload {
        Workload::Pipeline { input: WorkloadInput::Matrix(a.into()), pipe: pipe.into() }
    }

    /// A pipeline workload over a CSF tensor input.
    pub fn pipeline_on_tensor(
        x: impl Into<Arc<CsfTensor>>,
        pipe: impl Into<Arc<PipelineSpec>>,
    ) -> Workload {
        Workload::Pipeline { input: WorkloadInput::Tensor(x.into()), pipe: pipe.into() }
    }

    /// An MTTKRP workload.
    pub fn mttkrp(
        x: impl Into<Arc<CsfTensor>>,
        b: impl Into<Arc<DenseMatrix>>,
        c: impl Into<Arc<DenseMatrix>>,
    ) -> Workload {
        Workload::Mttkrp { x: x.into(), b: b.into(), c: c.into() }
    }

    /// A TTV workload.
    pub fn ttv(x: impl Into<Arc<CsfTensor>>, v: impl Into<Arc<Vec<f64>>>) -> Workload {
        Workload::Ttv { x: x.into(), v: v.into() }
    }

    /// Stable kind tag ("spmspm" / "pipeline" / "mttkrp" / "ttv").
    pub fn kind(&self) -> &'static str {
        match self {
            Workload::Spmspm { .. } => "spmspm",
            Workload::Pipeline { .. } => "pipeline",
            Workload::Mttkrp { .. } => "mttkrp",
            Workload::Ttv { .. } => "ttv",
        }
    }

    /// A cheap size hint (total operand non-zeros, dense elements
    /// included) the server's batcher uses to classify "small" kernels.
    pub fn nnz_hint(&self) -> u64 {
        match self {
            Workload::Spmspm { a, b } => a.nnz() as u64 + b.nnz() as u64,
            Workload::Pipeline { input, pipe } => {
                let base = match input {
                    WorkloadInput::Matrix(a) => a.nnz() as u64,
                    WorkloadInput::Tensor(x) => x.nnz() as u64,
                };
                base + pipe.stages.iter().map(stage_nnz_hint).sum::<u64>()
            }
            Workload::Mttkrp { x, b, c } => x.nnz() as u64 + dense_len(b) + dense_len(c),
            Workload::Ttv { x, v } => x.nnz() as u64 + v.len() as u64,
        }
    }

    /// A stable 64-bit content fingerprint: operand shapes, sparsity
    /// structure, and value bits, plus the workload kind and (for
    /// pipelines) the stage list and fusion flag. Two workloads with
    /// equal fingerprints describe the same computation for all practical
    /// purposes (it is a 64-bit hash, so collisions are possible in
    /// principle; callers that cannot tolerate that must compare operands
    /// directly).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fp::new(match self {
            Workload::Spmspm { .. } => 0x5350,
            Workload::Pipeline { .. } => 0x5049,
            Workload::Mttkrp { .. } => 0x4d54,
            Workload::Ttv { .. } => 0x5454,
        });
        match self {
            Workload::Spmspm { a, b } => {
                h.matrix(a);
                h.matrix(b);
            }
            Workload::Pipeline { input, pipe } => {
                match input {
                    WorkloadInput::Matrix(a) => h.matrix(a),
                    WorkloadInput::Tensor(x) => h.tensor(x),
                }
                h.u64(pipe.fused as u64);
                for m in pipe.micro3 {
                    h.u64(m as u64);
                }
                h.str(&pipe.name);
                for stage in &pipe.stages {
                    h.stage(stage);
                }
            }
            Workload::Mttkrp { x, b, c } => {
                h.tensor(x);
                h.dense(b);
                h.dense(c);
            }
            Workload::Ttv { x, v } => {
                h.tensor(x);
                h.f64s(v);
            }
        }
        h.finish()
    }
}

fn dense_len(d: &DenseMatrix) -> u64 {
    d.nrows() as u64 * d.ncols() as u64
}

fn stage_nnz_hint(stage: &Stage) -> u64 {
    match stage {
        Stage::Spmspm { b } => b.nnz() as u64,
        Stage::Sddmm { u, v } => dense_len(u) + dense_len(v),
        Stage::Spmm { h } => dense_len(h),
        Stage::Mttkrp { b, c } => dense_len(b) + dense_len(c),
        Stage::Ttv { v } => v.len() as u64,
        Stage::Gram => 0,
    }
}

/// One unit of work plus its service contract: how urgent it is, how long
/// it may run, and how much it may spend. Both the standalone
/// [`crate::session::Session::execute`] and the `drt-serve` pool execute
/// requests identically — same reports, bit for bit.
#[derive(Debug, Clone)]
pub struct Request {
    /// What to run.
    pub workload: Workload,
    /// Queue priority (ignored by standalone sessions, which have no
    /// queue).
    pub priority: Priority,
    /// Optional deadline, measured from submission (server) or from the
    /// start of `execute` (standalone). An expired deadline degrades the
    /// run at the next task boundary — it never errors.
    pub deadline: Option<Duration>,
    /// Per-request resource budget, combined with the executing session's
    /// own budget by pointwise minimum ([`ExecBudget::min_with`]) — a
    /// request can only tighten, never loosen, the server's caps.
    pub budget: ExecBudget,
    /// Which tenant submitted it (ignored by standalone sessions; the
    /// serving layer keys fair-share scheduling and stats rows on it).
    pub tenant: TenantId,
}

impl Request {
    /// A normal-priority request with no deadline and an unlimited
    /// budget. Executing it is exactly equivalent to running the
    /// workload directly on the session.
    pub fn new(workload: Workload) -> Request {
        Request {
            workload,
            priority: Priority::Normal,
            deadline: None,
            budget: ExecBudget::unlimited(),
            tenant: TenantId::ANONYMOUS,
        }
    }

    /// Builder: set the priority class.
    #[must_use]
    pub fn with_priority(mut self, p: Priority) -> Request {
        self.priority = p;
        self
    }

    /// Builder: set a deadline relative to submission.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Request {
        self.deadline = Some(d);
        self
    }

    /// Builder: set the per-request budget.
    #[must_use]
    pub fn with_budget(mut self, b: ExecBudget) -> Request {
        self.budget = b;
        self
    }

    /// Builder: attribute the request to a tenant.
    #[must_use]
    pub fn with_tenant(mut self, t: TenantId) -> Request {
        self.tenant = t;
        self
    }

    /// Whether this request is deterministic across *when* it runs: no
    /// deadline and no budget caps means the outcome depends only on the
    /// workload and the session, so a server may serve a memoized report
    /// for an identical recurring workload.
    pub fn is_memoizable(&self) -> bool {
        self.deadline.is_none() && !self.budget.is_limited()
    }
}

/// Stable rotate-xor-multiply fingerprint accumulator (the same cheap
/// mixing the engine's output-cache hasher uses; not cryptographic).
struct Fp(u64);

impl Fp {
    fn new(tag: u64) -> Fp {
        let mut fp = Fp(0x9E37_79B9_7F4A_7C15);
        fp.u64(tag);
        fp
    }

    fn u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(13) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.u64(*b as u64);
        }
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for v in vs {
            self.u64(v.to_bits());
        }
    }

    fn matrix(&mut self, m: &CsMatrix) {
        self.u64(m.nrows() as u64);
        self.u64(m.ncols() as u64);
        self.u64(matches!(m.major(), MajorAxis::Row) as u64);
        self.u64(m.seg().len() as u64);
        for s in m.seg() {
            self.u64(*s as u64);
        }
        for c in m.coord_array() {
            self.u64(*c as u64);
        }
        self.f64s(m.values());
    }

    fn dense(&mut self, d: &DenseMatrix) {
        self.u64(d.nrows() as u64);
        self.u64(d.ncols() as u64);
        self.f64s(d.data());
    }

    fn tensor(&mut self, t: &CsfTensor) {
        self.u64(t.ndim() as u64);
        for s in t.shape() {
            self.u64(*s as u64);
        }
        // Canonical point enumeration: CSF construction is deterministic
        // from the sorted unique points, so hashing the points hashes the
        // structure.
        for (point, v) in t.iter_points() {
            for c in point {
                self.u64(c as u64);
            }
            self.u64(v.to_bits());
        }
    }

    fn stage(&mut self, stage: &Stage) {
        self.str(stage.label());
        match stage {
            Stage::Spmspm { b } => self.matrix(b),
            Stage::Sddmm { u, v } => {
                self.dense(u);
                self.dense(v);
            }
            Stage::Spmm { h } => self.dense(h),
            Stage::Mttkrp { b, c } => {
                self.dense(b);
                self.dense(c);
            }
            Stage::Ttv { v } => self.f64s(v),
            Stage::Gram => {}
        }
    }

    fn finish(self) -> u64 {
        // One final avalanche round so short inputs still spread.
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drt_workloads::patterns::unstructured;

    #[test]
    fn priority_orders_interactive_first() {
        assert!(Priority::Interactive > Priority::Normal);
        assert!(Priority::Normal > Priority::Batch);
        assert_eq!(Priority::parse("high"), Some(Priority::Interactive));
        assert_eq!(Priority::parse("batch"), Some(Priority::Batch));
        assert_eq!(Priority::parse("nope"), None);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn fingerprint_distinguishes_operands_and_kinds() {
        let a = unstructured(32, 32, 100, 2.0, 1);
        let b = unstructured(32, 32, 100, 2.0, 2);
        let wa = Workload::spmspm(a.clone(), a.clone());
        let wb = Workload::spmspm(a.clone(), b.clone());
        assert_ne!(wa.fingerprint(), wb.fingerprint(), "different operands");
        assert_eq!(wa.fingerprint(), Workload::spmspm(a.clone(), a.clone()).fingerprint());
        let pipe = Workload::pipeline_on_matrix(a.clone(), PipelineSpec::spmspm(a.clone()));
        assert_ne!(wa.fingerprint(), pipe.fingerprint(), "kind is part of the fingerprint");
    }

    #[test]
    fn fingerprint_sees_value_bits() {
        let a = unstructured(16, 16, 40, 2.0, 7);
        let entries: Vec<(u32, u32, f64)> = a.iter().collect();
        let mut bumped = entries.clone();
        bumped[0].2 = f64::from_bits(bumped[0].2.to_bits() + 1);
        let b = CsMatrix::from_entries(a.nrows(), a.ncols(), entries, a.major());
        let c = CsMatrix::from_entries(a.nrows(), a.ncols(), bumped, a.major());
        assert_ne!(
            Workload::spmspm(b.clone(), b).fingerprint(),
            Workload::spmspm(c.clone(), c).fingerprint(),
            "one flipped mantissa bit must change the fingerprint"
        );
    }

    #[test]
    fn default_request_is_memoizable_and_budgeted_requests_are_not() {
        let a = unstructured(16, 16, 40, 2.0, 3);
        let req = Request::new(Workload::spmspm(a.clone(), a.clone()));
        assert!(req.is_memoizable());
        assert!(!req.clone().with_deadline(Duration::from_secs(1)).is_memoizable());
        assert!(!req.with_budget(ExecBudget::suc_only()).is_memoizable());
    }

    #[test]
    fn tenant_ids_default_anonymous_and_hash_stably_from_names() {
        let a = unstructured(16, 16, 40, 2.0, 3);
        let req = Request::new(Workload::spmspm(a.clone(), a));
        assert_eq!(req.tenant, TenantId::ANONYMOUS);
        let t = TenantId::from_name("alice");
        assert_eq!(t, TenantId::from_name("alice"), "name hashing is stable");
        assert_ne!(t, TenantId::from_name("bob"));
        assert_ne!(t, TenantId::ANONYMOUS, "named tenants never collide with anonymous");
        assert_eq!(req.with_tenant(t).tenant, t);
        assert_eq!(format!("{}", TenantId(7)), "tenant-7");
    }

    #[test]
    fn nnz_hint_counts_both_operands() {
        let a = unstructured(32, 32, 100, 2.0, 1);
        let nnz = a.nnz() as u64;
        let w = Workload::spmspm(a.clone(), a);
        assert_eq!(w.nnz_hint(), 2 * nnz);
    }
}

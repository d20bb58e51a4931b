//! # drt-serve — the multi-tenant serving layer
//!
//! A persistent shared worker pool that multiplexes concurrent clients
//! over the accelerator model, replacing spawn-a-`Session`-per-call:
//!
//! * **Unified typed API** — clients build a
//!   [`Workload`](drt_accel::workload::Workload) (SpMSpM, staged
//!   pipeline, MTTKRP, TTV) and wrap it in a
//!   [`Request`](drt_accel::workload::Request) with priority, deadline,
//!   budget and tenant. The server and a standalone
//!   [`Session`](drt_accel::session::Session) execute the *same*
//!   request structs through the *same* code path, so a served
//!   response's report is bit-identical to a direct run.
//! * **Admission control, not unbounded queueing** — the queue is
//!   strictly bounded; beyond capacity, submits are rejected
//!   immediately ([`ServeError::Rejected`]). With
//!   [`AdmissionPolicy::DegradeThenReject`], pressure above the
//!   `degrade_above` watermark latches load shedding — admitted
//!   requests degrade to S-U-C-only execution (DRT planning skipped)
//!   until the depth falls back to `restore_below`: the same
//!   graceful-degradation machinery the engine uses for budget
//!   exhaustion, repurposed as hysteretic load shedding.
//! * **Priority scheduling with per-tenant fair share** — interactive >
//!   normal > batch; within a class, tenants are served by deficit
//!   round-robin over request cost, FIFO within each tenant, so one
//!   flooding tenant cannot starve the others. [`StatsSnapshot`] keeps
//!   one counter row per tenant.
//! * **Worker supervision** — each request executes once under panic
//!   isolation: a crashing workload resolves its ticket with
//!   [`ServeError::WorkerCrashed`] while the worker survives. Workloads
//!   that keep crashing are quarantined by content fingerprint
//!   ([`ServeError::Quarantined`]) after
//!   [`ServeConfig::quarantine_after`] crashes, so a poison request
//!   cannot grind the pool down; [`Server::clear_quarantine`] lifts a
//!   quarantine.
//! * **Small-kernel batching** — a worker drains up to
//!   [`ServeConfig::batch_max`] consecutive small requests in one trip
//!   to the queue lock, amortizing contention under high request rates.
//! * **Recurring-workload cache** — identical memoizable workloads
//!   (matched by content fingerprint) reuse the first run's report;
//!   reports are deterministic, so a replay is indistinguishable from a
//!   re-run.
//! * **Deadlines & cancellation** — per-request deadlines are measured
//!   from *submission* and armed on isolated
//!   [`CancelToken::child`](drt_core::cancel::CancelToken::child)
//!   tokens; the caller's session token remains a kill switch over all
//!   in-flight work, and [`Server::abort`] stops everything at the next
//!   task boundary.
//!
//! Every fallible step answers through the typed error surface — note
//! the `match` on `served.response` below rather than an `unwrap`: a
//! request can come back `Ok` (complete or degraded) or with a typed
//! [`ServeError`] (admission, run failure, or a crashed worker), and
//! callers are expected to branch on it.
//!
//! ```no_run
//! use drt_accel::session::Session;
//! use drt_accel::workload::{Priority, Request, Workload};
//! use drt_serve::{ServeConfig, ServeError, Server};
//! # let a: drt_tensor::CsMatrix = unimplemented!();
//! # let b: drt_tensor::CsMatrix = unimplemented!();
//!
//! let server =
//!     Server::start(Session::from_registry("extensor-op-drt")?, ServeConfig::default())?;
//! let ticket = server.submit(
//!     Request::new(Workload::spmspm(a, b))
//!         .with_priority(Priority::Interactive)
//!         .with_deadline(std::time::Duration::from_millis(50)),
//! )?;
//! let served = ticket.wait()?;
//! match served.response {
//!     Ok(outcome) => println!("{} cycles", outcome.report().compute_cycles),
//!     Err(ServeError::WorkerCrashed { message }) => eprintln!("crashed: {message}"),
//!     Err(e) => eprintln!("not served: {e}"),
//! }
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod config;
pub mod error;
mod queue;
pub mod server;
pub mod stats;

pub use config::{AdmissionPolicy, ServeConfig};
pub use error::ServeError;
pub use server::{Served, Server, Ticket};
pub use stats::{ServeStats, StatsSnapshot, TenantCounters};

//! `serve-open`: an open loop against a `drt-serve` pool of one worker.
//! One generator thread sends requests on a fixed schedule, at each rate
//! of a fixed ladder in turn, whatever the server's state.

use crate::common::{self, digest, ms, Outcome, SETUP_REPS};
use crate::layers::LayerAcc;
use crate::stats::{self, Rng};
use crate::trace::{Span, Tracer};
use drt_accel::pipeline::PipelineSpec;
use drt_accel::session::Session;
use drt_accel::workload::{Priority, Request, TenantId, Workload};
use drt_serve::{ServeConfig, ServeError, Served, Server, StatsSnapshot, Ticket};
use drt_tensor::CsMatrix;
use drt_workloads::patterns;
use drt_workloads::tensor3::{dense_factor, Tensor3Gen};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rates in requests per second, lowest first, each for a third
/// of `--seconds`, the reference rung for [`REFERENCE_SHARE`] thirds. The pool drains between blocks. The rungs sit far
/// from the pool's capacity (about 500 req/s on a 2-vCPU Xeon host) on
/// either side, so the verdicts hold through the host's own slowdowns.
const LADDER_RPS: [f64; 3] = [100.0, 200.0, 1600.0];
/// The rung whose latencies are `latency_p50_ms` and `latency_tail_ms`:
/// a light load, where they measure service rather than queueing.
const REFERENCE_RUNG: usize = 0;
/// The reference rung runs this many times as long as each other rung.
/// Its tail is the eleventh-slowest request, and the large kernels are the
/// slowest: with about 45 of them rather than 21, the tail sits in the
/// upper quarter of their latencies, not at their median, where it jumped
/// between runs with how many of them happened to wait.
const REFERENCE_SHARE: f64 = 2.0;
/// A rung meets the limit when its tail latency is at most this. It sits
/// well above the tails of the rungs below capacity, so a host stall of a
/// few tens of milliseconds does not fail a rung; overload fails it.
const TAIL_LIMIT_MS: f64 = 250.0;
/// Distinct workloads in the pool; more than the memo cache's default 256
/// entries, so hits, misses and evictions all occur.
const POOL: usize = 1024;
/// Zipf exponent of the popularity skew over the pool.
const ZIPF_S: f64 = 0.4;
/// One request in this many is a large kernel.
const LARGE_EVERY: usize = 16;
/// Interleaved rounds of the rungs below the top one.
const ROUNDS: usize = 5;
/// Requests sent one at a time before the ladder, to fill the memo cache.
const WARMUP: usize = 1000;
/// Distinct operands the large kernels pair up: 12 x 12 pairs cover the
/// pool's large items with a twelfth of the generation.
const LARGE_OPERANDS: usize = 12;
/// Side of the large operands.
const LARGE_N: u32 = 2048;
/// Non-zeros of each large operand.
const LARGE_NNZ: usize = 24_000;
/// Structure seed of the large operands' shared pattern.
const LARGE_STRUCTURE_SEED: u64 = 0x1A26_5EED;

/// The request pool: small SpMSpM kernels, abc chains and MTTKRP, and one
/// item in ten an SpMSpM far above `small_nnz` (about 15 ms of host time),
/// which ends a batch and makes the requests behind it wait.
fn pool(seed: u64) -> Vec<(&'static str, Workload)> {
    let mut rng = Rng::new(seed, 0x5E7E);
    let m = |r, c, nnz, seed| patterns::unstructured(r, c, nnz, 1.0, seed);
    // The large operands share one pattern, from a fixed structure seed;
    // the seed relabels it by a symmetric permutation and draws each
    // operand's values. Every large product is then `P (A A) Pᵀ` with its
    // own values: a memo miss, and the same work as every other one. The
    // large kernels set the tail, which then does not hang on which of
    // them a seed happens to draw.
    let p = common::permutation(LARGE_N, &mut rng);
    let pattern = m(LARGE_N, LARGE_N, LARGE_NNZ, LARGE_STRUCTURE_SEED);
    let large: Vec<Arc<CsMatrix>> = (0..LARGE_OPERANDS)
        .map(|_| Arc::new(common::relabel(&pattern, Some(&p), Some(&p), &mut rng)))
        .collect();
    (0..POOL)
        .map(|k| {
            let s = rng.next_u64() >> 8;
            match k % 10 {
                0 => {
                    let j = k / 10;
                    let (a, b) = (j % LARGE_OPERANDS, (j / LARGE_OPERANDS) % LARGE_OPERANDS);
                    ("spmspm-large", Workload::spmspm(Arc::clone(&large[a]), Arc::clone(&large[b])))
                }
                1 => (
                    "abc-chain",
                    Workload::pipeline_on_matrix(
                        m(96, 80, 1200, s),
                        PipelineSpec::abc(m(80, 88, 1100, s + 1), m(88, 72, 1000, s + 2)),
                    ),
                ),
                2 => (
                    "mttkrp",
                    Workload::mttkrp(
                        Tensor3Gen::mode_skewed(48, 40, 44, 2400, s).generate(),
                        dense_factor(40, 16, s + 1),
                        dense_factor(44, 16, s + 2),
                    ),
                ),
                _ => ("spmspm-small", Workload::spmspm(m(96, 96, 2000, s), m(96, 96, 2000, s + 1))),
            }
        })
        .collect()
}

/// The session every request runs on, served and standalone alike.
fn session() -> Session {
    Session::from_registry("extensor-op-drt").expect("registered variant")
}

/// One pool worker, a queue that never refuses at these rates, and the
/// default batching, `small_nnz` and memo cache.
fn serve_config() -> ServeConfig {
    ServeConfig::default().with_workers(1).with_queue_capacity(1 << 16)
}

/// Pool items of one class (large or not), in a seeded popularity order.
struct Popularity {
    /// Zipf rank → pool index.
    by_rank: Vec<usize>,
    cdf: Vec<f64>,
}

impl Popularity {
    fn new(mut ids: Vec<usize>, skew: f64, rng: &mut Rng) -> Popularity {
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let cdf = stats::zipf_cdf(ids.len(), skew);
        Popularity { by_rank: ids, cdf }
    }

    fn draw(&self, rng: &mut Rng) -> usize {
        self.by_rank[stats::zipf_draw(&self.cdf, rng)]
    }
}

/// A set-up server with its pool and reference digests.
struct ServeSetup {
    pool: Vec<(&'static str, Workload)>,
    reference: Vec<u64>,
    large: Popularity,
    other: Popularity,
    server: Server,
}

fn setup(seed: u64) -> ServeSetup {
    let pool = pool(seed);
    let standalone = session();
    let reference = pool
        .iter()
        .map(|(kind, w)| {
            let r = standalone.run_workload(w).unwrap_or_else(|e| panic!("reference {kind}: {e}"));
            digest(r.report())
        })
        .collect();
    let mut rng = Rng::new(seed, 0x4A4C);
    let (large, other): (Vec<usize>, Vec<usize>) =
        (0..pool.len()).partition(|&k| pool[k].0 == "spmspm-large");
    // Large kernels are drawn without skew, so each is asked for again only
    // long after the memo cache evicted it: they all miss, and every block
    // carries the same share of them.
    let (large, other) =
        (Popularity::new(large, 0.0, &mut rng), Popularity::new(other, ZIPF_S, &mut rng));
    let server = Server::start(session(), serve_config()).expect("start the serve pool");
    ServeSetup { pool, reference, large, other, server }
}

const TENANTS: [&str; 3] = ["tenant-a", "tenant-b", "tenant-c"];
const CLASSES: [Priority; 3] = [Priority::Interactive, Priority::Normal, Priority::Batch];

/// The `i`-th request of a seeded stream: pool index, tenant, class. Every
/// [`LARGE_EVERY`]-th request is a large kernel, so each block carries the
/// same number of them, evenly spaced; the rest follow the skew over the
/// other kernels.
fn draw(st: &ServeSetup, i: usize, rng: &mut Rng) -> (usize, usize, usize) {
    let w = if i.is_multiple_of(LARGE_EVERY) { st.large.draw(rng) } else { st.other.draw(rng) };
    (w, rng.below(3) as usize, rng.below(3) as usize)
}

fn request(st: &ServeSetup, (w, t, c): (usize, usize, usize)) -> Request {
    Request::new(st.pool[w].1.clone())
        .with_tenant(TenantId::from_name(TENANTS[t]))
        .with_priority(CLASSES[c])
}

/// Fill the memo cache: requests from the stream's distribution, one at a
/// time.
fn warm_up(st: &ServeSetup, seed: u64) {
    let mut rng = Rng::new(seed, 0x3A53);
    for i in 0..WARMUP {
        let d = draw(st, i, &mut rng);
        if let Ok(t) = st.server.submit(request(st, d)) {
            let _ = t.wait();
        }
    }
}

/// One request as measured; offsets from its rung's start.
#[derive(Debug, Clone)]
struct Record {
    scheduled: Duration,
    submit_start: Duration,
    submit_end: Duration,
    /// Completion, `None` when refused at admission.
    done: Option<Duration>,
    queue_wait: Duration,
    exec: Duration,
    cache_hit: bool,
    tasks: u64,
    ok: bool,
}

impl Record {
    /// Open-loop latency in ms; a refused or failed request misses every
    /// limit.
    fn latency_ms(&self) -> f64 {
        match self.done {
            Some(done) if self.ok => ms(stats::open_loop_latency(self.scheduled, done)),
            _ => f64::INFINITY,
        }
    }
}

/// Time before a send below which the generator collects no answer.
const COLLECT_SLACK: Duration = Duration::from_micros(100);
/// Time before a send below which the generator spins instead of sleeping.
const SLEEP_SLACK: Duration = Duration::from_micros(300);

/// Fill `rec` from a request's answer and check it against the reference.
fn finish(
    st: &ServeSetup,
    w: usize,
    rec: &mut Record,
    served: Result<Served, ServeError>,
    errors: &mut Vec<String>,
) {
    let served = match served {
        Ok(s) => s,
        Err(e) => {
            errors.push(format!("request for pool item {w} refused or lost: {e}"));
            return;
        }
    };
    rec.done = Some(rec.submit_start + served.total_time);
    rec.queue_wait = served.queue_wait;
    rec.exec = served.exec_time;
    rec.cache_hit = served.cache_hit;
    match &served.response {
        Ok(resp) if resp.is_degraded() => errors.push(format!("pool item {w}: degraded")),
        Ok(resp) if digest(resp.report()) != st.reference[w] => {
            errors.push(format!("pool item {w}: served report differs from standalone"))
        }
        Ok(resp) => {
            rec.ok = true;
            rec.tasks = resp.report().tasks;
        }
        Err(e) => errors.push(format!("pool item {w}: {e}")),
    }
}

/// Answers not yet collected, one FIFO lane per (class, tenant): the queue
/// serves each such lane in order, so only lane heads can be ready.
struct Pending {
    lanes: Vec<VecDeque<(usize, Ticket)>>,
}

impl Pending {
    fn new() -> Pending {
        Pending { lanes: (0..CLASSES.len() * TENANTS.len()).map(|_| VecDeque::new()).collect() }
    }

    fn push(&mut self, (_, t, c): (usize, usize, usize), i: usize, ticket: Ticket) {
        self.lanes[c * TENANTS.len() + t].push_back((i, ticket));
    }

    /// Take one answer that is ready at a lane head.
    fn ready(&mut self) -> Option<(usize, Served)> {
        self.lanes.iter_mut().find_map(|lane| {
            let served = lane.front()?.1.try_wait()?;
            lane.pop_front().map(|(i, _)| (i, served))
        })
    }

    /// Wait for every remaining answer.
    fn drain(self) -> impl Iterator<Item = (usize, Result<Served, ServeError>)> {
        self.lanes.into_iter().flatten().map(|(i, t)| (i, t.wait()))
    }
}

/// Send `n` requests at `rate` and check every answer. Answers are
/// collected as they become ready, in the generator's idle time and after
/// each send, so answered reports never pile up in memory.
fn run_rung(
    st: &ServeSetup,
    rate: f64,
    n: usize,
    rng: &mut Rng,
    errors: &mut Vec<String>,
) -> Vec<Record> {
    let draws: Vec<(usize, usize, usize)> = (0..n).map(|i| draw(st, i, rng)).collect();
    let interval = Duration::from_secs_f64(1.0 / rate);
    let mut records: Vec<Record> = Vec::with_capacity(n);
    let mut pending = Pending::new();
    let origin = Instant::now() + Duration::from_millis(2);
    for (i, &d) in draws.iter().enumerate() {
        let scheduled = interval * i as u32;
        let due = origin + scheduled;
        loop {
            let now = Instant::now();
            if now >= due {
                break;
            }
            let rem = due - now;
            let ready = if rem > COLLECT_SLACK { pending.ready() } else { None };
            match ready {
                Some((j, served)) => finish(st, draws[j].0, &mut records[j], Ok(served), errors),
                None if rem > SLEEP_SLACK => {
                    std::thread::sleep((rem - SLEEP_SLACK).min(Duration::from_micros(500)))
                }
                None => std::hint::spin_loop(),
            }
        }
        let req = request(st, d);
        let t0 = Instant::now();
        let ticket = st.server.submit(req);
        let t1 = Instant::now();
        records.push(Record {
            scheduled,
            submit_start: t0 - origin,
            submit_end: t1 - origin,
            done: None,
            queue_wait: Duration::ZERO,
            exec: Duration::ZERO,
            cache_hit: false,
            tasks: 0,
            ok: false,
        });
        match ticket {
            Ok(t) => pending.push(d, i, t),
            Err(e) => finish(st, d.0, &mut records[i], Err(e), errors),
        }
        // Under overload the generator has no idle time; collecting what
        // is ready after each send keeps pace with the completions.
        while let Some((j, served)) = pending.ready() {
            finish(st, draws[j].0, &mut records[j], Ok(served), errors);
        }
    }
    for (j, served) in pending.drain() {
        finish(st, draws[j].0, &mut records[j], served, errors);
    }
    records
}

/// One block of requests at one rate: a round's share of a rung.
#[derive(Debug)]
struct Block {
    records: Vec<Record>,
    /// Start to last completion.
    span: Duration,
    p50: f64,
    /// Backlog at the block's end minus backlog at its middle.
    growth: i64,
}

impl Block {
    fn judge(duration: Duration, records: Vec<Record>) -> Block {
        let lat = stats::sorted(records.iter().map(Record::latency_ms).collect());
        let p50 = stats::percentile(&lat, 0.5).unwrap_or(f64::INFINITY);
        let due_done: Vec<(Duration, Duration)> =
            records.iter().map(|r| (r.scheduled, r.done.unwrap_or(Duration::MAX))).collect();
        let mid = stats::backlog_at(&due_done, duration / 2) as i64;
        let end = stats::backlog_at(&due_done, duration) as i64;
        let span = records.iter().filter_map(|r| r.done).max().unwrap_or(duration);
        Block { records, span, p50, growth: end - mid }
    }
}

/// One ladder rate and its verdict over every block sent at it.
#[derive(Debug)]
struct Rung {
    rate: f64,
    blocks: Vec<Block>,
}

impl Rung {
    fn records(&self) -> impl Iterator<Item = &Record> {
        self.blocks.iter().flat_map(|b| &b.records)
    }

    fn completed(&self) -> usize {
        self.records().filter(|r| r.ok).count()
    }

    fn span(&self) -> Duration {
        self.blocks.iter().map(|b| b.span).sum()
    }

    /// Tail latency over every request of the rung, in ms.
    fn tail(&self) -> f64 {
        let lat = stats::sorted(self.records().map(Record::latency_ms).collect());
        stats::tail(&lat).map_or(f64::INFINITY, |t| t.value)
    }

    /// Meets the tail limit, and the backlog does not grow: summed over
    /// the blocks, it grows from middle to end by less than one request in
    /// twenty (a long request at a block's end leaves a brief backlog
    /// without any overload).
    fn passed(&self) -> bool {
        let growth: i64 = self.blocks.iter().map(|b| b.growth).sum();
        let slack = (self.records().count() / 20).max(10) as i64;
        self.tail() <= TAIL_LIMIT_MS && growth <= slack
    }

    /// Completions per second over the blocks' starts to last completions.
    fn achieved_rps(&self) -> f64 {
        stats::throughput(self.completed() as u64, self.span())
    }
}

/// Run the ladder on a warmed server. The rungs below the top one run
/// interleaved, [`ROUNDS`] short blocks each, so a host slowdown lands on
/// a share of every rung rather than on all of one; the top rung, which
/// probes overload, runs last in one block. Also returns the server
/// counters and the peak resident set taken before the top rung:
/// `peak_rss_mb` and the per-layer serve metrics describe the rungs below.
fn run_ladder(
    st: &ServeSetup,
    seed: u64,
    seconds: f64,
    errors: &mut Vec<String>,
) -> (Vec<Rung>, (StatsSnapshot, f64)) {
    let per_rung = seconds / LADDER_RPS.len() as f64;
    let mut rng = Rng::new(seed, 0x1ADD);
    let mut rungs: Vec<Rung> =
        LADDER_RPS.iter().map(|&rate| Rung { rate, blocks: Vec::new() }).collect();
    let top = rungs.len() - 1;
    let mut block = |rung: &mut Rung, secs: f64, rng: &mut Rng| {
        let n = (rung.rate * secs).round() as usize;
        let records = run_rung(st, rung.rate, n, rng, errors);
        rung.blocks.push(Block::judge(Duration::from_secs_f64(secs), records));
    };
    for _ in 0..ROUNDS {
        for (i, rung) in rungs[..top].iter_mut().enumerate() {
            let share = if i == REFERENCE_RUNG { REFERENCE_SHARE } else { 1.0 };
            block(rung, share * per_rung / ROUNDS as f64, &mut rng);
        }
    }
    let below_top = (st.server.stats(), common::peak_rss_mb());
    block(&mut rungs[top], per_rung, &mut rng);
    (rungs, below_top)
}

fn describe() -> String {
    format!(
        "workload: open loop, 1 generator thread + 1 pool worker | pool of {POOL} kernels \
         (7/10 small SpMSpM, 1/10 abc chain, 1/10 MTTKRP, 1/10 large SpMSpM above small_nnz); \
         every {LARGE_EVERY}th request a uniformly drawn large kernel, the rest Zipf s={ZIPF_S} | {} tenants x {} classes | ladder {:?} req/s, the rungs below the top in {ROUNDS} \
         interleaved rounds | tail limit {TAIL_LIMIT_MS} ms | latency metrics at {} req/s, a rung {REFERENCE_SHARE} times as long | memo \
         warmed by {WARMUP} requests",
        TENANTS.len(),
        CLASSES.len(),
        LADDER_RPS,
        LADDER_RPS[REFERENCE_RUNG]
    )
}

/// Run `serve-open` and fill `out`.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &mut Outcome) {
    let reps = if trace { 1 } else { SETUP_REPS };
    let (setup_s, st) = common::timed_setup(reps, || setup(seed));
    out.note(describe());
    warm_up(&st, seed);
    let mut errors = Vec::new();
    let (rungs, (_, rss_below_top)) = run_ladder(&st, seed, seconds, &mut errors);
    drop(st.server.shutdown());
    for r in &rungs {
        out.note(format!(
            "rung {:>6.0} req/s: {} sent, {} ok, {} memo hits | tail {:.3} ms | block p50s {:?} ms | {}",
            r.rate,
            r.records().count(),
            r.completed(),
            r.records().filter(|x| x.cache_hit).count(),
            r.tail(),
            r.blocks.iter().map(|b| (b.p50 * 1e3).round() / 1e3).collect::<Vec<_>>(),
            if r.passed() { "meets the limit" } else { "misses the limit" }
        ));
    }
    let attempted: usize = rungs.iter().map(|r| r.records().count()).sum();
    let completed: usize = rungs.iter().map(Rung::completed).sum();
    out.attempted = attempted as u64;
    out.failed = (attempted - completed) as u64;
    if trace {
        // A fresh, equally warmed server, so the traced ladder starts from
        // the state the untraced one did.
        let st = setup(seed);
        warm_up(&st, seed);
        let before = st.server.stats();
        let mut traced_errors = Vec::new();
        let (traced, (below_top, _)) = run_ladder(&st, seed, seconds, &mut traced_errors);
        drop(st.server.shutdown());
        let below = &traced[..traced.len() - 1];
        let mut acc = LayerAcc::default();
        let tracer = trace_layers(below, &before, &below_top, &mut acc);
        let overhead =
            mean_latency(&traced[REFERENCE_RUNG]) / mean_latency(&rungs[REFERENCE_RUNG]).max(1e-12);
        out.note("traced serve metrics cover the rungs below the top (overload) rung");
        crate::finish_trace_ratio(out, &tracer, &mut acc, overhead);
    } else {
        let window: Duration = rungs.iter().map(Rung::span).sum();
        let tasks: u64 =
            rungs.iter().flat_map(Rung::records).filter(|r| r.ok).map(|r| r.tasks).sum();
        // Latency at the reference rate: the median is the median over its
        // blocks of each block's median, so one slow block does not move
        // it; the tail is over all its requests, where the large kernels
        // (one in sixteen, all memo misses) outnumber the ten samples
        // beyond it.
        let reference = &rungs[REFERENCE_RUNG];
        let p50s: Vec<f64> = reference.blocks.iter().map(|b| b.p50).collect();
        out.put("setup_s", setup_s, "s");
        out.put("throughput_ops_s", stats::throughput(completed as u64, window), "1/s");
        out.put("latency_p50_ms", stats::median(&p50s), "ms");
        let lat = stats::sorted(reference.records().map(Record::latency_ms).collect());
        match stats::tail(&lat) {
            Some(t) => {
                out.put("latency_tail_ms", t.value, "ms");
                out.note(format!("latency_tail_ms is p{:.2} of {} samples", t.pct, t.samples));
            }
            None => out.put("latency_tail_ms", f64::INFINITY, "ms"),
        }
        out.put("sim_tasks_per_s", stats::throughput(tasks, window), "1/s");
        out.put("peak_rss_mb", rss_below_top, "MB");
        let best = rungs.iter().rev().find(|r| r.passed());
        out.put("max_rate_rps", best.map_or(0.0, Rung::achieved_rps), "1/s");
        out.note(format!(
            "max_rate_rps: the {} req/s rung, as completions per second to its blocks' last completions",
            best.map_or(0.0, |r| r.rate)
        ));
    }
    out.failures(&errors);
}

/// Mean latency of a rung's completed requests, in ms.
fn mean_latency(rung: &Rung) -> f64 {
    let lat: Vec<f64> = rung.records().map(Record::latency_ms).filter(|l| l.is_finite()).collect();
    lat.iter().sum::<f64>() / lat.len().max(1) as f64
}

/// Per-layer serve metrics of the traced ladder, and its spans: each
/// request from its scheduled send, with the generator's lateness, the
/// `submit` call, the queue wait and the execution as children.
fn trace_layers(
    rungs: &[Rung],
    before: &StatsSnapshot,
    after: &StatsSnapshot,
    acc: &mut LayerAcc,
) -> Tracer {
    let mut tracer = Tracer::new(Instant::now());
    let (mut queue, mut exec, mut admit, mut late) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut base = Duration::ZERO;
    for block in rungs.iter().flat_map(|r| &r.blocks) {
        for r in &block.records {
            let at = |d: Duration| base + d;
            let end = r.done.unwrap_or(r.submit_end);
            let root = tracer.push(Span {
                name: "request".into(),
                layer: "serve",
                start: at(r.scheduled),
                end: at(end.max(r.submit_end)),
                parent: None,
            });
            let mut child = |name: &str, layer: &'static str, s: Duration, e: Duration| {
                tracer.push(Span {
                    name: name.into(),
                    layer,
                    start: at(s),
                    end: at(e.max(s)),
                    parent: Some(root),
                });
            };
            child("harness.gen_late", "harness", r.scheduled, r.submit_start.max(r.scheduled));
            child("serve.admit", "serve", r.submit_start, r.submit_end);
            late.push(ms(stats::lateness(r.scheduled, r.submit_start)));
            admit.push((r.submit_end - r.submit_start).as_secs_f64() * 1e6);
            if r.done.is_some() {
                let dequeued = r.submit_start + r.queue_wait;
                child("serve.queue", "serve", r.submit_end.min(dequeued), dequeued);
                child("accel.exec", "accel", dequeued, dequeued + r.exec);
                queue.push(ms(r.queue_wait));
                if !r.cache_hit {
                    exec.push(ms(r.exec));
                }
            }
        }
        base += block.span.max(block.records.last().map_or(Duration::ZERO, |r| r.submit_end));
    }
    let mut summary = |name: &str, xs: Vec<f64>| {
        let xs = stats::sorted(xs);
        acc.set(
            &format!("{name}_p50_{}", unit_of(name)),
            stats::percentile(&xs, 0.5).unwrap_or(0.0),
        );
        let tail = stats::tail(&xs).map_or_else(|| xs.last().copied().unwrap_or(0.0), |t| t.value);
        acc.set(&format!("{name}_tail_{}", unit_of(name)), tail);
    };
    summary("serve.queue_wait", queue);
    summary("serve.exec", exec);
    summary("serve.admit", admit);
    let late = stats::sorted(late);
    acc.set("serve.gen_late_p50_ms", stats::percentile(&late, 0.5).unwrap_or(0.0));
    acc.set("serve.gen_late_max_ms", late.last().copied().unwrap_or(0.0));
    let completed = (after.completed - before.completed) as f64;
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let batched = (after.batched_requests - before.batched_requests) as f64;
    acc.set("serve.memo_hit_frac", if completed > 0.0 { hits / completed } else { 0.0 });
    acc.set("serve.memo_evictions", (after.cache_evictions - before.cache_evictions) as f64);
    acc.set("serve.batched_frac", if completed > 0.0 { batched / completed } else { 0.0 });
    acc.set("serve.max_queue_depth", after.max_queue_depth as f64);
    acc.set("serve.shed", (after.shed - before.shed) as f64);
    acc.set("serve.rejected", (after.rejected - before.rejected) as f64);
    tracer
}

fn unit_of(name: &str) -> &'static str {
    if name == "serve.admit" {
        "us"
    } else {
        "ms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_fixed_seed_gives_identical_requests() {
        let fps = |seed| pool(seed).iter().map(|(_, w)| w.fingerprint()).collect::<Vec<u64>>();
        let (x, y) = (fps(5), fps(5));
        assert_eq!(x, y);
        assert_ne!(x, fps(6), "another seed must give another pool");
        let distinct: std::collections::BTreeSet<u64> = x.iter().copied().collect();
        assert_eq!(distinct.len(), POOL, "pool items must be distinct workloads");
        let large = pool(5).iter().filter(|(_, w)| w.nnz_hint() > serve_config().small_nnz).count();
        assert!(large > 0 && large < POOL / 2, "a minority sits above small_nnz: {large}");
    }
}

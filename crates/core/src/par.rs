//! A small scoped-thread parallel map shared by the engine and the bench
//! harness.
//!
//! Callers fan independent work items (bench cells, engine task shards)
//! out over OS threads — the offline build has no rayon — while keeping
//! results **deterministically ordered by input index**, so reduced
//! reports, `--json` output, and table rows are byte-identical across runs
//! regardless of scheduling.
//!
//! Two entry points:
//!
//! * [`par_map`] sizes its pool from `std::thread::available_parallelism`,
//!   overridable with the `DRT_BENCH_THREADS` environment variable
//!   (`DRT_BENCH_THREADS=1` forces sequential runs, useful when timing a
//!   single cell). [`env_threads`] is the one parser of that variable.
//! * [`par_map_threads`] takes an explicit worker count, and
//!   [`par_map_isolated`] is its panic-isolating form — the engine's
//!   sharded execution layer uses the latter so a `Session`'s
//!   `threads(n)` knob is authoritative rather than environment-dependent,
//!   and one panicked shard keeps the results of the shards below it.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A captured worker panic from [`par_map_isolated`]: which item panicked
/// and the stringified payload. The index makes the failure *addressable*
/// — the engine keeps the shards below the lowest failing one, and the
/// error surfaced to callers names the failing task range.
#[derive(Debug, Clone)]
pub struct ItemPanic {
    /// Input index of the item whose closure panicked.
    pub index: usize,
    /// The panic payload, stringified (`&str`/`String` payloads verbatim;
    /// anything else becomes an opaque placeholder).
    pub message: String,
}

impl std::fmt::Display for ItemPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "item {} panicked: {}", self.index, self.message)
    }
}

/// Stringify a caught panic payload (`&str`/`String` payloads verbatim;
/// anything else becomes an opaque placeholder). The shared vocabulary
/// for every layer that isolates panics — engine shards, the serving
/// layer's worker supervision — so crash messages look the same
/// everywhere.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` under `catch_unwind`, mapping a panic to its stringified
/// payload. The single-closure form of [`par_map_isolated`]'s per-item
/// isolation: the serving layer wraps each request execution in this so
/// a panic that escapes the engine's own shard isolation (taskgen, memo
/// paths, analytic models) crashes the *request*, never the worker
/// thread. Shares [`par_map_isolated`]'s unwind-safety stance: `f` must
/// leave shared state poison-recoverable, which every lock in this
/// workspace is (`PoisonError::into_inner`).
pub fn run_isolated<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// Default pool size for long-lived worker pools (the serving layer):
/// host parallelism, overridable with `DRT_BENCH_THREADS` like
/// [`thread_count`], but not clamped to an item count — a persistent pool
/// outlives any one batch of work.
pub fn default_pool_size() -> usize {
    thread_count(usize::MAX)
}

/// The `DRT_BENCH_THREADS` override, parsed in this one place for every
/// consumer: `None` when it is unset, unparsable, or 0. Callers pick
/// their own fallback — host parallelism for [`thread_count`], serial
/// engine runs for the bench harness.
pub fn env_threads() -> Option<usize> {
    parse_threads(std::env::var("DRT_BENCH_THREADS").ok().as_deref())
}

fn parse_threads(value: Option<&str>) -> Option<usize> {
    value?.trim().parse::<usize>().ok().filter(|&t| t >= 1)
}

/// Number of worker threads [`par_map`] will use for `n` items.
pub fn thread_count(n: usize) -> usize {
    let hw = env_threads()
        .unwrap_or_else(|| std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1));
    hw.min(n).max(1)
}

/// Apply `f` to every item on a pool of scoped threads and return the
/// results **in input order**. Pool size comes from [`thread_count`].
///
/// `f` receives `(index, &item)`. Work is distributed dynamically (an
/// atomic cursor), so cells with very different costs still load-balance.
/// A panic in any invocation propagates to the caller, so validation
/// asserts inside cells still abort the bench run.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_threads(thread_count(items.len()), items, f)
}

/// [`par_map`] with an explicit worker count (clamped to the item count;
/// `threads <= 1` runs inline on the calling thread).
///
/// A panic in any invocation of `f` is re-raised on the caller with the
/// failing item index in the message; the other items' completed work is
/// discarded. Callers that need to *keep* the completed results should
/// use [`par_map_isolated`], which this is a thin wrapper over.
pub fn par_map_threads<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let mut out = Vec::with_capacity(items.len());
    for res in par_map_isolated(threads, items, f) {
        match res {
            Ok(r) => out.push(r),
            Err(p) => panic!("parallel worker panicked on item {}: {}", p.index, p.message),
        }
    }
    out
}

/// [`par_map_threads`] with per-item panic isolation: each invocation of
/// `f` runs under `catch_unwind`, so one panicking item does not discard
/// the other items' completed results. Returns one `Result` per input,
/// in input order — `Err(ItemPanic)` carries the failing index and the
/// stringified payload.
pub fn par_map_isolated<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<Result<R, ItemPanic>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let run_one = |i: usize| -> Result<R, ItemPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
            .map_err(|payload| ItemPanic { index: i, message: panic_message(payload) })
    };
    let threads = threads.min(items.len()).max(1);
    if threads <= 1 {
        return (0..items.len()).map(run_one).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, Result<R, ItemPanic>)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|| {
                let mut local: Vec<(usize, Result<R, ItemPanic>)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, run_one(i)));
                }
                local
            }));
        }
        for h in handles {
            // Workers never unwind — every item panic is caught inside
            // run_one — so a join failure is a harness invariant breach.
            tagged.extend(h.join().expect("isolated worker must not unwind"));
        }
    });
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(&items, |i, &x| {
            // Uneven work so completion order differs from input order.
            let spin = (x % 7) * 1000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(k));
            }
            std::hint::black_box(acc);
            (i as u64) * 10 + x
        });
        let expected: Vec<u64> = (0..100).map(|x| x * 11).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map(&none, |_, &x| x).is_empty());
        assert_eq!(par_map(&[5u32], |_, &x| x * 2), vec![10]);
    }

    #[test]
    fn explicit_thread_counts_agree_with_serial() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map_threads(1, &items, |i, &x| i as u64 + x * 3);
        for threads in [2, 4, 8] {
            let par = par_map_threads(threads, &items, |i, &x| i as u64 + x * 3);
            assert_eq!(par, serial, "threads={threads} must not change results");
        }
    }

    #[test]
    fn isolated_preserves_completed_results_around_a_panic() {
        let items: Vec<u64> = (0..50).collect();
        for threads in [1, 2, 4] {
            let out = par_map_isolated(threads, &items, |_, &x| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, res) in out.iter().enumerate() {
                if i == 17 {
                    let p = res.as_ref().expect_err("item 17 must fail");
                    assert_eq!(p.index, 17);
                    assert!(p.message.contains("boom at 17"), "payload: {}", p.message);
                } else {
                    assert_eq!(*res.as_ref().expect("other items complete"), i as u64 * 2);
                }
            }
        }
    }

    #[test]
    fn legacy_panic_names_the_failing_index() {
        let items: Vec<u32> = (0..16).collect();
        let err = std::panic::catch_unwind(|| {
            par_map_threads(4, &items, |_, &x| {
                if x == 9 {
                    panic!("injected");
                }
                x
            })
        })
        .expect_err("must propagate the panic");
        let msg =
            err.downcast_ref::<String>().cloned().unwrap_or_else(|| "<non-string>".to_string());
        assert!(msg.contains("item 9"), "panic message must name the item: {msg}");
        assert!(msg.contains("injected"), "panic message must carry the payload: {msg}");
    }

    #[test]
    fn run_isolated_catches_and_stringifies() {
        assert_eq!(run_isolated(|| 7), Ok(7));
        let err = run_isolated(|| -> u32 { panic!("kaboom {}", 3) }).expect_err("must catch");
        assert!(err.contains("kaboom 3"), "payload lost: {err}");
    }

    #[test]
    fn thread_count_env_override() {
        // Can't mutate the environment safely under parallel tests, so
        // just sanity-check the clamping logic.
        assert_eq!(thread_count(0), 1);
        assert!(thread_count(1) == 1);
        assert!(thread_count(1000) >= 1);
    }

    #[test]
    fn thread_override_parses_counts_and_rejects_the_rest() {
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("1")), Some(1));
        // Unset, zero, negative, and garbage all mean "no override".
        for v in [None, Some("0"), Some("-3"), Some("four"), Some("")] {
            assert_eq!(parse_threads(v), None, "{v:?}");
        }
    }
}

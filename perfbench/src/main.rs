//! The repository benchmark: host time of the DRT workspace on four
//! workloads, end to end (`--trace 0`) or per layer (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig06-suite --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Modeled outputs (cycles, bytes, modeled seconds, tasks, traffic) are
//! correctness checks here, never metrics. Engine runs are serial: thread
//! scaling is not measured. The last line of stdout is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the lines before
//! it stamp the host, the commit, the seed and the workload parameters.
//! See `LAYERS.md` for which per-layer metric should move which
//! end-to-end metric on which workload.

mod common;
mod delta;
mod engine;
mod layers;
mod serve;
mod stats;
mod trace;

use common::{ms, Outcome};
use layers::{LayerAcc, END_TO_END, SELF_LAYERS};
use std::time::Duration;
use trace::Tracer;

/// The workloads, as `--workload` names them.
const WORKLOADS: [&str; 4] = ["fig06-suite", "drt-scale4", "delta-stream", "serve-open"];

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// Per-layer metrics common to every traced run: self time by layer, span
/// count, and the overhead of the traced pass over the untraced one (which
/// includes the duplicate grid, taskgen and reference calls it adds).
fn finish_trace(out: &mut Outcome, tracer: &Tracer, acc: &mut LayerAcc, untraced: Duration) {
    let ratio = tracer.root_time().as_secs_f64() / untraced.as_secs_f64().max(1e-12);
    finish_trace_ratio(out, tracer, acc, ratio);
}

/// [`finish_trace`] with the traced/untraced ratio already measured.
fn finish_trace_ratio(out: &mut Outcome, tracer: &Tracer, acc: &mut LayerAcc, ratio: f64) {
    let by_layer = tracer.self_time_by_layer();
    for layer in SELF_LAYERS {
        acc.set(&format!("self.{layer}_ms"), by_layer.get(layer).map_or(0.0, |d| ms(*d)));
    }
    acc.set("trace.overhead_frac", ratio - 1.0);
    acc.set("trace.spans", tracer.len() as f64);
    for (name, (total, count)) in tracer.busy_by_name() {
        out.note(format!("span {name:<22} {:>12.3} ms over {count} spans", ms(total)));
    }
    out.note(format!(
        "tracing overhead: the traced pass took {:.1}% more host time than the untraced pass, \
         duplicate layer calls included",
        100.0 * (ratio - 1.0)
    ));
    acc.emit(out);
}

/// Put the end-to-end metrics in `BENCHMARK.json` order. A workload that
/// left one out, or gave one twice, is a bug in the benchmark.
fn order_end_to_end(out: &mut Outcome) {
    let pos = |n: &str| END_TO_END.iter().position(|&(e, _)| e == n);
    out.metrics.sort_by_key(|m| pos(&m.name));
    let got: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
    assert_eq!(got, want, "every end-to-end metric, once each");
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            // A failed request has no latency; it reads as the worst value.
            let v = if m.value.is_finite() { m.value } else { f64::MAX };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    println!("# host: {}", common::host_stamp());
    println!(
        "# run: workload {} | seed {} | seconds {} | trace {} | engine runs serial, thread scaling unmeasured",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    match args.workload.as_str() {
        "fig06-suite" => engine::run(
            &engine::EngineSpec::fig06_suite(),
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "drt-scale4" => engine::run(
            &engine::EngineSpec::drt_scale4(),
            args.seed,
            args.seconds,
            args.trace,
            &mut out,
        ),
        "delta-stream" => delta::run(args.seed, args.seconds, args.trace, &mut out),
        "serve-open" => serve::run(args.seed, args.seconds, args.trace, &mut out),
        _ => unreachable!("parse_args admits only known workloads"),
    }
    if !args.trace {
        order_end_to_end(&mut out);
    }
    for line in &out.notes {
        println!("# {line}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!("# failed_frac {failed_frac} ({} of {} ops)", out.failed, out.attempted);
    for m in &out.metrics {
        println!("# {:<42} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&out));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_are_checked() {
        let a = parse_args(&argv("--workload drt-scale4 --seed 9 --seconds 3 --trace 1"))
            .expect("valid");
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("drt-scale4", 9, 3.0, true));
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seed 1")).is_err());
        assert!(parse_args(&argv("--workload serve-open --trace 2")).is_err());
        assert!(parse_args(&argv("--workload serve-open --seconds -1")).is_err());
        assert!(parse_args(&argv("--workload serve-open --bogus")).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut out = Outcome { attempted: 3, ..Outcome::default() };
        out.put("setup_s", 0.25, "s");
        out.put("latency_tail_ms", f64::INFINITY, "ms");
        let line = result_json(&out);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": \
             {\"value\": 0.25, \"unit\": \"s\"}, \"latency_tail_ms\": {\"value\": 1.7976931348623157e308, \"unit\": \"ms\"}}}"
        );
    }
}

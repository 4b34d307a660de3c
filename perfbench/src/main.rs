//! End-to-end and per-layer benchmark of the hdhash serving stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-heavy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Three workloads (see `run::WORKLOADS` and `BENCHMARK.json` for why each
//! exists) run against three gossiping replicas, driven from one generator
//! thread; each engine has one serve worker. `--trace 0` measures the
//! end-to-end metrics with all tracing off; `--trace 1` turns on the
//! engine and gossip tracers plus the benchmark's own spans, runs the
//! single-layer probes, and reports the per-layer metrics. Lines starting
//! with `#` are diagnostics; the last line is the JSON result.

mod affinity;
mod cluster;
mod host;
mod load;
mod probes;
mod run;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use hdhash_obs::{TraceConfig, Tracer};

use crate::host::least_stolen;
use crate::run::{Inputs, Outcome, Spec, WORKLOADS};
use crate::spans::Spans;
use crate::stats::{mean, median, quantile};

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is readable");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("VmHWM reported");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kib / 1024.0
}

/// Collects `(name, value, unit)` triples and renders the result line.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        out.push_str("}}");
        out
    }
}

fn diagnostics(args: &Args, out: &Outcome, cores: usize, canary: (f64, f64), host: &str) {
    let w = args.workload.name;
    println!(
        "# {w} seed {}: {} warm-up + {} measured cycles, {} operations, {} control changes, cores {}",
        args.seed,
        out.warmup_cycles,
        out.cycles,
        out.attempted,
        out.reconfig_us.len(),
        cores
    );
    println!(
        "# host canary (xor_popcount_rows pass): start {:.3} us, end {:.3} us",
        canary.0, canary.1
    );
    println!("# {host}");
    let us = |ns: f64| ns / 1e3;
    println!(
        "# generator lateness: p99 {:.2} us, max {:.2} us over {} lookups",
        us(out.lateness.quantile_ns(0.99)),
        us(out.lateness.max_ns() as f64),
        out.lateness.count()
    );
    println!(
        "# pooled open-loop latency: p50 {:.2} us, p99 {:.2} us ({} beyond), p99.9 {:.2} us ({} beyond), max {:.2} us, n {}",
        us(out.e2e.quantile_ns(0.5)),
        us(out.e2e.quantile_ns(0.99)),
        out.e2e.beyond(0.99),
        us(out.e2e.quantile_ns(0.999)),
        out.e2e.beyond(0.999),
        us(out.e2e.max_ns() as f64),
        out.e2e.count()
    );
    let quartiles = |values: &[f64]| {
        let mut v = values.to_vec();
        [0.25, 0.5, 0.75].map(|q| quantile(&mut v, q))
    };
    println!(
        "# quartiles over all blocks: p50 {:.2?} us, p90 {:.2?} us, rps {:.0?}; over all changes: \
         reconfig {:.2?} us, converge {:.4?} ms",
        quartiles(&out.block_p50_us),
        quartiles(&out.block_p90_us),
        quartiles(&out.block_rps),
        quartiles(&out.reconfig_us),
        quartiles(&out.converge_ms)
    );
    let clean = |steal: &[u64]| {
        let kept = least_stolen(&vec![0.0; steal.len()], steal).len();
        format!("{kept} of {}", steal.len())
    };
    println!(
        "# kept as least stolen: open-loop blocks {}, closed-loop blocks {}, changes {}, set-ups {}",
        clean(&out.open_steal),
        clean(&out.closed_steal),
        clean(&out.change_steal),
        clean(&out.setup_steal)
    );
    let f = &out.failures;
    println!(
        "# checked {} distinct answers; failures: wrong {}, timed out {}, closed-loop rejected {}, open-loop rejected {}, \
         unconverged {}, refused changes {}",
        out.checked, f.wrong, f.timed_out, f.rejected_closed, f.rejected_open, f.unconverged, f.refused
    );
    if let Some(error) = &out.first_error {
        println!("# first failure: {error}");
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let spec = args.workload;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let canary_start = probes::canary_us();
    let pinning = affinity::Pinning::new();
    let awake = pinning.keep_worker_cpu_awake();
    let inputs = Inputs::new(spec, args.seed, args.trace);
    let gossip_tracer = args.trace.then(|| {
        Arc::new(Tracer::new(TraceConfig {
            enabled: true,
            sample_every: 1,
            ring_capacity: 1 << 16,
        }))
    });

    let set_up = run::set_up(&inputs, gossip_tracer.clone(), &pinning);
    if let Some(tracer) = &gossip_tracer {
        tracer.drain(); // set-up rounds are not part of the traced run
    }

    let mut spans = Spans::new(args.trace);
    let (steal_start, measure_start) = (host::steal_ticks(), Instant::now());
    let out = run::measure(
        spec,
        &inputs,
        args.seconds,
        set_up,
        gossip_tracer,
        &mut spans,
        &pinning,
    );
    let host = format!(
        "host: {}; steal {} ms over the {:.1} s after set-up",
        pinning.describe(),
        10 * (host::steal_ticks() - steal_start),
        measure_start.elapsed().as_secs_f64()
    );
    pinning.release();
    let mut report = Report {
        metrics: Vec::new(),
    };

    if args.trace {
        per_layer(&args, &inputs, &out, &spans, &mut report, &pinning);
        drop(awake);
    } else {
        drop(awake);
        let kept = |values: &[f64], steal: &[u64]| median(&mut least_stolen(values, steal));
        report.add("setup_s", kept(&out.setup_s, &out.setup_steal), "s");
        report.add(
            "lookup_p50_us",
            kept(&out.block_p50_us, &out.open_steal),
            "us",
        );
        report.add(
            "lookup_p90_us",
            kept(&out.block_p90_us, &out.open_steal),
            "us",
        );
        report.add("lookup_rps", kept(&out.block_rps, &out.closed_steal), "1/s");
        report.add(
            "reconfig_p50_us",
            kept(&out.reconfig_us, &out.change_steal),
            "us",
        );
        report.add(
            "converge_p50_ms",
            kept(&out.converge_ms, &out.change_steal),
            "ms",
        );
        report.add(
            "replica_agree_pct",
            100.0 * out.agree_same as f64 / out.agree_keys as f64,
            "%",
        );
        let t = Instant::now();
        report.add(
            "mcu_mismatch_pct",
            probes::mcu_mismatch_pct(&inputs, spec.mcu_trials),
            "%",
        );
        println!("# mcu trials took {:.2} s", t.elapsed().as_secs_f64());
    }
    let canary_end = probes::canary_us();
    if !args.trace {
        report.add("peak_rss_mb", peak_rss_mib(), "MiB");
    }
    diagnostics(&args, &out, cores, (canary_start, canary_end), &host);
    for (name, value, _) in &report.metrics {
        assert!(value.is_finite(), "{name} is not finite: {value}");
    }
    let f = &out.failures;
    // Open-loop rejections are backpressure; every other failure is a
    // wrong or missing answer.
    let correct = f.total() == f.rejected_open;
    println!("{}", report.json(correct, out.attempted, f.total()));
}

/// The traced run's per-layer metrics, reconciliation and self times.
fn per_layer(
    args: &Args,
    inputs: &Inputs,
    out: &Outcome,
    spans: &Spans,
    report: &mut Report,
    pinning: &affinity::Pinning,
) {
    let spec = args.workload;
    for (name, value, unit) in probes::layer_probes(spec, inputs, out.closed_fill) {
        report.add(name, value, unit);
    }
    let lateness_us = out.lateness.mean_ns() / 1e3;
    let submit_ns = out.submit.mean_ns();
    let fill_us = out.engine.mean_ns() / 1e3;
    let e2e_us = out.e2e.mean_ns() / 1e3;
    let queue_wait_us = mean(&out.open_events.queue_wait_us);
    let batch_exec_us = mean(&out.open_events.batch_exec_us);
    let remainder_us = e2e_us - lateness_us - submit_ns / 1e3 - fill_us;
    report.add("serve.submit_ns", submit_ns, "ns");
    report.add("serve.queue_wait_us", queue_wait_us, "us");
    report.add("serve.batch_exec_us", batch_exec_us, "us");
    report.add("serve.batch_fill", out.closed_fill, "count");
    report.add("serve.fill_us", fill_us, "us");
    report.add(
        "serve.publish_us",
        median(&mut out.reconfig_us.clone()) / inputs.config.shards as f64,
        "us",
    );
    report.add("gossip.rounds_per_change", mean(&out.rounds), "count");
    report.add("gossip.bytes_per_change", mean(&out.gossip_bytes), "bytes");
    report.add("gossip.syncs_per_change", mean(&out.gossip_syncs), "count");
    report.add(
        "gossip.tick_us",
        median(&mut out.tick_ns.clone()) / 1e3,
        "us",
    );
    report.add(
        "gossip.pump_us",
        median(&mut out.pump_ns.clone()) / 1e3,
        "us",
    );
    let (overhead, overhead_failed) = probes::trace_overhead_pct(spec, inputs, 6, pinning);
    assert_eq!(overhead_failed, 0, "the tracing A/B run lost lookups");
    report.add("obs.trace_overhead_pct", overhead, "%");

    println!(
        "# reconcile (open loop, means): e2e {e2e_us:.3} us = lateness {lateness_us:.3} + submit {:.3} \
         + fill {fill_us:.3} + remainder {remainder_us:.3} (fill is timed from inside submit, so \
         the remainder is minus the part of submit that overlaps it: queue push and worker wake)",
        submit_ns / 1e3
    );
    println!(
        "# fill {fill_us:.3} us vs tracer (whole us): queue wait {queue_wait_us:.3} + batch exec \
         {batch_exec_us:.3} + rest {:.3}; closed loop: queue wait {:.3}, batch exec {:.3}",
        fill_us - queue_wait_us - batch_exec_us,
        mean(&out.closed_events.queue_wait_us),
        mean(&out.closed_events.batch_exec_us)
    );
    println!("# self time by span (count, total ms, self ms):");
    for layer in spans.self_times() {
        println!(
            "#   {:<20} {:>8} {:>12.3} {:>12.3}",
            layer.name,
            layer.count,
            layer.total_ns as f64 / 1e6,
            layer.self_ns as f64 / 1e6
        );
    }
    let dir = std::path::Path::new(
        &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
    )
    .join("perfbench");
    let path = dir.join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
    let mut text = hdhash_obs::jsonl(&out.events);
    text.push_str(&spans.jsonl());
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => println!(
            "# trace: {} engine/gossip events ({} not kept), {} spans ({} not kept) -> {}",
            out.events.len(),
            out.events_dropped,
            spans.self_times().iter().map(|s| s.count).sum::<u64>(),
            spans.dropped,
            path.display()
        ),
        Err(e) => println!("# trace not written to {}: {e}", path.display()),
    }
}

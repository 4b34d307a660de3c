//! The workloads and the measured run: a cycle of fixed-count blocks
//! (open loop, closed loop, control) repeated until the run's time is up.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_emulator::{Generator, KeyDistribution, Workload};
use hdhash_hashfn::SplitMix64;
use hdhash_obs::{SpanKind, TraceEvent, Tracer};
use hdhash_serve::{ServeConfig, ServeResponse};
use hdhash_table::{RequestKey, ServerId};

use crate::affinity::Pinning;
use crate::cluster::{serve_config, Checker, Cluster, Op, REPLICAS};
use crate::host::steal_ticks;
use crate::load::{self, Failure, Hooks, Sent};
use crate::spans::Spans;
use crate::stats::{quantile, Hist};

/// One workload: geometry, traffic and block sizes.
pub struct Spec {
    pub name: &'static str,
    pub dimension: usize,
    pub codebook: usize,
    /// Starting members: ids `0..members`; replacements draw from
    /// `0..universe`.
    pub members: usize,
    pub universe: u64,
    pub keys: KeyDistribution,
    /// Open-loop arrival rate, lookups per second.
    pub rate: f64,
    pub open_block: usize,
    pub closed_block: usize,
    /// Churn: one replacement every this many lookups, inside the lookup
    /// blocks.
    pub inline_every: Option<u64>,
    /// A fresh replica set is set up (timed, then shut down) after every
    /// this many cycles, so set-up is sampled across the whole run.
    pub setup_every: usize,
    /// 10-bit bursts averaged into `mcu_mismatch_pct`.
    pub mcu_trials: usize,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "scan-heavy",
        dimension: 10_240,
        codebook: 1024,
        members: 512,
        universe: 768,
        keys: KeyDistribution::Uniform,
        rate: 8_000.0,
        open_block: 1_000,
        closed_block: 4_000,
        inline_every: None,
        setup_every: 4,
        mcu_trials: 200,
    },
    Spec {
        name: "queue-heavy",
        dimension: 512,
        codebook: 64,
        members: 16,
        universe: 24,
        keys: KeyDistribution::Uniform,
        rate: 50_000.0,
        open_block: 2_000,
        closed_block: 20_000,
        inline_every: None,
        setup_every: 1,
        mcu_trials: 16_000,
    },
    Spec {
        name: "churn",
        dimension: 4_096,
        codebook: 256,
        members: 128,
        universe: 192,
        keys: KeyDistribution::Zipf {
            universe: 10_000,
            exponent: 1.0,
        },
        rate: 20_000.0,
        open_block: 1_000,
        closed_block: 8_000,
        inline_every: Some(2_000),
        setup_every: 1,
        mcu_trials: 2_000,
    },
];

/// Member replacements (leave + join) per control block. The first
/// changes of a block run with caches the lookups have filled and cost
/// several times a later one; with this many, the median is a warm one.
const CONTROL_BLOCK: usize = 16;
/// Keys generated per run; lookups cycle through them.
const KEY_POOL: usize = 1 << 16;
/// Keys each replica answers after a control change (replica agreement).
const AGREE_SAMPLE: usize = 256;
/// Control changes whose agreement sample feeds `replica_agree_pct`: a
/// fixed count, so the metric repeats exactly for a seed however fast the
/// host runs. The run goes on until they are done.
const AGREE_CHANGES: usize = 64;
/// Cycles that warm the process up; nothing they time is kept.
const WARMUP_CYCLES: usize = 2;
/// One open-loop request in this many is recorded as a request span.
const SPAN_EVERY: u64 = 16;
/// Engine and gossip trace events kept for the trace file.
const EVENTS_KEPT: usize = 200_000;

/// The workload's inputs. Keys and (in [`measure`]) the change schedule
/// derive from the seed; the starting members are ids `0..members`, as in
/// the paper's experiments, so every seed starts from the same geometry.
pub struct Inputs {
    pub seed: u64,
    pub config: ServeConfig,
    pub members: Vec<ServerId>,
    pub keys: Vec<RequestKey>,
}

impl Inputs {
    pub fn new(spec: &Spec, seed: u64, trace: bool) -> Self {
        let workload = Workload {
            initial_servers: 0,
            lookups: KEY_POOL,
            keys: spec.keys,
            seed,
        };
        let keys = Generator::new(workload)
            .lookup_requests()
            .iter()
            .filter_map(|r| r.lookup_key())
            .collect();
        Self {
            seed,
            config: serve_config(spec.dimension, spec.codebook, trace),
            members: (0..spec.members as u64).map(ServerId::new).collect(),
            keys,
        }
    }
}

/// Builds the replica set, joins the starting members at replica 0 and
/// gossips them to the others. Returns it with the wall time this took
/// in seconds and the host steal ticks meanwhile.
pub fn set_up(
    inputs: &Inputs,
    gossip_tracer: Option<Arc<Tracer>>,
    pinning: &Pinning,
) -> (Cluster, f64, u64) {
    let (steal, started) = (steal_ticks(), Instant::now());
    let mut cluster = pinning.spawn_on_worker_cpu(|| Cluster::build(inputs.config, gossip_tracer));
    let spans = &mut Spans::new(false);
    for &member in &inputs.members {
        cluster
            .apply(0, Op::Join(member), spans, 0)
            .expect("starting member joins");
    }
    cluster
        .converge(spans, 0)
        .expect("initial membership converges");
    cluster.book.prune();
    let seconds = started.elapsed().as_secs_f64();
    (cluster, seconds, steal_ticks() - steal)
}

#[derive(Default)]
pub struct Failures {
    pub wrong: u64,
    pub timed_out: u64,
    pub rejected_closed: u64,
    pub rejected_open: u64,
    pub unconverged: u64,
    /// Membership changes the origin refused.
    pub refused: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.wrong
            + self.timed_out
            + self.rejected_closed
            + self.rejected_open
            + self.unconverged
            + self.refused
    }
}

/// Engine trace events of one kind of block, reduced as they are drained.
#[derive(Default)]
pub struct EventStats {
    pub queue_wait_us: Vec<f64>,
    pub batch_exec_us: Vec<f64>,
}

/// Everything the run measured.
#[derive(Default)]
pub struct Outcome {
    /// Warm-up cycles; nothing they time is kept.
    pub warmup_cycles: usize,
    /// Measured cycles after it.
    pub cycles: usize,
    /// Lookups submitted (block and agreement traffic) plus membership
    /// changes.
    pub attempted: u64,
    pub failures: Failures,
    /// Distinct (replica, shard, epoch, slot) answers checked against a
    /// reference table.
    pub checked: u64,
    pub block_p50_us: Vec<f64>,
    pub block_p90_us: Vec<f64>,
    pub block_rps: Vec<f64>,
    pub reconfig_us: Vec<f64>,
    pub converge_ms: Vec<f64>,
    /// Set-up times (s): the measured replica set's, then the fresh ones.
    pub setup_s: Vec<f64>,
    pub setup_steal: Vec<u64>,
    /// Host steal ticks during each open-loop block, closed-loop block,
    /// and (per change) the change's control block.
    pub open_steal: Vec<u64>,
    pub closed_steal: Vec<u64>,
    pub change_steal: Vec<u64>,
    pub rounds: Vec<f64>,
    pub gossip_bytes: Vec<f64>,
    pub gossip_syncs: Vec<f64>,
    pub agree_keys: u64,
    pub agree_same: u64,
    /// Open loop, pooled: due-to-fill latency, generator lateness, the
    /// `submit` call, and the engine's submit-to-fill latency.
    pub e2e: Hist,
    pub lateness: Hist,
    pub submit: Hist,
    pub engine: Hist,
    /// Closed loop: keys per `lookup_batch` call (served ÷ batches).
    pub closed_fill: f64,
    pub open_events: EventStats,
    pub closed_events: EventStats,
    pub tick_ns: Vec<f64>,
    pub pump_ns: Vec<f64>,
    pub events: Vec<TraceEvent>,
    pub events_dropped: u64,
    pub first_error: Option<String>,
}

#[derive(Clone, Copy, PartialEq)]
enum Block {
    Open,
    Closed,
    Control,
}

struct Runner<'a> {
    spec: &'a Spec,
    inputs: &'a Inputs,
    pinning: &'a Pinning,
    cluster: Cluster,
    checker: Checker,
    spans: &'a mut Spans,
    gossip_tracer: Option<Arc<Tracer>>,
    changes: SplitMix64,
    replacements: u64,
    key_cursor: usize,
    lookups: u64,
    responses: u64,
    block: Block,
    /// Control changes still to be followed by the agreement sample.
    agree_left: usize,
    agree_sample: Vec<RequestKey>,
    /// Closed loop: (lookups served, `lookup_batch` calls).
    closed_batches: (u64, u64),
    out: Outcome,
}

impl Hooks for Runner<'_> {
    fn next_key(&mut self) -> RequestKey {
        let key = self.inputs.keys[self.key_cursor];
        self.key_cursor = (self.key_cursor + 1) % self.inputs.keys.len();
        key
    }

    fn before_submit(&mut self) {
        if let Some(every) = self.spec.inline_every {
            if self.lookups > 0 && self.lookups.is_multiple_of(every) {
                self.replace_member(false);
            }
        }
        self.lookups += 1;
        self.out.attempted += 1;
    }

    fn done(&mut self, sent: &Sent, response: &ServeResponse) {
        self.checker.record(0, sent.key, response);
        if self.block != Block::Open {
            return;
        }
        self.responses += 1;
        let fill = sent.submit_start + response.latency;
        self.out
            .e2e
            .record(sent.latency(response).as_nanos() as u64);
        self.out
            .lateness
            .record(sent.submit_start.duration_since(sent.due).as_nanos() as u64);
        self.out
            .submit
            .record(sent.submit_end.duration_since(sent.submit_start).as_nanos() as u64);
        self.out.engine.record(response.latency.as_nanos() as u64);
        if self.spans.enabled() && self.responses.is_multiple_of(SPAN_EVERY) {
            let request = self.spans.open();
            let ids = [self.spans.open(), self.spans.open(), self.spans.open()];
            self.spans.interval(
                "generator.lateness",
                ids[0],
                request,
                sent.due,
                sent.submit_start,
            );
            self.spans.interval(
                "serve.submit",
                ids[1],
                request,
                sent.submit_start,
                sent.submit_end,
            );
            self.spans
                .interval("serve.engine", ids[2], request, sent.submit_end, fill);
            self.spans.interval("request", request, 0, sent.due, fill);
        }
    }

    fn failed(&mut self, failure: Failure) {
        match failure {
            Failure::TimedOut => self.out.failures.timed_out += 1,
            Failure::Rejected if self.block == Block::Open => {
                self.out.failures.rejected_open += 1;
            }
            Failure::Rejected => self.out.failures.rejected_closed += 1,
        }
    }
}

impl Runner<'_> {
    /// Replaces one member at the next round-robin origin: a leave, then a
    /// join, each gossiped to convergence. Victim and newcomer are drawn
    /// from the origin's own view at the time of each operation, so
    /// neither can be refused.
    fn replace_member(&mut self, control: bool) {
        let origin = (self.replacements % REPLICAS as u64) as usize;
        self.replacements += 1;
        let view = self.cluster.replicas[origin].member_ids();
        let victim = view[self.changes.next_below(view.len() as u64) as usize];
        self.change(origin, Op::Leave(victim), control);
        let view = self.cluster.replicas[origin].member_ids();
        let outside: Vec<ServerId> = (0..self.spec.universe)
            .map(ServerId::new)
            .filter(|id| view.binary_search(id).is_err())
            .collect();
        let newcomer = outside[self.changes.next_below(outside.len() as u64) as usize];
        self.change(origin, Op::Join(newcomer), control);
    }

    fn change(&mut self, origin: usize, op: Op, control: bool) {
        self.out.attempted += 1;
        let started = Instant::now();
        let span = self.spans.open();
        let (bytes, syncs) = self.cluster.gossip_totals();
        let applied = self.cluster.apply(origin, op, self.spans, span);
        let converged = self.cluster.converge(self.spans, span);
        self.spans.close_id("change", span, 0, started);
        let reconfig = match applied {
            Ok(reconfig) => reconfig,
            Err(e) => {
                self.out.failures.refused += 1;
                self.out.first_error.get_or_insert(e);
                return;
            }
        };
        let Some(convergence) = converged else {
            self.out.failures.unconverged += 1;
            return;
        };
        if !control {
            return;
        }
        let (bytes_after, syncs_after) = self.cluster.gossip_totals();
        self.out.reconfig_us.push(reconfig.as_nanos() as f64 / 1e3);
        self.out
            .converge_ms
            .push(convergence.elapsed.as_nanos() as f64 / 1e6);
        self.out.rounds.push(convergence.rounds as f64);
        self.out.gossip_bytes.push((bytes_after - bytes) as f64);
        self.out.gossip_syncs.push((syncs_after - syncs) as f64);
        if self.agree_left > 0 {
            self.agree_left -= 1;
            self.measure_agreement();
        }
    }

    /// Submits the agreement sample through every replica and counts the
    /// keys all replicas answer alike. Each answer is also checked against
    /// its own replica's membership.
    fn measure_agreement(&mut self) {
        let mut answers: Vec<Vec<_>> = (0..REPLICAS)
            .map(|_| Vec::with_capacity(AGREE_SAMPLE))
            .collect();
        for (replica, answers) in answers.iter_mut().enumerate() {
            let engine = self.cluster.replicas[replica].engine();
            let tickets: Vec<_> = self
                .agree_sample
                .iter()
                .map(|&k| engine.submit(k))
                .collect();
            for (&key, ticket) in self.agree_sample.iter().zip(tickets) {
                let response = match ticket {
                    Ok(ticket) => ticket.wait_timeout(load::TIMEOUT),
                    Err(_) => {
                        self.out.failures.rejected_closed += 1;
                        None
                    }
                };
                match response {
                    Some(response) => {
                        self.checker.record(replica, key, &response);
                        answers.push(response.result.ok());
                    }
                    None => {
                        self.out.failures.timed_out += 1;
                        answers.push(None);
                    }
                }
            }
        }
        self.out.agree_keys += AGREE_SAMPLE as u64;
        self.out.attempted += (AGREE_SAMPLE * REPLICAS) as u64;
        self.out.agree_same += (0..AGREE_SAMPLE)
            .filter(|&i| answers[0][i].is_some() && answers.iter().all(|a| a[i] == answers[0][i]))
            .count() as u64;
    }

    fn served_batches(&self) -> (u64, u64) {
        let metrics = self.cluster.replicas[0].engine().metrics();
        metrics
            .shards
            .iter()
            .fold((0, 0), |(s, b), m| (s + m.served, b + m.batches))
    }

    /// Moves the engine's and gossip's trace events into the outcome,
    /// reducing the request-path ones by block kind.
    fn drain_events(&mut self) {
        let mut events = self.cluster.replicas[0].engine().tracer().drain();
        if let Some(tracer) = &self.gossip_tracer {
            events.extend(tracer.drain());
        }
        let stats = match self.block {
            Block::Open => Some(&mut self.out.open_events),
            Block::Closed => Some(&mut self.out.closed_events),
            Block::Control => None,
        };
        if let Some(stats) = stats {
            for event in &events {
                match event.kind {
                    SpanKind::Pickup => stats.queue_wait_us.push(event.amount as f64),
                    SpanKind::BatchExec => stats.batch_exec_us.push(event.dur_micros as f64),
                    _ => {}
                }
            }
        }
        let room = EVENTS_KEPT.saturating_sub(self.out.events.len());
        self.out.events_dropped += events.len().saturating_sub(room) as u64;
        events.truncate(room);
        self.out.events.append(&mut events);
    }

    fn cycle(&mut self) {
        let replica = Arc::clone(&self.cluster.replicas[0]);
        let engine = replica.engine();

        self.block = Block::Open;
        let steal = steal_ticks();
        let mut latencies = load::open_loop(engine, self.spec.rate, self.spec.open_block, self);
        self.out.open_steal.push(steal_ticks() - steal);
        self.out.block_p50_us.push(quantile(&mut latencies, 0.5));
        self.out.block_p90_us.push(quantile(&mut latencies, 0.9));
        self.drain_events();

        self.block = Block::Closed;
        let (served, batches) = self.served_batches();
        let steal = steal_ticks();
        let rps = load::closed_loop(engine, self.spec.closed_block, self);
        self.out.closed_steal.push(steal_ticks() - steal);
        self.out.block_rps.push(rps);
        let (served_after, batches_after) = self.served_batches();
        self.closed_batches.0 += served_after - served;
        self.closed_batches.1 += batches_after - batches;
        self.drain_events();

        self.block = Block::Control;
        let (steal, changes) = (steal_ticks(), self.out.reconfig_us.len());
        for _ in 0..CONTROL_BLOCK {
            self.replace_member(true);
        }
        let steal = steal_ticks() - steal;
        let made = self.out.reconfig_us.len() - changes;
        self.out
            .change_steal
            .extend(std::iter::repeat_n(steal, made));
        self.drain_events();
        self.checker.verify(&mut self.cluster.book);

        if self.out.cycles.is_multiple_of(self.spec.setup_every) {
            let (fresh, seconds, steal) = set_up(self.inputs, None, self.pinning);
            fresh.shutdown();
            self.out.setup_s.push(seconds);
            self.out.setup_steal.push(steal);
        }
        self.out.cycles += 1;
    }
}

/// Runs the warm-up cycles, then measured cycles until `seconds` have
/// passed and the agreement sample has followed [`AGREE_CHANGES`] control
/// changes.
pub fn measure(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    (cluster, setup_s, setup_steal): (Cluster, f64, u64),
    gossip_tracer: Option<Arc<Tracer>>,
    spans: &mut Spans,
    pinning: &Pinning,
) -> Outcome {
    let sample_start = inputs.keys.len() - AGREE_SAMPLE;
    let mut runner = Runner {
        spec,
        inputs,
        pinning,
        checker: Checker::new(&inputs.config),
        cluster,
        spans,
        gossip_tracer,
        changes: SplitMix64::new(inputs.seed ^ 0x00C4_A26E_5C4E_D01E),
        replacements: 0,
        key_cursor: 0,
        lookups: 0,
        responses: 0,
        block: Block::Open,
        agree_left: AGREE_CHANGES,
        agree_sample: inputs.keys[sample_start..].to_vec(),
        closed_batches: (0, 0),
        out: Outcome::default(),
    };
    for _ in 0..WARMUP_CYCLES {
        runner.cycle();
    }
    // Keep what the warm-up counted; drop what it timed.
    let warm = std::mem::take(&mut runner.out);
    runner.out.warmup_cycles = WARMUP_CYCLES;
    runner.out.setup_s.push(setup_s);
    runner.out.setup_steal.push(setup_steal);
    runner.out.attempted = warm.attempted;
    runner.out.failures = warm.failures;
    runner.out.agree_keys = warm.agree_keys;
    runner.out.agree_same = warm.agree_same;
    runner.out.first_error = warm.first_error;
    runner.closed_batches = (0, 0);
    runner.cluster.tick_ns.clear();
    runner.cluster.pump_ns.clear();
    runner.spans.clear();

    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    while started.elapsed() < budget || runner.agree_left > 0 {
        runner.cycle();
    }
    let Runner {
        mut out,
        checker,
        cluster,
        closed_batches,
        ..
    } = runner;
    out.failures.wrong = checker.wrong;
    out.checked = checker.checked;
    out.first_error = out.first_error.or(checker.first_error);
    out.closed_fill = closed_batches.0 as f64 / closed_batches.1 as f64;
    out.tick_ns = cluster.tick_ns.clone();
    out.pump_ns = cluster.pump_ns.clone();
    cluster.shutdown();
    out
}

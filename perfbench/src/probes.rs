//! Single-layer probes on a workload's own geometry, members and keys,
//! the paper's MCU measure, the host-speed canary, and the A/B run that
//! prices request tracing.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use hdhash_core::HdHashTable;
use hdhash_hashfn::{mix64, SplitMix64};
use hdhash_hdc::AssociativeMemory;
use hdhash_serve::{ServeEngine, ServeResponse};
use hdhash_table::{DynamicHashTable, NoisyTable, RequestKey, ServerId};

use crate::affinity::Pinning;
use crate::cluster::{reference_table, serve_config};
use crate::load::{self, Failure, Hooks, Sent};
use crate::run::{Inputs, Spec};
use crate::stats::{median, quantile};

/// Adjacent bits flipped per MCU trial (the paper's headline burst).
const MCU_BITS: usize = 10;
/// Keys in the MCU sample (the paper's 10,000 lookups).
const MCU_KEYS: usize = 10_000;
/// Derives the burst of each MCU trial.
const MCU_SALT: u64 = 0x4D43_5542_5552_5354;

/// A standalone table with the workload's geometry (shard 0's codebook)
/// and starting membership.
pub fn starting_table(inputs: &Inputs) -> HdHashTable {
    let mut table = reference_table(&inputs.config, 0);
    for &member in &inputs.members {
        table
            .join(member)
            .expect("starting members fit the codebook");
    }
    table
}

/// The paper's Figure 5 measure: the share of a fixed key sample whose
/// owner changes after one 10-bit burst in stored state, averaged over
/// `trials` bursts. A key's owner depends only on its codebook slot, so
/// each distinct slot is looked up once and weighted by its key count.
/// Runs after the measured phase, split over two threads (the engines'
/// workers have stopped by then). The bursts are the same on every seed
/// (trial `t` always uses the same one): the seed picks the key sample,
/// so the spread across seeds is the sample's alone.
pub fn mcu_mismatch_pct(inputs: &Inputs, trials: usize) -> f64 {
    let table = starting_table(inputs);
    let mut weights: HashMap<usize, (RequestKey, u64)> = HashMap::new();
    for &key in &inputs.keys[..MCU_KEYS] {
        weights
            .entry(table.slot_of_request(key))
            .or_insert((key, 0))
            .1 += 1;
    }
    let (keys, weights): (Vec<RequestKey>, Vec<u64>) = weights.into_values().unzip();
    let clean = table.lookup_batch(&keys);
    let run_trials = |first: usize| {
        let mut table = table.clone();
        let mut moved = 0u64;
        for trial in (first..trials).step_by(2) {
            table.inject_burst(
                MCU_BITS,
                mix64(MCU_SALT ^ (trial as u64).wrapping_mul(0x9E37_79B9)),
            );
            let noisy = table.lookup_batch(&keys);
            moved += (0..keys.len())
                .filter(|&i| noisy[i] != clean[i])
                .map(|i| weights[i])
                .sum::<u64>();
            table.clear_noise();
        }
        moved
    };
    let moved: u64 = std::thread::scope(|scope| {
        let second = scope.spawn(|| run_trials(1));
        run_trials(0) + second.join().expect("MCU trials do not panic")
    });
    100.0 * moved as f64 / (trials * MCU_KEYS) as f64
}

/// One fixed `xor_popcount_rows` pass (512 rows × 10,240 bits), median of
/// 300 after 100 untimed ones, in µs: a host-speed reading taken at the
/// start and end of a run. Reported only; no metric is scaled by it.
pub fn canary_us() -> f64 {
    let words = 160;
    let mut rng = SplitMix64::new(0x00CA_7A12);
    let rows: Vec<u64> = (0..512 * words).map(|_| rng.next_u64()).collect();
    let probe: Vec<u64> = (0..words).map(|_| rng.next_u64()).collect();
    let mut out = vec![0u32; 512];
    let mut samples: Vec<f64> = (0..400)
        .map(|_| {
            let t = Instant::now();
            hdhash_simdkernels::xor_popcount_rows(
                black_box(&probe),
                black_box(&rows),
                words,
                &mut out,
            );
            black_box(&out);
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .skip(100)
        .collect();
    median(&mut samples)
}

/// Median over `reps` of `f`'s time divided by `per`, in ns.
fn time_ns(reps: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&mut samples)
}

/// The per-layer probes of `core`, `hdc` and `simdkernels`. `fill` is the
/// engine's measured keys per `lookup_batch` call.
pub fn layer_probes(
    spec: &Spec,
    inputs: &Inputs,
    fill: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let table = starting_table(inputs);
    let keys = &inputs.keys;
    // Enough single lookups for ~20 ms per repetition at each geometry.
    let n = (200_000_000 / (spec.dimension * inputs.members.len())).clamp(256, 16_384);
    let sample = &keys[..n];
    let mut out = Vec::new();

    let slot_ns = time_ns(9, keys.len(), || {
        for &key in keys {
            black_box(table.slot_of_request(black_box(key)));
        }
    });
    out.push(("core.slot_ns", slot_ns, "ns"));

    let lookup_ns = time_ns(7, n, || {
        for &key in sample {
            black_box(table.lookup(black_box(key)).ok());
        }
    });
    out.push(("core.lookup_us", lookup_ns / 1e3, "us"));

    let batch = (fill.round() as usize).max(1);
    let batches: Vec<&[RequestKey]> = sample.chunks_exact(batch).collect();
    let batch_ns = time_ns(7, batches.len() * batch, || {
        for keys in &batches {
            black_box(table.lookup_batch(black_box(keys)));
        }
    });
    out.push(("core.lookup_batch_us_per_key", batch_ns / 1e3, "us"));
    let distinct: usize = batches
        .iter()
        .map(|keys| {
            let mut slots: Vec<usize> = keys.iter().map(|&k| table.slot_of_request(k)).collect();
            slots.sort_unstable();
            slots.dedup();
            slots.len()
        })
        .sum();
    out.push((
        "core.distinct_slot_share",
        distinct as f64 / (batches.len() * batch) as f64,
        "count",
    ));

    let mut rng = SplitMix64::new(inputs.seed ^ 0x009B_0BE5);
    let mut churned = table.clone();
    let (mut joins, mut leaves) = (Vec::new(), Vec::new());
    for _ in 0..200 {
        let member = inputs.members[rng.next_below(inputs.members.len() as u64) as usize];
        let t = Instant::now();
        churned.leave(member).expect("member present");
        leaves.push(t.elapsed().as_nanos() as f64 / 1e3);
        let t = Instant::now();
        churned.join(member).expect("member absent");
        joins.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    out.push(("core.join_us", median(&mut joins), "us"));
    out.push(("core.leave_us", median(&mut leaves), "us"));
    let clone_ns = time_ns(31, 1, || drop(black_box(table.clone())));
    out.push(("core.clone_us", clone_ns / 1e3, "us"));

    // hdc: the associative-memory scan over the members' codebook vectors.
    let codebook = table.codebook();
    let mut memory = AssociativeMemory::<ServerId>::new(spec.dimension);
    for &member in &inputs.members {
        let slot = table.slot_of_server(member).expect("member joined");
        memory
            .insert(member, codebook.hypervector(slot).clone())
            .expect("dimension matches");
    }
    let quantum = table.config().quantum();
    let probes: Vec<_> = sample
        .iter()
        .map(|&k| codebook.hypervector(table.slot_of_request(k)))
        .collect();
    for (&key, probe) in sample.iter().zip(&probes).take(64) {
        let nearest = memory.nearest_quantized_by(probe, quantum, |s| s.get());
        assert_eq!(
            nearest.ok_or(hdhash_table::TableError::EmptyPool),
            table.lookup(key)
        );
    }
    let nearest_ns = time_ns(7, n, || {
        for probe in &probes {
            black_box(memory.nearest_quantized_by(black_box(probe), quantum, |s| s.get()));
        }
    });
    out.push(("hdc.nearest_quantized_us", nearest_ns / 1e3, "us"));

    // simdkernels: one fused pass over the same member matrix.
    let words = probes[0].as_words().len();
    let matrix: Vec<u64> = memory
        .iter()
        .flat_map(|(_, hv)| hv.as_words().iter().copied())
        .collect();
    let mut distances = vec![0u32; inputs.members.len()];
    let passes = 64;
    let rows_ns = time_ns(31, passes, || {
        for probe in probes.iter().take(passes) {
            hdhash_simdkernels::xor_popcount_rows(
                probe.as_words(),
                black_box(&matrix),
                words,
                &mut distances,
            );
            black_box(&distances);
        }
    });
    out.push(("simdkernels.rows_us", rows_ns / 1e3, "us"));
    out.push(("simdkernels.scan_bytes", (matrix.len() * 8) as f64, "bytes"));
    out
}

/// Feeds keys to a plain engine and counts nothing but failures.
struct Plain<'a> {
    keys: &'a [RequestKey],
    cursor: usize,
    failed: u64,
}

impl Hooks for Plain<'_> {
    fn next_key(&mut self) -> RequestKey {
        self.cursor = (self.cursor + 1) % self.keys.len();
        self.keys[self.cursor]
    }

    fn done(&mut self, _: &Sent, response: &ServeResponse) {
        if response.result.is_err() {
            self.failed += 1;
        }
    }

    fn failed(&mut self, _: Failure) {
        self.failed += 1;
    }
}

/// Traced versus untraced open-loop p50 on twin engines that differ only
/// in their tracer, alternating blocks: the cost of tracing, in percent.
pub fn trace_overhead_pct(
    spec: &Spec,
    inputs: &Inputs,
    blocks_per_side: usize,
    pinning: &Pinning,
) -> (f64, u64) {
    let engines: Vec<ServeEngine> = [false, true]
        .iter()
        .map(|&traced| {
            let config = serve_config(spec.dimension, spec.codebook, traced);
            let engine = pinning
                .spawn_on_worker_cpu(|| ServeEngine::new(config))
                .expect("benchmark config is valid");
            for &member in &inputs.members {
                engine.join(member).expect("fresh member");
            }
            engine
        })
        .collect();
    let mut plain = Plain {
        keys: &inputs.keys,
        cursor: 0,
        failed: 0,
    };
    let mut p50 = [Vec::new(), Vec::new()];
    for block in 0..2 * blocks_per_side {
        let side = block % 2;
        let mut latencies = load::open_loop(&engines[side], spec.rate, spec.open_block, &mut plain);
        p50[side].push(quantile(&mut latencies, 0.5));
        engines[side].tracer().drain();
    }
    let [untraced, traced] = p50.map(|mut v| median(&mut v));
    (100.0 * (traced - untraced) / untraced, plain.failed)
}

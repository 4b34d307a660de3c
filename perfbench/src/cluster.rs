//! The replica set under test, its gossip harness, and the answer checker.
//!
//! Every workload runs three [`ReplicatedEngine`]s over one
//! [`InProcessNetwork`]; lookups go to replica 0 and membership changes to a
//! round-robin origin. Gossip is driven explicitly from the generator
//! thread, one message at a time, so every epoch a replica publishes is
//! seen — and its membership recorded — before the next one can replace
//! it. The checker compares served answers with reference tables built
//! from those recorded memberships.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hdhash_core::HdHashTable;
use hdhash_serve::gossip::converged;
use hdhash_serve::transport::{Envelope, InProcessEndpoint};
use hdhash_serve::{
    GossipConfig, GossipMessage, GossipNode, InProcessNetwork, ReplicaId, ReplicatedEngine,
    ServeConfig, ServeResponse, ShardReceipt, TraceConfig, Tracer, Transport, TransportError,
};
use hdhash_table::{DynamicHashTable, RequestKey, ServerId};

use crate::spans::Spans;

pub const REPLICAS: usize = 3;
/// Gossip rounds after which a change that has not converged counts as a
/// failed operation.
const MAX_ROUNDS: usize = 32;

/// Passes at most one message to [`GossipNode::pump`] per opening, so the
/// harness can read a replica's snapshots after every applied message.
pub struct Gate {
    inner: InProcessEndpoint,
    open: Arc<AtomicBool>,
}

impl Transport for Gate {
    fn local(&self) -> ReplicaId {
        self.inner.local()
    }

    fn send(&self, to: ReplicaId, message: GossipMessage) -> Result<(), TransportError> {
        self.inner.send(to, message)
    }

    fn try_recv(&self) -> Option<Envelope> {
        if self.open.swap(false, Ordering::SeqCst) {
            self.inner.try_recv()
        } else {
            None
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Option<Envelope> {
        self.inner.recv_timeout(timeout)
    }
}

/// Membership of every epoch each (replica, shard) has published since
/// the last [`prune`](Book::prune), in the order the engine reports it.
pub struct Book {
    epochs: Vec<BTreeMap<u64, Vec<ServerId>>>,
    shards: usize,
}

impl Book {
    fn new(shards: usize) -> Self {
        let mut epochs = vec![BTreeMap::new(); REPLICAS * shards];
        for map in &mut epochs {
            map.insert(0, Vec::new());
        }
        Self { epochs, shards }
    }

    /// The latest epoch recorded for (replica, shard).
    fn last(&self, replica: usize, shard: usize) -> u64 {
        let map = &self.epochs[replica * self.shards + shard];
        *map.keys().next_back().expect("genesis epoch recorded")
    }

    /// Records the membership (in any order) of a newly published epoch.
    fn record(&mut self, replica: usize, shard: usize, epoch: u64, members: Vec<ServerId>) {
        let last = self.last(replica, shard);
        assert_eq!(
            epoch,
            last + 1,
            "replica {replica} shard {shard} skipped an epoch"
        );
        self.epochs[replica * self.shards + shard].insert(epoch, members);
    }

    fn get(&self, replica: usize, shard: usize, epoch: u64) -> Option<&Vec<ServerId>> {
        self.epochs[replica * self.shards + shard].get(&epoch)
    }

    /// Keeps only the latest epoch of each (replica, shard).
    pub fn prune(&mut self) {
        for map in &mut self.epochs {
            while map.len() > 1 {
                map.pop_first();
            }
        }
    }
}

/// A membership change applied at one origin replica.
#[derive(Clone, Copy, Debug)]
pub enum Op {
    Join(ServerId),
    Leave(ServerId),
}

/// Per-change outcome of [`Cluster::converge`].
pub struct Convergence {
    pub rounds: usize,
    pub elapsed: Duration,
}

pub struct Cluster {
    pub replicas: Vec<Arc<ReplicatedEngine>>,
    nodes: Vec<GossipNode<Gate>>,
    gates: Vec<Arc<AtomicBool>>,
    pub book: Book,
    pub tick_ns: Vec<f64>,
    pub pump_ns: Vec<f64>,
}

impl Cluster {
    /// Builds the replica set with `config`; every gossip node records to
    /// `gossip_tracer` when one is given.
    pub fn build(config: ServeConfig, gossip_tracer: Option<Arc<Tracer>>) -> Self {
        let network = InProcessNetwork::new();
        let ids: Vec<ReplicaId> = (0..REPLICAS as u64).map(ReplicaId::new).collect();
        let mut replicas = Vec::new();
        let mut nodes = Vec::new();
        let mut gates = Vec::new();
        for &id in &ids {
            let replica =
                Arc::new(ReplicatedEngine::new(id, config).expect("benchmark config is valid"));
            let open = Arc::new(AtomicBool::new(false));
            let gate = Gate {
                inner: network.endpoint(id),
                open: Arc::clone(&open),
            };
            let mut node = GossipNode::new(
                Arc::clone(&replica),
                gate,
                ids.clone(),
                GossipConfig::default(),
            );
            if let Some(tracer) = &gossip_tracer {
                node = node.with_tracer(Arc::clone(tracer));
            }
            replicas.push(replica);
            nodes.push(node);
            gates.push(open);
        }
        Self {
            replicas,
            nodes,
            gates,
            book: Book::new(config.shards),
            tick_ns: Vec::new(),
            pump_ns: Vec::new(),
        }
    }

    /// Applies `op` at `origin` and records the epochs it published.
    /// Returns the call-to-return time of the change, or why the origin
    /// refused it.
    pub fn apply(
        &mut self,
        origin: usize,
        op: Op,
        spans: &mut Spans,
        parent: u64,
    ) -> Result<Duration, String> {
        let started = Instant::now();
        let result = match op {
            Op::Join(server) => self.replicas[origin].join(server),
            Op::Leave(server) => self.replicas[origin].leave(server),
        };
        let elapsed = started.elapsed();
        let name = if matches!(op, Op::Join(_)) {
            "serve.join"
        } else {
            "serve.leave"
        };
        spans.close(name, parent, started);
        match result {
            Ok(receipts) => {
                self.record_receipts(origin, receipts);
                Ok(elapsed)
            }
            Err(e) => {
                // Shards changed before the failure keep their epoch.
                self.record_snapshots(origin);
                Err(format!("{op:?} at replica {origin} refused: {e}"))
            }
        }
    }

    fn record_receipts(&mut self, replica: usize, receipts: Vec<ShardReceipt>) {
        for receipt in receipts {
            self.book
                .record(replica, receipt.shard, receipt.epoch, receipt.members);
        }
    }

    /// Records any epoch `replica` published while gossip applied a message.
    /// This runs inside the timed convergence, so it only copies the
    /// snapshot's member list; ordering is left to the checker.
    fn record_snapshots(&mut self, replica: usize) {
        for snapshot in self.replicas[replica].engine().snapshots() {
            if snapshot.epoch > self.book.last(replica, snapshot.shard) {
                self.book.record(
                    replica,
                    snapshot.shard,
                    snapshot.epoch,
                    snapshot.members.clone(),
                );
            }
        }
    }

    fn signatures_match(&self) -> bool {
        let replicas: Vec<&ReplicatedEngine> = self.replicas.iter().map(|r| &**r).collect();
        converged(&replicas)
    }

    /// Runs gossip rounds — every node ticks, then messages are pumped one
    /// at a time until none is in flight — until all replicas read equal
    /// shard signatures. `None` when [`MAX_ROUNDS`] pass first.
    pub fn converge(&mut self, spans: &mut Spans, parent: u64) -> Option<Convergence> {
        let started = Instant::now();
        let converge_span = spans.open();
        let mut rounds = 0;
        while !self.signatures_match() {
            if rounds == MAX_ROUNDS {
                return None;
            }
            rounds += 1;
            let round_started = Instant::now();
            let round_span = spans.open();
            for node in &self.nodes {
                let t = Instant::now();
                node.tick();
                self.tick_ns.push(t.elapsed().as_nanos() as f64);
                spans.close("gossip.tick", round_span, t);
            }
            loop {
                let mut moved = 0;
                for i in 0..self.nodes.len() {
                    loop {
                        self.gates[i].store(true, Ordering::SeqCst);
                        let t = Instant::now();
                        let handled = self.nodes[i].pump();
                        self.gates[i].store(false, Ordering::SeqCst);
                        if handled == 0 {
                            break;
                        }
                        self.pump_ns.push(t.elapsed().as_nanos() as f64);
                        spans.close("gossip.pump", round_span, t);
                        self.record_snapshots(i);
                        moved += handled;
                    }
                }
                if moved == 0 {
                    break;
                }
            }
            spans.close_id("gossip.round", round_span, converge_span, round_started);
        }
        spans.close_id("gossip.converge", converge_span, parent, started);
        Some(Convergence {
            rounds,
            elapsed: started.elapsed(),
        })
    }

    /// Protocol totals over all nodes: (bytes sent, syncs sent).
    pub fn gossip_totals(&self) -> (u64, u64) {
        self.nodes
            .iter()
            .map(GossipNode::metrics)
            .fold((0, 0), |(b, s), m| (b + m.bytes_sent, s + m.syncs_sent))
    }

    pub fn shutdown(self) {
        drop(self.nodes);
        for replica in self.replicas {
            // The nodes are gone, so this is the last handle; dropping it
            // shuts the engine down and joins its worker.
            drop(Arc::try_unwrap(replica).expect("nodes dropped first"));
        }
    }
}

/// Builds the serving configuration shared by every replica.
pub fn serve_config(dimension: usize, codebook: usize, trace: bool) -> ServeConfig {
    ServeConfig {
        shards: 2,
        workers: 1,
        batch_capacity: 64,
        queue_capacity: 8192,
        dimension,
        codebook_size: codebook,
        trace: if trace {
            TraceConfig {
                enabled: true,
                sample_every: 16,
                ring_capacity: 1 << 16,
            }
        } else {
            TraceConfig::disabled()
        },
        ..ServeConfig::default()
    }
}

/// A reference table: the serving geometry of `shard`, queried one key at
/// a time — independent of the engines' batch, snapshot and publish path.
pub fn reference_table(config: &ServeConfig, shard: usize) -> HdHashTable {
    HdHashTable::builder()
        .dimension(config.dimension)
        .codebook_size(config.codebook_size)
        .seed(config.seed.wrapping_add(shard as u64))
        .build()
        .expect("benchmark geometry is valid")
}

/// Collects served answers, de-duplicated by (replica, shard, epoch,
/// slot), and checks each against a reference table holding the epoch's
/// membership.
pub struct Checker {
    references: Vec<HdHashTable>,
    shards: usize,
    pending: HashMap<(usize, usize, u64, usize), (RequestKey, ServerId)>,
    pub wrong: u64,
    pub checked: u64,
    pub first_error: Option<String>,
}

impl Checker {
    pub fn new(config: &ServeConfig) -> Self {
        let references = (0..REPLICAS)
            .flat_map(|_| (0..config.shards).map(|s| reference_table(config, s)))
            .collect();
        Self {
            references,
            shards: config.shards,
            pending: HashMap::new(),
            wrong: 0,
            checked: 0,
            first_error: None,
        }
    }

    fn fail(&mut self, message: String) {
        self.wrong += 1;
        self.first_error.get_or_insert(message);
    }

    /// Notes one served answer for checking at the next [`verify`](Self::verify).
    pub fn record(&mut self, replica: usize, key: RequestKey, response: &ServeResponse) {
        let server = match response.result {
            Ok(server) => server,
            Err(e) => return self.fail(format!("replica {replica} key {key}: error {e}")),
        };
        let slot = self.references[response.shard].slot_of_request(key);
        let entry = (replica, response.shard, response.epoch, slot);
        match self.pending.get(&entry) {
            Some(&(_, seen)) if seen != server => self.fail(format!(
                "replica {replica} shard {} epoch {}: slot {slot} served {seen} and {server}",
                response.shard, response.epoch
            )),
            Some(_) => {}
            None => {
                self.pending.insert(entry, (key, server));
            }
        }
    }

    /// Checks every pending answer, then forgets all but the latest epochs.
    pub fn verify(&mut self, book: &mut Book) {
        let mut pending: Vec<_> = self.pending.drain().collect();
        pending.sort_unstable_by_key(|&(entry, _)| entry);
        for ((replica, shard, epoch, _), (key, served)) in pending {
            self.checked += 1;
            let Some(members) = book.get(replica, shard, epoch) else {
                self.fail(format!(
                    "replica {replica} shard {shard}: unrecorded epoch {epoch}"
                ));
                continue;
            };
            let reference = &mut self.references[replica * self.shards + shard];
            reference
                .reconcile_members(members)
                .expect("recorded membership fits");
            let expected = reference.lookup(key);
            if expected != Ok(served) {
                self.fail(format!(
                    "replica {replica} shard {shard} epoch {epoch} key {key}: served {served}, \
                     reference {expected:?}"
                ));
            }
        }
        book.prune();
    }
}

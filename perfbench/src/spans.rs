//! The benchmark's own spans around every call into a layer: kept in
//! memory during the traced run, written out at exit, and reduced to each
//! layer's self time (its duration minus the part its child spans cover).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::time::Instant;

/// Spans kept before further ones are only counted.
const CAPACITY: usize = 1 << 20;

struct Span {
    name: &'static str,
    id: u64,
    parent: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
    pub dropped: u64,
}

/// One layer's totals over the run.
pub struct SelfTime {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Forgets every span recorded so far.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.dropped = 0;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id for a span whose children close before it does
    /// (0 when disabled).
    pub fn open(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.next_id += 1;
        self.next_id
    }

    /// Records a leaf span from `started` to now.
    pub fn close(&mut self, name: &'static str, parent: u64, started: Instant) {
        let id = self.open();
        self.close_id(name, id, parent, started);
    }

    /// Records the span reserved as `id`, from `started` to now.
    pub fn close_id(&mut self, name: &'static str, id: u64, parent: u64, started: Instant) {
        if self.enabled {
            self.interval(name, id, parent, started, Instant::now());
        }
    }

    /// Records a span over an explicit interval.
    pub fn interval(
        &mut self,
        name: &'static str,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end).max(ns(start)));
        self.spans.push(Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Per span name: count, total duration and self time.
    pub fn self_times(&self) -> Vec<SelfTime> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for span in &self.spans {
            if span.parent != 0 {
                children
                    .entry(span.parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for span in &self.spans {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&span.id) {
                kids.sort_unstable();
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            let total = span.end_ns - span.start_ns;
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total;
            entry.2 += total.saturating_sub(covered);
        }
        totals
            .into_iter()
            .map(|(name, (count, total_ns, self_ns))| SelfTime {
                name,
                count,
                total_ns,
                self_ns,
            })
            .collect()
    }

    /// The spans as JSON Lines, in the field layout of `hdhash_obs::jsonl`.
    pub fn jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"ts_ns\":{},\"dur_ns\":{},\"kind\":\"bench.{}\",\"span_id\":{},\"parent\":{}}}",
                s.start_ns,
                s.end_ns - s.start_ns,
                s.name,
                s.id,
                s.parent
            )
            .expect("write to String");
        }
        out
    }
}

//! Open- and closed-loop lookup drivers, run on the generator thread.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use hdhash_serve::{ServeEngine, ServeResponse, Ticket};
use hdhash_table::RequestKey;

// The generator waits by polling, and yields the CPU between polls: when
// the scheduler places the serve worker on the generator's CPU, a pure
// spin would hold the worker off for a whole time slice.

/// A ticket not redeemed within this long counts as a failed operation.
pub const TIMEOUT: Duration = Duration::from_secs(2);
/// Tickets the closed-loop client keeps outstanding.
pub const WINDOW: usize = 256;

/// One submitted lookup: its key, when it was due, and the bounds of the
/// `submit` call.
pub struct Sent {
    pub key: RequestKey,
    pub due: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
}

impl Sent {
    /// Due time to response fill: generator lateness plus the engine's
    /// submit-to-fill latency.
    pub fn latency(&self, response: &ServeResponse) -> Duration {
        self.submit_start.saturating_duration_since(self.due) + response.latency
    }
}

pub enum Failure {
    Rejected,
    TimedOut,
}

/// What a driver asks of its caller.
pub trait Hooks {
    fn next_key(&mut self) -> RequestKey;
    /// Runs before each submission (churn applies its inline changes here).
    fn before_submit(&mut self) {}
    fn done(&mut self, sent: &Sent, response: &ServeResponse);
    fn failed(&mut self, failure: Failure);
}

fn submit(
    engine: &ServeEngine,
    hooks: &mut impl Hooks,
    due: Option<Instant>,
) -> Option<(Sent, Ticket)> {
    hooks.before_submit();
    let key = hooks.next_key();
    let submit_start = Instant::now();
    let submitted = engine.submit(key);
    let submit_end = Instant::now();
    match submitted {
        Ok(ticket) => {
            let due = due.unwrap_or(submit_start);
            Some((
                Sent {
                    key,
                    due,
                    submit_start,
                    submit_end,
                },
                ticket,
            ))
        }
        Err(_) => {
            hooks.failed(Failure::Rejected);
            None
        }
    }
}

fn poll_wait(ticket: &Ticket) -> Option<ServeResponse> {
    let started = Instant::now();
    let mut spins = 0u32;
    loop {
        if let Some(response) = ticket.try_response() {
            return Some(response);
        }
        spins = spins.wrapping_add(1);
        if spins.is_multiple_of(1024) && started.elapsed() > TIMEOUT {
            return None;
        }
        std::thread::yield_now();
    }
}

/// Submits `n` lookups at `rate` per second, each at its due time (or at
/// once when the generator runs late), and returns every served lookup's
/// due-to-fill latency in µs.
pub fn open_loop<H: Hooks>(engine: &ServeEngine, rate: f64, n: usize, hooks: &mut H) -> Vec<f64> {
    let interval = 1e9 / rate;
    let mut latencies = Vec::with_capacity(n);
    let mut outstanding: VecDeque<(Sent, Ticket)> = VecDeque::new();
    let mut finish = |sent: &Sent, response: &ServeResponse, hooks: &mut H| {
        latencies.push(sent.latency(response).as_nanos() as f64 / 1e3);
        hooks.done(sent, response);
    };
    let start = Instant::now();
    for i in 0..n {
        let due = start + Duration::from_nanos((i as f64 * interval) as u64);
        loop {
            while let Some(response) = outstanding.front().and_then(|(_, t)| t.try_response()) {
                let (sent, _) = outstanding.pop_front().expect("front exists");
                finish(&sent, &response, hooks);
            }
            if Instant::now() >= due {
                break;
            }
            std::thread::yield_now();
        }
        if let Some(pair) = submit(engine, hooks, Some(due)) {
            outstanding.push_back(pair);
        }
    }
    for (sent, ticket) in outstanding {
        match ticket.wait_timeout(TIMEOUT) {
            Some(response) => finish(&sent, &response, hooks),
            None => hooks.failed(Failure::TimedOut),
        }
    }
    latencies
}

/// One client keeping [`WINDOW`] tickets outstanding until `n` lookups
/// have completed; returns completed lookups per second of block time.
pub fn closed_loop(engine: &ServeEngine, n: usize, hooks: &mut impl Hooks) -> f64 {
    let start = Instant::now();
    let mut outstanding: VecDeque<(Sent, Ticket)> = VecDeque::with_capacity(WINDOW);
    let (mut submitted, mut finished) = (0, 0);
    while finished < n {
        while outstanding.len() < WINDOW && submitted < n {
            submitted += 1;
            match submit(engine, hooks, None) {
                Some(pair) => outstanding.push_back(pair),
                None => finished += 1,
            }
        }
        let Some((sent, ticket)) = outstanding.pop_front() else {
            continue;
        };
        match poll_wait(&ticket) {
            Some(response) => hooks.done(&sent, &response),
            None => hooks.failed(Failure::TimedOut),
        }
        finished += 1;
    }
    n as f64 / start.elapsed().as_secs_f64()
}

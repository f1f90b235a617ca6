//! The closed-loop client every workload drives: one persistent
//! binary-protocol connection, a fixed in-flight window, and a tally of
//! what came back.

use crate::check::Slots;
use crate::trace::SpanLog;
use crate::traffic::{Op, Stream};
use ic_serve::{Client, Outcome, Response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// When a loop stops *issuing*; it always drains what is in flight.
#[derive(Clone, Copy)]
pub enum Stop<'a> {
    At(Instant),
    /// When the flag is raised: the untraced window, whose length the
    /// run decides while it watches the machine.
    Raised(&'a AtomicBool),
    AfterOps(u64),
}

impl Stop<'_> {
    /// Whether a loop that has issued `issued` ops may issue another.
    pub fn issuing(self, issued: u64) -> bool {
        match self {
            Stop::At(deadline) => Instant::now() < deadline,
            Stop::Raised(flag) => !flag.load(Ordering::Relaxed),
            Stop::AfterOps(n) => issued < n,
        }
    }
}

/// Everything one client thread saw.
#[derive(Default)]
pub struct Tally {
    /// Per op: when it completed, and send → reply fully decoded in ms
    /// (`INFINITY` for an op that failed, so it misses every percentile
    /// it falls under).
    pub ops: Vec<(Instant, f64)>,
    pub attempted: u64,
    /// Errors, shed queries, deadline-degraded answers.
    pub failed: u64,
    /// Answered queries (UPDATE acks are ops but not replies).
    pub replies: u64,
    pub vertices: u64,
    /// When the first successful reply landed.
    pub first_reply_at: Option<Instant>,
    pub slots: Slots,
}

impl Tally {
    pub fn with_slots(n: usize) -> Tally {
        Tally {
            slots: Slots::with_len(n),
            ..Tally::default()
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.ops.extend(other.ops);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.replies += other.replies;
        self.vertices += other.vertices;
        self.first_reply_at = match (self.first_reply_at, other.first_reply_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.slots.merge(other.slots);
    }

    pub fn record_ok(&mut self, sent: Instant) {
        let now = Instant::now();
        self.attempted += 1;
        self.ops
            .push((now, now.duration_since(sent).as_secs_f64() * 1e3));
    }

    pub fn record_failure(&mut self, what: &dyn std::fmt::Debug) {
        if self.failed < 4 {
            eprintln!("FAILED OP {what:?}");
        }
        self.attempted += 1;
        self.failed += 1;
        self.ops.push((Instant::now(), f64::INFINITY));
    }

    fn record_reply(&mut self, op: &Op, sent: Instant, response: Response) {
        match response {
            Response::Reply {
                outcome: Outcome::Complete(answer),
                ..
            } => {
                self.record_ok(sent);
                self.first_reply_at.get_or_insert_with(Instant::now);
                self.replies += 1;
                self.vertices += answer.iter().map(|c| c.len() as u64).sum::<u64>();
                if let Some(slot) = op.slot {
                    self.slots.observe(slot, &op.query, &answer);
                }
            }
            other => self.record_failure(&other),
        }
    }
}

/// Read credits for `churn`: the writer grants `per_update` reads with
/// every UPDATE it sends and holds its next UPDATE until the reader has
/// drawn the balance down to one grant, so the op stream keeps a fixed
/// composition however fast either side is.
pub struct Credits {
    state: Mutex<(u64, bool)>,
    changed: Condvar,
    per_update: u64,
}

impl Credits {
    pub fn new(per_update: u64) -> Credits {
        Credits {
            state: Mutex::new((0, false)),
            changed: Condvar::new(),
            per_update,
        }
    }

    /// Writer side: waits for room, then grants one update's reads.
    /// Returns `false` once the window is closed.
    pub fn grant(&self) -> bool {
        let mut state = self.state.lock().expect("credits lock");
        while state.0 > self.per_update && !state.1 {
            state = self.changed.wait(state).expect("credits lock");
        }
        if state.1 {
            return false;
        }
        state.0 += self.per_update;
        self.changed.notify_all();
        true
    }

    /// Reader side: takes one credit without waiting.
    fn try_take(&self) -> bool {
        let mut state = self.state.lock().expect("credits lock");
        if state.0 == 0 {
            return false;
        }
        state.0 -= 1;
        if state.0 <= self.per_update {
            self.changed.notify_all();
        }
        true
    }

    /// Reader side: blocks for a credit; `false` once closed.
    fn take(&self) -> bool {
        let mut state = self.state.lock().expect("credits lock");
        while state.0 == 0 && !state.1 {
            state = self.changed.wait(state).expect("credits lock");
        }
        if state.0 == 0 {
            return false;
        }
        state.0 -= 1;
        if state.0 <= self.per_update {
            self.changed.notify_all();
        }
        true
    }

    pub fn close(&self) {
        self.state.lock().expect("credits lock").1 = true;
        self.changed.notify_all();
    }
}

/// Runs `stream` against `client` with up to `window` queries in flight
/// until `stop`, then drains. Returns when the last reply landed.
pub fn closed_loop(
    client: &mut Client,
    stream: &mut dyn Stream,
    window: usize,
    stop: Stop<'_>,
    credits: Option<&Credits>,
    tally: &mut Tally,
    mut spans: Option<&mut SpanLog>,
) -> Instant {
    let mut in_flight: Vec<(u64, Instant, Op)> = Vec::with_capacity(window);
    let mut next_id = 0u64;
    let mut issuing = true;
    loop {
        issuing = issuing && stop.issuing(next_id);
        let may_send = issuing
            && in_flight.len() < window
            && match credits {
                None => true,
                Some(c) if in_flight.is_empty() => {
                    let got = c.take();
                    issuing = got;
                    got
                }
                Some(c) => c.try_take(),
            };
        if may_send {
            let op = stream.next_op();
            let sent = Instant::now();
            if let Err(e) = client.send(next_id, &op.query) {
                tally.record_failure(&e);
                break;
            }
            if let Some(log) = spans.as_deref_mut() {
                log.push("client.send", sent, Instant::now(), None, next_id);
            }
            in_flight.push((next_id, sent, op));
            next_id += 1;
            continue;
        }
        if in_flight.is_empty() {
            break;
        }
        match client.recv() {
            Ok(response) => {
                let id = match &response {
                    Response::Reply { id, .. } | Response::Overloaded { id, .. } => *id,
                    other => {
                        tally.record_failure(other);
                        break;
                    }
                };
                let Some(pos) = in_flight.iter().position(|(i, _, _)| *i == id) else {
                    tally.record_failure(&format!("reply to unknown id {id}"));
                    break;
                };
                let (_, sent, op) = in_flight.swap_remove(pos);
                if let Some(log) = spans.as_deref_mut() {
                    log.push("client.op", sent, Instant::now(), None, id);
                }
                tally.record_reply(&op, sent, response);
            }
            Err(e) => {
                tally.record_failure(&e);
                break;
            }
        }
    }
    // Anything still in flight here was abandoned by a broken connection.
    for (id, _, _) in in_flight {
        tally.record_failure(&format!("no reply to id {id}"));
    }
    Instant::now()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn credits_hold_the_stream_to_a_fixed_ratio() {
        let credits = Arc::new(Credits::new(8));
        let reader = {
            let credits = Arc::clone(&credits);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while credits.take() {
                    reads += 1;
                }
                reads
            })
        };
        let mut updates = 0u64;
        for _ in 0..50 {
            assert!(credits.grant());
            updates += 1;
        }
        // Let the reader finish the balance before closing, so the
        // ratio is exact rather than within one grant.
        while credits.state.lock().unwrap().0 > 0 {
            std::thread::yield_now();
        }
        credits.close();
        assert!(!credits.grant());
        assert_eq!(reader.join().unwrap(), updates * 8);
    }
}

//! Cooperative deadlines for long-running solver loops.
//!
//! A [`Budget`] is the cancellation primitive of the serving engine's
//! resilience layer: a query (or batch) deadline is attached to one
//! `Arc<Budget>`, and every solver hot loop *checkpoints* it — the peel
//! cascade, the TIC candidate expansion, the forest read, the
//! local-search seed walk.
//! Checkpoints are cooperative: nothing is ever aborted mid-mutation.
//! A loop observes expiry **between** consistent states and stops
//! there, which is what lets the exact solvers hand back a
//! provably-final rank prefix instead of torn state.
//!
//! # Cost model
//!
//! The hot-path call is [`Budget::poll`]: one relaxed flag load, one
//! relaxed counter increment, and a monotonic clock read only every
//! [`POLL_STRIDE`]th call. A budget constructed with
//! [`Budget::unlimited`] short-circuits to a single flag load.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Clock reads are amortized: [`Budget::poll`] consults the monotonic
/// clock once per this many calls.
pub const POLL_STRIDE: u32 = 64;

/// A shared, monotone deadline flag. See the module docs. Once a budget
/// observes expiry it stays expired — the flag never resets, so every
/// holder of the `Arc` agrees on the verdict.
#[derive(Debug)]
pub struct Budget {
    deadline: Option<Instant>,
    expired: AtomicBool,
    ticks: AtomicU32,
}

impl Budget {
    /// A budget that never expires (every checkpoint is one flag load).
    pub fn unlimited() -> Budget {
        Budget {
            deadline: None,
            expired: AtomicBool::new(false),
            ticks: AtomicU32::new(0),
        }
    }

    /// A budget expiring `limit` from now.
    pub fn within(limit: Duration) -> Budget {
        Budget::after(Instant::now(), limit)
    }

    /// A budget expiring `limit` after `anchor`. A limit so large that
    /// the deadline is not representable as an [`Instant`] never
    /// expires, exactly like [`Budget::unlimited`].
    pub fn after(anchor: Instant, limit: Duration) -> Budget {
        Budget {
            deadline: anchor.checked_add(limit),
            ..Budget::unlimited()
        }
    }

    /// The cheap checkpoint for hot loops: returns whether the budget
    /// has expired, reading the clock only every [`POLL_STRIDE`]th call
    /// (expiry observed by any holder is visible to all).
    #[inline]
    pub fn poll(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        let t = self.ticks.fetch_add(1, Ordering::Relaxed);
        if !t.is_multiple_of(POLL_STRIDE) {
            return false;
        }
        if Instant::now() >= deadline {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// A forced checkpoint: reads the clock now (loop boundaries where
    /// staleness of up to [`POLL_STRIDE`] iterations is not acceptable,
    /// e.g. right before materializing the next community of an answer).
    pub fn check(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        let Some(deadline) = self.deadline else {
            return false;
        };
        if Instant::now() >= deadline {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// The flag alone — no clock read. True only after some checkpoint
    /// observed expiry.
    pub fn expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_expires() {
        let b = Budget::unlimited();
        assert!(b.deadline.is_none());
        for _ in 0..1000 {
            assert!(!b.poll());
        }
        assert!(!b.check());
        assert!(!b.expired());
    }

    #[test]
    fn elapsed_deadline_is_observed_and_sticky() {
        let b = Budget::within(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.check(), "past deadline must be observed by check()");
        assert!(b.expired(), "expiry is recorded");
        assert!(b.poll(), "and sticky for every later checkpoint");
    }

    #[test]
    fn poll_amortizes_but_converges() {
        let b = Budget::within(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(3));
        // Within at most one stride of polls the flag must flip.
        let mut saw = false;
        for _ in 0..=POLL_STRIDE {
            if b.poll() {
                saw = true;
                break;
            }
        }
        assert!(saw, "poll must observe expiry within one stride");
    }

    #[test]
    fn generous_deadline_does_not_expire() {
        let b = Budget::within(Duration::from_secs(3600));
        for _ in 0..200 {
            assert!(!b.poll());
        }
        assert!(!b.check());
    }

    #[test]
    fn unrepresentable_deadline_never_expires() {
        for limit in [Duration::MAX, Duration::from_secs_f64(1e19)] {
            let b = Budget::within(limit);
            assert!(b.deadline.is_none());
            assert!(!b.check());
        }
    }

    #[test]
    fn shared_observation_is_global() {
        let b = std::sync::Arc::new(Budget::within(Duration::from_millis(0)));
        std::thread::sleep(Duration::from_millis(2));
        assert!(b.check());
        let b2 = std::sync::Arc::clone(&b);
        std::thread::scope(|s| {
            s.spawn(move || assert!(b2.expired(), "other holders see the flag"));
        });
    }
}

//! Bounded notification admission with typed shedding.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// What a [`NotificationGate`] decided about one notification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Deliver as an incremental delta notification.
    Deliver,
    /// Deliver, but flag the payload as a **resync**: at least one
    /// earlier notification for this subscriber was shed, so its delta
    /// chain is broken and the full answer in this payload is the only
    /// trustworthy state.
    DeliverResync,
    /// Drop the notification: the subscriber's queue is full. The next
    /// admitted one will be a [`Admission::DeliverResync`].
    Shed,
}

/// Per-subscriber admission control: at most `capacity` notifications
/// in flight (admitted but not yet written to the wire); beyond that,
/// notifications are shed and the gap is surfaced *typed* instead of
/// silently — the next admitted notification is tagged as a resync.
///
/// The serving layer calls [`admit`](Self::admit) before enqueueing a
/// notification and [`delivered`](Self::delivered) once it has left the
/// process (written or failed). All methods are lock-free; the gate is
/// shared between the update path (admitting) and the connection writer
/// (draining).
#[derive(Debug)]
pub struct NotificationGate {
    capacity: usize,
    depth: AtomicUsize,
    lagged: AtomicBool,
}

impl NotificationGate {
    /// A gate admitting at most `capacity` undelivered notifications
    /// (`capacity` is clamped to at least 1 — a zero-capacity gate
    /// could never deliver the resync that repairs a gap).
    pub fn new(capacity: usize) -> Self {
        NotificationGate {
            capacity: capacity.max(1),
            depth: AtomicUsize::new(0),
            lagged: AtomicBool::new(false),
        }
    }

    /// Decides one notification. On `Deliver`/`DeliverResync` the
    /// in-flight depth was incremented and the caller **must** enqueue
    /// the notification and eventually call [`delivered`](Self::delivered).
    pub fn admit(&self) -> Admission {
        let mut depth = self.depth.load(Ordering::Relaxed);
        loop {
            if depth >= self.capacity {
                self.lagged.store(true, Ordering::Relaxed);
                return Admission::Shed;
            }
            match self.depth.compare_exchange_weak(
                depth,
                depth + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(now) => depth = now,
            }
        }
        if self.lagged.swap(false, Ordering::AcqRel) {
            Admission::DeliverResync
        } else {
            Admission::Deliver
        }
    }

    /// Marks one admitted notification as off the queue.
    pub fn delivered(&self) {
        let prev = self.depth.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "delivered() without a matching admit()");
    }

    /// Notifications currently admitted but not yet delivered.
    pub fn depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// The admission bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sheds_at_capacity_and_resyncs_after() {
        let gate = NotificationGate::new(2);
        assert_eq!(gate.admit(), Admission::Deliver);
        assert_eq!(gate.admit(), Admission::Deliver);
        assert_eq!(gate.admit(), Admission::Shed);
        assert_eq!(gate.admit(), Admission::Shed);
        assert_eq!(gate.depth(), 2);
        gate.delivered();
        // First admitted after a shed carries the resync flag, once.
        assert_eq!(gate.admit(), Admission::DeliverResync);
        gate.delivered();
        assert_eq!(gate.admit(), Admission::Deliver);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let gate = NotificationGate::new(0);
        assert_eq!(gate.capacity(), 1);
        assert_eq!(gate.admit(), Admission::Deliver);
        assert_eq!(gate.admit(), Admission::Shed);
    }
}

//! The one blocking primitive of the simulated services.
//!
//! Every store in this crate (queues, object buckets, direct-exchange and
//! weight-stream frames) keeps its state behind a [`Mailbox`]. Producers
//! mutate through [`Mailbox::update`], which wakes blocked consumers;
//! consumers take a raw, unbilled look through [`Mailbox::wait`], which
//! blocks until their readiness predicate holds or a short *real-time*
//! grace runs out. Billing and clock movement never happen here: callers
//! settle them afterwards from the virtual stamps alone, so real time is
//! never load-bearing — the grace only keeps consumers from busy-spinning
//! while producer threads catch up.
//!
//! This file holds the crate's only `Condvar` and only real-time wait.

use parking_lot::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How long [`Mailbox::wait`] blocks in real time for a producer before
/// handing back whatever state it has (the caller then takes its
/// virtual-time escape hatch: an empty poll, an empty scan, an idle wait).
const GRACE: Duration = Duration::from_millis(150);

/// Shared state plus the condition variable its waiters park on.
pub(crate) struct Mailbox<T> {
    state: Mutex<T>,
    cond: Condvar,
}

impl<T> Mailbox<T> {
    pub(crate) fn new(state: T) -> Mailbox<T> {
        Mailbox {
            state: Mutex::new(state),
            cond: Condvar::new(),
        }
    }

    /// Locks the state without waking anyone: reads, and changes no waiter
    /// can be blocked on (takes, purges, bookkeeping).
    pub(crate) fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock()
    }

    /// Mutates the state, then wakes every waiter to re-check its
    /// predicate.
    pub(crate) fn update<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let out = f(&mut self.state.lock());
        self.cond.notify_all();
        out
    }

    /// Blocks until `ready` holds or the real-time grace runs out, then
    /// returns the locked state either way — the caller re-inspects it.
    pub(crate) fn wait(&self, mut ready: impl FnMut(&T) -> bool) -> MutexGuard<'_, T> {
        let mut state = self.state.lock();
        let deadline = Instant::now() + GRACE;
        while !ready(&state) {
            let timeout = deadline.saturating_duration_since(Instant::now());
            if timeout.is_zero() {
                break;
            }
            self.cond.wait_for(&mut state, timeout);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_returns_at_once_when_ready() {
        let mb = Mailbox::new(3u32);
        let start = Instant::now();
        assert_eq!(*mb.wait(|n| *n == 3), 3);
        assert!(start.elapsed() < GRACE);
    }

    #[test]
    fn wait_gives_up_after_the_grace() {
        let mb = Mailbox::new(0u32);
        let start = Instant::now();
        assert_eq!(*mb.wait(|n| *n > 0), 0);
        assert!(start.elapsed() >= GRACE);
    }

    #[test]
    fn update_wakes_a_blocked_waiter() {
        let mb = Arc::new(Mailbox::new(Vec::<u8>::new()));
        let (started, waiting) = std::sync::mpsc::channel();
        let waiter = {
            let mb = mb.clone();
            std::thread::spawn(move || {
                started.send(()).expect("test thread listens");
                let start = Instant::now();
                let got = mb.wait(|v| !v.is_empty()).clone();
                (got, start.elapsed())
            })
        };
        waiting.recv().expect("waiter started");
        mb.update(|v| v.push(7));
        let (got, waited) = waiter.join().expect("waiter");
        assert_eq!(got, vec![7]);
        // The grace ending would also return the state; only a notify
        // returns it this early.
        assert!(waited < GRACE, "woken by the update, not by the grace");
    }
}

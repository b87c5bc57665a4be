//! The bounded submission queue between [`crate::ScanHub::submit`] and
//! the workers, and the [`Ticket`] a submitter redeems for its verdict.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::cache::DigestKey;
use crate::metrics::Laps;
use crate::request::ScanRequest;
use crate::verdict::Verdict;

pub(crate) struct Job {
    pub request: ScanRequest,
    pub digest: Option<DigestKey>,
    pub ticket: Arc<TicketState>,
    /// The request's stage laps from the submit path, the queue lap
    /// running (`None` when telemetry is off).
    pub laps: Option<Laps>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// A bounded FIFO of jobs: a full queue blocks `push` (backpressure
/// toward the ingestion side), an empty one blocks `pop`.
pub(crate) struct JobQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `job`, blocking while the queue is full.
    pub fn push(&self, job: Job) {
        let mut state = self.state.lock().expect("queue lock");
        while state.jobs.len() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("queue wait");
        }
        state.jobs.push_back(job);
        drop(state);
        self.not_empty.notify_one();
    }

    /// The next job, blocking while the queue is empty; `None` once the
    /// queue is closed **and** drained.
    pub fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        let job = loop {
            if let Some(job) = state.jobs.pop_front() {
                break job;
            }
            if state.closed {
                return None;
            }
            state = self.not_empty.wait(state).expect("queue wait");
        };
        drop(state);
        self.not_full.notify_one();
        Some(job)
    }

    /// Stops blocking anyone: workers drain what is queued and then see
    /// `None`.
    pub fn close(&self) {
        self.state.lock().expect("queue lock").closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

pub(crate) struct TicketState {
    slot: Mutex<Option<Result<Verdict, String>>>,
    ready: Condvar,
}

impl TicketState {
    fn new(outcome: Option<Result<Verdict, String>>) -> Arc<Self> {
        Arc::new(TicketState {
            slot: Mutex::new(outcome),
            ready: Condvar::new(),
        })
    }

    pub fn fulfill(&self, outcome: Result<Verdict, String>) {
        *self.slot.lock().expect("ticket lock") = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on one submitted package's verdict.
#[must_use = "a ticket must be waited on to observe the verdict"]
pub struct Ticket {
    state: Arc<TicketState>,
}

impl Ticket {
    /// A ticket that already holds its verdict (a verdict-cache hit).
    pub(crate) fn ready(verdict: Verdict) -> Self {
        Ticket {
            state: TicketState::new(Some(Ok(verdict))),
        }
    }

    /// A ticket a worker will fulfill through the returned state.
    pub(crate) fn pending() -> (Self, Arc<TicketState>) {
        let state = TicketState::new(None);
        (
            Ticket {
                state: Arc::clone(&state),
            },
            state,
        )
    }

    /// Blocks until the verdict is available.
    ///
    /// # Panics
    ///
    /// Propagates a worker panic that occurred while scanning this
    /// request (the worker itself survives and keeps serving the queue).
    pub fn wait(&self) -> Verdict {
        self.wait_until(None)
            .expect("a wait without a deadline returns only with the verdict")
    }

    /// Blocks for at most `timeout`; returns `None` if the verdict is
    /// still pending when the deadline passes (the ticket stays valid —
    /// wait again later).
    ///
    /// # Panics
    ///
    /// Propagates a worker panic, exactly like [`Ticket::wait`].
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Verdict> {
        // A deadline `Instant` can't represent (`Duration::MAX` overflows
        // `checked_add`) is infinitely far away, not already expired:
        // block exactly like `wait()`.
        self.wait_until(Instant::now().checked_add(timeout))
    }

    /// Blocks until the verdict is available or `deadline`, if any,
    /// passes. Without a deadline it reads no clock.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<Verdict> {
        let mut slot = self.state.slot.lock().expect("ticket lock");
        loop {
            match slot.as_ref() {
                Some(Ok(v)) => return Some(v.clone()),
                Some(Err(msg)) => panic!("{msg}"),
                None => match deadline {
                    None => slot = self.state.ready.wait(slot).expect("ticket wait"),
                    Some(deadline) => {
                        let remaining = deadline
                            .checked_duration_since(Instant::now())
                            .filter(|r| !r.is_zero())?;
                        let (guard, _timed_out) = self
                            .state
                            .ready
                            .wait_timeout(slot, remaining)
                            .expect("ticket wait");
                        slot = guard;
                    }
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::tests::{hub, request};
    use crate::HubConfig;

    #[test]
    fn wait_timeout_times_out_on_a_saturated_queue_then_resolves() {
        // One worker, a two-slot queue, caches off: after the final
        // submit returns, at least the last two jobs are still queued
        // behind the in-flight scan, so a zero-duration wait on the
        // last ticket must observe "pending".
        let hub = hub(HubConfig {
            workers: 1,
            queue_capacity: 2,
            cache_capacity: 0,
            artifact_cache_capacity: 0,
            ..HubConfig::default()
        });
        let body = "x = 'just some bytes to scan'\n".repeat(2_000);
        let tickets: Vec<Ticket> = (0..12)
            .map(|i| hub.submit(request(&format!("# upload {i}\n{body}"))))
            .collect();
        let last = tickets.last().expect("tickets");
        assert!(
            last.wait_timeout(Duration::ZERO).is_none(),
            "last ticket resolved while the queue was saturated"
        );
        // A generous deadline resolves...
        let v = last.wait_timeout(Duration::from_secs(60)).expect("verdict");
        assert!(!v.flagged());
        // ...and a fulfilled ticket answers instantly ever after.
        assert_eq!(last.wait_timeout(Duration::ZERO), Some(v));
        for t in &tickets {
            let _ = t.wait();
        }
        assert_eq!(hub.stats().completed, 12);
    }

    fn panicked_ticket() -> Ticket {
        let (ticket, state) = Ticket::pending();
        state.fulfill(Err("scan worker panicked: boom".to_owned()));
        ticket
    }

    #[test]
    #[should_panic(expected = "scan worker panicked")]
    fn wait_propagates_worker_panics() {
        panicked_ticket().wait();
    }

    #[test]
    #[should_panic(expected = "scan worker panicked")]
    fn wait_timeout_propagates_worker_panics() {
        let _ = panicked_ticket().wait_timeout(Duration::ZERO);
    }

    #[test]
    fn wait_timeout_with_an_overflowing_deadline_blocks_like_wait() {
        // `Instant::now() + Duration::MAX` is unrepresentable; the
        // overflowed deadline must mean "infinitely patient", not
        // "already expired". Regression: this returned `None`
        // immediately, so callers passing a huge timeout lost verdicts.
        let hub = hub(HubConfig::default());
        let ticket = hub.submit(request("import os\nos.system('id')\n"));
        let v = ticket
            .wait_timeout(Duration::MAX)
            .expect("an unrepresentable deadline must block until the verdict, like wait()");
        assert!(v.flagged());
        // Near-overflow values that still fit behave the same.
        let ticket = hub.submit(request("print('clean')\n"));
        assert!(ticket
            .wait_timeout(Duration::from_secs(u64::MAX / 4))
            .is_some());
    }

    #[test]
    fn scan_ordered_preserves_submission_order() {
        let hub = hub(HubConfig {
            queue_capacity: 2,
            workers: 3,
            ..HubConfig::default()
        });
        let codes: Vec<String> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    format!("import os\nos.system('cmd{i}')\n")
                } else {
                    format!("def f{i}():\n    return {i}\n")
                }
            })
            .collect();
        let verdicts = hub.scan_ordered(codes.iter().map(|c| request(c)));
        assert_eq!(verdicts.len(), 40);
        for (i, v) in verdicts.iter().enumerate() {
            assert_eq!(v.yara.is_empty(), i % 3 != 0, "index {i}");
        }
    }

    #[test]
    fn scan_ordered_keeps_order_under_concurrent_submitters() {
        // Several client threads interleave submissions into one hub with
        // a deliberately tiny queue; each client's batch must come back
        // in its own submission order regardless of global interleaving.
        let hub = hub(HubConfig {
            queue_capacity: 1,
            workers: 4,
            cache_capacity: 0,
            ..HubConfig::default()
        });
        std::thread::scope(|scope| {
            for client in 0..4 {
                let hub = &hub;
                scope.spawn(move || {
                    let codes: Vec<String> = (0..25)
                        .map(|i| {
                            if (i + client) % 2 == 0 {
                                format!("import os\nos.system('c{client}_{i}')\n")
                            } else {
                                format!("def f{client}_{i}():\n    return {i}\n")
                            }
                        })
                        .collect();
                    let verdicts = hub.scan_ordered(codes.iter().map(|c| request(c)));
                    for (i, v) in verdicts.iter().enumerate() {
                        assert_eq!(
                            v.yara.contains(&"sys".to_owned()),
                            (i + client) % 2 == 0,
                            "client {client} index {i} out of order"
                        );
                    }
                });
            }
        });
        assert_eq!(hub.stats().completed, 100);
    }

    #[test]
    fn drop_joins_workers_with_pending_jobs() {
        let hub = hub(HubConfig {
            workers: 1,
            ..HubConfig::default()
        });
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| hub.submit(request(&format!("x = {i}\n"))))
            .collect();
        drop(hub);
        // Workers drain the queue before exiting, so every ticket resolves.
        for t in &tickets {
            let _ = t.wait();
        }
    }
}

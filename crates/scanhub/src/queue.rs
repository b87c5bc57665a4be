//! The bounded submission queue between [`crate::ScanHub::submit`] and
//! the workers, and the [`Ticket`] a submitter redeems for its verdict.
//!
//! **A poisoned lock is recovered**, as the artifact store's is: no
//! section runs a scan or rule code, and each leaves its state
//! consistent at any point it could unwind from, so a panic under one
//! costs no later ticket. Per section:
//!
//! * `push` and `pop` make one `VecDeque` push or pop, which completes
//!   or leaves the deque as it was; `close` writes one `bool`;
//! * `fulfill` writes one `Option`: a waiter sees no verdict or all of it;
//! * a wait only reads the slot, to clone the `Verdict` or re-raise the
//!   worker's panic, which poisons the ticket's lock and leaves the slot
//!   as it was, so the next wait re-raises too.
//!
//! A verdict-cache hit's ticket holds the cached handle and no lock.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::cache::DigestKey;
use crate::metrics::Laps;
use crate::request::ScanRequest;
use crate::verdict::Verdict;

/// A guard (or a wait's result) from a lock a panic may have poisoned;
/// see the module doc for why the state under it is consistent.
fn recover<T>(result: LockResult<T>) -> T {
    result.unwrap_or_else(PoisonError::into_inner)
}

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
        let mut state = recover(self.state.lock());
        while state.jobs.len() >= self.capacity && !state.closed {
            state = recover(self.not_full.wait(state));
        }
        state.jobs.push_back(job);
        drop(state);
        self.not_empty.notify_one();
    }

    /// The next job, blocking while the queue is empty; `None` once the
    /// queue is closed **and** drained.
    pub fn pop(&self) -> Option<Job> {
        let mut state = recover(self.state.lock());
        let job = loop {
            if let Some(job) = state.jobs.pop_front() {
                break job;
            }
            if state.closed {
                return None;
            }
            state = recover(self.not_empty.wait(state));
        };
        drop(state);
        self.not_full.notify_one();
        Some(job)
    }

    /// Stops blocking anyone: workers drain what is queued and then see
    /// `None`.
    pub fn close(&self) {
        recover(self.state.lock()).closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

pub(crate) struct TicketState {
    slot: Mutex<Option<Result<Arc<Verdict>, String>>>,
    ready: Condvar,
}

impl TicketState {
    /// Hands the worker's verdict — the handle the verdict cache and the
    /// flight recorder hold too — or its panic message to every waiter.
    pub fn fulfill(&self, outcome: Result<Arc<Verdict>, String>) {
        *recover(self.slot.lock()) = Some(outcome);
        self.ready.notify_all();
    }
}

/// A claim on one submitted package's verdict.
#[must_use = "a ticket must be waited on to observe the verdict"]
pub struct Ticket {
    claim: Claim,
}

enum Claim {
    /// A verdict-cache hit, answered on the submit path: the cached
    /// handle itself, with no lock to wait on and nothing allocated.
    Cached(Arc<Verdict>),
    /// A queued job, which a worker fulfills through the shared state.
    Pending(Arc<TicketState>),
}

impl Ticket {
    /// A ticket that already holds its verdict (a verdict-cache hit).
    pub(crate) fn cached(verdict: Arc<Verdict>) -> Self {
        Ticket {
            claim: Claim::Cached(verdict),
        }
    }

    /// A ticket a worker will fulfill through the returned state.
    pub(crate) fn pending() -> (Self, Arc<TicketState>) {
        let state = Arc::new(TicketState {
            slot: Mutex::new(None),
            ready: Condvar::new(),
        });
        (
            Ticket {
                claim: Claim::Pending(Arc::clone(&state)),
            },
            state,
        )
    }

    /// Blocks until the verdict is available.
    ///
    /// Each wait returns its own copy of the shared verdict, so a ticket
    /// can be waited on again.
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
    /// passes, and copies it out for the caller. Without a deadline it
    /// reads no clock. Only a hit's copy says `from_cache`: the shared
    /// verdict is the one its first scan produced.
    fn wait_until(&self, deadline: Option<Instant>) -> Option<Verdict> {
        let state = match &self.claim {
            Claim::Cached(verdict) => {
                return Some(Verdict {
                    from_cache: true,
                    ..Verdict::clone(verdict)
                })
            }
            Claim::Pending(state) => state,
        };
        let mut slot = recover(state.slot.lock());
        loop {
            match slot.as_ref() {
                Some(Ok(v)) => return Some(Verdict::clone(v)),
                Some(Err(msg)) => panic!("{msg}"),
                None => match deadline {
                    None => slot = recover(state.ready.wait(slot)),
                    Some(deadline) => {
                        let remaining = deadline
                            .checked_duration_since(Instant::now())
                            .filter(|r| !r.is_zero())?;
                        let waited = state.ready.wait_timeout(slot, remaining);
                        slot = recover(waited).0;
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

    /// Panics while holding `mutex`, which poisons it.
    fn poison<T>(mutex: &Mutex<T>) {
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = mutex.lock();
            panic!("poisoning the lock");
        }));
        assert!(panicked.is_err() && mutex.is_poisoned());
    }

    #[test]
    fn poisoned_queue_and_ticket_locks_still_carry_a_job_to_its_verdict() {
        let queue = JobQueue::new(1);
        let (ticket, state) = Ticket::pending();
        poison(&queue.state);
        poison(&state.slot);
        queue.push(Job {
            request: request("print('queued')\n"),
            digest: None,
            ticket: state,
            laps: None,
        });
        let job = queue.pop().expect("the pushed job");
        let verdict = Verdict {
            yara: vec!["sys".to_owned()],
            ..Verdict::default()
        };
        job.ticket.fulfill(Ok(Arc::new(verdict.clone())));
        assert_eq!(ticket.wait_timeout(Duration::ZERO), Some(verdict.clone()));
        assert_eq!(ticket.wait(), verdict);
        queue.close();
        assert!(queue.pop().is_none(), "a closed, drained queue");
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

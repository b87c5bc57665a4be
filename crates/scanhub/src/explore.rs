//! A deterministic schedule explorer for the artifact store's locks.
//!
//! Under test, `store.rs` takes its `Mutex`, `MutexGuard` and `Condvar`
//! from this module instead of `std::sync`. Outside an exploration they
//! behave exactly like std's, so every other test drives the store with
//! ordinary threads. Inside [`explore`], the logical threads of one
//! configuration run on real threads but one at a time, and a thread
//! hands the turn to the scheduler before every lock and every wait, and
//! nowhere else, so an execution is fixed by which thread is chosen at
//! each of those points. The explorer replays every such sequence
//! depth-first — the stateless model checking `loom` performs, without
//! the crate — and panics with the schedule printed when a thread panics
//! (an invariant the configuration asserts), when every unfinished thread
//! is blocked (a deadlock or a lost wake-up), or when the end-state check
//! fails.
//!
//! Acquisitions are enough: between two of them a thread touches only
//! data under a lock it holds, so letting it run on to its next
//! acquisition loses no outcome. A notify is therefore not a switch
//! point. It makes its waiters runnable in the model, and they get their
//! turn at the notifier's next switch point. The model tracks which
//! mutexes are held and which threads wait on which condvar. Waits never
//! wake spuriously, so a waiter nobody notifies stays blocked and its
//! schedule fails.

use std::any::type_name;
use std::cell::RefCell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{self as real, Arc, LockResult, PoisonError};

thread_local! {
    /// The scheduler and logical-thread index of an explored thread.
    static CURRENT: RefCell<Option<(Arc<Scheduler>, usize)>> = const { RefCell::new(None) };
}

fn current() -> Option<(Arc<Scheduler>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

/// A step of the schedule log: a switch point, or a notify.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Acquire the mutex at this address, holding a value of this type.
    Lock(usize, &'static str),
    /// Park on the condvar (first), having released the mutex (second).
    Wait(usize, usize),
    /// Wake every waiter of the condvar at this address.
    Notify(usize),
    Exit,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Lock(_, name) => write!(f, "lock {name}"),
            Op::Wait(..) => f.write_str("wait"),
            Op::Notify(_) => f.write_str("notify"),
            Op::Exit => f.write_str("exit"),
        }
    }
}

/// Where a logical thread stands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Run,
    /// Runnable once the mutex at this address is free.
    Lock(usize),
    /// Parked on (condvar, mutex) until a notify.
    Wait(usize, usize),
    Done,
}

struct Model {
    steps: Vec<Step>,
    /// Addresses of the mutexes some thread holds.
    held: Vec<usize>,
    /// The one thread allowed to run; `None` once every thread is done.
    active: Option<usize>,
    /// Choices to take at the first branching points.
    replay: Vec<usize>,
    /// Every branching point of this execution as (choice, options).
    branches: Vec<(usize, usize)>,
    /// Each switch as (thread, op), for the failure report.
    log: Vec<(usize, Op)>,
    failure: Option<String>,
}

impl Model {
    fn apply(&mut self, me: usize, op: Op) {
        self.log.push((me, op));
        self.steps[me] = match op {
            Op::Lock(mutex, _) => Step::Lock(mutex),
            Op::Wait(condvar, mutex) => Step::Wait(condvar, mutex),
            Op::Notify(condvar) => {
                for step in &mut self.steps {
                    if let Step::Wait(c, mutex) = *step {
                        if c == condvar {
                            *step = Step::Lock(mutex);
                        }
                    }
                }
                Step::Run
            }
            Op::Exit => Step::Done,
        };
    }

    /// Hands the turn to the replayed choice at a replayed branching
    /// point, else to the first runnable thread, counting from the one
    /// that yields (running on costs no real thread switch). A thread
    /// blocked on a lock acquires it as it is chosen.
    fn pick(&mut self, from: usize) {
        let n = self.steps.len();
        let enabled: Vec<usize> = (from..from + n)
            .map(|t| t % n)
            .filter(|&t| match self.steps[t] {
                Step::Run => true,
                Step::Lock(mutex) => !self.held.contains(&mutex),
                Step::Wait(..) | Step::Done => false,
            })
            .collect();
        self.active = None;
        if enabled.is_empty() {
            let stuck: Vec<String> = (0..n)
                .filter_map(|t| match self.steps[t] {
                    Step::Wait(..) => Some(format!("t{t} waits")),
                    Step::Lock(_) => Some(format!("t{t} blocks on a lock")),
                    Step::Run | Step::Done => None,
                })
                .collect();
            if !stuck.is_empty() {
                self.failure = Some(format!("never ends: {}", stuck.join(", ")));
            }
            return;
        }
        let mut choice = 0;
        if enabled.len() > 1 {
            choice = self.replay.get(self.branches.len()).copied().unwrap_or(0);
            self.branches.push((choice, enabled.len()));
        }
        let next = enabled[choice];
        if let Step::Lock(mutex) = self.steps[next] {
            self.held.push(mutex);
        }
        self.steps[next] = Step::Run;
        self.active = Some(next);
    }

    fn render(&self) -> String {
        let choices: Vec<usize> = self.branches.iter().map(|b| b.0).collect();
        let steps: Vec<String> = self
            .log
            .iter()
            .map(|(t, op)| format!("t{t} {op}"))
            .collect();
        format!("choices {choices:?}\n  {}", steps.join(", "))
    }
}

struct Scheduler {
    model: real::Mutex<Model>,
    turn: real::Condvar,
}

impl Scheduler {
    fn model(&self) -> real::MutexGuard<'_, Model> {
        self.model.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records `op`, hands the turn on and blocks until it comes back.
    /// False once the schedule has failed: the caller then unwinds.
    fn switch(&self, me: usize, op: Op) -> bool {
        let mut model = self.model();
        if model.failure.is_some() {
            return false;
        }
        model.apply(me, op);
        model.pick(me);
        self.turn.notify_all();
        matches!(op, Op::Exit) || self.await_turn(model, me)
    }

    fn await_turn(&self, mut model: real::MutexGuard<'_, Model>, me: usize) -> bool {
        while model.failure.is_none() && model.active != Some(me) {
            model = self
                .turn
                .wait(model)
                .unwrap_or_else(PoisonError::into_inner);
        }
        model.failure.is_none()
    }

    fn release(&self, mutex: usize) {
        self.model().held.retain(|&m| m != mutex);
    }

    fn notify(&self, me: usize, condvar: usize) {
        let mut model = self.model();
        if model.failure.is_none() {
            model.apply(me, Op::Notify(condvar));
        }
    }

    fn fail(&self, why: String) {
        self.model().failure.get_or_insert(why);
        self.turn.notify_all();
    }

    /// One logical thread: waits for its first turn, runs `body`, exits.
    fn run(self: &Arc<Self>, me: usize, body: impl FnOnce()) {
        CURRENT.with(|c| *c.borrow_mut() = Some((Arc::clone(self), me)));
        if self.await_turn(self.model(), me) {
            match panic::catch_unwind(AssertUnwindSafe(body)) {
                Ok(()) => drop(self.switch(me, Op::Exit)),
                Err(payload) => self.fail(format!("t{me} panicked: {}", message(&*payload))),
            }
        }
        CURRENT.with(|c| *c.borrow_mut() = None);
    }
}

fn message(payload: &(dyn std::any::Any + Send)) -> &str {
    let text = payload.downcast_ref::<String>().map(String::as_str);
    text.or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("opaque panic payload")
}

/// Runs `threads` over a fresh `setup()` under every schedule, calls
/// `check` on each end state, and returns the number of schedules.
///
/// # Panics
///
/// With the failing schedule printed, when a thread panics, when the
/// threads block for good, or when `check` panics.
pub(crate) fn explore<S: Sync>(
    name: &str,
    setup: impl Fn() -> S,
    threads: &[&(dyn Fn(&S) + Sync)],
    check: impl Fn(&S),
) -> usize {
    let (mut replay, mut schedule) = (Vec::new(), 0);
    loop {
        schedule += 1;
        let scheduler = Arc::new(Scheduler {
            model: real::Mutex::new(Model {
                steps: vec![Step::Run; threads.len()],
                held: Vec::new(),
                active: None,
                replay,
                branches: Vec::new(),
                log: Vec::new(),
                failure: None,
            }),
            turn: real::Condvar::new(),
        });
        let state = setup();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads.len())
                .map(|me| {
                    let (scheduler, state) = (Arc::clone(&scheduler), &state);
                    s.spawn(move || scheduler.run(me, || threads[me](state)))
                })
                .collect();
            scheduler.model().pick(0);
            scheduler.turn.notify_all();
            for handle in handles {
                handle.join().expect("`run` catches the body's panics");
            }
        });
        let model = scheduler.model();
        let report = |why: &str| format!("{name}: schedule {schedule} {why}\n{}", model.render());
        if let Some(failure) = &model.failure {
            panic!("{}", report(failure));
        }
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| check(&state))) {
            panic!(
                "{}",
                report(&format!("ended wrong: {}", message(&*payload)))
            );
        }
        // The next schedule: advance the deepest branching point that
        // has an untried choice, and drop the points below it.
        let mut branches = model.branches.clone();
        while branches
            .last()
            .is_some_and(|&(choice, options)| choice + 1 == options)
        {
            branches.pop();
        }
        let Some(deepest) = branches.last_mut() else {
            return schedule;
        };
        deepest.0 += 1;
        replay = branches.iter().map(|b| b.0).collect();
    }
}

/// `std::sync::Mutex`, yielding to the scheduler before every lock of an
/// explored thread.
pub(crate) struct Mutex<T> {
    inner: real::Mutex<T>,
}

impl<T> Mutex<T> {
    pub(crate) fn new(value: T) -> Self {
        Mutex {
            inner: real::Mutex::new(value),
        }
    }

    pub(crate) fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        let scheduler = current().map(|(scheduler, me)| {
            let name = type_name::<T>().rsplit("::").next().unwrap_or("?");
            // A failed schedule may have left its threads in a real
            // deadlock, so each unwinds; the locks its drops take while
            // unwinding are free by then, its inner frames' guards gone.
            if !scheduler.switch(me, Op::Lock(self.addr(), name)) && !std::thread::panicking() {
                panic!("a failed schedule abandons its threads");
            }
            scheduler
        });
        self.guard(self.inner.lock(), scheduler)
    }

    /// `f` of the value when no thread holds the lock, without handing
    /// the turn on: for invariants checked between switch points.
    pub(crate) fn observe<R>(&self, f: impl FnOnce(&T) -> R) -> Option<R> {
        self.inner.try_lock().ok().map(|value| f(&value))
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }

    fn guard<'a>(
        &'a self,
        locked: LockResult<real::MutexGuard<'a, T>>,
        scheduler: Option<Arc<Scheduler>>,
    ) -> LockResult<MutexGuard<'a, T>> {
        let (inner, poisoned) = match locked {
            Ok(inner) => (inner, false),
            Err(poison) => (poison.into_inner(), true),
        };
        let guard = MutexGuard {
            mutex: self,
            inner: Some(inner),
            scheduler,
        };
        if poisoned {
            Err(PoisonError::new(guard))
        } else {
            Ok(guard)
        }
    }
}

pub(crate) struct MutexGuard<'a, T> {
    mutex: &'a Mutex<T>,
    /// `None` only inside [`Condvar::wait`].
    inner: Option<real::MutexGuard<'a, T>>,
    /// Set when an explored thread took the lock.
    scheduler: Option<Arc<Scheduler>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.inner.as_ref().expect("a guard holds its lock")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("a guard holds its lock")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Unlocking is not a switch point: the releasing thread runs on.
        drop(self.inner.take());
        if let Some(scheduler) = &self.scheduler {
            scheduler.release(self.mutex.addr());
        }
    }
}

/// `std::sync::Condvar`, whose waits are switch points of an explored
/// thread and never wake spuriously.
pub(crate) struct Condvar {
    inner: real::Condvar,
}

impl Condvar {
    pub(crate) fn new() -> Self {
        Condvar {
            inner: real::Condvar::new(),
        }
    }

    pub(crate) fn wait<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
    ) -> LockResult<MutexGuard<'a, T>> {
        let mutex = guard.mutex;
        let Some((scheduler, me)) = current().filter(|_| guard.scheduler.is_some()) else {
            let inner = guard.inner.take().expect("a guard holds its lock");
            return mutex.guard(self.inner.wait(inner), None);
        };
        drop(guard);
        if !scheduler.switch(me, Op::Wait(self.addr(), mutex.addr())) {
            panic!("a failed schedule abandons its threads");
        }
        mutex.guard(mutex.inner.lock(), Some(scheduler))
    }

    pub(crate) fn notify_all(&self) {
        if let Some((scheduler, me)) = current() {
            scheduler.notify(me, self.addr());
        }
        self.inner.notify_all();
    }

    fn addr(&self) -> usize {
        self as *const Self as usize
    }
}

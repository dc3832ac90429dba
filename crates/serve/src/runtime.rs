//! The serving runtime: a hand-rolled worker pool admitting requests
//! against shared [`FrozenSession`]s.
//!
//! Resilience properties, each enforced structurally rather than by
//! convention:
//!
//! * **Backpressure** — the request queue is bounded; a full queue sheds
//!   with a typed [`RequestError::Overloaded`] instead of queueing
//!   unboundedly or blocking the submitter.
//! * **Budgets** — every request carries a [`QueryBudget`] enforced
//!   cooperatively at block boundaries by [`Budgeted`]; a deadline'd or
//!   cancelled request terminates within one block and returns
//!   [`Served::Partial`] with the answers produced so far.
//! * **Panic isolation** — each request runs under `catch_unwind`; a
//!   panicking request becomes [`RequestError::Internal`] and the worker
//!   keeps serving.
//! * **Exactly-once accounting** — every submitted request resolves to
//!   exactly one outcome (shed, completed, partial, eval error, panic, or
//!   drained at shutdown); [`ServeStats::is_balanced`] checks the books.

use crate::queue::{BoundedQueue, PushRefused};
use crate::reply::ReplySlot;
use crate::shield;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use ucq_core::{FrozenSession, RequestError, Served};
use ucq_enumerate::{
    Budgeted, CancelToken, Enumerator, QueryBudget, Truncation, DEFAULT_BLOCK_ROWS,
};
use ucq_storage::faults;
use ucq_storage::sync::{AtomicUsize, Ordering};
use ucq_storage::EpochCell;

/// How a request resolves: answers (complete or partial) or a typed error.
pub type RequestOutcome = Result<Served, RequestError>;

/// A rejected pool configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A pool needs at least one worker.
    ZeroWorkers,
    /// A queue of capacity zero would shed everything.
    ZeroQueueCapacity,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "worker pool size must be positive"),
            ConfigError::ZeroQueueCapacity => write!(f, "request queue capacity must be positive"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Validated pool shape: worker count and admission-queue bound.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeConfig {
    workers: usize,
    queue_capacity: usize,
}

impl ServeConfig {
    /// A pool of `workers` threads behind a queue admitting at most
    /// `queue_capacity` waiting requests.
    pub fn new(workers: usize, queue_capacity: usize) -> Result<ServeConfig, ConfigError> {
        if workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if queue_capacity == 0 {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        Ok(ServeConfig {
            workers,
            queue_capacity,
        })
    }

    /// The worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The admission-queue bound.
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }
}

/// Where a request finds its session: pinned to one snapshot, or resolved
/// from an [`EpochCell`] at dequeue time so live traffic picks up a
/// re-frozen epoch without restarting the pool.
pub enum SessionSource<'e> {
    /// One fixed snapshot for the request's whole life.
    Pinned(Arc<FrozenSession<'e>>),
    /// The *current* epoch, read when a worker starts the request. A
    /// request already running keeps the epoch it resolved — rotation
    /// never tears an in-flight enumeration.
    Cell(Arc<EpochCell<FrozenSession<'e>>>),
}

impl<'e> SessionSource<'e> {
    fn resolve(self) -> Arc<FrozenSession<'e>> {
        match self {
            SessionSource::Pinned(session) => session,
            SessionSource::Cell(cell) => cell.load(),
        }
    }
}

/// One enumeration request against a shared frozen session.
pub struct Request<'e> {
    source: SessionSource<'e>,
    budget: QueryBudget,
    cancel: Option<CancelToken>,
    inject_faults: bool,
}

impl<'e> Request<'e> {
    /// An unlimited request against `session`.
    pub fn new(session: Arc<FrozenSession<'e>>) -> Request<'e> {
        Request::from_source(SessionSource::Pinned(session))
    }

    /// An unlimited request that resolves the current epoch of `cell` when
    /// a worker picks it up — the zero-downtime rotation path: install a
    /// re-frozen session into the cell and subsequent requests serve the
    /// new epoch while in-flight ones finish on the old.
    pub fn from_cell(cell: Arc<EpochCell<FrozenSession<'e>>>) -> Request<'e> {
        Request::from_source(SessionSource::Cell(cell))
    }

    fn from_source(source: SessionSource<'e>) -> Request<'e> {
        Request {
            source,
            budget: QueryBudget::unlimited(),
            cancel: None,
            inject_faults: false,
        }
    }

    /// Attaches a [`QueryBudget`].
    pub fn with_budget(mut self, budget: QueryBudget) -> Request<'e> {
        self.budget = budget;
        self
    }

    /// Attaches an out-of-band [`CancelToken`].
    pub fn with_cancel(mut self, cancel: CancelToken) -> Request<'e> {
        self.cancel = Some(cancel);
        self
    }

    /// Arms the `ucq_fault_inject` seam for this request's storage
    /// operations (a no-op without the cfg): the chaos suite marks the
    /// requests it expects to misbehave, leaving co-scheduled requests as
    /// in-process oracles.
    pub fn with_fault_injection(mut self) -> Request<'e> {
        self.inject_faults = true;
        self
    }
}

/// A claim check for a submitted request.
pub struct Ticket {
    slot: Arc<ReplySlot<RequestOutcome>>,
}

impl Ticket {
    /// Blocks until the request resolves.
    pub fn wait(self) -> RequestOutcome {
        self.slot.wait()
    }

    /// The outcome if already resolved; never blocks.
    pub fn try_take(&self) -> Option<RequestOutcome> {
        self.slot.try_take()
    }
}

struct Job<'e> {
    request: Request<'e>,
    slot: Arc<ReplySlot<RequestOutcome>>,
}

#[derive(Default)]
struct StatsCells {
    submitted: AtomicUsize,
    completed: AtomicUsize,
    partial: AtomicUsize,
    timed_out: AtomicUsize,
    shed: AtomicUsize,
    panicked: AtomicUsize,
    eval_errors: AtomicUsize,
    drained: AtomicUsize,
}

/// End-of-run accounting snapshot: every submitted request shows up in
/// exactly one outcome counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests offered to [`ServeHandle::submit`].
    pub submitted: usize,
    /// Requests that enumerated to natural exhaustion.
    pub completed: usize,
    /// Requests truncated by their budget (deadline, caps, or cancel).
    pub partial: usize,
    /// The subset of `partial` truncated specifically by a deadline.
    pub timed_out: usize,
    /// Requests refused at admission (queue full or closed).
    pub shed: usize,
    /// Requests that panicked and were isolated.
    pub panicked: usize,
    /// Requests that failed with a typed evaluation error.
    pub eval_errors: usize,
    /// Requests abandoned in the queue by [`ServeHandle::abort`].
    pub drained: usize,
    /// The deepest the admission queue ever got.
    pub queue_high_water: usize,
}

impl ServeStats {
    /// Requests with a recorded outcome. `timed_out` is excluded: it
    /// subdivides `partial` rather than standing alone.
    pub fn accounted(&self) -> usize {
        self.completed + self.partial + self.shed + self.panicked + self.eval_errors + self.drained
    }

    /// Whether every submission is accounted exactly once.
    pub fn is_balanced(&self) -> bool {
        self.accounted() == self.submitted
    }
}

impl StatsCells {
    fn snapshot(&self, queue_high_water: usize) -> ServeStats {
        ServeStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            partial: self.partial.load(Ordering::Relaxed),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            panicked: self.panicked.load(Ordering::Relaxed),
            eval_errors: self.eval_errors.load(Ordering::Relaxed),
            drained: self.drained.load(Ordering::Relaxed),
            queue_high_water,
        }
    }

    fn record(&self, outcome: &RequestOutcome) {
        match outcome {
            Ok(served) => match served.truncation() {
                None => {
                    self.completed.fetch_add(1, Ordering::Relaxed);
                }
                Some(why) => {
                    self.partial.fetch_add(1, Ordering::Relaxed);
                    if why == Truncation::Deadline {
                        self.timed_out.fetch_add(1, Ordering::Relaxed);
                    }
                }
            },
            Err(RequestError::Internal { .. }) => {
                self.panicked.fetch_add(1, Ordering::Relaxed);
            }
            Err(RequestError::Eval(_)) => {
                self.eval_errors.fetch_add(1, Ordering::Relaxed);
            }
            // Admission-side outcomes are counted at the submit/abort
            // sites; a worker never produces them.
            Err(RequestError::Overloaded { .. }) | Err(RequestError::ShutDown) => {}
        }
    }
}

/// The submitter's view of a running pool, valid inside the [`serve`]
/// body closure.
pub struct ServeHandle<'scope, 'e> {
    queue: &'scope BoundedQueue<Job<'e>>,
    stats: &'scope StatsCells,
}

impl<'scope, 'e> ServeHandle<'scope, 'e> {
    /// Offers `request` to the pool. Admission is non-blocking: a full
    /// queue sheds with [`RequestError::Overloaded`], a closed one with
    /// [`RequestError::ShutDown`] — either way the request is accounted
    /// as shed and no ticket exists.
    pub fn submit(&self, request: Request<'e>) -> Result<Ticket, RequestError> {
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);
        let slot = Arc::new(ReplySlot::new());
        let job = Job {
            request,
            slot: Arc::clone(&slot),
        };
        match self.queue.push(job) {
            Ok(_depth) => Ok(Ticket { slot }),
            Err(PushRefused::Full { capacity, .. }) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(RequestError::Overloaded {
                    depth: capacity,
                    capacity,
                })
            }
            Err(PushRefused::Closed { .. }) => {
                self.stats.shed.fetch_add(1, Ordering::Relaxed);
                Err(RequestError::ShutDown)
            }
        }
    }

    /// Closes admission and abandons everything still queued; each
    /// abandoned request resolves its ticket with
    /// [`RequestError::ShutDown`] and is accounted as drained. In-flight
    /// requests still finish.
    pub fn abort(&self) {
        for job in self.queue.abort() {
            self.stats.drained.fetch_add(1, Ordering::Relaxed);
            job.slot.deliver(Err(RequestError::ShutDown));
        }
    }

    /// Requests currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }
}

/// Closes the queue when dropped, so workers drain and exit even if the
/// `serve` body panics — otherwise the scope would join-deadlock on
/// workers parked in `pop`.
struct CloseOnExit<'scope, 'e>(&'scope BoundedQueue<Job<'e>>);

impl Drop for CloseOnExit<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Runs a worker pool for the duration of `body`: spawns
/// `config.workers()` threads, hands `body` a [`ServeHandle`] to submit
/// requests through, then (once `body` returns) closes admission, drains
/// the queue, joins the workers, and returns `body`'s result alongside
/// the final [`ServeStats`].
pub fn serve<'e, R>(
    config: ServeConfig,
    body: impl FnOnce(&ServeHandle<'_, 'e>) -> R,
) -> (R, ServeStats) {
    shield::install();
    let queue = BoundedQueue::new(config.queue_capacity());
    let stats = StatsCells::default();
    let result = std::thread::scope(|scope| {
        let _close = CloseOnExit(&queue);
        for _ in 0..config.workers() {
            scope.spawn(|| worker_loop(&queue, &stats));
        }
        let handle = ServeHandle {
            queue: &queue,
            stats: &stats,
        };
        body(&handle)
        // `_close` drops here: admission closes, parked workers wake,
        // drain the queue, and the scope joins them.
    });
    let snapshot = stats.snapshot(queue.high_water());
    (result, snapshot)
}

fn worker_loop<'e>(queue: &BoundedQueue<Job<'e>>, stats: &StatsCells) {
    while let Some(job) = queue.pop() {
        let outcome = run_request(job.request);
        stats.record(&outcome);
        job.slot.deliver(outcome);
    }
}

fn run_request(request: Request<'_>) -> RequestOutcome {
    let Request {
        source,
        budget,
        cancel,
        inject_faults,
    } = request;
    // Resolve the epoch once, up front: the whole request — including its
    // panic path — serves one consistent snapshot.
    let session = source.resolve();
    let enumerate = move || -> RequestOutcome {
        let answers = session.enumerate()?;
        let mut budgeted = Budgeted::new(answers, budget);
        if let Some(token) = cancel {
            budgeted = budgeted.with_cancel(token);
        }
        // Each call decodes one block straight into the reply, and answers
        // of arity ≤ 4 live inline in it: the client frees one buffer per
        // reply, not one box per answer. Starting the buffer at one block
        // lets the first block, and any page that fits in one, land without
        // regrowing. It also keeps the first allocation above the
        // allocator's per-thread cache of small chunks, which can hold a
        // chunk of the client's arena; a reply grown from there would be
        // released into the wrong arena.
        let mut answers = Vec::with_capacity(DEFAULT_BLOCK_ROWS);
        while budgeted.next_into(&mut answers, DEFAULT_BLOCK_ROWS) > 0 {}
        Ok(match budgeted.truncated_by() {
            None => Served::Complete { answers },
            Some(truncated_by) => Served::Partial {
                answers,
                truncated_by,
            },
        })
    };
    let guarded = move || {
        if inject_faults {
            faults::armed(enumerate)
        } else {
            enumerate()
        }
    };
    match shield::shielded(|| catch_unwind(AssertUnwindSafe(guarded))) {
        Ok(outcome) => outcome,
        Err(payload) => Err(RequestError::Internal {
            detail: panic_detail(payload),
        }),
    }
}

fn panic_detail(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(message) => (*message).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

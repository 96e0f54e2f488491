//! The long-lived analysis service: job queue + worker pool + result cache,
//! with admission control (queue bounds), job cancellation, and the crash-only
//! fault layer (fault log, input quarantine, deadlines, in-stage abort, drain).

use crate::cache::{
    app_cache_key, env_cache_key, source_fingerprint, CacheKey, CacheStats, ResultCache,
};
use crate::store::{PersistentStore, StoreBucket, StoreStats};
use crate::ticket::{PendingJob, Ticket};
use soteria::JsonValue;
use soteria::{AppAnalysis, EnvironmentAnalysis, Soteria};
use soteria_exec::{AbortHandle, TaskId, WorkerPool};
use soteria_lang::ParseError;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use soteria_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use soteria_sync::{Condvar, Mutex};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The app source failed to parse.
    Parse(ParseError),
    /// An environment member's app job failed, so the union cannot be built.
    MemberFailed {
        /// The environment whose member failed.
        group: String,
        /// The failing member app.
        member: String,
    },
    /// The analysis itself panicked. The panic is caught at the job boundary
    /// and reported through the ticket — one adversarial input must never wedge
    /// the response stream of a long-lived service. Internal results are never
    /// cached, and each one counts a quarantine strike against the source.
    Internal(String),
    /// The job was cancelled before it produced a result. Cancelled jobs are
    /// never cached: resubmitting the same content schedules a fresh analysis.
    Cancelled,
    /// The job breached its [pending or running deadline](ServiceOptions) (or a
    /// drain deadline) and was auto-cancelled. Timed-out jobs are never cached;
    /// a running stage is aborted at its next poll point.
    TimedOut,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Parse(e) => write!(f, "parse error: {e}"),
            JobError::MemberFailed { group, member } => {
                write!(f, "environment {group}: member {member} failed")
            }
            JobError::Internal(message) => write!(f, "analysis failed: {message}"),
            JobError::Cancelled => write!(f, "cancelled"),
            JobError::TimedOut => write!(f, "timed out"),
        }
    }
}

/// Why a submission was not accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The queue bound was reached under [`AdmissionPolicy::Reject`].
    QueueFull {
        /// Queued-but-unstarted jobs at rejection time.
        pending: usize,
        /// The configured [`ServiceOptions::max_pending`] bound.
        max_pending: usize,
    },
    /// An environment member name was never submitted to this service (or its
    /// job was cancelled, which removes the name).
    UnknownMember(String),
    /// An environment member's frozen result was evicted from the result cache;
    /// resubmit the app to reanalyze it.
    EvictedMember(String),
    /// The submitted content has panicked the analyzer
    /// [`ServiceOptions::quarantine_threshold`] times and is rejected at
    /// admission — a poisoned *input* must not be resubmitted forever.
    Quarantined {
        /// The submitted name.
        name: String,
        /// Panic strikes recorded against this content fingerprint.
        strikes: u32,
    },
    /// The service is [draining](Service::drain) (or dropped): admission is
    /// closed and no new work is accepted.
    Draining,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::QueueFull { pending, max_pending } => {
                write!(f, "queue full: {pending} pending jobs (max {max_pending})")
            }
            ServiceError::UnknownMember(member) => {
                write!(f, "unknown environment member '{member}'")
            }
            ServiceError::EvictedMember(member) => write!(
                f,
                "environment member '{member}' was evicted from the result cache; resubmit it"
            ),
            ServiceError::Quarantined { name, strikes } => write!(
                f,
                "'{name}' is quarantined: this content panicked the analyzer {strikes} times"
            ),
            ServiceError::Draining => write!(f, "service is draining; submission rejected"),
        }
    }
}

/// What kind of failure a [`FaultRecord`] captures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A stage panicked; the payload message is in the record. Counts a
    /// quarantine strike against the input's content fingerprint.
    Panic,
    /// A deadline (per-job or drain) auto-cancelled the job. Never counts
    /// toward quarantine — slowness is a property of load, not of the input.
    Timeout,
    /// The persistent store hit repeated I/O errors and degraded to
    /// memory-only. Never counts toward quarantine — a sick disk says nothing
    /// about the input.
    Io,
    /// A persistent-store entry failed its checksum or validation and was
    /// quarantined to the sidecar directory (then transparently recomputed).
    /// Never counts toward input quarantine.
    Corrupt,
}

impl FaultKind {
    /// Lower-case protocol tag (`"panic"` / `"timeout"` / `"io"` / `"corrupt"`).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Timeout => "timeout",
            FaultKind::Io => "io",
            FaultKind::Corrupt => "corrupt",
        }
    }
}

/// One entry of the service's bounded fault log: what failed, where, and the
/// content fingerprint of the input that made it fail (the quarantine key).
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// Monotonic sequence number (total faults ever, not just retained ones).
    pub seq: u64,
    /// The submitted app or group name.
    pub name: String,
    /// The offending submission's fault-layer address. For apps this is the
    /// name-independent [`source_fingerprint`](crate::source_fingerprint):
    /// resubmitting byte-identical content maps to the same key *under any
    /// name*, which is how quarantine recognises it. For environments it is the
    /// group's cache key (membership is the content).
    pub key: CacheKey,
    /// The pipeline stage that failed (`"ingest"`, `"verify"`, `"environment"`),
    /// the state the job was in when its deadline fired (`"parked"`,
    /// `"queued"`, `"running"`), or `"store"` for persistent-tier faults.
    pub stage: &'static str,
    /// Panic or timeout.
    pub kind: FaultKind,
    /// The panic payload message, or a deadline description.
    pub message: String,
    /// When the fault was recorded, in nanoseconds relative to the
    /// observability epoch (process start; the fake clock under test) — always
    /// stamped, tracing on or off.
    pub at_ns: u64,
    /// The owning job's trace id (`0` = tracing was off, or the fault has no
    /// owning job — store faults blame the disk, not a job).
    pub trace: u64,
}

/// Default fault-log retention bound (overridable via
/// [`ServiceOptions::fault_log_capacity`] / `SOTERIA_FAULT_LOG`): the log keeps
/// the most recent entries only (the `seq` field stays monotonic across
/// evictions, so observers can detect gaps).
const FAULT_LOG_CAP: usize = 256;

/// Extracts a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "analysis panicked".to_string())
}

/// The outcome of an app job: the frozen analysis, shared by every holder.
pub type AppResult = Result<Arc<AppAnalysis>, JobError>;
/// The outcome of an environment job.
pub type EnvResult = Result<Arc<EnvironmentAnalysis>, JobError>;

/// How a submission resolved against the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDisposition {
    /// Identical content was already analyzed; the frozen result was returned.
    Hit,
    /// New content; the analysis was scheduled.
    Miss,
    /// An identical submission was already *in flight*; this one shares its
    /// ticket instead of recomputing.
    Coalesced,
}

impl CacheDisposition {
    /// Lower-case protocol tag (`"hit"` / `"miss"` / `"coalesced"`).
    pub fn as_str(self) -> &'static str {
        match self {
            CacheDisposition::Hit => "hit",
            CacheDisposition::Miss => "miss",
            CacheDisposition::Coalesced => "coalesced",
        }
    }
}

/// Where a scheduled job currently is, for the cancellation state machine.
enum Stage {
    /// Admitted but not yet on the injector queue: the pre-spawn window for app
    /// jobs, or the whole parked-on-members phase for environment jobs.
    Parked,
    /// One of the job's pipeline stages is waiting on the injector queue.
    Queued(TaskId),
    /// A worker is executing one of the job's stages.
    Running,
    /// The result was settled through `ServiceInner::settle` (cached + fulfilled).
    Finished,
    /// The ticket was settled as [`JobError::Cancelled`]; any still-running
    /// stage discards its result, any still-queued stage is skipped.
    Cancelled,
    /// The ticket was settled as [`JobError::TimedOut`] by the deadline sweeper
    /// or a drain; otherwise behaves exactly like `Cancelled`.
    TimedOut,
}

impl Stage {
    /// True for the three stages no transition leaves.
    fn is_terminal(&self) -> bool {
        matches!(self, Stage::Finished | Stage::Cancelled | Stage::TimedOut)
    }
}

struct ControlState {
    stage: Stage,
    /// Whether the job still holds an admission slot (it does from submission
    /// until its first stage starts running, or until cancellation).
    admitted: bool,
    /// The parked dependency job (environment jobs only), revoked on cancel so
    /// member completion releases nothing.
    parked: Option<Arc<PendingJob>>,
    /// When the job's first stage started running, for the running deadline
    /// (set once; the pending deadline applies while this is `None`).
    running_since: Option<Instant>,
}

/// Per-scheduled-job cancellation state, shared by the submitter's handle (and
/// any coalesced handles), the pipeline-stage tasks, and the service.
pub struct JobControl {
    state: Mutex<ControlState>,
    /// When the job was admitted, for the pending deadline.
    submitted_at: Instant,
    /// The job's trace identity: every span its stages emit (and every fault
    /// it records) carries this id, so per-job traces can be stitched back
    /// together from the global span buffer. `NONE` when tracing is off.
    trace: soteria_obs::TraceId,
    /// The in-stage abort flag: installed thread-locally around every stage
    /// body, latched by cancel/timeout so a *running* stage stops at its next
    /// poll point (the invariant search's formula bodies and queue pops, union
    /// edge blocks) instead of finishing a result nobody wants.
    abort: AbortHandle,
}

impl JobControl {
    fn new() -> Arc<Self> {
        Arc::new(JobControl {
            state: Mutex::new(ControlState {
                stage: Stage::Parked,
                admitted: true,
                parked: None,
                running_since: None,
            }),
            submitted_at: Instant::now(),
            trace: if soteria_obs::enabled() {
                soteria_obs::next_trace_id()
            } else {
                soteria_obs::TraceId::NONE
            },
            abort: AbortHandle::new(),
        })
    }

    /// Worker-stage prologue: transitions to `Running` and releases the
    /// admission slot on the job's first stage. Returns `false` when the job
    /// was cancelled or timed out — the stage must be skipped entirely (the
    /// ticket is already settled).
    fn begin_stage(&self, admission: &Admission) -> bool {
        let mut state = self.state.lock();
        if state.stage.is_terminal() {
            return false;
        }
        state.stage = Stage::Running;
        state.parked = None; // the parked phase is over; free the job record
        if state.running_since.is_none() {
            state.running_since = Some(Instant::now());
        }
        let release = std::mem::take(&mut state.admitted);
        drop(state);
        if release {
            admission.release();
        }
        true
    }

    /// Terminal transition for a stage that produced the job's result. Returns
    /// `false` when a concurrent cancel or timeout won the race — the result
    /// must be discarded (the ticket is already settled, and nothing may be
    /// cached).
    fn mark_finished(&self) -> bool {
        let mut state = self.state.lock();
        if state.stage.is_terminal() {
            return false;
        }
        state.stage = Stage::Finished;
        true
    }

    /// The shared first half of cancellation (and, via `to`, of a deadline
    /// timeout): transitions to the terminal stage, removes a still-queued
    /// stage from the injector queue (or revokes the parked dependency job),
    /// latches the abort flag for a running stage, and releases the admission
    /// slot. Returns `false` when the job already reached a terminal stage.
    /// The caller settles the ticket and cleans the service maps afterwards.
    fn cancel_stage_as(&self, inner: &ServiceInner, to: Stage) -> bool {
        debug_assert!(matches!(to, Stage::Cancelled | Stage::TimedOut));
        let mut state = self.state.lock();
        match state.stage {
            Stage::Finished | Stage::Cancelled | Stage::TimedOut => return false,
            // If a worker claimed the task between our revoke and now, its
            // prologue observes the terminal stage under this same lock and
            // skips.
            Stage::Queued(id) => {
                let _ = inner.pool.try_revoke(id);
            }
            Stage::Parked => {
                if let Some(parked) = state.parked.take() {
                    parked.revoke();
                }
            }
            // A running stage is aborted at its next poll point; whether it
            // bails or completes first, `mark_finished` returns false and the
            // result is discarded, never cached.
            Stage::Running => {}
        }
        state.stage = to;
        // Latch unconditionally: the terminal stage is set under this lock
        // *before* the flag, so an unwinding stage always finds it terminal.
        self.abort.abort();
        let release = std::mem::take(&mut state.admitted);
        drop(state);
        if release {
            inner.admission.release();
        }
        true
    }

    fn cancel_stage(&self, inner: &ServiceInner) -> bool {
        self.cancel_stage_as(inner, Stage::Cancelled)
    }

    /// True once no further transition can occur (finished, cancelled, or
    /// timed out) — the watch-list pruning predicate.
    fn is_terminal(&self) -> bool {
        self.state.lock().stage.is_terminal()
    }

    /// The deadline the job is currently accountable to, if breached at `now`:
    /// pending (admission → first stage start) before any stage ran, running
    /// (first start → settle) after. Returns the stage label for the fault
    /// record. Terminal jobs never breach.
    fn breached_deadline(
        &self,
        now: Instant,
        pending: Option<Duration>,
        running: Option<Duration>,
    ) -> Option<&'static str> {
        let state = self.state.lock();
        if state.stage.is_terminal() {
            return None;
        }
        let label = match state.stage {
            Stage::Parked => "parked",
            Stage::Queued(_) => "queued",
            Stage::Running => "running",
            _ => unreachable!("terminal stages returned above"),
        };
        match state.running_since {
            Some(since) => running.filter(|d| now.duration_since(since) >= *d).map(|_| label),
            None => pending
                .filter(|d| now.duration_since(self.submitted_at) >= *d)
                .map(|_| label),
        }
    }
}

/// What happens when a submission meets a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a pending job starts (or is
    /// cancelled), then admit.
    Block,
    /// Fail the submission immediately with [`ServiceError::QueueFull`].
    Reject,
}

enum Admit {
    Granted,
    Full(usize),
}

/// The pending-job accounting behind [`ServiceOptions::max_pending`]: counts
/// jobs that were admitted but whose first stage has not started running
/// (queued app pipelines and parked environment jobs alike).
struct Admission {
    /// 0 = unbounded.
    max_pending: usize,
    policy: AdmissionPolicy,
    pending: Mutex<usize>,
    /// High-water mark of `pending` over the service's life (written under the
    /// `pending` lock, read lock-free by stats).
    peak: AtomicU64,
    freed: Condvar,
    /// Latched by drain (and service drop): no further admissions, and blocked
    /// submitters are woken to observe [`ServiceError::Draining`] instead of
    /// waiting on a queue that will never accept them.
    closed: AtomicBool,
}

impl Admission {
    fn new(max_pending: usize, policy: AdmissionPolicy) -> Self {
        Admission {
            max_pending,
            policy,
            pending: Mutex::new(0),
            peak: AtomicU64::new(0),
            freed: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    fn try_acquire(&self) -> Admit {
        let mut pending = self.pending.lock();
        if self.max_pending != 0 && *pending >= self.max_pending {
            return Admit::Full(*pending);
        }
        *pending += 1;
        debug_assert!(
            self.max_pending == 0 || *pending <= self.max_pending,
            "pending jobs exceed max_pending"
        );
        if *pending as u64 > self.peak.load(Ordering::Relaxed) {
            self.peak.store(*pending as u64, Ordering::Relaxed);
        }
        Admit::Granted
    }

    fn release(&self) {
        let mut pending = self.pending.lock();
        *pending = pending.saturating_sub(1);
        drop(pending);
        self.freed.notify_all();
    }

    /// Blocks until the pending count is below the bound — or the admission is
    /// closed by a drain, which every blocked submitter must observe rather
    /// than hang. The caller re-runs its whole admission decision afterwards
    /// (another submitter may have taken the slot first, or the service may be
    /// draining).
    fn wait_for_capacity(&self) {
        let mut pending = self.pending.lock();
        while self.max_pending != 0
            && *pending >= self.max_pending
            && !self.closed.load(Ordering::Relaxed)
        {
            pending = self.freed.wait(pending);
        }
    }

    /// Closes admission and wakes every blocked submitter.
    fn close(&self) {
        self.closed.store(true, Ordering::Relaxed);
        self.freed.notify_all();
    }

    fn pending(&self) -> usize {
        *self.pending.lock()
    }

    fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed) as usize
    }
}

/// The outcome of a job of kind `K`.
type KindResult<K> = Result<Arc<<K as JobKind>::Output>, JobError>;

/// A scheduled job's shared ticket and cancellation control: what a kind's
/// in-flight index holds, and what an identical submission coalesces onto.
type InFlight<K> = (Ticket<KindResult<K>>, Arc<JobControl>);

/// A kind of service job: app analyses ([`AppKind`]) or environment analyses
/// ([`EnvKind`]). Both kinds go through one admission, settle, cancel and
/// timeout path; a kind supplies only what differs — its output, its result
/// cache, its in-flight index, and the freeze step. The methods name service
/// internals, so these two kinds are the only implementations; code generic
/// over a kind is monomorphized, never dispatched dynamically.
pub trait JobKind: Sized + 'static {
    /// The frozen analysis a finished job shares with every holder.
    type Output;
    /// The in-flight index; its lock spans the whole admission decision.
    type Index;
    /// Observability counter names for the three cache dispositions.
    const HIT: &'static str;
    /// See [`JobKind::HIT`].
    const MISS: &'static str;
    /// See [`JobKind::HIT`].
    const COALESCED: &'static str;
    /// The kind's result cache.
    fn cache(inner: &ServiceInner) -> &Mutex<ResultCache<KindResult<Self>>>;
    /// The kind's in-flight index.
    fn index(inner: &ServiceInner) -> &Mutex<Self::Index>;
    /// The in-flight job an identical submission coalesces onto.
    fn in_flight(index: &Self::Index, name: &str, key: CacheKey) -> Option<InFlight<Self>>;
    /// Records an admitted submission: scheduled (`Some`) or a cache hit
    /// (`None`).
    fn enter(index: &mut Self::Index, name: &str, key: CacheKey, in_flight: Option<InFlight<Self>>);
    /// Leaves the in-flight index: drops the job's entry if it still holds
    /// the job's ticket (a newer submission may have replaced it).
    fn leave(index: &mut Self::Index, job: &Job<Self>);
    /// Runs under the index lock once a result froze into the cache, before
    /// the job leaves the index; `evicted` is what the cache insert pushed
    /// out. Nothing by default.
    fn freeze(
        _inner: &ServiceInner,
        _index: &mut Self::Index,
        _job: &Job<Self>,
        _evicted: Option<CacheKey>,
    ) {
    }
    /// Wraps a handle for the submission log.
    fn handle(job: Job<Self>) -> JobHandle;
}

/// App analysis jobs: in flight under their *name* in the registry, which
/// also backs name-based environment members.
pub struct AppKind;

/// Environment analysis jobs: in flight under their content key.
pub struct EnvKind;

/// Handle to a submitted app job.
pub type AppJob = Job<AppKind>;
/// Handle to a submitted environment job.
pub type EnvJob = Job<EnvKind>;

/// Handle to a submitted job of kind `K` ([`AppJob`] or [`EnvJob`]).
pub struct Job<K: JobKind> {
    name: String,
    key: CacheKey,
    disposition: CacheDisposition,
    ticket: Ticket<KindResult<K>>,
    /// Present on scheduled (and coalesced-onto-scheduled) jobs; `None` on
    /// cache hits, which have nothing left to cancel.
    control: Option<Arc<JobControl>>,
    /// Weak so outstanding handles never keep a dropped service's pool alive.
    service: Weak<ServiceInner>,
}

impl<K: JobKind> Clone for Job<K> {
    fn clone(&self) -> Self {
        Job {
            name: self.name.clone(),
            key: self.key,
            disposition: self.disposition,
            ticket: self.ticket.clone(),
            control: self.control.clone(),
            service: self.service.clone(),
        }
    }
}

impl<K: JobKind> Job<K> {
    /// The submitted app or group name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The job's content address (an app's is input to member-dependent
    /// environment keys).
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// How the submission resolved against the cache.
    pub fn disposition(&self) -> CacheDisposition {
        self.disposition
    }

    /// True once [`Job::wait`] would not block.
    pub fn is_ready(&self) -> bool {
        self.ticket.is_ready()
    }

    /// Blocks until the analysis (or error) is available.
    pub fn wait(&self) -> KindResult<K> {
        self.ticket.wait()
    }

    /// Requests cancellation of the underlying computation.
    ///
    /// Returns `true` when this call settled the job as
    /// [`JobError::Cancelled`]: a still-queued pipeline stage is removed from
    /// the injector queue (never runs), a parked stage is revoked, and a
    /// stage already running has its result discarded when it completes —
    /// nothing is cached either way, so resubmitting the same content
    /// schedules a fresh analysis. Returns `false` when there is nothing to
    /// cancel: the job already finished (or was a cache hit), was already
    /// cancelled, or the service is gone.
    ///
    /// Cancellation is by *computation*, not by handle: coalesced handles share
    /// the scheduled job, so cancelling any of them cancels all waiters (each
    /// sees `Err(Cancelled)`), and a parked environment job over a cancelled
    /// member fails deterministically with [`JobError::MemberFailed`]. An
    /// environment job is cancellable for its whole pre-run life: while
    /// parked, the task is revoked so member completion releases nothing; once
    /// the last member resolves and the task is enqueued, the cancel revokes
    /// it from the injector queue like any queued stage.
    pub fn cancel(&self) -> bool {
        let Some(control) = &self.control else { return false };
        let Some(inner) = self.service.upgrade() else { return false };
        if !control.cancel_stage(&inner) {
            return false;
        }
        inner.cancelled.fetch_add(1, Ordering::Relaxed);
        inner.abandon(self, JobError::Cancelled);
        true
    }

    /// Wraps the handle in a guard that cancels the job when dropped (unless
    /// [disarmed](CancelOnDrop::disarm)) — the RAII shape for callers that
    /// abandon responses, e.g. a serve loop whose client disconnected.
    pub fn cancel_on_drop(self) -> CancelOnDrop<K> {
        CancelOnDrop { job: Some(self) }
    }

    /// Waits for the result until `cutoff` (forever when `None`); `false` when
    /// the cutoff passed first.
    fn wait_until(&self, cutoff: Option<Instant>) -> bool {
        match cutoff {
            Some(cutoff) => self.ticket.wait_deadline(cutoff).is_some(),
            None => {
                let _ = self.ticket.wait();
                true
            }
        }
    }
}

/// Drop guard around a job handle: cancels the job when dropped, unless
/// [`CancelOnDrop::disarm`]ed first. Dereferences to the wrapped handle.
pub struct CancelOnDrop<K: JobKind> {
    job: Option<Job<K>>,
}

impl<K: JobKind> CancelOnDrop<K> {
    /// Defuses the guard and returns the handle: the job will *not* be
    /// cancelled on drop.
    pub fn disarm(mut self) -> Job<K> {
        self.job.take().expect("guard disarmed twice")
    }
}

impl<K: JobKind> std::ops::Deref for CancelOnDrop<K> {
    type Target = Job<K>;
    fn deref(&self) -> &Job<K> {
        self.job.as_ref().expect("guard already disarmed")
    }
}

impl<K: JobKind> Drop for CancelOnDrop<K> {
    fn drop(&mut self) {
        if let Some(job) = self.job.take() {
            job.cancel();
        }
    }
}

/// A submitted job of either kind, in the service's submission log.
#[derive(Clone)]
pub enum JobHandle {
    /// An app analysis job.
    App(AppJob),
    /// An environment analysis job.
    Environment(EnvJob),
}

impl JobHandle {
    /// The submitted name (app or group).
    pub fn name(&self) -> &str {
        match self {
            JobHandle::App(job) => job.name(),
            JobHandle::Environment(job) => job.name(),
        }
    }

    /// True once the job's result is available.
    pub fn is_ready(&self) -> bool {
        match self {
            JobHandle::App(job) => job.is_ready(),
            JobHandle::Environment(job) => job.is_ready(),
        }
    }

    /// Blocks for the result.
    pub fn outcome(&self) -> JobOutcome {
        match self {
            JobHandle::App(job) => JobOutcome::App {
                name: job.name.clone(),
                disposition: job.disposition,
                result: job.wait(),
            },
            JobHandle::Environment(job) => JobOutcome::Environment {
                name: job.name.clone(),
                disposition: job.disposition,
                result: job.wait(),
            },
        }
    }
}

/// A finished job, as returned by [`Service::drain`] in submission order.
pub enum JobOutcome {
    /// An app analysis finished (or failed to parse, or was cancelled).
    App {
        /// Submitted app name.
        name: String,
        /// Cache resolution of the submission.
        disposition: CacheDisposition,
        /// The frozen analysis or the error.
        result: AppResult,
    },
    /// An environment analysis finished (or a member failed, or it was
    /// cancelled).
    Environment {
        /// Submitted group name.
        name: String,
        /// Cache resolution of the submission.
        disposition: CacheDisposition,
        /// The frozen analysis or the error.
        result: EnvResult,
    },
}

/// The environment variable behind [`ServiceOptions::max_pending`]'s default.
pub const MAX_PENDING_ENV: &str = "SOTERIA_MAX_PENDING";
/// The environment variable behind [`ServiceOptions::admission`]'s default
/// (`"reject"` selects [`AdmissionPolicy::Reject`]; anything else blocks).
pub const ADMISSION_ENV: &str = "SOTERIA_ADMISSION";
/// The environment variable behind the deadline defaults: a millisecond value
/// that becomes *both* [`ServiceOptions::pending_deadline`] and
/// [`ServiceOptions::running_deadline`] (`0` or unset = no deadlines). How CI
/// runs a tiny-deadline chaos leg over the whole service suite.
pub const DEADLINE_ENV: &str = "SOTERIA_DEADLINE_MS";
/// The environment variable behind [`ServiceOptions::store_dir`]'s default: a
/// directory path enabling the persistent result store.
pub const STORE_DIR_ENV: &str = "SOTERIA_STORE_DIR";
/// The environment variable behind [`ServiceOptions::fault_log_capacity`]'s
/// default: how many [`FaultRecord`]s the bounded fault log retains.
pub const FAULT_LOG_ENV: &str = "SOTERIA_FAULT_LOG";
/// The environment variable selecting persistent-store chaos: a
/// [`FaultFs`](crate::fs::FaultFs) spec (`every=N`) wrapped around the real
/// filesystem when [`ServiceOptions::store_dir`] is set. How CI runs the
/// service suites with I/O fault injection enabled.
pub const STORE_FAULTS_ENV: &str = "SOTERIA_STORE_FAULTS";

/// Service configuration.
#[derive(Clone)]
pub struct ServiceOptions {
    /// Long-lived worker threads (`0` = the analyzer's resolved thread count:
    /// `AnalysisConfig::threads`, then `SOTERIA_THREADS`, then available
    /// parallelism).
    pub workers: usize,
    /// Bound on each result cache (apps and environments separately).
    pub cache_capacity: usize,
    /// Bound on queued-but-unstarted jobs (`0` = unbounded). A job counts as
    /// pending from admission until its first pipeline stage starts running on
    /// a worker; parked environment jobs count for their whole parked phase.
    /// Cache hits and coalesced submissions schedule nothing and are never
    /// counted (or rejected).
    pub max_pending: usize,
    /// What a submission at the bound does: wait for a slot
    /// ([`AdmissionPolicy::Block`]) or fail fast with
    /// [`ServiceError::QueueFull`] ([`AdmissionPolicy::Reject`]).
    pub admission: AdmissionPolicy,
    /// Auto-cancel a job that has not started its first stage within this long
    /// of admission (parked environment jobs and queued app pipelines alike):
    /// the ticket settles as [`JobError::TimedOut`]. `None` = no bound.
    pub pending_deadline: Option<Duration>,
    /// Auto-cancel a job still unsettled this long after its first stage
    /// started: queued later stages are revoked, a running stage is aborted at
    /// its next poll point, and the ticket settles as [`JobError::TimedOut`].
    /// `None` = no bound.
    pub running_deadline: Option<Duration>,
    /// Panic strikes before a content fingerprint is rejected at admission with
    /// [`ServiceError::Quarantined`]. `0` disables quarantine. Strikes count
    /// *panics* only — parse errors are honest results and timeouts blame load,
    /// not content.
    pub quarantine_threshold: u32,
    /// Chaos injection (tests and the serve smoke): an app source containing
    /// this marker panics at ingest, exercising the fault log and quarantine
    /// deterministically. `None` in production.
    pub fault_marker: Option<String>,
    /// Chaos injection: an app source containing this marker stalls at ingest
    /// — polling its abort flag, so cancel/timeout/drain interrupt it — until
    /// aborted or a safety cap elapses. Makes deadline and drain behaviour
    /// deterministically testable. `None` in production.
    pub stall_marker: Option<String>,
    /// Root directory of the persistent result store (`None` = memory-only).
    /// When set, finished app/environment results are durably written beneath
    /// the in-memory caches, eviction demotes to disk instead of dropping, and
    /// a restarted service warm-starts from the same directory.
    pub store_dir: Option<std::path::PathBuf>,
    /// The filesystem the store runs on (`None` = the real one). Tests inject
    /// [`FaultFs`](crate::fs::FaultFs) here; [`STORE_FAULTS_ENV`] does the same
    /// from the environment.
    pub store_fs: Option<Arc<dyn crate::fs::FileSystem>>,
    /// Store retry/breaker tuning (`None` = [`StoreTuning::default`]).
    pub store_tuning: Option<crate::store::StoreTuning>,
    /// Bound on the retained fault log ([`FAULT_LOG_ENV`]; default 256), so
    /// long soak runs with injected I/O faults can keep a deeper history
    /// instead of silently wrapping.
    pub fault_log_capacity: usize,
}

impl fmt::Debug for ServiceOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ServiceOptions")
            .field("workers", &self.workers)
            .field("cache_capacity", &self.cache_capacity)
            .field("max_pending", &self.max_pending)
            .field("admission", &self.admission)
            .field("pending_deadline", &self.pending_deadline)
            .field("running_deadline", &self.running_deadline)
            .field("quarantine_threshold", &self.quarantine_threshold)
            .field("fault_marker", &self.fault_marker)
            .field("stall_marker", &self.stall_marker)
            .field("store_dir", &self.store_dir)
            .field("store_fs", &self.store_fs.as_ref().map(|_| "<injected>"))
            .field("store_tuning", &self.store_tuning)
            .field("fault_log_capacity", &self.fault_log_capacity)
            .finish()
    }
}

impl Default for ServiceOptions {
    /// Unbounded blocking admission, overridable through [`MAX_PENDING_ENV`],
    /// [`ADMISSION_ENV`], and [`DEADLINE_ENV`] — which is how CI runs the whole
    /// service test suite once with a 2-deep rejecting queue and once with tiny
    /// deadlines. Quarantine defaults to two strikes.
    fn default() -> Self {
        let max_pending = std::env::var(MAX_PENDING_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        let admission = match std::env::var(ADMISSION_ENV).ok().as_deref().map(str::trim) {
            Some("reject") => AdmissionPolicy::Reject,
            _ => AdmissionPolicy::Block,
        };
        let deadline = std::env::var(DEADLINE_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map(Duration::from_millis);
        let store_dir = std::env::var(STORE_DIR_ENV)
            .ok()
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .map(std::path::PathBuf::from);
        let store_fs: Option<Arc<dyn crate::fs::FileSystem>> = std::env::var(STORE_FAULTS_ENV)
            .ok()
            .and_then(|spec| crate::fs::FaultFs::from_spec(&spec))
            .map(|fs| Arc::new(fs) as Arc<dyn crate::fs::FileSystem>);
        let fault_log_capacity = std::env::var(FAULT_LOG_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .filter(|&n| n > 0)
            .unwrap_or(FAULT_LOG_CAP);
        ServiceOptions {
            workers: 0,
            cache_capacity: 1024,
            max_pending,
            admission,
            pending_deadline: deadline,
            running_deadline: deadline,
            quarantine_threshold: 2,
            fault_marker: None,
            stall_marker: None,
            store_dir,
            store_fs,
            store_tuning: None,
            fault_log_capacity,
        }
    }
}

/// What [`Service::drain`] settled, in submission order, plus how each ticket
/// resolved. `completed + failed + cancelled + timed_out == outcomes.len()`.
pub struct DrainReport {
    /// Every job still in the submission log, settled exactly once.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs that finished with a result.
    pub completed: usize,
    /// Jobs that failed (parse errors, member failures, internal faults).
    pub failed: usize,
    /// Jobs settled as [`JobError::Cancelled`] before or during the drain.
    pub cancelled: usize,
    /// Jobs force-settled as [`JobError::TimedOut`] — by their own deadlines or
    /// by the drain deadline.
    pub timed_out: usize,
    /// Wall-clock time the drain took.
    pub elapsed: Duration,
}

/// Counter snapshot of a running service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceStats {
    /// Long-lived pool workers.
    pub workers: usize,
    /// Pool tasks executed so far (ingest + verify + environment stages).
    pub tasks_executed: u64,
    /// Jobs accepted (apps + environments; rejected submissions count under
    /// `rejected` instead).
    pub submitted: u64,
    /// Submissions that attached to an identical in-flight job.
    pub coalesced: u64,
    /// Submissions rejected with [`ServiceError::QueueFull`].
    pub rejected: u64,
    /// Jobs settled as [`JobError::Cancelled`].
    pub cancelled: u64,
    /// Jobs settled as [`JobError::TimedOut`] (deadline sweeper or drain).
    pub timed_out: u64,
    /// Submissions rejected with [`ServiceError::Quarantined`].
    pub quarantined: u64,
    /// Faults recorded ever (panics + timeouts; the log retains the most
    /// recent [`Service::faults`] entries).
    pub faults: u64,
    /// True once [`Service::drain`] has closed admission.
    pub draining: bool,
    /// Queued-but-unstarted jobs right now (the quantity
    /// [`ServiceOptions::max_pending`] bounds).
    pub pending: usize,
    /// High-water mark of `pending` over the service's life — how close the
    /// queue ever came to its bound.
    pub pending_peak: usize,
    /// Per-name registry entries right now (bounded by live tickets plus the
    /// app cache capacity — bare keys are evicted alongside their cache
    /// entries).
    pub registry_entries: usize,
    /// App result cache counters.
    pub app_cache: CacheStats,
    /// Environment result cache counters.
    pub env_cache: CacheStats,
    /// Persistent store counters (`None` = memory-only, no store configured).
    pub store: Option<StoreStats>,
}

/// The latest submission under one app name. While the job is in flight its
/// ticket and cancellation control are held here, for coalescing and
/// name-based environment members; once the result freezes into the cache
/// they are dropped, leaving a bare 16-byte key that is itself evicted when
/// its cache entry is — the registry never outgrows live tickets + cache
/// capacity.
pub struct RegistryEntry {
    key: CacheKey,
    in_flight: Option<InFlight<AppKind>>,
}

impl RegistryEntry {
    /// True while the entry pins `ticket` as in flight.
    fn holds(&self, ticket: &Ticket<AppResult>) -> bool {
        self.in_flight.as_ref().is_some_and(|(t, _)| t.same(ticket))
    }
}

/// One scheduled (miss-path) job under deadline/drain supervision. Entries are
/// pruned once their control reaches a terminal stage.
#[derive(Clone)]
struct Watched {
    /// The fault-layer address timeouts are recorded against.
    fault_key: CacheKey,
    control: Arc<JobControl>,
    job: JobHandle,
}

/// The shared state behind a [`Service`] and every job handle it issued.
pub struct ServiceInner {
    soteria: Soteria,
    config_fingerprint: u64,
    pool: WorkerPool,
    admission: Admission,
    apps: Mutex<ResultCache<AppResult>>,
    envs: Mutex<ResultCache<EnvResult>>,
    /// Latest submission per app name, for in-flight coalescing, name-based
    /// environment members, and cancellation. Bare-key entries are evicted
    /// together with their LRU cache entries (see [`RegistryEntry`]).
    registry: Mutex<HashMap<String, RegistryEntry>>,
    /// In-flight environment jobs by content key, so identical concurrent
    /// `env` submissions coalesce instead of running the union twice. Entries
    /// are removed at completion or cancellation.
    envs_in_flight: Mutex<HashMap<u128, InFlight<EnvKind>>>,
    /// Member names of the latest successful job per environment group name,
    /// computed or restored from the store; [`Service::resubmit`] reads it to
    /// find the groups an edited app belongs to. Bounded by distinct group
    /// names submitted to the service.
    env_groups: Mutex<HashMap<String, Vec<String>>>,
    /// Every scheduled job not yet terminal, for the deadline sweeper, the
    /// drain, and the drop-settles-everything path. Pruned at every settle.
    watched: Mutex<Vec<Watched>>,
    /// The persistent disk tier beneath the result caches (`None` =
    /// memory-only). Finished results are written through on completion,
    /// eviction demotes instead of dropping, and misses consult it before
    /// computing.
    store: Option<PersistentStore>,
    /// The most recent [`ServiceOptions::fault_log_capacity`] fault records.
    fault_log: Mutex<VecDeque<FaultRecord>>,
    /// Bound on `fault_log`.
    fault_log_capacity: usize,
    /// Panic strikes per content fingerprint, LRU-bounded like the result
    /// caches so adversarial key churn cannot grow it without bound.
    strikes: Mutex<ResultCache<u32>>,
    /// Panic strikes before admission rejects a fingerprint (0 = disabled).
    quarantine_threshold: u32,
    pending_deadline: Option<Duration>,
    running_deadline: Option<Duration>,
    fault_marker: Option<String>,
    stall_marker: Option<String>,
    /// Latched by [`Service::drain`] (and drop): admission closed for good.
    draining: AtomicBool,
    submitted: AtomicU64,
    coalesced: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
    timed_out: AtomicU64,
    quarantined: AtomicU64,
    faults: AtomicU64,
}

/// Whether a settled result may freeze into the result caches. Successes and
/// *honest* failures (parse errors, member failures — pure functions of the
/// content) are cached; faults are not: an `Internal` result must re-run on
/// resubmission so quarantine can count strikes, and `Cancelled`/`TimedOut`
/// describe this execution, not the content.
fn cacheable<T>(result: &Result<T, JobError>) -> bool {
    !matches!(
        result,
        Err(JobError::Internal(_)) | Err(JobError::Cancelled) | Err(JobError::TimedOut)
    )
}

impl JobKind for AppKind {
    type Output = AppAnalysis;
    type Index = HashMap<String, RegistryEntry>;
    const HIT: &'static str = "cache.app.hit";
    const MISS: &'static str = "cache.app.miss";
    const COALESCED: &'static str = "cache.app.coalesced";

    fn cache(inner: &ServiceInner) -> &Mutex<ResultCache<AppResult>> {
        &inner.apps
    }

    fn index(inner: &ServiceInner) -> &Mutex<Self::Index> {
        &inner.registry
    }

    fn in_flight(registry: &Self::Index, name: &str, key: CacheKey) -> Option<InFlight<Self>> {
        let entry = registry.get(name).filter(|entry| entry.key == key)?;
        entry.in_flight.as_ref().filter(|(ticket, _)| !ticket.is_ready()).cloned()
    }

    fn enter(
        registry: &mut Self::Index,
        name: &str,
        key: CacheKey,
        in_flight: Option<InFlight<Self>>,
    ) {
        registry.insert(name.to_string(), RegistryEntry { key, in_flight });
    }

    fn leave(registry: &mut Self::Index, job: &AppJob) {
        if registry.get(&job.name).is_some_and(|entry| entry.holds(&job.ticket)) {
            registry.remove(&job.name);
        }
    }

    /// The cache owns the frozen result now: stop pinning it through the name
    /// (keeping the bare key), and drop the bare keys of whatever the insert
    /// evicted.
    fn freeze(
        inner: &ServiceInner,
        registry: &mut Self::Index,
        job: &AppJob,
        evicted: Option<CacheKey>,
    ) {
        if let Some(entry) = registry.get_mut(&job.name).filter(|e| e.holds(&job.ticket)) {
            entry.in_flight = None;
        }
        if let Some(evicted) = evicted {
            inner.forget_evicted(registry, evicted);
        }
    }

    fn handle(job: AppJob) -> JobHandle {
        JobHandle::App(job)
    }
}

impl JobKind for EnvKind {
    type Output = EnvironmentAnalysis;
    type Index = HashMap<u128, InFlight<EnvKind>>;
    const HIT: &'static str = "cache.env.hit";
    const MISS: &'static str = "cache.env.miss";
    const COALESCED: &'static str = "cache.env.coalesced";

    fn cache(inner: &ServiceInner) -> &Mutex<ResultCache<EnvResult>> {
        &inner.envs
    }

    fn index(inner: &ServiceInner) -> &Mutex<Self::Index> {
        &inner.envs_in_flight
    }

    fn in_flight(in_flight: &Self::Index, _: &str, key: CacheKey) -> Option<InFlight<Self>> {
        in_flight.get(&key.0).cloned()
    }

    fn enter(in_flight: &mut Self::Index, _: &str, key: CacheKey, entry: Option<InFlight<Self>>) {
        if let Some(entry) = entry {
            in_flight.insert(key.0, entry);
        }
    }

    fn leave(in_flight: &mut Self::Index, job: &EnvJob) {
        if in_flight.get(&job.key.0).is_some_and(|(ticket, _)| ticket.same(&job.ticket)) {
            in_flight.remove(&job.key.0);
        }
    }

    fn handle(job: EnvJob) -> JobHandle {
        JobHandle::Environment(job)
    }
}

impl ServiceInner {
    /// Settles a stage's result unless a cancel or timeout already settled the
    /// ticket, in which case the result is discarded (never cached).
    ///
    /// Freezes into the cache before leaving the in-flight index, so a
    /// concurrent submitter always finds the result in one place or the
    /// other; leaves before fulfilling, so a waiter that wakes up observes a
    /// consistent index and in-flight tickets are never already ready. A
    /// faulted result (see `cacheable`) is never frozen: it just leaves, so
    /// the name promises nothing and resubmitting the same content schedules
    /// a fresh run — which is how a repeat offender reaches the quarantine
    /// threshold.
    fn settle<K: JobKind>(&self, control: &JobControl, job: &Job<K>, result: KindResult<K>) {
        if !control.mark_finished() {
            return;
        }
        let frozen = cacheable(&result);
        let evicted = frozen.then(|| K::cache(self).lock().insert(job.key, result.clone()));
        let evicted = evicted.flatten();
        let mut index = K::index(self).lock();
        if frozen {
            K::freeze(self, &mut index, job, evicted.as_ref().map(|(key, _)| *key));
        }
        K::leave(&mut index, job);
        drop(index);
        self.release(job.ticket.fulfil(result));
        self.prune_watched();
    }

    /// The bookkeeping half of a cancellation or timeout (after
    /// [`JobControl::cancel_stage_as`] won): leave the in-flight index — the
    /// name or key must not promise a result, since nothing was cached — then
    /// settle the ticket with `error`, releasing any parked subscribers (a
    /// dependent environment job must run to report its member failure).
    fn abandon<K: JobKind>(&self, job: &Job<K>, error: JobError) {
        K::leave(&mut K::index(self).lock(), job);
        self.release(job.ticket.fulfil(Err(error)));
        self.prune_watched();
    }

    /// Drops the bare registry keys of an app result evicted from the
    /// in-memory cache — a name must never promise an unresolvable result.
    /// With the disk tier enabled the eviction is a *demotion* instead:
    /// successful results were written through at completion, so a
    /// still-stored key stays resolvable (and keeps its names) through the
    /// store.
    fn forget_evicted(&self, registry: &mut HashMap<String, RegistryEntry>, evicted: CacheKey) {
        if self.store.as_ref().is_some_and(|s| s.contains(StoreBucket::Apps, evicted)) {
            soteria_obs::add("store.demote", 1);
        } else {
            registry.retain(|_, entry| entry.in_flight.is_some() || entry.key != evicted);
        }
    }

    /// Runs a stage body under the job's abort handle, so the engine hot loops
    /// (and scoped helper threads) can poll it, and turns a panic into a
    /// recorded fault and an [`JobError::Internal`] result. Panics are job
    /// failures, not worker deaths: an unfulfilled ticket would wedge drain()
    /// and every later serve response forever. `None` means the stage was
    /// aborted — the cancel or timeout that latched the abort already settled
    /// the ticket.
    fn run_stage<T>(
        &self,
        control: &JobControl,
        name: &str,
        fault_key: CacheKey,
        stage: &'static str,
        body: impl FnOnce() -> T,
    ) -> Option<Result<T, JobError>> {
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            soteria_exec::with_abort(Some(control.abort.clone()), body)
        }));
        match caught {
            Ok(value) => Some(Ok(value)),
            // NB: `&payload` would coerce the *Box* to `&dyn Any`.
            Err(payload) if soteria_exec::is_abort_payload(payload.as_ref()) => None,
            Err(payload) => {
                let message = panic_message(payload);
                self.record_fault(
                    name,
                    fault_key,
                    stage,
                    FaultKind::Panic,
                    message.clone(),
                    control.trace,
                );
                Some(Err(JobError::Internal(message)))
            }
        }
    }

    /// Appends to the bounded fault log; a panic also counts a quarantine
    /// strike against the content fingerprint.
    fn record_fault(
        &self,
        name: &str,
        key: CacheKey,
        stage: &'static str,
        kind: FaultKind,
        message: String,
        trace: soteria_obs::TraceId,
    ) {
        let seq = self.faults.fetch_add(1, Ordering::Relaxed);
        soteria_obs::add("service.faults", 1);
        let record = FaultRecord {
            seq,
            name: name.to_string(),
            key,
            stage,
            kind,
            message,
            at_ns: soteria_obs::now_ns(),
            trace: trace.0,
        };
        let mut log = self.fault_log.lock();
        if log.len() >= self.fault_log_capacity {
            log.pop_front();
        }
        log.push_back(record);
        drop(log);
        if kind == FaultKind::Panic && self.quarantine_threshold > 0 {
            let mut strikes = self.strikes.lock();
            let count = strikes.get(key).unwrap_or(0) + 1;
            strikes.insert(key, count);
        }
    }

    /// Admission gate: rejects a fingerprint that has reached the quarantine
    /// threshold, counting the rejection. Returns the error to surface.
    fn check_quarantine(&self, name: &str, key: CacheKey) -> Result<(), ServiceError> {
        if self.quarantine_threshold == 0 {
            return Ok(());
        }
        let strikes = self.strikes.lock().get(key).unwrap_or(0);
        if strikes >= self.quarantine_threshold {
            self.quarantined.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::Quarantined { name: name.to_string(), strikes });
        }
        Ok(())
    }

    /// Appends the persistent store's buffered faults (breaker degrades,
    /// quarantined entries) to the main fault log. Store faults never count
    /// quarantine strikes — they blame the disk, not the submitted content —
    /// and carry no submitted name, so the record's name is empty and its
    /// stage is `"store"`.
    fn drain_store_faults(&self) {
        let Some(store) = &self.store else { return };
        for fault in store.take_faults() {
            let key = fault.key.unwrap_or(CacheKey(0));
            self.record_fault(
                "",
                key,
                "store",
                fault.kind,
                fault.message,
                soteria_obs::TraceId::NONE,
            );
        }
    }

    /// Write-through: durably persists a finished result (when the disk tier
    /// is enabled), so a restart — even an unclean one — warm-starts from it
    /// and an LRU eviction demotes instead of dropping. Failures degrade into
    /// the store's own breaker accounting; the analysis is unaffected.
    fn persist(&self, bucket: StoreBucket, key: CacheKey, payload: impl FnOnce() -> JsonValue) {
        if let Some(store) = &self.store {
            let _span = soteria_obs::span("store.persist");
            soteria_obs::add("store.persist", 1);
            store.save(bucket, key, &payload());
            self.drain_store_faults();
        }
    }

    /// Attempts to serve a miss from the disk tier: load (checksum already
    /// validated by the store), then `decode` — which must re-verify that the
    /// payload belongs to this key. A decode failure quarantines the entry and
    /// returns `None`, falling back to a fresh computation: a damaged store
    /// costs a recompute, never a wrong answer.
    fn restore<T>(
        &self,
        bucket: StoreBucket,
        key: CacheKey,
        reason: &str,
        decode: impl FnOnce(&JsonValue) -> Option<T>,
    ) -> Option<Arc<T>> {
        let store = self.store.as_ref()?;
        let value = store.load(bucket, key)?;
        let result = match decode(&value) {
            Some(restored) => {
                store.note_restored();
                soteria_obs::add("store.restore", 1);
                Some(Arc::new(restored))
            }
            None => {
                soteria_obs::add("store.quarantine", 1);
                store.quarantine(bucket, key, reason);
                None
            }
        };
        self.drain_store_faults();
        result
    }

    /// Serves an app miss from the disk tier: decodes the stored record,
    /// *re-verifies the content address* against the stored name and source,
    /// and deterministically rebuilds the full analysis — re-running
    /// extraction and attaching the stored verdicts, skipping verification.
    fn restore_app_from_disk(&self, key: CacheKey) -> Option<Arc<AppAnalysis>> {
        let reason = "payload does not decode to this key's app record";
        self.restore(StoreBucket::Apps, key, reason, |value| {
            let stored = soteria::app_from_store_json(value).filter(|stored| {
                app_cache_key(&stored.name, &stored.source, self.config_fingerprint) == key
            })?;
            // Extraction is deterministic and the address proves it succeeded
            // on this exact content once — but a panic here must degrade to
            // recomputing, never kill the worker.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.soteria.restore_app_analysis(stored).ok()
            }))
            .ok()
            .flatten()
        })
    }

    /// Serves an environment miss from the disk tier, given the
    /// already-resolved member analyses. The embedded `env_key` must match the
    /// filename's address, the group and member names must match the
    /// submission, and the union is rebuilt from the *live* members (it is
    /// never stored) with the stored verdicts attached — so a swapped or
    /// stale payload is rejected, never rendered.
    fn restore_env_from_disk(
        &self,
        key: CacheKey,
        group: &str,
        members: &[Arc<AppAnalysis>],
    ) -> Option<Arc<EnvironmentAnalysis>> {
        let reason = "payload does not decode to this key's environment record";
        self.restore(StoreBucket::Envs, key, reason, |value| {
            let recorded = u128::from_str_radix(value.get("env_key")?.as_str()?, 16).ok()?;
            if recorded != key.0 {
                return None;
            }
            let stored = soteria::env_from_store_json(value.get("record")?)?;
            if stored.name != group {
                return None;
            }
            let refs: Vec<&AppAnalysis> = members.iter().map(Arc::as_ref).collect();
            if stored.app_names.len() != refs.len()
                || stored.app_names.iter().zip(&refs).any(|(n, a)| *n != a.ir.name)
            {
                return None;
            }
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.soteria.restore_environment(stored, &refs)
            }))
            .ok()
        })
    }

    /// Resolves an evicted member's frozen result through the disk tier and
    /// promotes it back into the in-memory cache (which may demote something
    /// else). How a registry bare key outlives its LRU slot. Must not be
    /// called with the registry lock held.
    fn promote_app_from_disk(&self, key: CacheKey) -> Option<AppResult> {
        let analysis = self.restore_app_from_disk(key)?;
        soteria_obs::add("store.promote", 1);
        let result: AppResult = Ok(analysis);
        let evicted = self.apps.lock().insert(key, result.clone());
        if let Some((evicted, _)) = evicted {
            self.forget_evicted(&mut self.registry.lock(), evicted);
        }
        Some(result)
    }

    /// Chaos hooks for the ingest stage, driven by the test-only markers:
    /// deterministic panics (fault log / quarantine coverage) and abortable
    /// stalls (deadline / drain coverage). Both are dead `None` branches in
    /// production. Runs inside the stage's `catch_unwind` + abort scope.
    fn chaos(&self, source: &str) {
        if let Some(marker) = &self.fault_marker {
            if source.contains(marker.as_str()) {
                panic!("injected fault: source contains marker '{marker}'");
            }
        }
        if let Some(marker) = &self.stall_marker {
            if source.contains(marker.as_str()) {
                let abort = soteria_exec::current_abort();
                // Safety cap so a configuration mistake cannot wedge a worker
                // forever even with no deadline and no cancel.
                let cap = Instant::now() + Duration::from_secs(10);
                while Instant::now() < cap {
                    if let Some(abort) = &abort {
                        abort.bail_if_aborted();
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
    }

    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Puts a freshly scheduled job under deadline/drain supervision.
    fn watch<K: JobKind>(&self, fault_key: CacheKey, control: &Arc<JobControl>, job: &Job<K>) {
        self.watched.lock().push(Watched {
            fault_key,
            control: Arc::clone(control),
            job: K::handle(job.clone()),
        });
    }

    /// Drops watch entries whose jobs reached a terminal stage. Called at every
    /// settle, so the list tracks live jobs only (bounded by admission).
    fn prune_watched(&self) {
        self.watched.lock().retain(|w| !w.control.is_terminal());
    }

    /// Force-settles a watched job as [`JobError::TimedOut`] if it has not
    /// reached a terminal stage first. Returns `true` when this call settled it.
    fn timeout_watched(&self, watched: &Watched, stage: &'static str, why: &str) -> bool {
        if !watched.control.cancel_stage_as(self, Stage::TimedOut) {
            return false;
        }
        self.timed_out.fetch_add(1, Ordering::Relaxed);
        self.record_fault(
            watched.job.name(),
            watched.fault_key,
            stage,
            FaultKind::Timeout,
            why.to_string(),
            watched.control.trace,
        );
        match &watched.job {
            JobHandle::App(job) => self.abandon(job, JobError::TimedOut),
            JobHandle::Environment(job) => self.abandon(job, JobError::TimedOut),
        }
        true
    }

    /// One deadline sweep: times out every watched job past its pending or
    /// running deadline. Returns how many jobs this sweep settled.
    fn sweep_deadlines(&self) -> usize {
        let (pending, running) = (self.pending_deadline, self.running_deadline);
        if pending.is_none() && running.is_none() {
            return 0;
        }
        let now = Instant::now();
        let sweep_started = if soteria_obs::enabled() { soteria_obs::now_ns() } else { 0 };
        let snapshot: Vec<Watched> = self.watched.lock().clone();
        let mut settled = 0;
        for watched in &snapshot {
            if let Some(stage) = watched.control.breached_deadline(now, pending, running) {
                if self.timeout_watched(watched, stage, "deadline exceeded") {
                    settled += 1;
                }
            }
        }
        // A span per settling sweep only — the idle ticks (every few ms for a
        // service's whole life) would drown real work out of the span buffer.
        if settled > 0 {
            soteria_obs::add("sweeper.settled", settled as u64);
            if soteria_obs::enabled() {
                soteria_obs::record_span(
                    "sweeper.sweep",
                    soteria_obs::TraceId::NONE,
                    sweep_started,
                    soteria_obs::now_ns(),
                );
            }
        }
        settled
    }

    /// Enqueues every parked job whose last dependency this fulfilment resolved.
    /// Jobs carrying a cancellation control have their queue identity recorded
    /// under the control lock, so a cancel arriving after the dependencies
    /// resolved still revokes the queued task (and one arriving concurrently is
    /// observed here, dropping the task without consuming a queue slot).
    fn release(&self, subscribers: Vec<Arc<PendingJob>>) {
        for job in subscribers {
            if let Some(task) = job.dep_ready() {
                match job.control() {
                    Some(control) => self.spawn_controlled(task, &control),
                    None => {
                        self.pool.spawn(task);
                    }
                }
            }
        }
    }

    /// Spawns a job's task, recording its queue identity on the control under
    /// the control lock so a cancel can revoke it — or dropping the task
    /// without consuming a queue slot when the job was already cancelled.
    fn spawn_controlled(&self, task: impl FnOnce() + Send + 'static, control: &JobControl) {
        let mut state = control.state.lock();
        if state.stage.is_terminal() {
            return;
        }
        state.stage =
            Stage::Queued(soteria_obs::with_trace(control.trace, || self.pool.spawn(task)));
    }

    /// One full-queue admission round: under [`AdmissionPolicy::Reject`] counts
    /// the rejection and returns [`ServiceError::QueueFull`]; under
    /// [`AdmissionPolicy::Block`] returns once capacity frees (the caller
    /// re-runs its whole admission decision).
    fn admission_full(&self, pending: usize) -> Result<(), ServiceError> {
        match self.admission.policy {
            AdmissionPolicy::Reject => {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServiceError::QueueFull {
                    pending,
                    max_pending: self.admission.max_pending,
                })
            }
            AdmissionPolicy::Block => {
                self.admission.wait_for_capacity();
                Ok(())
            }
        }
    }
}

/// A long-lived analysis service.
///
/// Submissions return immediately with a ticket handle; analyses run on the
/// service's persistent worker pool. An app job is *two* pipeline stages —
/// ingest (parse → IR → symbolic execution → state model) and verify — each its
/// own queue slot, so ingestion of app *N + 1* overlaps verification of app *N*
/// whenever at least two workers (or one worker and an idle pipeline stage) are
/// available. Environment jobs park until their member app analyses exist, then
/// run without ever blocking a worker on a dependency.
///
/// Results are pure functions of `(content, configuration)` — the determinism
/// gates prove worker counts never change them — so every finished job is frozen
/// into a bounded content-addressed LRU cache: resubmitting identical content is
/// a [`CacheDisposition::Hit`] returning the byte-identical original.
///
/// # Backpressure and cancellation
///
/// [`ServiceOptions::max_pending`] bounds queued-but-unstarted jobs; at the
/// bound, submissions either wait ([`AdmissionPolicy::Block`]) or fail fast
/// with [`ServiceError::QueueFull`] ([`AdmissionPolicy::Reject`]). In-flight
/// jobs can be cancelled ([`Job::cancel`], or the [`CancelOnDrop`] guard): a
/// queued stage is removed from the injector queue, a parked environment job
/// is revoked, a running stage's result is discarded — and the ticket settles
/// as [`JobError::Cancelled`] without caching anything.
/// Jobs that *do* complete remain byte-identical to the sequential path under
/// any interleaving of cancellations (`tests/parallel_determinism.rs`).
pub struct Service {
    inner: Arc<ServiceInner>,
    submissions: Mutex<Vec<JobHandle>>,
    /// The deadline sweeper thread; `None` when no deadline is configured.
    sweeper: Option<Sweeper>,
}

/// The background thread behind the job deadlines: periodically sweeps the
/// watch list and force-settles breached jobs as [`JobError::TimedOut`]. Holds
/// only a [`Weak`] reference to the service, so it can never keep a dropped
/// service's pool alive; the service's drop stops and joins it explicitly.
struct Sweeper {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sweeper {
    /// Spawns a sweeper when at least one deadline is configured. The tick is a
    /// quarter of the shortest deadline (clamped to 5–100 ms), so a breach is
    /// detected well within one deadline's worth of slack.
    fn spawn(inner: &Arc<ServiceInner>) -> Option<Sweeper> {
        let shortest = match (inner.pending_deadline, inner.running_deadline) {
            (None, None) => return None,
            (Some(p), None) => p,
            (None, Some(r)) => r,
            (Some(p), Some(r)) => p.min(r),
        };
        let interval =
            (shortest / 4).clamp(Duration::from_millis(5), Duration::from_millis(100));
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let weak = Arc::downgrade(inner);
        let thread_stop = Arc::clone(&stop);
        let handle = soteria_sync::thread::Builder::new()
            .name("soteria-deadlines".to_string())
            .spawn(move || {
                let (flag, signal) = &*thread_stop;
                loop {
                    let stopped = flag.lock();
                    let (stopped, _) = signal.wait_timeout(stopped, interval);
                    if *stopped {
                        return;
                    }
                    drop(stopped); // never sweep while holding the stop lock
                    let Some(inner) = weak.upgrade() else { return };
                    inner.sweep_deadlines();
                }
            })
            .expect("spawn deadline sweeper thread");
        Some(Sweeper { stop, handle: Some(handle) })
    }

    fn stop(&mut self) {
        *self.stop.0.lock() = true;
        self.stop.1.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Service {
    /// Starts a service around an analyzer.
    pub fn new(soteria: Soteria, options: ServiceOptions) -> Self {
        let workers =
            if options.workers > 0 { options.workers } else { soteria.threads() };
        let store = options.store_dir.as_deref().map(|dir| {
            let fs = options.store_fs.clone().unwrap_or_else(|| {
                Arc::new(crate::fs::RealFs) as Arc<dyn crate::fs::FileSystem>
            });
            let tuning = options.store_tuning.clone().unwrap_or_default();
            PersistentStore::open(dir, fs, tuning)
        });
        let inner = ServiceInner {
            config_fingerprint: soteria.config.fingerprint(),
            pool: WorkerPool::new(workers),
            admission: Admission::new(options.max_pending, options.admission),
            apps: Mutex::new(ResultCache::new(options.cache_capacity)),
            envs: Mutex::new(ResultCache::new(options.cache_capacity)),
            registry: Mutex::new(HashMap::new()),
            envs_in_flight: Mutex::new(HashMap::new()),
            env_groups: Mutex::new(HashMap::new()),
            watched: Mutex::new(Vec::new()),
            store,
            fault_log: Mutex::new(VecDeque::new()),
            fault_log_capacity: options.fault_log_capacity.max(1),
            strikes: Mutex::new(ResultCache::new(options.cache_capacity)),
            quarantine_threshold: options.quarantine_threshold,
            pending_deadline: options.pending_deadline,
            running_deadline: options.running_deadline,
            fault_marker: options.fault_marker,
            stall_marker: options.stall_marker,
            draining: AtomicBool::new(false),
            submitted: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            faults: AtomicU64::new(0),
            soteria,
        };
        let inner = Arc::new(inner);
        // Surface any faults the store buffered while opening (a failed
        // directory creation or warm scan) in the service's own log.
        inner.drain_store_faults();
        let sweeper = Sweeper::spawn(&inner);
        Service { inner, submissions: Mutex::new(Vec::new()), sweeper }
    }

    /// A service with the paper's analyzer and default options.
    pub fn with_defaults() -> Self {
        Service::new(Soteria::new(), ServiceOptions::default())
    }

    /// The underlying analyzer (shared immutably with the workers).
    pub fn soteria(&self) -> &Soteria {
        &self.inner.soteria
    }

    /// The pool's worker-thread count.
    pub fn workers(&self) -> usize {
        self.inner.pool.workers()
    }

    fn job<K: JobKind>(
        &self,
        name: &str,
        key: CacheKey,
        disposition: CacheDisposition,
        ticket: Ticket<KindResult<K>>,
        control: Option<Arc<JobControl>>,
    ) -> Job<K> {
        Job {
            name: name.to_string(),
            key,
            disposition,
            ticket,
            control,
            service: Arc::downgrade(&self.inner),
        }
    }

    /// The one admission path behind every submission: coalesce onto an
    /// identical in-flight job, hit the cache, or take a queue slot and
    /// `schedule` a fresh job. `fault_key` is the quarantine address.
    fn admit<K: JobKind>(
        &self,
        name: &str,
        key: CacheKey,
        fault_key: CacheKey,
        schedule: impl FnOnce(&Job<K>, Arc<JobControl>),
    ) -> Result<Job<K>, ServiceError> {
        let inner = &self.inner;
        // One index lock spans the coalesce/cache/admit decision, so
        // concurrent identical submissions cannot both schedule: the second one
        // either coalesces onto the in-flight ticket or — since `settle`
        // freezes the cache *before* leaving the index — hits the cache.
        // Re-checked on every trip around the loop, since a blocked submitter
        // may wake into a draining service.
        let job = loop {
            if inner.is_draining() {
                return Err(ServiceError::Draining);
            }
            inner.check_quarantine(name, fault_key)?;
            let mut index = K::index(inner).lock();
            if let Some((ticket, control)) = K::in_flight(&index, name, key) {
                inner.coalesced.fetch_add(1, Ordering::Relaxed);
                soteria_obs::add(K::COALESCED, 1);
                break self.job(name, key, CacheDisposition::Coalesced, ticket, Some(control));
            }
            if let Some(result) = K::cache(inner).lock().get(key) {
                soteria_obs::add(K::HIT, 1);
                K::enter(&mut index, name, key, None);
                break self.job(name, key, CacheDisposition::Hit, Ticket::fulfilled(result), None);
            }
            // Prospective miss: the job needs a queue slot.
            match inner.admission.try_acquire() {
                Admit::Granted => {
                    soteria_obs::add(K::MISS, 1);
                    let control = JobControl::new();
                    let job = self.job(
                        name,
                        key,
                        CacheDisposition::Miss,
                        Ticket::new(),
                        Some(Arc::clone(&control)),
                    );
                    // Register before scheduling, so a fast worker's settle
                    // cannot race ahead of the registration.
                    let in_flight = (job.ticket.clone(), Arc::clone(&control));
                    K::enter(&mut index, name, key, Some(in_flight));
                    drop(index);
                    // Under supervision before the first spawn, so no stuck job
                    // can ever escape the deadline sweeper or a drain.
                    inner.watch(fault_key, &control, &job);
                    schedule(&job, control);
                    break job;
                }
                Admit::Full(pending) => {
                    drop(index);
                    inner.admission_full(pending)?;
                    // Re-run the whole decision: the content may have frozen
                    // (hit) or been resubmitted (coalesce) while we waited,
                    // and the freed slot may be taken.
                    continue;
                }
            }
        };
        inner.submitted.fetch_add(1, Ordering::Relaxed);
        self.submissions.lock().push(K::handle(job.clone()));
        Ok(job)
    }

    /// Submits one app for analysis.
    ///
    /// Returns immediately unless the pending-job bound is reached under
    /// [`AdmissionPolicy::Block`] (then it waits for a slot). Under
    /// [`AdmissionPolicy::Reject`] a full queue fails with
    /// [`ServiceError::QueueFull`] — but only for submissions that would
    /// schedule work: cache hits and coalesced submissions are always accepted.
    pub fn submit_app(&self, name: &str, source: &str) -> Result<AppJob, ServiceError> {
        let inner = &self.inner;
        let key = app_cache_key(name, source, inner.config_fingerprint);
        // Fault accounting is keyed by the *source bytes alone* — a quarantined
        // input stays quarantined no matter what name it is resubmitted under.
        let fault_key = source_fingerprint(source, inner.config_fingerprint);
        self.admit(name, key, fault_key, |job, control| {
            self.schedule_app(job, control, fault_key, source.to_string())
        })
    }

    /// Enqueues the two-stage app pipeline: an ingest task that, on success,
    /// enqueues the verify task as a separate queue slot. Every spawn is
    /// registered on the job control under its lock, so a concurrent cancel
    /// either revokes the queued stage or is observed before the next spawn.
    fn schedule_app(
        &self,
        job: &AppJob,
        control: Arc<JobControl>,
        fault_key: CacheKey,
        source: String,
    ) {
        let inner = Arc::clone(&self.inner);
        let (job, task_control) = (job.clone(), Arc::clone(&control));
        let ingest = move || {
            let control = task_control;
            if !control.begin_stage(&inner.admission) {
                return; // cancelled while queued; the ticket is already settled
            }
            let _stage = soteria_obs::span("stage.ingest");
            // Disk tier first: a validated stored record rebuilds the full
            // analysis without a verify stage. A miss (or any damage — which
            // quarantines and recomputes) falls through to the normal
            // pipeline. Chaos markers are unaffected: a source that panics at
            // ingest never produced a record to restore.
            if let Some(analysis) = inner.restore_app_from_disk(job.key) {
                inner.settle(&control, &job, Ok(analysis));
                return;
            }
            let ingested = inner.run_stage(&control, &job.name, fault_key, "ingest", || {
                inner.chaos(&source);
                inner.soteria.ingest_app(&job.name, &source)
            });
            let ingested = match ingested {
                None => return, // aborted: cancel/timeout settled the ticket already
                Some(Ok(Ok(ingested))) => ingested,
                Some(Ok(Err(e))) => return inner.settle(&control, &job, Err(JobError::Parse(e))),
                Some(Err(fault)) => return inner.settle(&control, &job, Err(fault)),
            };
            // Stage 2 re-enters the queue so the worker is free to ingest the
            // next submission before (or while) this one verifies. Spawned
            // under the control lock: a cancelled ingest must not leave an
            // orphaned (unrevocable) verify stage behind.
            let (verify_inner, verify_control) = (Arc::clone(&inner), Arc::clone(&control));
            let verify = move || {
                let (inner, control) = (verify_inner, verify_control);
                if !control.begin_stage(&inner.admission) {
                    return;
                }
                let _stage = soteria_obs::span("stage.verify");
                let verified = inner.run_stage(&control, &job.name, fault_key, "verify", || {
                    inner.soteria.verify_app(ingested)
                });
                let Some(result) = verified else { return };
                let result = result.map(|analysis| {
                    // Write-through before settling: even an unclean death
                    // right after the response leaves the result durably
                    // restorable.
                    inner.persist(StoreBucket::Apps, job.key, || {
                        soteria::app_store_json(&job.name, &source, &analysis)
                    });
                    Arc::new(analysis)
                });
                inner.settle(&control, &job, result);
            };
            inner.spawn_controlled(verify, &control);
        };
        // Same spawn-under-the-lock discipline for the first stage, so the
        // Queued(TaskId) registration cannot race a cancel from a coalesced
        // handle (or a timeout from the deadline sweeper).
        self.inner.spawn_controlled(ingest, &control);
    }

    /// Submits a multi-app environment over previously submitted app jobs. The
    /// job parks until every member analysis exists; admission follows the same
    /// policy as [`Service::submit_app`] (parked jobs count as pending).
    pub fn submit_environment(
        &self,
        group: &str,
        members: &[AppJob],
    ) -> Result<EnvJob, ServiceError> {
        let inner = &self.inner;
        let member_keys: Vec<CacheKey> = members.iter().map(|m| m.key).collect();
        let key = env_cache_key(group, &member_keys, inner.config_fingerprint);
        // Membership is an environment's content: its key is its fault key.
        self.admit(group, key, key, |job, control| {
            self.schedule_environment(job, control, members)
        })
    }

    /// Submits an environment whose members are named app jobs already submitted
    /// to this service (the `soteria-serve` protocol shape). Fails fast on a
    /// member name that was never submitted (or whose job was cancelled), or
    /// whose frozen result has since been evicted from the cache *and* is not
    /// restorable from the disk tier (resubmit the app to reanalyze it).
    pub fn submit_environment_by_names(
        &self,
        group: &str,
        members: &[&str],
    ) -> Result<EnvJob, ServiceError> {
        let members = self.resolve_members(members, None)?;
        self.submit_environment(group, &members)
    }

    /// Resolves environment member names to member handles: an in-flight
    /// member shares its ticket, a frozen one is rebuilt from the cache (or
    /// promoted from the disk tier), and `edited` stands in for its own name.
    /// Fails on the first member that is unknown or no longer resolvable.
    fn resolve_members(
        &self,
        members: &[impl AsRef<str>],
        edited: Option<&AppJob>,
    ) -> Result<Vec<AppJob>, ServiceError> {
        // Snapshot the registry first, then resolve frozen results without the
        // lock — a disk-tier promotion re-enters the registry to demote.
        let snapshot: Vec<(&str, CacheKey, Option<Ticket<AppResult>>)> = {
            let registry = self.inner.registry.lock();
            members
                .iter()
                .map(|member| {
                    let member = member.as_ref();
                    if let Some(app) = edited.filter(|app| app.name == member) {
                        return Ok((member, app.key, Some(app.ticket.clone())));
                    }
                    let entry = registry
                        .get(member)
                        .ok_or_else(|| ServiceError::UnknownMember(member.to_string()))?;
                    Ok((member, entry.key, entry.in_flight.as_ref().map(|(t, _)| t.clone())))
                })
                .collect::<Result<_, ServiceError>>()?
        };
        snapshot
            .into_iter()
            .map(|(member, key, ticket)| {
                let ticket = match ticket {
                    Some(ticket) => ticket, // still in flight
                    None => {
                        // Frozen: rebuild a fulfilled ticket from the cache,
                        // falling back to the disk tier for demoted entries.
                        // Two statements on purpose: the cache guard is a
                        // temporary that would otherwise live through the
                        // promotion, which re-locks the cache to insert.
                        let cached = self.inner.apps.lock().get(key);
                        let result = cached
                            .or_else(|| self.inner.promote_app_from_disk(key))
                            .ok_or_else(|| ServiceError::EvictedMember(member.to_string()))?;
                        Ticket::fulfilled(result)
                    }
                };
                // Members are not cancellable through the environment, and
                // their disposition is unused.
                Ok(self.job(member, key, CacheDisposition::Hit, ticket, None))
            })
            .collect()
    }

    /// Resubmits an edited app source and re-verifies every resident
    /// environment group that contains it (the `update <name>` protocol verb).
    ///
    /// The app goes through [`Service::submit_app`] unchanged — coalescing,
    /// caching, and admission all apply. Then, for every group whose latest
    /// successful job (computed or restored from the store) lists `name` as a
    /// member, an environment job is submitted over the new app job plus the
    /// other members' frozen results. It runs like any other environment job:
    /// a scratch union and one check of the group. Groups with a member that
    /// is no longer resolvable (evicted from both the registry and the app
    /// cache) are skipped, so an update never fails on behalf of an unrelated
    /// stale group. Environments are returned in group-name order.
    pub fn resubmit(
        &self,
        name: &str,
        source: &str,
    ) -> Result<(AppJob, Vec<EnvJob>), ServiceError> {
        let app = self.submit_app(name, source)?;
        let mut groups: Vec<(String, Vec<String>)> = {
            let env_groups = self.inner.env_groups.lock();
            env_groups
                .iter()
                .filter(|(_, members)| members.iter().any(|m| m == name))
                .map(|(group, members)| (group.clone(), members.clone()))
                .collect()
        };
        groups.sort();
        let mut envs = Vec::with_capacity(groups.len());
        for (group, member_names) in groups {
            // Unlike submit_environment_by_names, an unresolvable member skips
            // the group instead of failing the update.
            if let Ok(members) = self.resolve_members(&member_names, Some(&app)) {
                envs.push(self.submit_environment(&group, &members)?);
            }
        }
        Ok((app, envs))
    }

    /// Parks the environment job behind its member tickets and enqueues it once
    /// the last one resolves (immediately, if all are already frozen).
    fn schedule_environment(&self, job: &EnvJob, control: Arc<JobControl>, members: &[AppJob]) {
        let inner = Arc::clone(&self.inner);
        let (job, task_control) = (job.clone(), Arc::clone(&control));
        let member_jobs = members.to_vec();
        let task = Box::new(move || {
            let (control, members) = (task_control, member_jobs);
            if !control.begin_stage(&inner.admission) {
                return; // cancelled while parked or queued
            }
            let _stage = soteria_obs::span("stage.environment");
            let mut analyses: Vec<Arc<AppAnalysis>> = Vec::with_capacity(members.len());
            for member in &members {
                // Dependencies resolved before this task was enqueued, so the
                // wait is a lock-and-read, never a block. A cancelled member
                // reads Err(Cancelled) here, failing the environment
                // deterministically on the first failed member in member order.
                match member.wait() {
                    Ok(analysis) => analyses.push(analysis),
                    Err(_) => {
                        let error = JobError::MemberFailed {
                            group: job.name.clone(),
                            member: member.name.clone(),
                        };
                        return inner.settle(&control, &job, Err(error));
                    }
                }
            }
            // Disk tier first: a validated stored record rebuilds the union
            // from the live member analyses (the union model is never stored)
            // and attaches the stored verdicts, skipping verification. Damage
            // quarantines and falls through to a fresh analysis.
            let result = match inner.restore_env_from_disk(job.key, &job.name, &analyses) {
                Some(env) => Ok(env),
                None => {
                    // Members stay behind their frozen Arcs — no per-job deep copies.
                    let env = inner.run_stage(&control, &job.name, job.key, "environment", || {
                        let refs: Vec<&AppAnalysis> = analyses.iter().map(Arc::as_ref).collect();
                        inner.soteria.analyze_environment_refs(&job.name, &refs)
                    });
                    let Some(env) = env else { return };
                    env.map(|env| {
                        let env = Arc::new(env);
                        // Write-through before settling (see `persist`). The
                        // payload embeds its own content address: unlike an app
                        // record — whose key is recomputable from the stored
                        // name and source — an environment's key derives from
                        // its member *app keys*, which the record does not
                        // carry, so the embedded copy is what ties the payload
                        // to its filename on restore.
                        inner.persist(StoreBucket::Envs, job.key, || {
                            JsonValue::object([
                                ("env_key", JsonValue::string(job.key.to_string())),
                                ("record", soteria::env_store_json(&env)),
                            ])
                        });
                        env
                    })
                }
            };
            // Record the group's members for `resubmit` before the settle, so
            // a resubmit racing the fulfilment never misses a group whose
            // result it just observed.
            if result.is_ok() {
                let names = members.iter().map(|m| m.name.clone()).collect();
                inner.env_groups.lock().insert(job.name.clone(), names);
            }
            inner.settle(&control, &job, result);
        });
        let parked = PendingJob::new(task, Some(Arc::downgrade(&control)));
        {
            // Attach the parked job to the control so a cancel can revoke it; a
            // cancel (or timeout) that already won revokes it right here instead.
            let mut state = control.state.lock();
            if state.stage.is_terminal() {
                parked.revoke();
            } else {
                state.parked = Some(Arc::clone(&parked));
            }
        }
        for member in members {
            member.ticket.subscribe(&parked);
        }
        // Drop the creation guard; if every member was already frozen this
        // enqueues the task right here — through the same registration
        // discipline as release(), so the queued stage stays revocable.
        if let Some(task) = parked.dep_ready() {
            self.inner.spawn_controlled(task, &control);
        }
    }

    /// Jobs submitted since the last [`Service::drain`] whose results are not
    /// yet available.
    pub fn pending(&self) -> usize {
        self.submissions.lock().iter().filter(|j| !j.is_ready()).count()
    }

    /// Queued-but-unstarted jobs right now — the quantity
    /// [`ServiceOptions::max_pending`] bounds.
    pub fn pending_jobs(&self) -> usize {
        self.inner.admission.pending()
    }

    /// Drops finished jobs from the submission log without waiting, returning
    /// how many were dropped. For callers that track responses themselves (the
    /// `soteria-serve` loop): without this, a long-lived service would pin every
    /// job's frozen result in the log forever, defeating the cache's LRU bound.
    /// Jobs forgotten here are simply absent from a later [`Service::drain`].
    pub fn forget_finished(&self) -> usize {
        let mut log = self.submissions.lock();
        let before = log.len();
        log.retain(|job| !job.is_ready());
        before - log.len()
    }

    /// Takes the submission log and waits for every job, returning outcomes in
    /// submission order. Purely observational: admission stays open and the
    /// service keeps serving (for shutdown, see [`Service::drain`]).
    pub fn collect(&self) -> Vec<JobOutcome> {
        let handles: Vec<JobHandle> =
            std::mem::take(self.submissions.lock().as_mut());
        handles.iter().map(JobHandle::outcome).collect()
    }

    /// Gracefully shuts the service down: closes admission for good (subsequent
    /// submissions — including submitters blocked on a full queue, who are
    /// woken — fail with [`ServiceError::Draining`]), lets in-flight work
    /// finish, and settles every outstanding ticket exactly once. With a
    /// `deadline`, whatever is still unsettled when it expires is force-settled
    /// as [`JobError::TimedOut`] (queued stages revoked, running stages aborted
    /// at their next poll point); without one, the drain waits indefinitely.
    ///
    /// Returns the settled submission log in submission order plus a tally.
    /// Idempotent: a second drain finds nothing outstanding and returns the
    /// (now empty) log immediately.
    pub fn drain(&self, deadline: Option<Duration>) -> DrainReport {
        let _span = soteria_obs::span("service.drain");
        let started = Instant::now();
        let cutoff = deadline.map(|d| started + d);
        self.inner.draining.store(true, Ordering::Relaxed);
        self.inner.admission.close();
        // Settle the watch list until it is empty. Re-snapshotting catches a
        // submission that raced past the draining check while we closed
        // admission; nothing new can be watched after that window.
        loop {
            self.inner.prune_watched();
            let snapshot: Vec<Watched> = self.inner.watched.lock().clone();
            if snapshot.is_empty() {
                break;
            }
            for watched in &snapshot {
                let settled = match &watched.job {
                    JobHandle::App(job) => job.wait_until(cutoff),
                    JobHandle::Environment(job) => job.wait_until(cutoff),
                };
                if !settled {
                    self.inner.timeout_watched(watched, "drain", "drain deadline exceeded");
                }
            }
        }
        // Every ticket is settled now, so collecting the log never blocks.
        let outcomes = self.collect();
        let (mut completed, mut failed, mut cancelled, mut timed_out) = (0, 0, 0, 0);
        for outcome in &outcomes {
            let error = match outcome {
                JobOutcome::App { result, .. } => result.as_ref().err(),
                JobOutcome::Environment { result, .. } => result.as_ref().err(),
            };
            match error {
                None => completed += 1,
                Some(JobError::Cancelled) => cancelled += 1,
                Some(JobError::TimedOut) => timed_out += 1,
                Some(_) => failed += 1,
            }
        }
        DrainReport {
            outcomes,
            completed,
            failed,
            cancelled,
            timed_out,
            elapsed: started.elapsed(),
        }
    }

    /// The retained fault log, oldest first: the most recent panics and
    /// timeouts, up to the retention bound (gaps in `seq` mean eviction).
    pub fn faults(&self) -> Vec<FaultRecord> {
        self.inner.fault_log.lock().iter().cloned().collect()
    }

    /// Counter snapshot (cache hit/miss/eviction, pool throughput, coalescing,
    /// backpressure, cancellation, and the fault layer).
    pub fn stats(&self) -> ServiceStats {
        // Fold any store faults not yet drained by an operation into the
        // counters first, so `faults` and the log agree with the snapshot.
        self.inner.drain_store_faults();
        ServiceStats {
            workers: self.inner.pool.workers(),
            tasks_executed: self.inner.pool.tasks_executed(),
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            coalesced: self.inner.coalesced.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            cancelled: self.inner.cancelled.load(Ordering::Relaxed),
            timed_out: self.inner.timed_out.load(Ordering::Relaxed),
            quarantined: self.inner.quarantined.load(Ordering::Relaxed),
            faults: self.inner.faults.load(Ordering::Relaxed),
            draining: self.inner.is_draining(),
            pending: self.inner.admission.pending(),
            pending_peak: self.inner.admission.peak(),
            registry_entries: self.inner.registry.lock().len(),
            app_cache: self.inner.apps.lock().stats(),
            env_cache: self.inner.envs.lock().stats(),
            store: self.inner.store.as_ref().map(PersistentStore::stats),
        }
    }

    /// The persistent store's root directory, when one is configured.
    pub fn store_dir(&self) -> Option<&std::path::Path> {
        self.inner.store.as_ref().map(PersistentStore::root)
    }

    /// Blocks until the worker pool is idle — empty queue, no worker inside a
    /// task *or its epilogue*. A settled job ticket means its result is
    /// available, not that the worker has finished closing the job's
    /// observability spans (settling happens inside the task); trace exporters
    /// must quiesce before draining the span collector or they race the last
    /// flush. See [`soteria_exec::WorkerPool::quiesce`].
    pub fn quiesce(&self) {
        self.inner.pool.quiesce();
    }
}

impl Drop for Service {
    /// Crash-only teardown: a dropped service must strand nobody. Admission is
    /// closed (waking submitters blocked on a full queue to observe
    /// [`ServiceError::Draining`]) and every watched job that has not settled —
    /// parked, queued, or running — is force-settled as [`JobError::Cancelled`],
    /// so outstanding handles on other threads wake instead of hanging on
    /// tickets whose pool is being torn down. Queued stages are revoked and
    /// running stages aborted, so the pool's own drop joins promptly.
    fn drop(&mut self) {
        if let Some(sweeper) = &mut self.sweeper {
            sweeper.stop();
        }
        self.inner.draining.store(true, Ordering::Relaxed);
        self.inner.admission.close();
        let snapshot: Vec<Watched> =
            std::mem::take(self.inner.watched.lock().as_mut());
        for watched in &snapshot {
            match &watched.job {
                JobHandle::App(job) => job.cancel(),
                JobHandle::Environment(job) => job.cancel(),
            };
        }
    }
}

#[cfg(test)]
mod poison_tests {
    use super::*;

    const APP: &str = r#"
        definition(name: "Poison-Probe")
        preferences { section("d") {
            input "sw", "capability.switch"
            input "smoke", "capability.smokeDetector"
        } }
        def installed() { subscribe(smoke, "smoke.detected", h) }
        def h(evt) { sw.on() }
    "#;

    /// A panicking job must not poison the service's shared state for everyone
    /// else: deliberately poison every service mutex the way a panicking thread
    /// would, then prove the service still accepts, runs, caches, and reports.
    #[test]
    fn a_poisoned_service_stays_usable() {
        let service = Service::new(
            Soteria::with_config(soteria_analysis::AnalysisConfig {
                threads: 1,
                ..soteria_analysis::AnalysisConfig::paper()
            }),
            ServiceOptions { workers: 1, ..ServiceOptions::default() },
        );
        let inner = Arc::clone(&service.inner);
        let poison = |poison_one: Box<dyn FnOnce() + Send>| {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                poison_one();
            }));
            assert!(caught.is_err(), "poisoning closure must panic");
        };
        let registry = Arc::clone(&inner);
        poison(Box::new(move || {
            let _guard = registry.registry.lock();
            panic!("poison registry");
        }));
        let apps = Arc::clone(&inner);
        poison(Box::new(move || {
            let _guard = apps.apps.lock();
            panic!("poison app cache");
        }));
        let in_flight = Arc::clone(&inner);
        poison(Box::new(move || {
            let _guard = in_flight.envs_in_flight.lock();
            panic!("poison env in-flight map");
        }));
        assert!(inner.registry.is_poisoned());
        assert!(inner.apps.is_poisoned());

        // The service recovers the guards and keeps serving.
        let job = service.submit_app("probe", APP).expect("admitted");
        let analysis = job.wait().expect("parses");
        assert!(analysis.violations.is_empty() || !analysis.violations.is_empty());
        let warm = service.submit_app("probe", APP).expect("admitted");
        assert_eq!(warm.disposition(), CacheDisposition::Hit);
        let env = service.submit_environment_by_names("G", &["probe"]).expect("member known");
        assert!(env.wait().is_ok());
        assert!(service.stats().submitted >= 3);
    }
}

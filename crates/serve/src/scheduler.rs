//! The multi-tenant scheduler: per-tenant FIFO queues drained round-robin
//! by a worker pool, with **preemption through the checkpoint layer** —
//! every job runs in fixed-size budget slices, and a job whose slice
//! exhausts is suspended to an LBCK blob in the spool and re-queued behind
//! its tenant's other work. One adversarial AGM-worst-case query can hold
//! a worker for at most one slice.
//!
//! Admission control is typed and immediate: a tenant over its quota, a
//! full server, or a draining server each get a distinct [`Reject`] with a
//! client-visible retry-after hint — load is shed, connections never hang
//! waiting for queue space.
//!
//! Every state transition that must survive `kill -9` goes through the
//! [`Spool`] before it is acknowledged: each is one frame appended to the
//! job's log — the record before `OK`, progress before re-queueing, the
//! verdict before a job is reported `done`.

#![expect(
    clippy::disallowed_methods,
    reason = "retry-backoff parking (`not_before`) is wall-clock by definition; slice accounting stays tick-based"
)]

use crate::job::{Instance, JobRecord, JobStatus, Submission, Verdict};
use crate::protocol::{Reject, StatusReport};
use crate::runner::{self, SliceError, SliceOutcome};
use crate::spool::{Progress, Spool};
use crate::sync::{cond_wait, cond_wait_timeout, lock_recover};
use lb_engine::fault::{with_io_plan, IoFaultPlan};
use lb_engine::{exhaustion_diagnostic, Budget, Checkpoint};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Scheduler tuning knobs.
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Ticks per slice — the preemption quantum.
    pub slice_ticks: u64,
    /// Worker threads.
    pub workers: usize,
    /// Max unsettled jobs a single tenant may hold queued/running.
    pub tenant_quota: usize,
    /// Max unsettled jobs server-wide (admission cap).
    pub max_active: usize,
    /// Base client backoff hint for quota/overload rejections, ms.
    pub retry_after_ms: u64,
    /// Failed attempts before a job is quarantined (min 1).
    pub max_attempts: u64,
    /// Base server-side backoff between a job's failed attempt and its
    /// next slice, ms; doubles per attempt, capped at 5 s.
    pub retry_backoff_ms: u64,
    /// Chaos knob: seed for deterministic [`IoFaultPlan`]s injected into
    /// every fourth slice's settle path. `None` (the default) injects
    /// nothing — production runs never fault themselves.
    pub io_fault_seed: Option<u64>,
}

impl Default for SchedulerConfig {
    fn default() -> SchedulerConfig {
        SchedulerConfig {
            slice_ticks: 65_536,
            workers: 2,
            tenant_quota: 16,
            max_active: 256,
            retry_after_ms: 100,
            max_attempts: 3,
            retry_backoff_ms: 50,
            io_fault_seed: None,
        }
    }
}

/// A job in the scheduler's map.
enum Job {
    /// Still owes work.
    Live(Live),
    /// Settled or dead-lettered, its last state durable: only the `STATUS`
    /// answer is kept. The record and its payload are gone, so memory grows
    /// with the jobs that owe work, not with the history, and nothing can
    /// re-encode a settled job from memory.
    Settled(StatusReport),
}

impl Job {
    /// What a settled or quarantined record leaves in memory.
    fn settled(rec: JobRecord) -> Job {
        let (state, verdict, evidence) = match rec.status {
            JobStatus::Done(v) => ("done", Some(v), None),
            JobStatus::Quarantined { reason } => ("quarantined", None, Some(reason)),
            JobStatus::Queued => ("queued", None, None),
        };
        Job::Settled(StatusReport {
            job_id: rec.id,
            state: state.to_string(),
            preemptions: rec.preemptions,
            spent: rec.spent,
            attempts: rec.attempts,
            verdict,
            evidence,
        })
    }
}

/// A job that owes work: its record, which every later record frame
/// re-encodes with the payload, and its run state.
struct Live {
    rec: JobRecord,
    instance: Arc<Instance>,
    running: bool,
    resume: Option<Checkpoint>,
    /// Earliest moment the job may take its next slice (retry backoff).
    not_before: Option<Instant>,
    /// One line per failed attempt — flushed to the quarantine evidence
    /// file if the job dead-letters.
    evidence: Vec<String>,
    /// Consecutive suspended slices with zero tick progress (the budget
    /// livelock detector).
    stalled: u64,
}

#[derive(Default)]
struct Counters {
    slices: u64,
    preemptions: u64,
    rejected: u64,
    done: u64,
    ticks: u64,
    retries: u64,
    quarantined: u64,
}

struct State {
    jobs: BTreeMap<String, Job>,
    queues: BTreeMap<String, VecDeque<String>>,
    ring: VecDeque<String>,
    active: usize,
    per_tenant: BTreeMap<String, usize>,
    draining: bool,
    next_job_number: u64,
    counters: Counters,
}

impl State {
    fn live_mut(&mut self, id: &str) -> Option<&mut Live> {
        match self.jobs.get_mut(id)? {
            Job::Live(live) => Some(live),
            Job::Settled(_) => None,
        }
    }

    /// Frees a settling job's admission and tenant-quota slots.
    fn release(&mut self, tenant: &str) {
        self.active = self.active.saturating_sub(1);
        if let Some(n) = self.per_tenant.get_mut(tenant) {
            *n = n.saturating_sub(1);
        }
    }

    /// Takes a live job out of the map to settle it; a settled one stays.
    fn take_live(&mut self, id: &str) -> Option<Live> {
        match self.jobs.remove(id)? {
            Job::Live(live) => Some(live),
            settled => {
                self.jobs.insert(id.to_string(), settled);
                None
            }
        }
    }
}

/// The scheduler: shared by the accept loop (submissions, status) and the
/// worker pool (slices).
pub struct Scheduler {
    spool: Spool,
    cfg: SchedulerConfig,
    state: Mutex<State>,
    wake: Condvar,
    /// Slices handed out so far — the deterministic index the chaos
    /// io-fault schedule keys on.
    slices_started: AtomicU64,
}

/// Acquires the scheduler state lock. All poison recovery lives in
/// [`crate::sync`]; this wrapper only pins the receiver name R14 keys on.
fn lock_state(m: &Mutex<State>) -> MutexGuard<'_, State> {
    lock_recover(m)
}

impl Scheduler {
    /// Opens the spool, replays every surviving record, and returns the
    /// scheduler with recovered jobs queued exactly where they left off.
    pub fn recover(
        spool: Spool,
        cfg: SchedulerConfig,
    ) -> Result<(Arc<Scheduler>, RecoveryReport), crate::spool::SpoolError> {
        let mut recovered = spool.recover()?;
        let mut report = RecoveryReport {
            resumed: 0,
            settled: 0,
            quarantined: recovered.quarantined.len(),
            restarted_from_scratch: 0,
            stale_tmp_removed: recovered.stale_tmp_removed,
            torn_tails: recovered.torn_tails,
            skipped: recovered
                .skipped
                .iter()
                .map(|(p, e)| format!("{}: {e}", p.display()))
                .collect(),
            dead_lettered: recovered
                .dead_lettered
                .iter()
                .map(|(id, e)| format!("{id}: {e}"))
                .collect(),
            discarded_checkpoints: Vec::new(),
        };
        let mut state = State {
            jobs: BTreeMap::new(),
            queues: BTreeMap::new(),
            ring: VecDeque::new(),
            active: 0,
            per_tenant: BTreeMap::new(),
            draining: false,
            next_job_number: recovered.next_job_number,
            counters: Counters::default(),
        };
        for (id, why) in std::mem::take(&mut recovered.dead_lettered) {
            // The record itself was corrupt: STATUS still answers,
            // quarantined, with the decode error as evidence.
            let report = StatusReport {
                job_id: id.clone(),
                state: "quarantined".to_string(),
                preemptions: 0,
                spent: 0,
                attempts: 0,
                verdict: None,
                evidence: Some(why),
            };
            state.jobs.insert(id, Job::Settled(report));
        }
        for rec in std::mem::take(&mut recovered.quarantined) {
            // Terminal: serve STATUS from the dead-letter record, never
            // re-run. Not counted active — the tenant's quota is free.
            state.jobs.insert(rec.id.clone(), Job::settled(rec));
        }
        for rec in std::mem::take(&mut recovered.records) {
            let id = rec.id.clone();
            match &rec.status {
                JobStatus::Done(_) => {
                    // Settled: serve STATUS from the record, never re-run —
                    // the no-duplicated-verdicts half of the invariant.
                    report.settled += 1;
                    state.jobs.insert(id, Job::settled(rec));
                }
                JobStatus::Quarantined { .. } => {
                    // A quarantined record still under jobs/ (legacy or a
                    // hand-edited spool): honor it as terminal.
                    report.quarantined += 1;
                    state.jobs.insert(id, Job::settled(rec));
                }
                JobStatus::Queued => {
                    let mut rec = rec;
                    let (resume, discarded) = recovered.resume_point(&mut rec);
                    let mut evidence = Vec::new();
                    if let Some(why) = discarded {
                        // Degraded-checkpoint recovery: the frontier blob
                        // failed typed decode, so the job restarts from
                        // scratch — one rung up the ladder, never lost,
                        // never wedging the queue. The discard is made
                        // durable first, so the next recovery does not
                        // discard the same frontier and climb again.
                        spool.discard_progress(&rec.id)?;
                        rec.attempts += 1;
                        evidence.push(format!(
                            "attempt {}: checkpoint discarded on recovery: {why}",
                            rec.attempts
                        ));
                        report
                            .discarded_checkpoints
                            .push(format!("{}: {why}", rec.id));
                        if rec.attempts >= cfg.max_attempts.max(1) {
                            let reason = format!(
                                "{} attempts exhausted; last: checkpoint discarded on recovery: {why}",
                                rec.attempts
                            );
                            rec.status = JobStatus::Quarantined { reason };
                            let mut text = evidence.join("\n");
                            text.push('\n');
                            spool.quarantine(&rec, &text)?;
                            report.quarantined += 1;
                            state.jobs.insert(rec.id.clone(), Job::settled(rec));
                            continue;
                        }
                        report.restarted_from_scratch += 1;
                        spool.save_record(&rec)?;
                    }
                    let instance = match rec.spec.instance() {
                        Ok(i) => Arc::new(i),
                        Err(e) => {
                            // A complete record whose payload no longer
                            // parses (format drift): settle it as a typed
                            // UNKNOWN rather than wedge the queue.
                            rec.status = JobStatus::Done(Verdict::Unknown(format!(
                                "payload no longer parses: {e}"
                            )));
                            spool.save_record(&rec)?;
                            report.settled += 1;
                            state.jobs.insert(rec.id.clone(), Job::settled(rec));
                            continue;
                        }
                    };
                    report.resumed += 1;
                    enqueue(&mut state, &id, &rec.spec.tenant);
                    state.active += 1;
                    *state.per_tenant.entry(rec.spec.tenant.clone()).or_insert(0) += 1;
                    state.jobs.insert(
                        id,
                        Job::Live(Live {
                            rec,
                            instance,
                            running: false,
                            resume,
                            not_before: None,
                            evidence,
                            stalled: 0,
                        }),
                    );
                }
            }
        }
        Ok((
            Arc::new(Scheduler {
                spool,
                cfg,
                state: Mutex::new(state),
                wake: Condvar::new(),
                slices_started: AtomicU64::new(0),
            }),
            report,
        ))
    }

    /// Spawns the worker pool. Workers exit after [`Scheduler::drain`].
    pub fn spawn_workers(self: &Arc<Self>) -> Vec<thread::JoinHandle<()>> {
        (0..self.cfg.workers.max(1))
            .map(|_| {
                let sched = Arc::clone(self);
                thread::spawn(move || sched.worker_loop())
            })
            .collect()
    }

    /// Admission control + durable enqueue of a submission whose payload
    /// the protocol layer already parsed. `OK <id>` semantics: the id is
    /// returned only after the record's frame is synced into the job's
    /// log, so an acknowledged job is never lost.
    pub fn submit(&self, submission: Submission) -> Result<String, Reject> {
        let (spec, instance) = submission.into_parts();
        let (id, rec) = {
            let mut state = lock_state(&self.state);
            if state.draining {
                state.counters.rejected += 1;
                // This instance never reopens admission, but its successor
                // will recover the spool — tell clients when to retry.
                let hint = self.backoff_hint(&state);
                return Err(Reject::Draining {
                    retry_after_ms: hint,
                });
            }
            if state.active >= self.cfg.max_active {
                state.counters.rejected += 1;
                let hint = self.backoff_hint(&state);
                return Err(Reject::Overload {
                    retry_after_ms: hint,
                });
            }
            let held = state.per_tenant.get(&spec.tenant).copied().unwrap_or(0);
            if held >= self.cfg.tenant_quota {
                state.counters.rejected += 1;
                let hint = self.backoff_hint(&state);
                return Err(Reject::Quota {
                    tenant: spec.tenant.clone(),
                    limit: self.cfg.tenant_quota,
                    retry_after_ms: hint,
                });
            }
            let n = state.next_job_number;
            state.next_job_number += 1;
            let id = format!("j{n}");
            let rec = JobRecord {
                id: id.clone(),
                spec,
                status: JobStatus::Queued,
                preemptions: 0,
                spent: 0,
                attempts: 0,
            };
            (id, rec)
        };
        // Persist outside the lock: fsync latency must not serialize the
        // whole scheduler. The id was reserved atomically above.
        if let Err(e) = self.spool.save_record(&rec) {
            // The append rolled back, so no id is acknowledged; the disk
            // may recover, so the client is told when to try again.
            let mut state = lock_state(&self.state);
            state.counters.rejected += 1;
            return Err(Reject::Spool {
                error: e.to_string(),
                retry_after_ms: self.backoff_hint(&state),
            });
        }
        let tenant = rec.spec.tenant.clone();
        let mut state = lock_state(&self.state);
        state.active += 1;
        *state.per_tenant.entry(tenant.clone()).or_insert(0) += 1;
        enqueue(&mut state, &id, &tenant);
        state.jobs.insert(
            id.clone(),
            Job::Live(Live {
                rec,
                instance: Arc::new(instance),
                running: false,
                resume: None,
                not_before: None,
                evidence: Vec::new(),
                stalled: 0,
            }),
        );
        drop(state);
        self.wake.notify_one();
        Ok(id)
    }

    /// Scales the retry hint with load: the deeper the backlog per worker,
    /// the longer clients are told to back off.
    fn backoff_hint(&self, state: &State) -> u64 {
        let per_worker = state.active as u64 / self.cfg.workers.max(1) as u64;
        self.cfg.retry_after_ms.saturating_mul(1 + per_worker / 4)
    }

    /// One job's state, or `None` for an id this spool never issued.
    pub fn status(&self, id: &str) -> Option<StatusReport> {
        let state = lock_state(&self.state);
        match state.jobs.get(id)? {
            Job::Settled(report) => Some(report.clone()),
            Job::Live(live) => Some(StatusReport {
                job_id: id.to_string(),
                state: if live.running { "running" } else { "queued" }.to_string(),
                preemptions: live.rec.preemptions,
                spent: live.rec.spent,
                attempts: live.rec.attempts,
                verdict: None,
                evidence: None,
            }),
        }
    }

    /// The one-line `STATS` response. `held_bytes` is the payload text
    /// held by the jobs that still owe work.
    pub fn stats_line(&self) -> String {
        let state = lock_state(&self.state);
        let (mut running, mut quarantined, mut held_bytes) = (0usize, 0usize, 0usize);
        for job in state.jobs.values() {
            match job {
                Job::Live(live) => {
                    running += usize::from(live.running);
                    held_bytes += live.rec.spec.payload.len();
                }
                Job::Settled(report) => quarantined += usize::from(report.state == "quarantined"),
            }
        }
        let queued = state.active - running;
        format!(
            "STATS jobs={} queued={} running={} done={} quarantined={} tenants={} slices={} preemptions={} retries={} rejected={} ticks={} held_bytes={}",
            state.jobs.len(),
            queued,
            running,
            state.counters.done,
            quarantined,
            state.per_tenant.values().filter(|&&n| n > 0).count(),
            state.counters.slices,
            state.counters.preemptions,
            state.counters.retries,
            state.counters.rejected,
            state.counters.ticks,
            held_bytes,
        )
    }

    /// Begins graceful drain: admission closes immediately, workers stop
    /// picking up slices, and every unsettled job stays spooled for the
    /// next start. Idempotent.
    pub fn drain(&self) {
        let mut state = lock_state(&self.state);
        state.draining = true;
        drop(state);
        self.wake.notify_all();
    }

    /// True once drain was requested.
    pub fn draining(&self) -> bool {
        lock_state(&self.state).draining
    }

    fn worker_loop(&self) {
        loop {
            let (id, instance, resume, slice) = {
                let mut state = lock_state(&self.state);
                loop {
                    if state.draining {
                        return;
                    }
                    let now = Instant::now();
                    let (pick, wake_at) = pick_next(&mut state, now);
                    if let Some(id) = pick {
                        let Some(live) = state.live_mut(&id) else {
                            continue;
                        };
                        live.running = true;
                        live.not_before = None;
                        let instance = Arc::clone(&live.instance);
                        let resume = live.resume.take();
                        break (id, instance, resume, self.cfg.slice_ticks.max(1));
                    }
                    // Park until new work arrives — or until the earliest
                    // backing-off job becomes runnable again.
                    state = match wake_at {
                        Some(at) => {
                            let wait = at.saturating_duration_since(now);
                            cond_wait_timeout(&self.wake, state, wait)
                        }
                        None => cond_wait(&self.wake, state),
                    };
                }
            };
            let slice_no = self.slices_started.fetch_add(1, Ordering::SeqCst) + 1;
            let result = runner::solve_slice(&instance, &Budget::ticks(slice), resume.as_ref());
            match self.cfg.io_fault_seed {
                // Chaos mode: every fourth settle runs under a seeded
                // I/O fault schedule, so spool writes fail on a
                // deterministic (per slice index) plan.
                Some(seed) if slice_no.is_multiple_of(4) => {
                    let plan = IoFaultPlan::from_seed(seed ^ slice_no);
                    with_io_plan(&plan, || self.settle_slice(&id, result));
                }
                _ => self.settle_slice(&id, result),
            }
        }
    }

    /// Exponential per-attempt backoff: base doubles each rung, capped.
    fn backoff_after(&self, attempts: u64) -> Duration {
        let base = self.cfg.retry_backoff_ms.max(1);
        let exp = attempts.saturating_sub(1).min(16) as u32;
        Duration::from_millis(base.saturating_mul(1u64 << exp).min(5_000))
    }

    /// One rung up the retry ladder: bump the attempt counter, log the
    /// evidence line, and either re-queue with exponential backoff or —
    /// once `max_attempts` is reached — dead-letter the job. Set
    /// `discard_resume` when the in-memory frontier itself is suspect
    /// (corrupt checkpoint): the retry then restarts from scratch.
    fn fail_attempt(&self, state: &mut State, id: &str, why: &str, discard_resume: bool) {
        let (attempts, tenant) = {
            let Some(entry) = state.live_mut(id) else {
                return;
            };
            entry.rec.attempts += 1;
            entry
                .evidence
                .push(format!("attempt {}: {why}", entry.rec.attempts));
            if discard_resume {
                entry.resume = None;
            }
            (entry.rec.attempts, entry.rec.spec.tenant.clone())
        };
        if discard_resume {
            if let Err(e) = self.spool.discard_progress(id) {
                eprintln!("warning: {id}: could not discard checkpoint: {e}");
            }
        }
        if attempts >= self.cfg.max_attempts.max(1) {
            self.quarantine_job(
                state,
                id,
                &format!("{attempts} attempts exhausted; last: {why}"),
            );
            return;
        }
        state.counters.retries += 1;
        let delay = self.backoff_after(attempts);
        if let Some(entry) = state.live_mut(id) {
            // Persist the bumped counter so a crash cannot reset the
            // ladder; a failed write here only delays quarantine by one
            // restart — sound either way.
            if let Err(e) = self.spool.save_record(&entry.rec) {
                eprintln!("warning: {id}: could not persist attempt count: {e}");
            }
            entry.not_before = Some(Instant::now() + delay);
        }
        enqueue(state, id, &tenant);
        // notify_all: parked workers must recompute their wait deadline.
        self.wake.notify_all();
    }

    /// Terminal dead-lettering: the record flips to `Quarantined`, moves
    /// (with its accumulated evidence) into the spool's quarantine area,
    /// and the tenant's quota slot frees up. The job is never re-run, and
    /// only its `STATUS` answer stays in memory.
    fn quarantine_job(&self, state: &mut State, id: &str, reason: &str) {
        let Some(mut live) = state.take_live(id) else {
            return;
        };
        live.rec.status = JobStatus::Quarantined {
            reason: reason.to_string(),
        };
        let mut evidence = live.evidence.join("\n");
        evidence.push('\n');
        if let Err(e) = self.spool.quarantine(&live.rec, &evidence) {
            // Disk may still say `queued`: after a crash the job re-runs
            // and climbs the ladder again — sound, merely slower.
            eprintln!("warning: {id}: could not dead-letter: {e}");
        }
        state.release(&live.rec.spec.tenant);
        state.counters.quarantined += 1;
        state.jobs.insert(id.to_string(), Job::settled(live.rec));
    }

    /// Applies one finished slice's outcome. A suspension is persisted
    /// with one [`Spool::save_progress`] append made outside the state
    /// lock: the worker still owns the job there (`running` is set and the
    /// job is in no queue), so nothing else reads or writes its frontier
    /// or counters until the job is re-queued.
    fn settle_slice(&self, id: &str, result: SliceResult) {
        let Some((progress, checkpoint)) = self.settle(id, Settle::Slice(result)) else {
            return;
        };
        let saved = self.spool.save_progress(id, progress, &checkpoint);
        self.settle(id, Settle::Spooled { checkpoint, saved });
    }

    /// The locked half of [`Scheduler::settle_slice`]. A suspension that
    /// keeps running comes back as the counters and frontier to spool;
    /// everything else settles here.
    fn settle(&self, id: &str, step: Settle) -> Option<(Progress, Checkpoint)> {
        // lb-lint: allow(lock-discipline) -- the writes still made under
        // the lock are the state changes that must be durable before any
        // other thread sees them: the verdict's one-frame append (so a
        // `STATUS` after `done` never races its fdatasync, see `finish`),
        // a ladder rung's append, and quarantine. A suspension's progress
        // append, the per-slice one, happens in `settle_slice` with the
        // lock free.
        let mut state = lock_state(&self.state);
        let result = match step {
            Settle::Slice(result) => result,
            Settle::Spooled { checkpoint, saved } => {
                let tenant = {
                    let entry = state.live_mut(id)?;
                    entry.running = false;
                    entry.resume = Some(checkpoint);
                    entry.rec.spec.tenant.clone()
                };
                // A failed write is a ladder rung: the job keeps its
                // in-memory frontier, but repeated spool faults quarantine
                // it instead of silently degrading forever.
                if let Err(e) = saved {
                    let why = format!("could not spool progress: {e}");
                    self.fail_attempt(&mut state, id, &why, false);
                    return None;
                }
                enqueue(&mut state, id, &tenant);
                drop(state);
                self.wake.notify_one();
                return None;
            }
        };
        state.counters.slices += 1;
        state.live_mut(id)?.running = false;
        match result {
            Ok((SliceOutcome::Done(v), stats)) => {
                let ticks = stats.total_ops();
                state.live_mut(id)?.rec.spent += ticks;
                state.counters.ticks += ticks;
                self.finish(&mut state, id, v);
            }
            Ok((SliceOutcome::Suspended { reason, checkpoint }, stats)) => {
                let ticks = stats.total_ops();
                state.counters.ticks += ticks;
                let (over_budget, stalled) = {
                    let entry = state.live_mut(id)?;
                    entry.rec.spent += ticks;
                    if ticks == 0 {
                        entry.stalled += 1;
                    } else {
                        entry.stalled = 0;
                    }
                    (
                        entry.rec.spec.budget.is_some_and(|t| entry.rec.spent >= t),
                        entry.stalled,
                    )
                };
                if over_budget {
                    // Terminal exhaustion: the job's own budget is gone.
                    // Same shared diagnostic lbtool prints on exit 3.
                    let why = exhaustion_diagnostic(&reason.to_string(), None);
                    self.finish(&mut state, id, Verdict::Unknown(why));
                    return None;
                }
                if stalled >= self.cfg.max_attempts.max(1) {
                    // Budget livelock: slices keep suspending without a
                    // single tick of progress. Keep the frontier (it is
                    // not corrupt, just stuck) and climb the ladder.
                    if let Some(entry) = state.live_mut(id) {
                        entry.stalled = 0;
                        entry.resume = Some(checkpoint);
                    }
                    self.fail_attempt(
                        &mut state,
                        id,
                        &format!("budget livelock: {stalled} consecutive zero-progress slices"),
                        false,
                    );
                    return None;
                }
                state.counters.preemptions += 1;
                // The worker keeps the job through the progress write.
                let entry = state.live_mut(id)?;
                entry.running = true;
                entry.rec.preemptions += 1;
                let progress = Progress {
                    preemptions: entry.rec.preemptions,
                    spent: entry.rec.spent,
                };
                return Some((progress, checkpoint));
            }
            Err(SliceError::Checkpoint(e)) => {
                // The frontier blob failed to decode or re-encode: discard
                // it and retry from scratch — repeated corruption
                // quarantines the job with the typed error as evidence.
                self.fail_attempt(&mut state, id, &format!("checkpoint: {e}"), true);
            }
            Err(SliceError::Instance(e)) => {
                // The solver rejected the instance itself (e.g. a join
                // query naming a relation the database does not hold):
                // deterministic, so retrying cannot help. Settle as a
                // typed UNKNOWN — reported, never swallowed.
                self.finish(
                    &mut state,
                    id,
                    Verdict::Unknown(format!("error: instance: {e}")),
                );
            }
        }
        None
    }

    /// Settles a job: verdict into the record, the record appended to the
    /// job's log, accounting updated, and only the `STATUS` answer kept.
    ///
    /// The verdict append stays under the state lock on purpose. A
    /// `STATUS` that arrives during its `fdatasync` (about 2 ms at the
    /// median under `serve_mixed` load on a 2-vCPU VM's ext4) waits for it
    /// and answers `done`; written outside the lock, the job would answer
    /// `queued` until the poller's next round, which made short jobs
    /// slower overall.
    fn finish(&self, state: &mut State, id: &str, verdict: Verdict) {
        let Some(mut live) = state.take_live(id) else {
            return;
        };
        live.rec.status = JobStatus::Done(verdict);
        if let Err(e) = self.spool.save_record(&live.rec) {
            eprintln!("warning: {id}: could not persist verdict: {e}");
        }
        state.release(&live.rec.spec.tenant);
        state.counters.done += 1;
        state.jobs.insert(id.to_string(), Job::settled(live.rec));
    }
}

/// A finished slice as [`runner::solve_slice`] returns it.
type SliceResult = Result<(SliceOutcome, lb_engine::RunStats), SliceError>;

/// The two locked steps of [`Scheduler::settle_slice`].
enum Settle {
    /// Apply a finished slice.
    Slice(SliceResult),
    /// Store the frontier whose progress write just returned `saved`,
    /// then re-queue the job (or climb the ladder if the write failed).
    Spooled {
        checkpoint: Checkpoint,
        saved: Result<(), crate::spool::SpoolError>,
    },
}

/// What [`Scheduler::recover`] found and did.
#[derive(Debug)]
pub struct RecoveryReport {
    /// Jobs re-queued (resuming from a spooled frontier where one decoded).
    pub resumed: usize,
    /// Jobs already settled on disk (served from the record, never re-run).
    pub settled: usize,
    /// Stale `.tmp` files swept.
    pub stale_tmp_removed: usize,
    /// Torn final frames cut off job logs, and never-acknowledged logs
    /// removed (see [`crate::spool::Recovered::torn_tails`]).
    pub torn_tails: usize,
    /// Undecodable record files, with their typed errors.
    pub skipped: Vec<String>,
    /// Checkpoints discarded as undecodable (job restarts from scratch).
    pub discarded_checkpoints: Vec<String>,
    /// Jobs already quarantined on disk, plus jobs quarantined *during*
    /// this recovery because the discarded checkpoint exhausted their
    /// attempt ladder.
    pub quarantined: usize,
    /// Jobs whose checkpoint was discarded but whose ladder still had
    /// rungs left: re-queued from scratch with `attempts` bumped.
    pub restarted_from_scratch: usize,
    /// Undecodable record files moved to the quarantine dead-letter area,
    /// as `"<id>: <evidence>"` lines.
    pub dead_lettered: Vec<String>,
}

/// Appends a job to its tenant's queue, registering the tenant in the
/// round-robin ring if it just became runnable.
fn enqueue(state: &mut State, id: &str, tenant: &str) {
    let queue = state.queues.entry(tenant.to_string()).or_default();
    if queue.is_empty() && !state.ring.iter().any(|t| t == tenant) {
        state.ring.push_back(tenant.to_string());
    }
    queue.push_back(id.to_string());
}

/// Round-robin across tenants: take the front tenant's front job, then
/// rotate the tenant to the back (or drop it from the ring when its queue
/// emptied). Each tenant gets one slice per ring pass no matter how deep
/// any single tenant's backlog is.
///
/// Jobs parked behind a retry backoff (`not_before` in the future) are
/// skipped in place: the second return value is the earliest instant any
/// skipped job becomes runnable, so a worker with nothing to do knows how
/// long to sleep instead of spinning.
fn pick_next(state: &mut State, now: Instant) -> (Option<String>, Option<Instant>) {
    let mut wake_at: Option<Instant> = None;
    let State {
        ring, queues, jobs, ..
    } = state;
    for _ in 0..ring.len() {
        let Some(tenant) = ring.pop_front() else {
            break;
        };
        let Some(queue) = queues.get_mut(&tenant) else {
            continue;
        };
        let id = queue.pop_front();
        let Some(id) = id else {
            if !queue.is_empty() {
                ring.push_back(tenant);
            }
            continue;
        };
        let parked_until = match jobs.get(&id) {
            Some(Job::Live(live)) => live.not_before,
            _ => None,
        }
        .filter(|&t| t > now);
        if let Some(until) = parked_until {
            // Still cooling off: put the job back where it was and give
            // the rest of the ring a chance this pass.
            queue.push_front(id);
            ring.push_back(tenant);
            wake_at = Some(match wake_at {
                Some(t) => t.min(until),
                None => until,
            });
            continue;
        }
        if !queue.is_empty() {
            ring.push_back(tenant);
        }
        return (Some(id), wake_at);
    }
    (None, wake_at)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobFamily, JobSpec};
    use crate::spool::{decode_progress, PROGRESS_FRAME, RECORD_FRAME};
    use lb_engine::checkpoint::read_frames;
    use std::fs;
    use std::path::PathBuf;

    fn scratch(test: &str) -> (PathBuf, Spool) {
        let dir = std::env::temp_dir().join(format!("lbserve-sched-{test}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let spool = Spool::open(&dir).unwrap();
        (dir, spool)
    }

    fn spec(tenant: &str) -> JobSpec {
        JobSpec {
            tenant: tenant.into(),
            family: JobFamily::Triangle,
            k: 0,
            budget: None,
            payload: "3\n0 1\n1 2\n0 2\n".into(),
        }
    }

    /// Submits `spec(tenant)` the way the protocol layer does: parsed once.
    fn submit(sched: &Scheduler, tenant: &str) -> String {
        sched
            .submit(Submission::parse(spec(tenant)).unwrap())
            .unwrap()
    }

    /// Submits a triangle count on K6: many suspensions at two-tick slices.
    fn submit_long(sched: &Scheduler, tenant: &str) -> String {
        let mut payload = String::from("6\n");
        for u in 0..6 {
            for v in u + 1..6 {
                payload.push_str(&format!("{u} {v}\n"));
            }
        }
        let spec = JobSpec {
            payload,
            ..spec(tenant)
        };
        sched.submit(Submission::parse(spec).unwrap()).unwrap()
    }

    /// The `(kind, payload)` of every complete frame in a job's log.
    fn frames(spool: &Spool, id: &str) -> Vec<(u8, Vec<u8>)> {
        let bytes = fs::read(spool.job_path(id)).unwrap();
        let log = read_frames(&bytes).unwrap();
        assert_eq!(log.complete_len, bytes.len(), "no torn tail in process");
        log.frames
            .iter()
            .map(|f| (f.kind, f.payload.to_vec()))
            .collect()
    }

    /// The last record frame of a job's log.
    fn last_record(spool: &Spool, id: &str) -> JobRecord {
        let frames = frames(spool, id);
        let (_, text) = frames
            .iter()
            .rev()
            .find(|(k, _)| *k == RECORD_FRAME)
            .unwrap();
        JobRecord::decode(std::str::from_utf8(text).unwrap()).unwrap()
    }

    /// Runs one slice of `ticks` the way a worker does: take the job and
    /// its frontier under the lock, solve outside it, settle.
    fn run_slice(sched: &Scheduler, id: &str, ticks: u64) {
        let (instance, resume) = {
            let mut state = lock_state(&sched.state);
            let entry = state.live_mut(id).unwrap();
            entry.running = true;
            (Arc::clone(&entry.instance), entry.resume.take())
        };
        let result = runner::solve_slice(&instance, &Budget::ticks(ticks), resume.as_ref());
        sched.settle_slice(id, result);
    }

    fn cfg(max_attempts: u64) -> SchedulerConfig {
        SchedulerConfig {
            max_attempts,
            retry_backoff_ms: 10,
            ..SchedulerConfig::default()
        }
    }

    #[test]
    fn fail_attempt_backs_off_then_quarantines_with_evidence() {
        let (dir, spool) = scratch("ladder");
        let (sched, _) = Scheduler::recover(spool.clone(), cfg(2)).unwrap();
        let id = submit(&sched, "acme");

        // First strike: re-queued behind a backoff, counter persisted.
        {
            let mut state = lock_state(&sched.state);
            sched.fail_attempt(&mut state, &id, "checkpoint: bad magic", true);
        }
        let status = sched.status(&id).unwrap();
        assert_eq!((status.state.as_str(), status.attempts), ("queued", 1));
        let on_disk = last_record(&spool, &id);
        assert_eq!(on_disk.attempts, 1, "ladder rung must survive a crash");
        // The discarded frontier is an empty progress frame before the rung.
        let kinds: Vec<(u8, bool)> = frames(&spool, &id)
            .iter()
            .map(|(k, p)| (*k, p.is_empty()))
            .collect();
        assert_eq!(
            kinds,
            [
                (RECORD_FRAME, false),
                (PROGRESS_FRAME, true),
                (RECORD_FRAME, false)
            ]
        );
        {
            let mut state = lock_state(&sched.state);
            assert!(
                state.live_mut(&id).unwrap().not_before.is_some(),
                "a failed attempt must park the job behind a backoff"
            );
            assert_eq!(state.counters.retries, 1);
        }

        // Second strike exhausts max_attempts=2: terminal quarantine.
        {
            let mut state = lock_state(&sched.state);
            sched.fail_attempt(&mut state, &id, "checkpoint: bad magic", true);
        }
        let status = sched.status(&id).unwrap();
        assert_eq!(status.state, "quarantined");
        assert!(status.evidence.unwrap().contains("2 attempts exhausted"));
        // Durable dead-letter: record moved, both attempt lines in the
        // evidence file, tenant quota slot freed.
        assert!(!spool.job_path(&id).exists());
        let evidence = spool.load_evidence(&id).unwrap();
        assert!(evidence.contains("attempt 1:") && evidence.contains("attempt 2:"));
        {
            let state = lock_state(&sched.state);
            assert_eq!(state.active, 0, "quarantine frees the admission slot");
            assert_eq!(state.per_tenant["acme"], 0);
            assert_eq!(state.counters.quarantined, 1);
        }
        assert!(sched.stats_line().contains("quarantined=1"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_doubles_per_attempt_and_caps() {
        let (dir, spool) = scratch("backoff");
        let (sched, _) = Scheduler::recover(spool, cfg(10)).unwrap();
        assert_eq!(sched.backoff_after(1), Duration::from_millis(10));
        assert_eq!(sched.backoff_after(2), Duration::from_millis(20));
        assert_eq!(sched.backoff_after(4), Duration::from_millis(80));
        assert_eq!(sched.backoff_after(60), Duration::from_millis(5_000));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn pick_next_skips_parked_jobs_and_reports_the_wake_time() {
        let (dir, spool) = scratch("park");
        let (sched, _) = Scheduler::recover(spool, cfg(3)).unwrap();
        let parked = submit(&sched, "slow");
        let runnable = submit(&sched, "fast");
        let now = Instant::now();
        let until = now + Duration::from_millis(500);
        let mut state = lock_state(&sched.state);
        state.live_mut(&parked).unwrap().not_before = Some(until);

        // The parked tenant is skipped in place; the runnable one is
        // handed out, and the wake hint points at the parked job.
        let (pick, wake) = pick_next(&mut state, now);
        assert_eq!(pick.as_deref(), Some(runnable.as_str()));
        let (pick2, wake2) = pick_next(&mut state, now);
        assert_eq!(pick2, None, "only the parked job remains");
        assert_eq!(wake.or(wake2), Some(until));

        // Once the backoff expires the job is runnable again.
        let (pick3, _) = pick_next(&mut state, until + Duration::from_millis(1));
        assert_eq!(pick3.as_deref(), Some(parked.as_str()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_suspension_makes_one_write_and_leaves_the_record_alone() {
        let (dir, spool) = scratch("onewrite");
        let (sched, _) = Scheduler::recover(spool.clone(), cfg(3)).unwrap();
        let id = submit_long(&sched, "acme");
        let mut before = fs::read(spool.job_path(&id)).unwrap();
        // One one-tick slice, run and settled the way a worker does it;
        // each must append exactly one progress frame behind the bytes
        // already on disk.
        let suspend = |before: &mut Vec<u8>| {
            let frames_before = frames(&spool, &id).len();
            run_slice(&sched, &id, 1);
            let after = fs::read(spool.job_path(&id)).unwrap();
            assert!(after.starts_with(before), "earlier bytes must not change");
            let frames = frames(&spool, &id);
            assert_eq!(frames.len(), frames_before + 1, "one frame per suspension");
            assert_eq!(frames.last().unwrap().0, PROGRESS_FRAME);
            *before = after;
        };
        // A second write inside the settle would fail here.
        let plan = IoFaultPlan::new().with_point(lb_engine::fault::IoFaultKind::TmpWrite, 2);
        with_io_plan(&plan, || suspend(&mut before));
        let status = sched.status(&id).unwrap();
        assert_eq!(status.state, "queued");
        assert_eq!((status.attempts, status.preemptions), (0, 1));

        suspend(&mut before);
        suspend(&mut before);
        let status = sched.status(&id).unwrap();
        let frames = frames(&spool, &id);
        assert_eq!(frames.len(), 4, "admission + three suspensions");
        let (_, progress) = decode_progress(&frames[3].1).unwrap();
        assert_eq!(
            progress,
            Some(Progress {
                preemptions: 3,
                spent: status.spent
            })
        );
        assert!(status.spent > 0);
        assert_eq!(last_record(&spool, &id).spent, 0, "the record lags");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_settled_job_is_one_log_of_two_plus_suspensions_frames() {
        let (dir, spool) = scratch("onelog");
        let (sched, _) = Scheduler::recover(spool.clone(), cfg(3)).unwrap();
        let short = submit(&sched, "acme");
        let long = submit_long(&sched, "bolt");
        run_slice(&sched, &short, 1 << 20);
        let mut slices = 0;
        while sched.status(&long).unwrap().state != "done" {
            run_slice(&sched, &long, 2);
            slices += 1;
            assert!(slices < 1_000, "the long job must settle");
        }
        let mut jobs: Vec<String> = fs::read_dir(dir.join("jobs"))
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        jobs.sort();
        assert_eq!(jobs, [format!("{short}.job"), format!("{long}.job")]);
        assert_eq!(fs::read_dir(dir.join("ckpt")).unwrap().count(), 0);
        for id in [&short, &long] {
            let status = sched.status(id).unwrap();
            assert_eq!(status.state, "done");
            let frames = frames(&spool, id);
            assert_eq!(frames.len() as u64, 2 + status.preemptions, "{id}");
            let record = last_record(&spool, id);
            assert!(matches!(record.status, JobStatus::Done(_)), "{id}");
            assert_eq!(record.spent, status.spent, "{id}");
        }
        assert!(sched.status(&long).unwrap().preemptions >= 3);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn budget_livelock_climbs_the_ladder_but_keeps_the_frontier() {
        let (dir, spool) = scratch("livelock");
        let (sched, _) = Scheduler::recover(spool, cfg(3)).unwrap();
        let id = submit(&sched, "acme");
        let suspend = || {
            // A suspended slice that made zero tick progress.
            let instance = {
                let mut state = lock_state(&sched.state);
                Arc::clone(&state.live_mut(&id).unwrap().instance)
            };
            let ck = runner::solve_slice(&instance, &Budget::ticks(1), None);
            let checkpoint = match ck {
                Ok((SliceOutcome::Suspended { checkpoint, .. }, _)) => checkpoint,
                other => panic!("expected a suspension, got {other:?}"),
            };
            {
                let mut state = lock_state(&sched.state);
                state.live_mut(&id).unwrap().running = true;
            }
            sched.settle_slice(
                &id,
                Ok((
                    SliceOutcome::Suspended {
                        reason: lb_engine::ExhaustReason::Ticks { limit: 1 },
                        checkpoint,
                    },
                    lb_engine::RunStats::default(),
                )),
            );
        };
        // Two zero-progress suspensions just count; the third (max_attempts
        // = 3) is the livelock strike: attempts bumps, frontier kept.
        suspend();
        suspend();
        {
            let mut state = lock_state(&sched.state);
            assert_eq!(state.live_mut(&id).unwrap().stalled, 2);
            assert_eq!(state.live_mut(&id).unwrap().rec.attempts, 0);
        }
        suspend();
        let status = sched.status(&id).unwrap();
        assert_eq!(status.attempts, 1, "livelock is one rung up the ladder");
        assert_eq!(status.state, "queued");
        {
            let mut state = lock_state(&sched.state);
            assert_eq!(
                state.live_mut(&id).unwrap().stalled,
                0,
                "counter resets per strike"
            );
            assert!(
                state.live_mut(&id).unwrap().resume.is_some(),
                "the frontier is stuck, not corrupt: it must be kept"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

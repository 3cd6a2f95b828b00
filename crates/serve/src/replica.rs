//! Replica workers: the process-level isolation unit behind the front
//! door.
//!
//! Two halves live here. [`run_replica_worker`] is the *child* side — a
//! single-threaded loop speaking [`crate::proto`] frames over
//! stdin/stdout, executing requests against a read-only packed image
//! and emitting [`Frame::Heartbeat`]s from the executor's between-layer
//! guard (so a wedged request handler stops beating and the supervisor
//! can declare it dead). [`ReplicaProc`] is the *supervisor* side — a
//! spawned [`std::process::Command`] child with piped stdio, a reader
//! thread turning its stdout into a frame channel (the channel closing
//! is the death signal), and a stderr thread republishing the child's
//! log lines through the `MIME_LOG` leveled logger under a
//! `replica=<n>` key so chaos failures are debuggable from one stream.

use crate::proto::{
    read_frame, write_frame, ErrorCode, Frame, ProtoError, RequestInput,
    MAX_SPANS_PER_CHUNK,
};
use mime_core::MimeError;
use mime_obs::flight::{self, FlightKind};
use mime_runtime::{
    derive_ladders, BoundLayer, BoundNetwork, BrownoutLadder, ComputePath,
    HardwareExecutor, LadderConfig, SparseDispatch,
};
use mime_systolic::ArrayConfig;
use mime_tensor::Tensor;
use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Supervisor-side hook invoked by the stdout reader thread for
/// observability frames (`TraceChunk`, `MetricsChunk`, `ClockReply`),
/// which are consumed at arrival time — never queued behind request
/// traffic — so clock offsets and scrape snapshots stay fresh even
/// while the replica's runner is blocked on an empty queue.
pub type SideChannel = Arc<dyn Fn(u32, Frame) + Send + Sync>;

/// Replica lifecycle states, as the supervisor sees them (logged on
/// every transition; see DESIGN.md §10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaState {
    /// Process launched, waiting for its [`Frame::Ready`].
    Spawning,
    /// Ready received; serving requests.
    Ready,
    /// In-flight request with no heartbeat inside the liveness window —
    /// presumed wedged, about to be killed.
    Suspect,
    /// Process exited (or was killed); respawn pending.
    Dead,
    /// Respawn delayed by backoff or an open per-replica breaker.
    Cooldown,
}

impl ReplicaState {
    /// Lower-case name for logs.
    pub fn name(self) -> &'static str {
        match self {
            ReplicaState::Spawning => "spawning",
            ReplicaState::Ready => "ready",
            ReplicaState::Suspect => "suspect",
            ReplicaState::Dead => "dead",
            ReplicaState::Cooldown => "cooldown",
        }
    }
}

/// Process-level fault injection inside the replica worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplicaFault {
    /// No injection.
    #[default]
    None,
    /// `std::process::abort()` — uncatchable death, as a segfault or
    /// OOM-kill would look to the supervisor.
    Abort,
    /// Stop responding *and* stop heartbeating mid-request — the wedge
    /// the liveness deadline exists to catch.
    Hang,
    /// Serve, slowly: per-layer sleeps with heartbeats still flowing,
    /// so the replica stays "alive" while requests blow deadlines.
    Slow,
}

/// Knobs for the child-side worker loop.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaWorkerConfig {
    /// This replica's index (heartbeats, Ready frame, logs).
    pub replica: u32,
    /// Injected fault mode.
    pub fault: ReplicaFault,
    /// Inject on every `fault_every`-th dispatch this replica serves
    /// (its local 1-based counter; 0 disables injection).
    pub fault_every: usize,
    /// Target heartbeat interval while a request executes.
    pub heartbeat: Duration,
    /// Deadline budget applied when a request arrives with
    /// `deadline_ms == 0`.
    pub default_deadline: Duration,
    /// Per-layer sleep under [`ReplicaFault::Slow`].
    pub slow_layer: Duration,
    /// Zero-gating on the functional array.
    pub zero_skip: bool,
    /// Compute path for the executor replica.
    pub path: ComputePath,
    /// Sparse GEMM dispatch policy.
    pub dispatch: SparseDispatch,
    /// Ship observability frames back to the supervisor: a
    /// `MetricsChunk` per request (plus one at startup) and, when span
    /// tracing is enabled, `TraceChunk`s for stitching. Off by default
    /// so raw worker streams carry only protocol traffic.
    pub obs: bool,
    /// Brownout ladder depth derived at startup (rung 0 included; see
    /// [`mime_runtime::BrownoutLadder`]). 1 disables brownout serving —
    /// every rung request falls through to the parent path.
    pub brownout_rungs: usize,
}

impl Default for ReplicaWorkerConfig {
    fn default() -> Self {
        ReplicaWorkerConfig {
            replica: 0,
            fault: ReplicaFault::None,
            fault_every: 0,
            heartbeat: Duration::from_millis(250),
            default_deadline: Duration::from_millis(5000),
            slow_layer: Duration::from_millis(150),
            zero_skip: true,
            path: ComputePath::Software,
            dispatch: SparseDispatch::Auto,
            obs: false,
            brownout_rungs: 4,
        }
    }
}

/// The child-side worker loop: announce [`Frame::Ready`], then serve
/// requests from `input` until a [`Frame::Shutdown`] or clean EOF.
///
/// `slots` holds one plan per task, in image order. A `None` slot is a
/// task whose section the image could not deliver: it keeps its index,
/// and its requests are served on the thresholds-stripped parent path
/// (the image's one backbone), marked degraded.
///
/// Every request receives exactly one terminal frame. Panics are *not*
/// caught here — in multi-process serving the process is the isolation
/// unit, and the supervisor's requeue path is the recovery route.
///
/// # Errors
///
/// Returns an error on a malformed control stream or a broken stdout
/// pipe, and before Ready when no slot carries a plan; the CLI surfaces
/// it and exits non-zero (which the supervisor sees as a death).
pub fn run_replica_worker(
    slots: &[Option<BoundNetwork>],
    hw: ArrayConfig,
    cfg: ReplicaWorkerConfig,
    input: &mut impl Read,
    output: &mut impl Write,
) -> Result<(), ProtoError> {
    let loaded: Vec<&BoundNetwork> = slots.iter().flatten().collect();
    let Some(&first) = loaded.first() else {
        return Err(ProtoError::Malformed(
            "no task slot carries a plan to serve".to_string(),
        ));
    };
    let parents: Vec<BoundNetwork> = slots
        .iter()
        .map(|slot| slot.as_ref().unwrap_or(first).strip_thresholds())
        .collect();
    // Brownout ladders are derived and validated once, before Ready —
    // the supervisor never dispatches to a replica whose browned
    // variants haven't passed the rank-degradation probes. A lost slot
    // gets no ladder: it always serves the parent.
    let ladders: Vec<Option<BrownoutLadder>> = derive_ladders(
        slots,
        hw,
        cfg.path,
        cfg.dispatch,
        &LadderConfig {
            rungs: cfg.brownout_rungs.max(1),
            zero_skip: cfg.zero_skip,
            ..LadderConfig::default()
        },
    )
    .map_err(|e| ProtoError::Malformed(format!("brownout ladder derivation: {e}")))?;
    let mut exec = HardwareExecutor::with_options(hw, cfg.path, cfg.dispatch);
    // Verified once, off the request path: batch coalescing requires
    // every task plan to be a view over ONE backbone (the MIME
    // invariant). A mixed-weight image — e.g. conventional per-task
    // baselines packed together — serves batch items one at a time
    // instead.
    let coalesce = shares_backbone(&loaded);
    if !coalesce && loaded.len() > 1 {
        mime_obs::warn!(
            "serve.replica",
            "plans do not share one backbone; batch coalescing disabled",
            replica = cfg.replica
        );
    }
    let mut served = 0usize;
    let mut heartbeat_seq = 0u64;
    let mut last_full_ship = std::time::Instant::now();

    write_frame(output, &Frame::Ready { replica: cfg.replica, tasks: slots.len() as u32 })
        .map_err(ProtoError::Io)?;
    mime_obs::info!("serve.replica", "replica ready", replica = cfg.replica);
    if cfg.obs {
        // Seed the supervisor's scrape cache before the first request.
        ship_obs_frames(cfg.replica, output, true)?;
    }

    loop {
        let frame = match read_frame(input) {
            Ok(frame) => frame,
            Err(ProtoError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let items = match frame {
            Frame::Shutdown => {
                mime_obs::info!(
                    "serve.replica",
                    "shutdown frame; draining",
                    replica = cfg.replica
                );
                if cfg.obs {
                    // Final full snapshot so the supervisor's aggregate
                    // (histograms included) is exact at drain.
                    ship_obs_frames(cfg.replica, output, true)?;
                }
                return Ok(());
            }
            Frame::ClockProbe { t0_us } => {
                write_frame(
                    output,
                    &Frame::ClockReply { t0_us, now_us: mime_obs::trace::now_us() },
                )
                .map_err(ProtoError::Io)?;
                continue;
            }
            Frame::BatchRequest { items } => items,
            // Every dispatch is a `BatchRequest` (a single request is a
            // batch of one); anything else, a bare `Request` included,
            // is a protocol violation.
            other => {
                return Err(ProtoError::Malformed(format!(
                    "unexpected frame on replica control pipe: {other:?}"
                )));
            }
        };
        let mut batch = Vec::with_capacity(items.len());
        for item in items {
            match item {
                Frame::Request { id, trace, task, deadline_ms, rung, input } => {
                    flight::record(FlightKind::Dequeue, trace, u64::from(task));
                    let budget = if deadline_ms == 0 {
                        cfg.default_deadline
                    } else {
                        Duration::from_millis(u64::from(deadline_ms))
                    };
                    batch.push((Head { id, trace, task, rung, budget }, input));
                }
                other => {
                    // the decoder already rejects these on the wire;
                    // guard against in-process construction too
                    return Err(ProtoError::Malformed(format!(
                        "unexpected frame inside BatchRequest: {other:?}"
                    )));
                }
            }
        }
        served += 1;
        let inject = cfg.fault_every > 0 && served.is_multiple_of(cfg.fault_every);
        if inject && cfg.fault == ReplicaFault::Abort {
            mime_obs::warn!(
                "serve.replica",
                "injected abort",
                replica = cfg.replica,
                batch = batch.len()
            );
            // The flight recorder is the whole post-mortem story for an
            // uncatchable death: dump before the process vanishes, with
            // this dispatch still in-flight (Dequeue without Terminal).
            flight::dump_now("abort");
            std::process::abort();
        }
        let replies = serve_batch(
            &mut exec,
            &parents,
            &ladders,
            coalesce,
            &cfg,
            batch,
            if inject { cfg.fault } else { ReplicaFault::None },
            &mut heartbeat_seq,
            output,
        );
        emit_replies(&cfg, output, &mut last_full_ship, replies)?;
    }
}

/// Records each terminal frame in the flight ring and writes them as one
/// [`Frame::BatchReply`], with observability shipped first when
/// enabled. Ship spans/metrics *before* the terminal frame: once the
/// supervisor sees the reply, this dispatch's spans are already ingested
/// — drain order is what makes the stitched trace complete for every
/// terminated request. Scalar counters ship every dispatch (cheap map
/// copies, keeps the live scrape exact); full snapshots with histogram
/// bucket arrays are throttled — cloning and re-decoding every bucket
/// vector per request measurably slowed the serving path. The obs
/// frames and the reply coalesce into ONE pipe write: separate writes
/// meant separate reader-thread wakeups per request, which also showed
/// up in p50.
fn emit_replies(
    cfg: &ReplicaWorkerConfig,
    output: &mut impl Write,
    last_full_ship: &mut Instant,
    items: Vec<Frame>,
) -> Result<(), ProtoError> {
    for item in &items {
        // outcome code: 0 = ok, 1 = degraded, `2 + ErrorCode` for typed
        // failures
        let (trace, outcome) = match item {
            Frame::Reply { trace, degraded, .. } => (*trace, u64::from(*degraded)),
            Frame::ErrorReply { trace, code, .. } => (*trace, 2 + u64::from(code.to_u8())),
            _ => (0, u64::MAX),
        };
        flight::record(FlightKind::Terminal, trace, outcome);
        if cfg.obs {
            record_replica_outcome(item);
        }
    }
    let reply = Frame::BatchReply { items };
    if cfg.obs {
        let full = last_full_ship.elapsed() >= FULL_SNAPSHOT_INTERVAL;
        let mut batch: Vec<u8> = Vec::with_capacity(256);
        ship_obs_frames(cfg.replica, &mut batch, full)?;
        if full {
            *last_full_ship = Instant::now();
        }
        write_frame(&mut batch, &reply).map_err(ProtoError::Io)?;
        output.write_all(&batch).map_err(ProtoError::Io)?;
        output.flush().map_err(ProtoError::Io)?;
    } else {
        write_frame(output, &reply).map_err(ProtoError::Io)?;
    }
    Ok(())
}

/// Bumps the replica-local `mime_replica_*` outcome counters that ride
/// back to the front door inside `MetricsChunk`s. The hot handles
/// (total + success) are resolved once — this runs per request, and a
/// registry lookup is a lock plus string hashing.
fn record_replica_outcome(reply: &Frame) {
    use std::sync::OnceLock;
    static REQUESTS: OnceLock<mime_obs::metrics::Counter> = OnceLock::new();
    static SUCCESS: OnceLock<mime_obs::metrics::Counter> = OnceLock::new();
    // One handle per rung, resolved lazily: the brownout rung a reply
    // was served at rides in the reply itself, and rungs above the
    // array bound (protocol allows u8) clamp into the last bucket.
    static RUNGS: OnceLock<[mime_obs::metrics::Counter; 8]> = OnceLock::new();
    let reg = mime_obs::metrics::global();
    REQUESTS.get_or_init(|| reg.counter("mime_replica_requests_total")).inc();
    if let Frame::Reply { rung, .. } | Frame::ErrorReply { rung, .. } = reply {
        RUNGS.get_or_init(|| {
            std::array::from_fn(|r| {
                reg.counter_with("mime_replica_rung_total", &[("rung", &r.to_string())])
            })
        })[(*rung as usize).min(7)]
        .inc();
    }
    match reply {
        Frame::Reply { degraded: false, .. } => SUCCESS
            .get_or_init(|| {
                reg.counter_with("mime_replica_outcomes_total", &[("outcome", "success")])
            })
            .inc(),
        Frame::Reply { degraded: true, .. } => reg
            .counter_with("mime_replica_outcomes_total", &[("outcome", "degraded")])
            .inc(),
        Frame::ErrorReply { code, .. } => reg
            .counter_with("mime_replica_outcomes_total", &[("outcome", code.name())])
            .inc(),
        _ => {
            reg.counter_with("mime_replica_outcomes_total", &[("outcome", "unknown")]).inc()
        }
    }
}

/// Minimum spacing between full registry snapshots (histogram bucket
/// arrays included) on the wire; scalar deltas flow every request.
const FULL_SNAPSHOT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(25);

/// Drains this process's finished spans into bounded `TraceChunk`s and
/// appends one `MetricsChunk` registry snapshot — the whole registry
/// when `full`, otherwise just the counters and gauges (the supervisor
/// overlays either onto its per-replica cache). Pipe backpressure is
/// the flow control: the supervisor's reader thread consumes these at
/// arrival, and a stalled supervisor stalls the replica rather than
/// growing an unbounded buffer.
fn ship_obs_frames(
    replica: u32,
    output: &mut impl Write,
    full: bool,
) -> Result<(), ProtoError> {
    if mime_obs::trace::enabled() {
        let spans = mime_obs::trace::drain();
        for chunk in spans.chunks(MAX_SPANS_PER_CHUNK) {
            write_frame(output, &Frame::TraceChunk { replica, spans: chunk.to_vec() })
                .map_err(ProtoError::Io)?;
        }
    }
    let registry = mime_obs::metrics::global();
    let snapshot = if full { registry.snapshot() } else { registry.snapshot_scalars() };
    if !snapshot.is_empty() {
        write_frame(output, &Frame::MetricsChunk { replica, snapshot: snapshot.encode() })
            .map_err(ProtoError::Io)?;
    }
    Ok(())
}

/// The addressing fields of one dispatched request, plus its deadline
/// budget (measured from the dispatch's arrival).
#[derive(Debug, Clone, Copy)]
struct Head {
    id: u64,
    trace: u64,
    task: u32,
    rung: u8,
    budget: Duration,
}

impl Head {
    fn reply(&self, degraded: bool, compute: Duration, logits: Vec<f32>) -> Frame {
        Frame::Reply {
            id: self.id,
            trace: self.trace,
            degraded,
            queue_us: 0,
            compute_us: compute.as_micros().min(u128::from(u32::MAX)) as u32,
            rung: self.rung,
            logits,
        }
    }

    fn error(&self, code: ErrorCode, message: String) -> Frame {
        Frame::ErrorReply {
            id: self.id,
            trace: self.trace,
            code,
            rung: self.rung,
            retry_after_ms: 0,
            message,
        }
    }

    /// `DeadlineExceeded` for a request `elapsed` into its dispatch.
    fn over_budget(&self, elapsed: Duration) -> Frame {
        let over_ms = elapsed.saturating_sub(self.budget).as_millis();
        self.error(ErrorCode::DeadlineExceeded, format!("{over_ms}ms over budget"))
    }
}

/// The between-layer hook shared by every pass of one dispatch. It is
/// the liveness story: heartbeats are emitted *here*, between layers, so
/// a hung handler (`ReplicaFault::Hang`, or a real wedge) stops beating
/// and trips the supervisor's liveness deadline instead of ticking along
/// from a side thread. Every deadline is checked against the one
/// dispatch clock `started`, so no retry resets a budget.
struct Guard<'a, W> {
    cfg: &'a ReplicaWorkerConfig,
    fault: ReplicaFault,
    started: Instant,
    last_beat: Instant,
    heartbeat_seq: &'a mut u64,
    output: &'a mut W,
}

impl<W: Write> Guard<'_, W> {
    /// One guarded pass of `images` through `views` on behalf of request
    /// `head`: its trace rides the heartbeats and flight events, and its
    /// budget aborts the pass.
    fn pass(
        &mut self,
        exec: &mut HardwareExecutor,
        views: &[&BoundNetwork],
        images: &[&Tensor],
        head: &Head,
    ) -> Result<Vec<Vec<f32>>, MimeError> {
        let Head { trace, task, budget, .. } = *head;
        exec.run_coalesced_guarded(
            views,
            images,
            self.cfg.zero_skip,
            &mut |step| {
                match self.fault {
                    ReplicaFault::Hang => loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    },
                    ReplicaFault::Slow => std::thread::sleep(self.cfg.slow_layer),
                    _ => {}
                }
                flight::record(FlightKind::Layer, trace, step as u64);
                if self.last_beat.elapsed() >= self.cfg.heartbeat / 2 {
                    *self.heartbeat_seq += 1;
                    write_frame(
                        &mut *self.output,
                        &Frame::Heartbeat { seq: *self.heartbeat_seq, trace },
                    )
                    .map_err(|e| MimeError::io("replica control pipe", &e))?;
                    self.last_beat = Instant::now();
                }
                let elapsed = self.started.elapsed();
                if elapsed > budget {
                    return Err(MimeError::DeadlineExceeded {
                        task: format!("task{task}"),
                        over_ms: (elapsed - budget).as_millis() as u64,
                    });
                }
                Ok(())
            },
            mime_tensor::threads::worker_count(),
        )
    }

    /// The terminal frame for `job` once its own pass ended in `result`.
    /// A deadline stays a deadline; any other failure retries on the
    /// exact parent path, marked degraded. `since` is when the job's own
    /// compute began.
    fn settle(
        &mut self,
        exec: &mut HardwareExecutor,
        job: &Job<'_>,
        result: Result<Vec<Vec<f32>>, MimeError>,
        since: Instant,
    ) -> Frame {
        let head = &job.head;
        let err = match result {
            Ok(mut logits) => {
                return head.reply(job.degraded, since.elapsed(), logits.remove(0))
            }
            Err(MimeError::DeadlineExceeded { .. }) => {
                return head.over_budget(self.started.elapsed());
            }
            Err(e) => e,
        };
        mime_obs::warn!(
            "serve.replica",
            "primary path failed; serving parent fallback",
            replica = self.cfg.replica,
            request = head.id,
            error = err
        );
        match self.pass(exec, &[job.parent], &[&job.image], head) {
            Ok(mut logits) => head.reply(true, since.elapsed(), logits.remove(0)),
            Err(MimeError::DeadlineExceeded { .. }) => {
                head.over_budget(self.started.elapsed())
            }
            Err(parent_err) => head.error(
                ErrorCode::FailedAfterRetries,
                format!("primary: {err}; parent: {parent_err}"),
            ),
        }
    }
}

/// One runnable item of a dispatch: its position, the plan view it
/// resolved to (and that view's exact parent), and its input.
struct Job<'p> {
    index: usize,
    head: Head,
    plan: &'p BoundNetwork,
    parent: &'p BoundNetwork,
    degraded: bool,
    image: Tensor,
}

/// Drives one dispatch (a batch of one or more requests) to its terminal
/// frames, one per item in request order.
///
/// Each item resolves its plan view: unknown task → typed error; a lost
/// task slot, a rung beyond the validated ladder or an invalid threshold
/// bank → the thresholds-stripped parent, marked degraded. All runnable
/// items then execute as ONE pass over the shared backbone
/// ([`HardwareExecutor::run_coalesced_guarded`]) — the weights stream
/// once for the whole batch and only per-sample threshold banks are
/// swapped between samples — so per-item logits are bit-identical to
/// serving each item alone.
///
/// Every budget runs on one clock, started when the dispatch is picked
/// up. The pass runs under the loosest in-batch budget (the front door
/// already closed the batch window against the *tightest* one); items
/// whose own budget lapsed by the end fail individually with
/// `DeadlineExceeded`, and a pass that overruns the loosest budget fails
/// every item without another pass. Any other whole-batch failure
/// (malformed input, non-finite logits), or a mixed-weight image with
/// coalescing disabled, serves the items one at a time: each runs as a
/// batch of one under its own budget on the same clock (an item already
/// past it ends `DeadlineExceeded` at once), then falls back to the
/// exact parent path.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    exec: &mut HardwareExecutor,
    parents: &[BoundNetwork],
    ladders: &[Option<BrownoutLadder>],
    coalesce: bool,
    cfg: &ReplicaWorkerConfig,
    items: Vec<(Head, RequestInput)>,
    fault: ReplicaFault,
    heartbeat_seq: &mut u64,
    output: &mut impl Write,
) -> Vec<Frame> {
    // A batch of one is traced as that request's `replica_request`
    // span; a larger dispatch as one `replica_batch` span.
    let mut span = mime_obs::trace::span_cat(
        if items.len() == 1 { "replica_request" } else { "replica_batch" },
        "serve.replica",
    );
    if span.is_active() {
        if let [(head, _)] = &items[..] {
            span.arg("trace", head.trace);
            span.arg("request", head.id);
            span.arg("task", head.task);
            span.arg("replica", cfg.replica);
            if head.rung > 0 {
                span.arg("rung", head.rung);
            }
        } else {
            span.arg("batch", items.len());
            span.arg("replica", cfg.replica);
        }
    }
    let mut replies: Vec<Option<Frame>> = vec![None; items.len()];
    let mut run: Vec<Job<'_>> = Vec::with_capacity(items.len());
    for (index, (head, input)) in items.into_iter().enumerate() {
        let task = head.task as usize;
        let Some(parent) = parents.get(task) else {
            replies[index] = Some(head.error(
                ErrorCode::UnknownTask,
                format!("task {} of {}", head.task, parents.len()),
            ));
            continue;
        };
        // Degradation order (DESIGN.md §13): rungs validated at startup
        // serve their browned threshold banks; a rung beyond the
        // validated ladder depth — or any rung of a lost slot, which has
        // no ladder — serves the thresholds-stripped parent path and is
        // marked degraded. Rung 0 is the ladder's bit-identical clone of
        // the plan.
        let (plan, beyond_ladder) = match &ladders[task] {
            Some(ladder) if (head.rung as usize) < ladder.len() => {
                (ladder.plan(head.rung as usize), false)
            }
            _ => (parent, true),
        };
        // an invalid bank never runs the primary path
        let (plan, degraded) = match plan.validate_thresholds() {
            Ok(()) => (plan, beyond_ladder),
            Err(e) => {
                mime_obs::warn!(
                    "serve.replica",
                    "invalid threshold bank; serving parent fallback",
                    replica = cfg.replica,
                    request = head.id,
                    error = e
                );
                (parent, true)
            }
        };
        let image = match input {
            RequestInput::Probe(p) => crate::proto::probe_image(p as usize),
            RequestInput::Tensor(t) => t,
        };
        run.push(Job { index, head, plan, parent, degraded, image });
    }
    let started = Instant::now();
    let mut guard =
        Guard { cfg, fault, started, last_beat: started, heartbeat_seq, output };
    let whole = (!run.is_empty() && (coalesce || run.len() == 1)).then(|| {
        // the pass is named after the loosest budget: its lapse is what
        // aborts the pass
        let lead = run
            .iter()
            .map(|job| job.head)
            .max_by_key(|h| h.budget)
            .expect("run is non-empty");
        let views: Vec<&BoundNetwork> = run.iter().map(|job| job.plan).collect();
        let images: Vec<&Tensor> = run.iter().map(|job| &job.image).collect();
        guard.pass(exec, &views, &images, &lead)
    });
    match whole {
        Some(Ok(all_logits)) => {
            let elapsed = started.elapsed();
            // per-item compute attribution: an equal share of the one
            // backbone pass (what the front door's batch-close EWMA
            // consumes)
            let share = elapsed / run.len() as u32;
            for (job, logits) in run.iter().zip(all_logits) {
                replies[job.index] = Some(if elapsed > job.head.budget {
                    job.head.over_budget(elapsed)
                } else {
                    job.head.reply(job.degraded, share, logits)
                });
            }
        }
        // the loosest budget lapsed, so every item's has
        Some(Err(MimeError::DeadlineExceeded { .. })) => {
            for job in &run {
                replies[job.index] = Some(job.head.over_budget(started.elapsed()));
            }
        }
        whole => {
            let mut own_attempt = match whole {
                // a batch of one: that pass was the item's own attempt
                Some(Err(e)) if run.len() == 1 => Some(e),
                Some(Err(e)) => {
                    mime_obs::warn!(
                        "serve.replica",
                        "coalesced batch failed; serving items one at a time",
                        replica = cfg.replica,
                        batch = run.len(),
                        error = e
                    );
                    None
                }
                _ => None,
            };
            for job in &run {
                let (since, result) = match own_attempt.take() {
                    Some(e) => (started, Err(e)),
                    None if started.elapsed() > job.head.budget => {
                        replies[job.index] = Some(job.head.over_budget(started.elapsed()));
                        continue;
                    }
                    None => (
                        Instant::now(),
                        guard.pass(exec, &[job.plan], &[&job.image], &job.head),
                    ),
                };
                replies[job.index] = Some(guard.settle(exec, job, result, since));
            }
        }
    }
    replies
        .into_iter()
        .map(|r| r.expect("every batch item resolves to a terminal frame"))
        .collect()
}

/// Whether every plan is a view over ONE backbone, bit-for-bit (weights
/// and biases). Checked once at startup — this is what licenses running
/// a mixed-task batch through a single coalesced pass using the lead
/// plan's weights. Plans bound from one network hold the same buffers,
/// which settles it without reading them; plans bound separately are
/// compared value by value.
fn shares_backbone(plans: &[&BoundNetwork]) -> bool {
    let Some((lead, rest)) = plans.split_first() else { return true };
    rest.iter().all(|p| {
        p.steps().len() == lead.steps().len()
            && lead.steps().iter().zip(p.steps()).all(|(a, b)| match (a, b) {
                (
                    BoundLayer::Array { weight: wa, bias: ba, .. },
                    BoundLayer::Array { weight: wb, bias: bb, .. },
                ) => same_bits(wa, wb) && same_bits(ba, bb),
                (BoundLayer::Pool, BoundLayer::Pool) => true,
                (BoundLayer::Flatten, BoundLayer::Flatten) => true,
                _ => false,
            })
    })
}

fn same_bits(a: &Tensor, b: &Tensor) -> bool {
    a.shares_storage(b)
        || (a.len() == b.len()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits()))
}

/// A spawned replica process as the supervisor holds it: piped stdin
/// for dispatch, a frame channel fed by a stdout reader thread (the
/// channel disconnecting *is* the death signal), and a stderr thread
/// republishing the child's log lines under `replica=<n>`.
pub struct ReplicaProc {
    /// Replica slot index.
    pub index: u32,
    child: Child,
    stdin: ChildStdin,
    frames: mpsc::Receiver<Frame>,
}

impl ReplicaProc {
    /// Spawns `argv` with piped stdio and blocks until the child's
    /// [`Frame::Ready`] arrives (at most `spawn_timeout`). On timeout
    /// or early death the child is killed and reaped. Observability
    /// frames (`TraceChunk`, `MetricsChunk`, `ClockReply`) are routed to
    /// `side` from the reader thread instead of the frame channel, so
    /// they are ingested the moment they arrive; with `side == None`
    /// they flow through the channel like any other frame.
    ///
    /// # Errors
    ///
    /// Any spawn failure, plus ready-timeout / death-before-ready as
    /// `io::Error`s, so the caller's restart budget sees them all the
    /// same way.
    pub fn spawn(
        index: u32,
        argv: &[String],
        spawn_timeout: Duration,
        side: Option<SideChannel>,
    ) -> std::io::Result<ReplicaProc> {
        let (program, args) = argv.split_first().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "empty replica argv")
        })?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let mut stdout = child.stdout.take().expect("piped stdout");
        let stderr = child.stderr.take().expect("piped stderr");

        let (tx, frames) = mpsc::channel::<Frame>();
        std::thread::spawn(move || {
            // Reader exits (dropping tx) on EOF or any stream error —
            // either way the supervisor sees a disconnected channel.
            while let Ok(frame) = read_frame(&mut stdout) {
                if let Some(side) = side.as_ref() {
                    if matches!(
                        frame,
                        Frame::TraceChunk { .. }
                            | Frame::MetricsChunk { .. }
                            | Frame::ClockReply { .. }
                    ) {
                        side(index, frame);
                        continue;
                    }
                }
                if tx.send(frame).is_err() {
                    return;
                }
            }
        });
        std::thread::spawn(move || relog_stderr(index, stderr));

        let mut proc = ReplicaProc { index, child, stdin, frames };
        match proc.frames.recv_timeout(spawn_timeout) {
            Ok(Frame::Ready { tasks, .. }) => {
                mime_obs::info!(
                    "serve.frontdoor",
                    "replica ready",
                    replica = index,
                    tasks = tasks
                );
                Ok(proc)
            }
            Ok(other) => {
                proc.kill_and_reap();
                Err(std::io::Error::other(format!(
                    "replica {index} sent {other:?} before Ready"
                )))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                proc.kill_and_reap();
                Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    format!("replica {index} not ready within {spawn_timeout:?}"),
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                let status = proc.kill_and_reap();
                Err(std::io::Error::other(format!(
                    "replica {index} died before Ready (status {status:?})"
                )))
            }
        }
    }

    /// Writes one frame to the child's stdin.
    ///
    /// # Errors
    ///
    /// A broken pipe here means the child died; the caller routes
    /// through its death path.
    pub fn send(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.stdin, frame)
    }

    /// Waits up to `timeout` for the next frame from the child.
    /// `Err(Disconnected)` means the child's stdout closed — death.
    ///
    /// # Errors
    ///
    /// Propagates the channel's timeout/disconnect verbatim.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Frame, mpsc::RecvTimeoutError> {
        self.frames.recv_timeout(timeout)
    }

    /// Whether the process has exited (non-blocking).
    pub fn is_alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// SIGKILLs (if still running) and reaps the child, returning its
    /// exit status when one could be collected.
    pub fn kill_and_reap(&mut self) -> Option<std::process::ExitStatus> {
        let _ = self.child.kill();
        self.child.wait().ok()
    }

    /// Graceful stop for drain: send [`Frame::Shutdown`], give the
    /// child `grace` to exit on its own, then kill whatever is left.
    pub fn shutdown(&mut self, grace: Duration) {
        let _ = self.send(&Frame::Shutdown);
        let deadline = Instant::now() + grace;
        while Instant::now() < deadline {
            if !self.is_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.kill_and_reap();
    }
}

impl Drop for ReplicaProc {
    fn drop(&mut self) {
        // Never leak a child process, whatever path dropped us.
        self.kill_and_reap();
    }
}

/// Republishes one replica's stderr through the `MIME_LOG` logger with
/// a `replica=<n>` key. Records from the child's own structured logger
/// are re-emitted field by field — their level, target, message and
/// keys, under the supervisor's clock — so nothing nests; anything else
/// (panic messages, libc complaints) surfaces whole at warn.
fn relog_stderr(index: u32, stderr: impl Read) {
    use mime_obs::log::{log, Level};
    for line in BufReader::new(stderr).lines() {
        let Ok(line) = line else { return };
        if line.is_empty() {
            continue;
        }
        match child_record(&line) {
            Some((level, target, msg, fields)) => {
                let mut kv: Vec<(&str, &dyn std::fmt::Display)> =
                    fields.iter().map(|(k, v)| (*k, v as &dyn std::fmt::Display)).collect();
                kv.push(("replica", &index));
                log(level, target, msg, &kv);
            }
            None => log(Level::Warn, "serve.replica", &line, &[("replica", &index)]),
        }
    }
}

/// One record of the child's structured logger: level, target, message
/// and the remaining `key=value` fields.
type ChildRecord<'a> = (mime_obs::log::Level, &'a str, &'a str, Vec<(&'a str, &'a str)>);

/// Splits one line of the child's structured logger
/// (`t=… level=… target=… msg="…" k=v …`) into its level, target,
/// message and remaining keys. The child's timestamp and its own
/// `replica` key are dropped (the supervisor stamps both). `None` when
/// the line is not such a record.
fn child_record(line: &str) -> Option<ChildRecord<'_>> {
    let mut fields = Vec::new();
    let mut rest = line.trim_start();
    while !rest.is_empty() {
        let (key, after) = rest.split_once('=')?;
        if key.is_empty() || key.contains(char::is_whitespace) {
            return None;
        }
        let (value, tail) = match after.strip_prefix('"') {
            Some(quoted) => quoted.split_once('"')?,
            None => after.split_at(after.find(char::is_whitespace).unwrap_or(after.len())),
        };
        fields.push((key, value));
        rest = tail.trim_start();
    }
    let mut take = |key: &str| {
        let at = fields.iter().position(|(k, _)| *k == key)?;
        Some(fields.remove(at).1)
    };
    let level = mime_obs::log::Level::parse(take("level")?).ok().flatten()?;
    let (target, msg) = (take("target")?, take("msg")?);
    take("t");
    take("replica");
    Some((level, target, msg, fields))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mime_core::faults::FaultInjector;
    use mime_core::{MimeNetwork, MultiTaskModel};
    use mime_nn::{build_network, vgg16_arch};
    use mime_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One slot per task, every slot carrying its plan.
    fn tiny_slots(tasks: usize) -> (Vec<Option<BoundNetwork>>, ArrayConfig) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let parent = build_network(&arch, &mut rng);
        let net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
        let mut model = MultiTaskModel::new(net);
        for i in 0..tasks {
            let banks = model
                .network()
                .export_thresholds()
                .into_iter()
                .map(|t| t.map(|_| 0.02 + 0.05 * i as f32))
                .collect();
            model.register_task(format!("task{i}"), banks).unwrap();
        }
        let slots = (0..tasks)
            .map(|i| {
                model.activate(&format!("task{i}")).unwrap();
                Some(BoundNetwork::from_mime(model.network()).unwrap())
            })
            .collect();
        (slots, ArrayConfig::default())
    }

    /// A plan whose threshold bank fails validation (NaN-poisoned).
    fn poisoned_plan() -> (BoundNetwork, ArrayConfig) {
        let arch = vgg16_arch(0.0625, 32, 3, 4, 8);
        let mut rng = StdRng::seed_from_u64(7);
        let parent = build_network(&arch, &mut rng);
        let mut net = MimeNetwork::from_trained(&arch, &parent, 0.02).unwrap();
        let mut banks = net.export_thresholds();
        FaultInjector::new(7).poison_tensor(&mut banks[0], 2);
        net.import_thresholds(&banks).unwrap();
        (BoundNetwork::from_mime(&net).unwrap(), ArrayConfig::default())
    }

    fn encode(inbound: &[Frame]) -> Vec<u8> {
        let mut input = Vec::new();
        for f in inbound {
            write_frame(&mut input, f).unwrap();
        }
        input
    }

    fn roundtrip_worker(
        slots: &[Option<BoundNetwork>],
        hw: ArrayConfig,
        cfg: ReplicaWorkerConfig,
        inbound: &[Frame],
    ) -> Vec<Frame> {
        let input = encode(inbound);
        let mut output = Vec::new();
        run_replica_worker(slots, hw, cfg, &mut input.as_slice(), &mut output).unwrap();
        let mut frames = Vec::new();
        let mut cursor = output.as_slice();
        loop {
            match read_frame(&mut cursor) {
                Ok(f) => frames.push(f),
                Err(ProtoError::Closed) => return frames,
                Err(e) => panic!("{e}"),
            }
        }
    }

    fn req(id: u64, task: u32, deadline_ms: u32, rung: u8, input: RequestInput) -> Frame {
        Frame::Request { id, trace: 100 + id, task, deadline_ms, rung, input }
    }

    /// A dispatch of one request.
    fn one(request: Frame) -> Frame {
        Frame::BatchRequest { items: vec![request] }
    }

    /// Every terminal frame the worker wrote, in order, unpacked from its
    /// `BatchReply`s.
    fn terminals(frames: &[Frame]) -> Vec<Frame> {
        frames
            .iter()
            .flat_map(|f| match f {
                Frame::BatchReply { items } => items.clone(),
                _ => Vec::new(),
            })
            .collect()
    }

    #[test]
    fn worker_serves_requests_then_drains_on_shutdown() {
        let (slots, hw) = tiny_slots(2);
        let cfg = ReplicaWorkerConfig::default();
        let frames = roundtrip_worker(
            &slots,
            hw,
            cfg,
            &[
                one(req(1, 0, 0, 0, RequestInput::Probe(0))),
                one(req(2, 1, 0, 0, RequestInput::Probe(1))),
                Frame::Shutdown,
            ],
        );
        assert!(matches!(frames[0], Frame::Ready { tasks: 2, .. }));
        let replies = terminals(&frames);
        assert_eq!(replies.len(), 2, "one terminal frame per request: {frames:?}");
        for (reply, want_id) in replies.iter().zip([1u64, 2]) {
            match reply {
                Frame::Reply { id, trace, degraded, logits, .. } => {
                    assert_eq!(*id, want_id);
                    assert_eq!(*trace, 100 + want_id, "trace echoed");
                    assert!(!degraded);
                    assert!(!logits.is_empty());
                    assert!(logits.iter().all(|v| v.is_finite()));
                }
                other => panic!("expected Reply, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_unknown_task_and_bad_input_are_typed_errors() {
        let (slots, hw) = tiny_slots(1);
        let cfg = ReplicaWorkerConfig::default();
        let bad = RequestInput::Tensor(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
        let frames = roundtrip_worker(
            &slots,
            hw,
            cfg,
            &[
                one(req(10, 9, 0, 0, RequestInput::Probe(0))),
                one(req(11, 0, 0, 0, bad.clone())),
                // the same bad input inside a larger batch: the whole
                // pass fails, the healthy item still gets its logits
                Frame::BatchRequest {
                    items: vec![
                        req(12, 0, 0, 0, RequestInput::Probe(0)),
                        req(13, 0, 0, 0, bad),
                    ],
                },
            ],
        );
        let replies = terminals(&frames);
        assert!(matches!(
            replies[0],
            Frame::ErrorReply { id: 10, code: ErrorCode::UnknownTask, .. }
        ));
        // a shape-mismatched tensor fails both paths → FailedAfterRetries
        assert!(matches!(
            replies[1],
            Frame::ErrorReply { id: 11, code: ErrorCode::FailedAfterRetries, .. }
        ));
        assert!(matches!(replies[2], Frame::Reply { id: 12, degraded: false, .. }));
        assert!(matches!(
            replies[3],
            Frame::ErrorReply { id: 13, code: ErrorCode::FailedAfterRetries, .. }
        ));
    }

    #[test]
    fn worker_poisoned_bank_degrades_to_parent() {
        let (plan, hw) = poisoned_plan();
        let cfg = ReplicaWorkerConfig::default();
        let frames = roundtrip_worker(
            &[Some(plan)],
            hw,
            cfg,
            &[one(req(5, 0, 0, 0, RequestInput::Probe(2)))],
        );
        match &terminals(&frames)[0] {
            Frame::Reply { id: 5, degraded: true, logits, .. } => {
                assert!(logits.iter().all(|v| v.is_finite()));
            }
            other => panic!("expected degraded Reply, got {other:?}"),
        }
    }

    #[test]
    fn worker_batch_reply_is_bit_identical_to_serial_requests() {
        let (slots, hw) = tiny_slots(3);
        let cfg = ReplicaWorkerConfig::default();
        let mk = |id: u64, task: u32, rung: u8| {
            req(id, task, 0, rung, RequestInput::Probe(id as u32))
        };
        // mixed tasks, mixed rungs, one unknown task in the middle
        let items = vec![mk(1, 0, 0), mk(2, 1, 1), mk(3, 9, 0), mk(4, 2, 0), mk(5, 0, 3)];
        // serial side: every request its own dispatch, a batch of one
        let mut serial_in: Vec<Frame> = items.iter().cloned().map(one).collect();
        serial_in.push(Frame::Shutdown);
        let serial = roundtrip_worker(&slots, hw, cfg, &serial_in);
        let batched = roundtrip_worker(
            &slots,
            hw,
            cfg,
            &[Frame::BatchRequest { items: items.clone() }, Frame::Shutdown],
        );
        let batch_reply = batched
            .iter()
            .find_map(|f| match f {
                Frame::BatchReply { items } => Some(items),
                _ => None,
            })
            .expect("one BatchReply");
        assert_eq!(batch_reply.len(), items.len());
        let serial_terminals = terminals(&serial);
        assert_eq!(serial_terminals.len(), items.len());
        for (got, want) in batch_reply.iter().zip(&serial_terminals) {
            match (got, want) {
                (
                    Frame::Reply { id: ga, degraded: da, rung: ra, logits: la, .. },
                    Frame::Reply { id: gb, degraded: db, rung: rb, logits: lb, .. },
                ) => {
                    assert_eq!(ga, gb);
                    assert_eq!(da, db);
                    assert_eq!(ra, rb);
                    assert_eq!(la.len(), lb.len());
                    assert!(
                        la.iter().zip(lb).all(|(x, y)| x.to_bits() == y.to_bits()),
                        "batched logits diverged from serial for id {ga}"
                    );
                }
                (
                    Frame::ErrorReply { id: ga, code: ca, .. },
                    Frame::ErrorReply { id: gb, code: cb, .. },
                ) => {
                    assert_eq!(ga, gb);
                    assert_eq!(ca, cb);
                }
                other => panic!("terminal kind diverged: {other:?}"),
            }
        }
        // the unknown task surfaced as a typed error in position
        assert!(matches!(
            batch_reply[2],
            Frame::ErrorReply { id: 3, code: ErrorCode::UnknownTask, .. }
        ));
    }

    #[test]
    fn worker_slow_fault_blows_a_tight_deadline() {
        let (slots, hw) = tiny_slots(1);
        let cfg = ReplicaWorkerConfig {
            fault: ReplicaFault::Slow,
            fault_every: 1,
            slow_layer: Duration::from_millis(40),
            ..ReplicaWorkerConfig::default()
        };
        let frames = roundtrip_worker(
            &slots,
            hw,
            cfg,
            &[one(req(3, 0, 50, 0, RequestInput::Probe(0)))],
        );
        let terminal = &terminals(&frames)[0];
        assert!(
            matches!(
                terminal,
                Frame::ErrorReply { id: 3, code: ErrorCode::DeadlineExceeded, .. }
            ),
            "slow injection with a 50ms budget must blow the deadline: {terminal:?}"
        );
    }

    /// A coalesced batch that overruns its budget must not be re-served
    /// item by item: every item is past its own budget on the dispatch
    /// clock, so the whole batch ends `DeadlineExceeded` after ONE
    /// aborted pass — not N+1 passes of replica time.
    #[test]
    fn slow_batch_past_its_deadline_costs_one_pass_not_one_per_item() {
        /// Timestamps each write; every `write_frame` is one write.
        #[derive(Default)]
        struct Stamped(Vec<(Instant, Vec<u8>)>);
        impl Write for Stamped {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.push((Instant::now(), buf.to_vec()));
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let (slots, hw) = tiny_slots(1);
        let cfg = ReplicaWorkerConfig {
            fault: ReplicaFault::Slow,
            fault_every: 1,
            slow_layer: Duration::from_millis(40),
            ..ReplicaWorkerConfig::default()
        };
        let late = |id| req(id, 0, 50, 0, RequestInput::Probe(id as u32));
        // one request alone (the reference: one aborted pass), then the
        // same deadline on a batch of four
        let input = encode(&[
            one(late(1)),
            Frame::BatchRequest { items: vec![late(2), late(3), late(4), late(5)] },
        ]);
        let mut output = Stamped::default();
        run_replica_worker(&slots, hw, cfg, &mut input.as_slice(), &mut output).unwrap();
        let frames: Vec<(Instant, Frame)> = output
            .0
            .iter()
            .map(|(at, bytes)| (*at, read_frame(&mut bytes.as_slice()).unwrap()))
            .collect();
        let ready_at = frames[0].0;
        let replies: Vec<&(Instant, Frame)> =
            frames.iter().filter(|(_, f)| matches!(f, Frame::BatchReply { .. })).collect();
        assert_eq!(replies.len(), 2, "{frames:?}");
        let single = replies[0].0 - ready_at;
        let batch = replies[1].0 - replies[0].0;
        let items = terminals(&[replies[0].1.clone(), replies[1].1.clone()]);
        assert_eq!(items.len(), 5);
        assert!(
            items.iter().all(|f| matches!(
                f,
                Frame::ErrorReply { code: ErrorCode::DeadlineExceeded, .. }
            )),
            "{items:?}"
        );
        assert!(
            batch.as_secs_f64() < 2.5 * single.as_secs_f64(),
            "a late batch of 4 took {batch:?} against {single:?} for one aborted pass"
        );
    }

    #[test]
    fn bare_request_on_the_pipe_is_malformed_not_a_panic() {
        let (slots, hw) = tiny_slots(1);
        let input = encode(&[req(1, 0, 0, 0, RequestInput::Probe(0))]);
        let mut output = Vec::new();
        let err = run_replica_worker(
            &slots,
            hw,
            ReplicaWorkerConfig::default(),
            &mut input.as_slice(),
            &mut output,
        )
        .unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
        // the worker announced itself and answered nothing
        let mut cursor = output.as_slice();
        assert!(matches!(read_frame(&mut cursor).unwrap(), Frame::Ready { .. }));
        assert!(matches!(read_frame(&mut cursor), Err(ProtoError::Closed)));
    }

    /// The serial reference every parity test compares against: a plain
    /// executor on the replica's compute path, one image at a time.
    fn serial_logits(plan: &BoundNetwork, hw: ArrayConfig, probe: usize) -> Vec<f32> {
        HardwareExecutor::with_options(hw, ComputePath::Software, SparseDispatch::Auto)
            .run_image(plan, &crate::proto::probe_image(probe), true)
            .unwrap()
    }

    fn same_logits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got.iter().zip(want).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A task slot the image could not deliver keeps its index: its
    /// requests are served degraded on the stripped parent at every
    /// rung, alone or inside a mixed batch, and the task after it still
    /// answers as itself.
    #[test]
    fn lost_slot_serves_the_stripped_parent_and_keeps_later_indices() {
        let (mut slots, hw) = tiny_slots(3);
        let reference = slots.clone();
        slots[1] = None;
        let probe = |id: u64, task: u32, rung: u8| {
            req(id, task, 0, rung, RequestInput::Probe(id as u32))
        };
        let frames = roundtrip_worker(
            &slots,
            hw,
            ReplicaWorkerConfig::default(),
            &[
                one(probe(1, 1, 0)),
                one(probe(2, 1, 2)),
                one(probe(3, 2, 0)),
                Frame::BatchRequest {
                    items: vec![probe(4, 0, 0), probe(5, 1, 0), probe(6, 2, 0)],
                },
                Frame::Shutdown,
            ],
        );
        assert!(matches!(frames[0], Frame::Ready { tasks: 3, .. }), "{:?}", frames[0]);
        let parent = reference[0].as_ref().unwrap().strip_thresholds();
        let replies = terminals(&frames);
        assert_eq!(replies.len(), 6, "one terminal frame per request: {replies:?}");
        for reply in &replies {
            let Frame::Reply { id, degraded, logits, .. } = reply else {
                panic!("expected Reply, got {reply:?}");
            };
            let task = [0, 1, 1, 2, 0, 1, 2][*id as usize];
            let want = if task == 1 {
                serial_logits(&parent, hw, *id as usize)
            } else {
                serial_logits(reference[task].as_ref().unwrap(), hw, *id as usize)
            };
            assert_eq!(*degraded, task == 1, "request {id} (task {task})");
            assert!(same_logits(logits, &want), "request {id} (task {task}) diverged");
        }
    }

    #[test]
    fn worker_without_a_loadable_slot_refuses_to_start() {
        let (_, hw) = tiny_slots(0);
        let mut output = Vec::new();
        let err = run_replica_worker(
            &[None, None],
            hw,
            ReplicaWorkerConfig::default(),
            &mut encode(&[Frame::Shutdown]).as_slice(),
            &mut output,
        )
        .unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
        assert!(output.is_empty(), "no Ready for a replica with nothing to serve");
    }

    /// A replica serving prepacked plans (FC panels built once, shared
    /// across tasks) answers every request — the degraded ones of a
    /// NaN-poisoned task included — bit-identically to an unprepacked
    /// serial executor on the unfused path, batched or one at a time.
    #[test]
    fn prepacked_worker_matches_unfused_serial_logits() {
        let (mut reference, hw) = tiny_slots(3);
        // the last task's bank is poisoned: its requests degrade to the
        // parent path, whose stripped copy keeps the shared panels
        reference[2] = Some(poisoned_plan().0);
        let mut plans: Vec<BoundNetwork> = reference.iter().flatten().cloned().collect();
        let stats = mime_runtime::prepack_plans(&mut plans).unwrap();
        assert!(stats.layers > 0, "FC steps must be prepacked");
        assert!(stats.shared > 0, "shared backbone panels must dedup across tasks");
        let packed: Vec<Option<BoundNetwork>> = plans.into_iter().map(Some).collect();

        let probe =
            |id: u64| req(id, (id % 3) as u32, 0, 0, RequestInput::Probe(id as u32));
        let mut inbound = vec![Frame::BatchRequest { items: (0..9).map(probe).collect() }];
        inbound.extend((9..18).map(|id| one(probe(id))));
        inbound.push(Frame::Shutdown);
        let replies = terminals(&roundtrip_worker(
            &packed,
            hw,
            ReplicaWorkerConfig::default(),
            &inbound,
        ));
        assert_eq!(replies.len(), 18);
        for reply in &replies {
            let Frame::Reply { id, degraded, logits, .. } = reply else {
                panic!("expected Reply, got {reply:?}");
            };
            let task = (*id % 3) as usize;
            let plan = reference[task].as_ref().unwrap();
            let want = if task == 2 {
                serial_logits(&plan.strip_thresholds(), hw, *id as usize)
            } else {
                serial_logits(plan, hw, *id as usize)
            };
            assert_eq!(
                *degraded,
                task == 2,
                "request {id}: only the poisoned task degrades"
            );
            assert!(
                same_logits(logits, &want),
                "request {id} (task {task}): prepacked replica logits diverge from the \
                 unfused serial reference"
            );
        }
    }

    #[test]
    fn child_log_lines_are_relogged_field_by_field() {
        use mime_obs::log::Level;
        let line = "t=1.250 level=info target=serve.replica msg=\"replica ready\" \
                    replica=1 batch=3 error=\"bad thing happened\"";
        let (level, target, msg, fields) = child_record(line).expect("structured record");
        assert_eq!(level, Level::Info);
        assert_eq!(target, "serve.replica");
        assert_eq!(msg, "replica ready");
        // the child's timestamp and replica key are the supervisor's to stamp
        assert_eq!(fields, vec![("batch", "3"), ("error", "bad thing happened")]);
        // anything that is not a record is relogged whole
        assert!(child_record("thread 'main' panicked at src/lib.rs:1:1:").is_none());
        assert!(child_record("level=loud target=x msg=y").is_none());
    }
}

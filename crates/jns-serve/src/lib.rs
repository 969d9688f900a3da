//! # jns-serve
//!
//! A concurrent serving layer over one compiled J&s program — the
//! paper's §2.4 flagship scenario (a network service whose families
//! evolve while the dispatcher keeps running) taken to its logical
//! deployment shape:
//!
//! - **Compile once.** The program is parsed, checked, and lowered to
//!   bytecode a single time; the immutable [`jns_vm::VmProgram`] is
//!   shared by every worker through an `Arc` (it is `Send + Sync` by
//!   construction).
//! - **A VM per worker.** Each worker thread owns a
//!   [`jns_core::SharedProgram`] handle (shared bytecode + its own
//!   deterministic lazy class table) and one long-lived [`jns_vm::Vm`]
//!   whose monotone caches — inline caches, union layouts, memoised view
//!   changes, interned types and mask sets — stay warm across requests.
//! - **A heap reset per request.** Before each request the worker calls
//!   [`jns_vm::Vm::reset_for_request`], reclaiming the previous
//!   request's whole region of objects (a trivial whole-heap collection
//!   on the shared `jns_eval::Heap`), so worker memory stays flat no
//!   matter how long the pool runs. With [`ServeConfig::heap_limit`]
//!   set, the heap's mark-compact tracing collector additionally bounds
//!   the live heap *within* each request, so one adversarial giant
//!   request cannot grow a worker without bound either
//!   (`Stats::{gc_runs, reclaimed, peak_live}` surface it per response
//!   and in the aggregate).
//!
//! Requests enter through a *bounded* queue (back-pressure instead of
//! unbounded buffering); responses flow back over an unbounded channel,
//! so workers never block on the way out and the submit/collect pair
//! cannot deadlock. [`serve_batch`] is the one-call driver used by the
//! `jns serve` CLI, the `serve` suite of `jns bench`, and the determinism
//! test suite.

#![warn(missing_docs)]

pub mod workload;

use jns_core::{Compiled, SharedProgram};
use jns_eval::{RunConfig, Stats};
use jns_obs::{Histogram, RunProfile, TimedEvent, TraceBuffer, TraceEvent};
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pool sizing and per-request limits.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Number of worker threads (and worker VMs). At least 1.
    pub workers: usize,
    /// Capacity of the bounded request queue; submitters block (back
    /// pressure) once this many requests are waiting. At least 1.
    pub queue_cap: usize,
    /// Optional per-request fuel limit (VM instructions).
    pub fuel: Option<u64>,
    /// Optional recursion-depth limit per request (method activations
    /// plus nested field initialisers; default
    /// [`jns_eval::DEFAULT_MAX_DEPTH`]). Exceeding it surfaces as a
    /// benign `DepthExceeded` response error, never a worker crash.
    pub max_depth: Option<u32>,
    /// Optional live-heap threshold per worker VM: once this many objects
    /// are live *within* a request, the next allocation first runs a
    /// mark-compact tracing collection (`Stats::{gc_runs, reclaimed,
    /// peak_live}` report it). This bounds worker memory against a single
    /// adversarial giant request — the per-request region reset only
    /// protects *across* requests. `None` disables intra-request GC.
    pub heap_limit: Option<usize>,
    /// Optional nursery capacity for generational collection on the
    /// worker VMs (effective only alongside [`ServeConfig::heap_limit`]):
    /// a full nursery triggers a cheap minor collection instead of a
    /// full mark-compact.
    pub nursery: Option<usize>,
    /// When set, every worker VM carries a bounded
    /// [`jns_obs::TraceBuffer`] (request start/end, GC runs, inline-cache
    /// misses), drained into [`ServeReport::trace_events`] at shutdown.
    /// Off by default: the disabled path is a branch on a `None` sink in
    /// each hook, so responses and stats are byte-identical either way.
    pub trace: bool,
    /// Capacity of each worker's trace buffer (events beyond it are
    /// counted as dropped, never reallocated). Only meaningful with
    /// [`ServeConfig::trace`]; defaults to [`jns_obs::DEFAULT_TRACE_CAP`].
    pub trace_cap: usize,
    /// When set, every worker VM runs the sampling profiler at this
    /// instruction stride; per-worker collapsed stacks merge into
    /// [`PoolTelemetry::samples`] at shutdown. `None` (the default)
    /// keeps the dispatch loop's hook a single branch — responses and
    /// stats are byte-identical either way.
    pub sample_stride: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            queue_cap: 128,
            fuel: None,
            max_depth: None,
            heap_limit: None,
            nursery: None,
            trace: false,
            trace_cap: jns_obs::DEFAULT_TRACE_CAP,
            sample_stride: None,
        }
    }
}

impl ServeConfig {
    /// A config with `workers` workers and defaults otherwise.
    pub fn with_workers(workers: usize) -> Self {
        ServeConfig {
            workers,
            ..Default::default()
        }
    }

    /// The per-request run limits every worker VM is spawned with.
    pub fn run_config(&self) -> RunConfig {
        RunConfig {
            fuel: self.fuel,
            max_depth: self.max_depth,
            heap_limit: self.heap_limit,
            nursery: self.nursery,
        }
    }
}

/// One unit of work: replay the compiled program's entrypoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Caller-chosen id, echoed in the [`Response`].
    pub id: u64,
}

/// The result of one request, produced by one worker VM.
#[derive(Debug, Clone)]
pub struct Response {
    /// The id of the request this answers.
    pub id: u64,
    /// Index of the worker that executed it.
    pub worker: usize,
    /// Lines produced by `print`.
    pub output: Vec<String>,
    /// The final value, rendered the way `print` would show it
    /// (`None` on error).
    pub value: Option<String>,
    /// The runtime error, rendered (`None` on success).
    pub error: Option<String>,
    /// Per-request execution statistics (the worker VM's stats are reset
    /// before every request).
    pub stats: Stats,
    /// Heap objects live at the end of this request.
    pub heap_live: usize,
    /// Heap objects reclaimed by the pre-request region reset (objects
    /// the *previous* request on this worker left behind).
    pub heap_reclaimed: usize,
    /// Time this request waited between submit and a worker picking it
    /// up, microseconds. Stamped when the submitter *enters* the bounded
    /// queue, so back-pressure blocking counts as queue wait.
    pub queue_us: u64,
    /// Time the worker spent executing this request, microseconds
    /// (heap reset + `main`).
    pub exec_us: u64,
}

impl Response {
    /// Whether the request completed without a runtime error.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

// ---------------------------------------------------------------- queue

/// A bounded MPMC queue: `Mutex` + two `Condvar`s (classic bounded
/// buffer). `push` blocks while full, `pop` blocks while empty, `close`
/// wakes everyone and makes `pop` drain-then-`None`.
struct RequestQueue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

/// Queue entries carry the instant the submitter *entered* [`push`]
/// (before any back-pressure blocking), so a request's measured queue
/// wait includes the time its submitter spent blocked on a full queue.
struct QueueState {
    buf: VecDeque<(Request, Instant)>,
    closed: bool,
    /// Most entries ever waiting at once (post-push high-water mark).
    high_water: usize,
    /// Number of `push` calls that found the queue full and had to block.
    submit_blocked: u64,
}

impl RequestQueue {
    fn new(cap: usize) -> Self {
        RequestQueue {
            state: Mutex::new(QueueState {
                buf: VecDeque::with_capacity(cap),
                closed: false,
                high_water: 0,
                submit_blocked: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocks while the queue is full. Returns `false` if the queue was
    /// closed (the request is dropped).
    fn push(&self, req: Request) -> bool {
        let enqueued = Instant::now();
        let mut st = self.state.lock().expect("queue poisoned");
        if st.buf.len() >= self.cap && !st.closed {
            st.submit_blocked += 1;
        }
        while st.buf.len() >= self.cap && !st.closed {
            st = self.not_full.wait(st).expect("queue poisoned");
        }
        if st.closed {
            return false;
        }
        st.buf.push_back((req, enqueued));
        st.high_water = st.high_water.max(st.buf.len());
        self.not_empty.notify_one();
        true
    }

    /// Blocks while the queue is empty and open; `None` once closed and
    /// drained. The returned instant is when the request entered `push`.
    fn pop(&self) -> Option<(Request, Instant)> {
        let mut st = self.state.lock().expect("queue poisoned");
        loop {
            if let Some(entry) = st.buf.pop_front() {
                self.not_full.notify_one();
                return Some(entry);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("queue poisoned");
        }
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("queue poisoned");
        st.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// `(high_water, submit_blocked)` back-pressure gauges.
    fn gauges(&self) -> (usize, u64) {
        let st = self.state.lock().expect("queue poisoned");
        (st.high_water, st.submit_blocked)
    }
}

// ----------------------------------------------------------------- pool

/// A running worker pool over one compiled program.
///
/// Workers are spawned eagerly; each owns a cloned [`SharedProgram`]
/// handle and one warm VM. Dropping the pool without calling
/// [`Pool::shutdown`] closes the queue and detaches the workers; prefer
/// `shutdown`, which joins them and returns every response.
pub struct Pool {
    queue: Arc<RequestQueue>,
    workers: Vec<JoinHandle<WorkerTelemetry>>,
    tx: Option<Sender<Response>>,
    rx: Receiver<Response>,
    submitted: u64,
    sample_stride: Option<u64>,
}

/// What one worker thread returns when it exits: its latency histogram
/// shards, request count, and (when tracing) its event buffer.
#[derive(Debug, Default)]
struct WorkerTelemetry {
    queue_wait: Histogram,
    exec: Histogram,
    requests: u64,
    events: Vec<TimedEvent>,
    dropped: u64,
    /// Collapsed sampling-profiler stacks, when sampling was on.
    sample_stacks: Vec<(String, u64)>,
    samples_taken: u64,
    /// The worker VM's heap limit (`None` when running without one).
    heap_limit: Option<usize>,
}

impl Pool {
    /// Spawns `cfg.workers` worker threads over `shared`.
    pub fn new(shared: &SharedProgram, cfg: &ServeConfig) -> Pool {
        let queue = Arc::new(RequestQueue::new(cfg.queue_cap));
        let (tx, rx) = channel::<Response>();
        let n = cfg.workers.max(1);
        // One shared clock origin so event timestamps from different
        // workers order correctly after the shutdown merge.
        let origin = Instant::now();
        let run = cfg.run_config();
        let mut workers = Vec::with_capacity(n);
        for w in 0..n {
            let queue = Arc::clone(&queue);
            let tx = tx.clone();
            let handle = shared.clone();
            let trace = cfg.trace;
            let trace_cap = cfg.trace_cap;
            let sample_stride = cfg.sample_stride;
            let t = std::thread::Builder::new()
                .name(format!("jns-serve-{w}"))
                .spawn(move || {
                    // The limits survive per-request resets, so one
                    // config set at spawn time applies to every request.
                    let mut vm = handle.spawn_vm().with_config(run);
                    if trace {
                        // The buffer survives per-request resets; one
                        // worker accumulates events for its whole life.
                        vm.set_trace(TraceBuffer::for_worker(origin, w as u32, trace_cap));
                    }
                    if let Some(s) = sample_stride {
                        // The sampler likewise survives resets: one
                        // worker accumulates one profile across requests.
                        vm.set_sample_stride(s);
                    }
                    let mut tele = WorkerTelemetry::default();
                    while let Some((req, enqueued)) = queue.pop() {
                        let queue_us = enqueued.elapsed().as_micros() as u64;
                        if let Some(t) = vm.trace_mut() {
                            t.push(TraceEvent::RequestStart { id: req.id });
                        }
                        let exec_start = Instant::now();
                        let heap_reclaimed = vm.reset_for_request();
                        let (value, error) = match vm.run() {
                            Ok(v) => (Some(vm.display_value(&v)), None),
                            Err(e) => (None, Some(e.to_string())),
                        };
                        let exec_us = exec_start.elapsed().as_micros() as u64;
                        if let Some(t) = vm.trace_mut() {
                            t.push(TraceEvent::RequestEnd {
                                id: req.id,
                                ok: error.is_none(),
                                queue_us,
                                exec_us,
                            });
                        }
                        tele.queue_wait.record(queue_us);
                        tele.exec.record(exec_us);
                        tele.requests += 1;
                        let resp = Response {
                            id: req.id,
                            worker: w,
                            output: std::mem::take(&mut vm.output),
                            value,
                            error,
                            stats: vm.stats,
                            heap_live: vm.heap_size(),
                            heap_reclaimed,
                            queue_us,
                            exec_us,
                        };
                        if tx.send(resp).is_err() {
                            break; // collector gone; stop early
                        }
                    }
                    if let Some(buf) = vm.take_trace() {
                        tele.dropped = buf.dropped();
                        tele.events = buf.into_events();
                    }
                    if vm.sample_stride().is_some() {
                        tele.sample_stacks = vm.folded_samples();
                        tele.samples_taken = vm.samples_taken();
                    }
                    tele.heap_limit = vm.heap_limit();
                    tele
                })
                .expect("spawn jns-serve worker");
            workers.push(t);
        }
        Pool {
            queue,
            workers,
            tx: Some(tx),
            rx,
            submitted: 0,
            sample_stride: cfg.sample_stride,
        }
    }

    /// Enqueues a request, blocking while the bounded queue is full.
    pub fn submit(&mut self, req: Request) {
        if self.queue.push(req) {
            self.submitted += 1;
        }
    }

    /// Requests submitted so far.
    pub fn submitted(&self) -> u64 {
        self.submitted
    }

    /// Collects one response if any worker has finished a request.
    pub fn try_collect(&self) -> Option<Response> {
        self.rx.try_recv().ok()
    }

    /// Closes the queue, joins every worker, and returns all remaining
    /// responses (anything not already taken via [`Pool::try_collect`]).
    /// Re-raises a worker's panic, as [`Pool::shutdown_report`] does.
    pub fn shutdown(self) -> Vec<Response> {
        self.shutdown_report().0
    }

    /// Like [`Pool::shutdown`], but also merges every worker's telemetry
    /// shards (latency histograms, request counts, trace events) and the
    /// queue's back-pressure gauges into one [`PoolTelemetry`].
    ///
    /// # Panics
    ///
    /// Re-raises the panic of a worker that panicked, once every worker
    /// has been joined.
    pub fn shutdown_report(mut self) -> (Vec<Response>, PoolTelemetry) {
        self.queue.close();
        let joined: Vec<_> = self.workers.drain(..).map(JoinHandle::join).collect();
        let shards: Vec<WorkerTelemetry> = joined
            .into_iter()
            .map(|r| r.unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect();
        drop(self.tx.take()); // after join: workers cloned it anyway
        let mut out: Vec<Response> = self.rx.iter().collect();
        out.sort_by_key(|r| r.id);
        let mut tele = PoolTelemetry::default();
        let (high_water, blocked) = self.queue.gauges();
        tele.queue_high_water = high_water;
        tele.submit_blocked = blocked;
        let mut events = Vec::with_capacity(shards.len());
        let mut stacks: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
        let mut taken = 0u64;
        for wt in shards {
            tele.queue_wait.merge(&wt.queue_wait);
            tele.exec.merge(&wt.exec);
            tele.worker_requests.push(wt.requests);
            tele.worker_heap_limits.push(wt.heap_limit);
            events.push(wt.events);
            tele.trace_dropped += wt.dropped;
            for (stack, n) in wt.sample_stacks {
                *stacks.entry(stack).or_insert(0) += n;
            }
            taken += wt.samples_taken;
        }
        tele.trace_events = jns_obs::merge_events(events);
        tele.samples = self.sample_stride.map(|stride| jns_obs::ProfileSamples {
            stride,
            taken,
            stacks: stacks.into_iter().collect(),
        });
        (out, tele)
    }
}

/// Pool-level telemetry merged at shutdown from per-worker shards —
/// merging histograms is bucketwise addition, so the merged distribution
/// is exactly the histogram of the union of all per-worker samples.
#[derive(Debug, Default)]
pub struct PoolTelemetry {
    /// Queue-wait latency across every request (submit → worker pickup).
    pub queue_wait: Histogram,
    /// Execution latency across every request (heap reset + `main`).
    pub exec: Histogram,
    /// Requests executed per worker, indexed by worker id.
    pub worker_requests: Vec<u64>,
    /// Each worker's heap limit, the configured
    /// [`ServeConfig::heap_limit`] (`None` per entry when the pool ran
    /// without a limit). Indexed by worker id.
    pub worker_heap_limits: Vec<Option<usize>>,
    /// Most requests ever waiting in the bounded queue at once.
    pub queue_high_water: usize,
    /// Number of submits that found the queue full and blocked.
    pub submit_blocked: u64,
    /// All workers' trace events, merged in timestamp order (empty
    /// unless [`ServeConfig::trace`] was set).
    pub trace_events: Vec<TimedEvent>,
    /// Events discarded because some worker's bounded buffer filled.
    pub trace_dropped: u64,
    /// Sampling-profiler collapsed stacks merged across every worker
    /// (stack-wise count addition, so the merged profile is exactly the
    /// profile of the union of all per-worker samples). `None` unless
    /// [`ServeConfig::sample_stride`] was set.
    pub samples: Option<jns_obs::ProfileSamples>,
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.queue.close();
    }
}

// --------------------------------------------------------------- report

/// Everything a batch run produces: per-request responses plus
/// pool-level aggregates.
#[derive(Debug)]
pub struct ServeReport {
    /// All responses, sorted by request id.
    pub responses: Vec<Response>,
    /// Statistics summed across every request.
    pub aggregate: Stats,
    /// Heap objects reclaimed by per-request resets, summed.
    pub heap_reclaimed: u64,
    /// Worker count the batch ran with.
    pub workers: usize,
    /// Wall-clock time from first submit to pool shutdown.
    pub elapsed: Duration,
    /// Latency histograms, back-pressure gauges, per-worker request
    /// counts, and (when tracing) the merged event stream.
    pub telemetry: PoolTelemetry,
}

impl ServeReport {
    /// Completed requests per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return f64::INFINITY;
        }
        self.responses.len() as f64 / secs
    }

    /// The batch's `jns-profile/1` document, as `jns serve
    /// --profile-json` writes it: the aggregate's [`Stats::counters`],
    /// the queue-wait and execution histograms and the merged samples.
    /// `program` names the source.
    pub fn profile(&self, program: &str) -> RunProfile {
        let t = &self.telemetry;
        RunProfile {
            backend: "serve".into(),
            program: program.into(),
            counters: self.aggregate.counters(),
            chunks: Vec::new(),
            ic_sites: Vec::new(),
            histograms: vec![
                ("queue_wait_us", t.queue_wait.clone()),
                ("exec_us", t.exec.clone()),
            ],
            samples: t.samples.clone(),
        }
    }

    /// Whether every response succeeded and produced byte-identical
    /// output and value.
    pub fn uniform(&self) -> bool {
        let Some(first) = self.responses.first() else {
            return true;
        };
        self.responses
            .iter()
            .all(|r| r.is_ok() && r.output == first.output && r.value == first.value)
    }
}

/// Compiles nothing, submits `requests` replays of `compiled`'s
/// entrypoint to a fresh pool, and reports. The program's bytecode is
/// lowered on first use and shared by every worker.
pub fn serve_batch(compiled: &Compiled, cfg: &ServeConfig, requests: u64) -> ServeReport {
    let shared = compiled.shared();
    let start = Instant::now();
    let mut pool = Pool::new(&shared, cfg);
    for id in 0..requests {
        pool.submit(Request { id });
    }
    let (responses, telemetry) = pool.shutdown_report();
    let elapsed = start.elapsed();
    let mut aggregate = Stats::default();
    let mut heap_reclaimed = 0u64;
    for r in &responses {
        aggregate.merge(&r.stats);
        heap_reclaimed += r.heap_reclaimed as u64;
    }
    ServeReport {
        responses,
        aggregate,
        heap_reclaimed,
        workers: cfg.workers.max(1),
        elapsed,
        telemetry,
    }
}

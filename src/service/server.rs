//! The daemon: accept loop, per-connection reader/writer threads, the
//! shared bounded job pool, and graceful drain.
//!
//! Concurrency model:
//!
//! * one **accept loop** ([`Server::run`]) spawning a reader thread and
//!   a writer thread per connection;
//! * one **shared job pool** of `workers` executor threads pulling from
//!   a bounded queue — `queue_capacity` jobs deep, and a submission
//!   *blocks* once it is full, so backpressure propagates through TCP
//!   to fast clients instead of ballooning memory;
//! * a **per-connection concurrency gate**: at most `per_connection`
//!   jobs of one connection in flight at a time, so one aggressive
//!   pipeliner cannot monopolize the pool.
//!
//! Submitted specs are parsed, canonicalized, answered from the
//! [`ResultCache`] when possible, and otherwise lint-preflighted and
//! run through the [`Experiment`] facade with per-spec `workers`
//! overridden to 1 — parallelism comes from the pool, not from inside
//! a job (and results are unaffected; that is lint `IVL050`'s story).
//!
//! [`ServiceHandle::shutdown`] (the SIGTERM path of `faithful-serve`)
//! stops accepting connections, makes readers reject *new* submissions
//! with typed `shutdown` errors, drains every accepted job, and joins
//! everything before [`Server::run`] returns its [`ServeSummary`].

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

use ivl_core::exec::catch_panic;
use ivl_core::factory::ChannelRegistry;

use super::cache::{CacheCounters, ResultCache};
use super::protocol::{Frame, ReadOutcome, GREETING};
use super::wire::{render_error, render_result, ServedErrorKind};
use crate::experiment::Experiment;
use crate::lint::{lint_text_for_service, LintConfig};
use crate::spec::{fnv1a_64, ChannelSpec, ExperimentSpec, TopologySpec, WorkloadSpec};

/// How often idle connection readers wake to check for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(150);

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port`. Port 0 picks an ephemeral port
    /// (the default — ask [`Server::local_addr`] what was bound).
    pub addr: String,
    /// Executor threads in the shared job pool (clamped to ≥ 1).
    pub workers: usize,
    /// Bounded job-queue depth; submissions block (backpressure) when
    /// the queue is full.
    pub queue_capacity: usize,
    /// Maximum in-flight jobs per connection.
    pub per_connection: usize,
    /// In-memory result cache bound, in entries.
    pub cache_entries: usize,
    /// In-memory result cache bound, in bytes (specs + results).
    pub cache_bytes: usize,
    /// Optional on-disk cache directory (the `IVL_CACHE_DIR` knob of
    /// `faithful-serve`).
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .min(8),
            queue_capacity: 256,
            per_connection: 64,
            cache_entries: 1024,
            cache_bytes: 64 << 20,
            cache_dir: None,
        }
    }
}

/// What one daemon lifetime did, returned by [`Server::run`] after the
/// drain completes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: u64,
    /// Jobs executed to completion (cache misses that ran).
    pub jobs: u64,
    /// Submissions answered from the cache.
    pub cache_hits: u64,
    /// Submissions rejected because the daemon was shutting down.
    pub rejected: u64,
    /// Submissions answered with spec/lint/run/internal errors.
    pub errors: u64,
    /// The result cache's own counters.
    pub cache: CacheCounters,
}

// ======================================================================
// Bounded job queue
// ======================================================================

struct Job {
    id: u64,
    /// The submitted text, verbatim (lint spans point into it).
    text: String,
    /// The canonical rendering (the cache key's preimage).
    canonical: String,
    hash: u64,
    cacheable: bool,
    spec: ExperimentSpec,
    reply: mpsc::Sender<Frame>,
    _guard: GateGuard,
}

struct JobQueue {
    state: Mutex<(VecDeque<Box<Job>>, bool)>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl JobQueue {
    fn new(capacity: usize) -> Self {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Blocks while the queue is full; `Err(job)` once closed.
    fn push(&self, job: Box<Job>) -> Result<(), Box<Job>> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if s.1 {
                return Err(job);
            }
            if s.0.len() < self.capacity {
                s.0.push_back(job);
                self.not_empty.notify_one();
                return Ok(());
            }
            s = self.not_full.wait(s).expect("queue lock");
        }
    }

    /// Blocks while empty; `None` once closed *and* drained.
    fn pop(&self) -> Option<Box<Job>> {
        let mut s = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = s.0.pop_front() {
                self.not_full.notify_one();
                return Some(job);
            }
            if s.1 {
                return None;
            }
            s = self.not_empty.wait(s).expect("queue lock");
        }
    }

    fn close(&self) {
        self.state.lock().expect("queue lock").1 = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

// ======================================================================
// Per-connection concurrency gate
// ======================================================================

struct Gate {
    count: Mutex<usize>,
    cv: Condvar,
    cap: usize,
}

impl Gate {
    fn new(cap: usize) -> Arc<Gate> {
        Arc::new(Gate {
            count: Mutex::new(0),
            cv: Condvar::new(),
            cap: cap.max(1),
        })
    }

    fn acquire(self: &Arc<Gate>) -> GateGuard {
        let mut n = self.count.lock().expect("gate lock");
        while *n >= self.cap {
            n = self.cv.wait(n).expect("gate lock");
        }
        *n += 1;
        GateGuard(Arc::clone(self))
    }

    fn in_flight(&self) -> usize {
        *self.count.lock().expect("gate lock")
    }
}

struct GateGuard(Arc<Gate>);

impl Drop for GateGuard {
    fn drop(&mut self) {
        let mut n = self.0.count.lock().expect("gate lock");
        *n = n.saturating_sub(1);
        self.0.cv.notify_all();
    }
}

// ======================================================================
// The server
// ======================================================================

struct Shared {
    shutdown: AtomicBool,
    queue: JobQueue,
    cache: Mutex<ResultCache>,
    connections: AtomicU64,
    jobs: AtomicU64,
    cache_hits: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

/// A bound (but not yet running) experiment service daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: usize,
    per_connection: usize,
}

/// A cloneable handle for stopping a running [`Server`] from another
/// thread (or a signal handler's watcher).
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServiceHandle {
    /// Begins the graceful drain: stop accepting connections, reject
    /// new submissions with typed `shutdown` errors, finish every
    /// accepted job, then let [`Server::run`] return. Idempotent.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(500));
    }

    /// `true` once [`shutdown`](ServiceHandle::shutdown) was called.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

impl Server {
    /// Binds the listen socket and prepares the cache; nothing runs
    /// until [`run`](Server::run).
    ///
    /// # Errors
    ///
    /// Bind failures and cache-directory creation failures.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut cache = ResultCache::new(config.cache_entries, config.cache_bytes);
        if let Some(dir) = &config.cache_dir {
            cache = cache.with_disk(dir)?;
        }
        Ok(Server {
            listener,
            addr,
            shared: Arc::new(Shared {
                shutdown: AtomicBool::new(false),
                queue: JobQueue::new(config.queue_capacity),
                cache: Mutex::new(cache),
                connections: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                cache_hits: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
            workers: config.workers.max(1),
            per_connection: config.per_connection,
        })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Socket introspection failures.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok(self.addr)
    }

    /// A handle that can stop this server from another thread.
    #[must_use]
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Serves until [`ServiceHandle::shutdown`], then drains every
    /// accepted job and returns the lifetime summary.
    #[must_use = "the summary says what the daemon did"]
    pub fn run(self) -> ServeSummary {
        let mut pool = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let shared = Arc::clone(&self.shared);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("ivl-serve-worker-{i}"))
                    .spawn(move || {
                        let registry = ChannelRegistry::with_builtins();
                        while let Some(job) = shared.queue.pop() {
                            process(&job, &registry, &shared);
                        }
                    })
                    .expect("spawn worker thread"),
            );
        }
        let mut conns = Vec::new();
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(50));
                    continue;
                }
            };
            let shared = Arc::clone(&self.shared);
            let n = shared.connections.fetch_add(1, Ordering::SeqCst);
            let per_connection = self.per_connection;
            conns.push(
                std::thread::Builder::new()
                    .name(format!("ivl-serve-conn-{n}"))
                    .spawn(move || serve_connection(stream, &shared, per_connection))
                    .expect("spawn connection thread"),
            );
        }
        drop(self.listener);
        for c in conns {
            let _ = c.join();
        }
        // All readers are gone, so nothing can push any more: close the
        // queue and let the pool drain what is left.
        self.shared.queue.close();
        for w in pool {
            let _ = w.join();
        }
        ServeSummary {
            connections: self.shared.connections.load(Ordering::SeqCst),
            jobs: self.shared.jobs.load(Ordering::SeqCst),
            cache_hits: self.shared.cache_hits.load(Ordering::SeqCst),
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            errors: self.shared.errors.load(Ordering::SeqCst),
            cache: self.shared.cache.lock().expect("cache lock").counters(),
        }
    }
}

// ======================================================================
// Connection handling
// ======================================================================

fn serve_connection(stream: TcpStream, shared: &Arc<Shared>, per_connection: usize) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Frame>();
    let writer = std::thread::Builder::new()
        .name("ivl-serve-writer".to_owned())
        .spawn(move || {
            let mut w = std::io::BufWriter::new(write_half);
            let hello = Frame::Hello {
                greeting: GREETING.to_owned(),
            };
            if hello.write_to(&mut w).is_err() {
                return;
            }
            while let Ok(frame) = rx.recv() {
                if frame.write_to(&mut w).is_err() {
                    break;
                }
            }
        })
        .expect("spawn writer thread");

    let gate = Gate::new(per_connection);
    // buffered: a frame arrives in one read, not three
    let mut stream = std::io::BufReader::new(stream);
    loop {
        match Frame::read_from(&mut stream) {
            Err(_) => {
                // Framing violation: answer typed (request id unknown —
                // 0 by convention) and hang up; resync is impossible.
                let _ = tx.send(Frame::Error {
                    id: 0,
                    text: render_error(
                        ServedErrorKind::Protocol,
                        "malformed frame; closing the connection",
                        &[],
                    ),
                });
                break;
            }
            Ok(ReadOutcome::Eof) => break,
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) && gate.in_flight() == 0 {
                    break;
                }
            }
            Ok(ReadOutcome::Frame(Frame::Submit { id, spec })) => {
                handle_submit(id, spec, &tx, &gate, shared);
            }
            Ok(ReadOutcome::Frame(_)) => {
                let _ = tx.send(Frame::Error {
                    id: 0,
                    text: render_error(
                        ServedErrorKind::Protocol,
                        "unexpected frame type from a client; closing the connection",
                        &[],
                    ),
                });
                break;
            }
        }
    }
    drop(tx);
    let _ = writer.join();
}

fn handle_submit(
    id: u64,
    text: String,
    tx: &mpsc::Sender<Frame>,
    gate: &Arc<Gate>,
    shared: &Arc<Shared>,
) {
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        let _ = tx.send(Frame::Error {
            id,
            text: render_error(
                ServedErrorKind::Shutdown,
                "the daemon is draining and no longer accepts jobs",
                &[],
            ),
        });
        return;
    }
    let spec: ExperimentSpec = match text.parse() {
        Ok(spec) => spec,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            let _ = tx.send(Frame::Error {
                id,
                text: render_error(ServedErrorKind::Spec, &e.to_string(), &[]),
            });
            return;
        }
    };
    let canonical = spec.to_string();
    let hash = fnv1a_64(canonical.as_bytes());
    if let Some(result) = shared
        .cache
        .lock()
        .expect("cache lock")
        .get(hash, &canonical)
    {
        shared.cache_hits.fetch_add(1, Ordering::SeqCst);
        let _ = tx.send(Frame::Result {
            id,
            cached: true,
            text: result,
        });
        return;
    }
    // Admission: first the per-connection gate, then the bounded pool
    // queue. Both block — that *is* the backpressure.
    let guard = gate.acquire();
    let job = Box::new(Job {
        id,
        cacheable: replayable(&spec),
        canonical,
        hash,
        spec,
        text,
        reply: tx.clone(),
        _guard: guard,
    });
    if let Err(job) = shared.queue.push(job) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        let _ = tx.send(Frame::Error {
            id: job.id,
            text: render_error(
                ServedErrorKind::Shutdown,
                "the daemon is draining and no longer accepts jobs",
                &[],
            ),
        });
    }
}

// ======================================================================
// Job execution
// ======================================================================

fn process(job: &Job, registry: &ChannelRegistry, shared: &Arc<Shared>) {
    // Lint preflight over the wire: reject Error-severity findings as a
    // typed error carrying every diagnostic (spans point into the
    // submitted text, not the canonical rendering).
    match lint_text_for_service(&job.text, registry) {
        Ok(report) => {
            if report.has_errors() {
                shared.errors.fetch_add(1, Ordering::SeqCst);
                let _ = job.reply.send(Frame::Error {
                    id: job.id,
                    text: render_error(
                        ServedErrorKind::Lint,
                        "rejected by the lint preflight",
                        report.diagnostics(),
                    ),
                });
                return;
            }
        }
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            let _ = job.reply.send(Frame::Error {
                id: job.id,
                text: render_error(ServedErrorKind::Spec, &e.to_string(), &[]),
            });
            return;
        }
    }
    let mut spec = job.spec.clone();
    override_workers(&mut spec);
    let experiment = Experiment::new(spec).with_lint(LintConfig::Off);
    match catch_panic(|| experiment.run()) {
        Ok(Ok(result)) => {
            let rendered = render_result(&result);
            if job.cacheable {
                shared.cache.lock().expect("cache lock").insert(
                    job.hash,
                    &job.canonical,
                    rendered.clone(),
                );
            }
            shared.jobs.fetch_add(1, Ordering::SeqCst);
            let _ = job.reply.send(Frame::Result {
                id: job.id,
                cached: false,
                text: rendered,
            });
        }
        Ok(Err(e)) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            let _ = job.reply.send(Frame::Error {
                id: job.id,
                text: render_error(ServedErrorKind::Run, &e.to_string(), &[]),
            });
        }
        Err(message) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            let _ = job.reply.send(Frame::Error {
                id: job.id,
                text: render_error(
                    ServedErrorKind::Internal,
                    &format!("worker panicked: {message}"),
                    &[],
                ),
            });
        }
    }
}

/// The service schedules whole jobs onto its pool; per-spec sweep
/// parallelism is forced to 1 (results are unaffected — sweeps are
/// bit-identical across worker counts — which is why lint `IVL050` is
/// informational).
fn override_workers(spec: &mut ExperimentSpec) {
    match &mut spec.workload {
        WorkloadSpec::Digital(d) => d.workers = Some(1),
        WorkloadSpec::Analog(a) => a.workers = Some(1),
        WorkloadSpec::Channel(_) | WorkloadSpec::Spf(_) => {}
    }
}

/// `true` when replaying the spec is guaranteed bit-identical, i.e. the
/// result may be cached. The only exception in the whole spec language:
/// digital sweeps where an *unseeded* scenario meets a stochastic
/// channel (noise drawn from streams left wherever the previous run put
/// them).
fn replayable(spec: &ExperimentSpec) -> bool {
    let WorkloadSpec::Digital(d) = &spec.workload else {
        return true;
    };
    d.scenarios.iter().all(|s| s.seed.is_some()) || !topology_stochastic(&d.topology)
}

fn topology_stochastic(topology: &TopologySpec) -> bool {
    match topology {
        TopologySpec::InverterChain { channel, .. }
        | TopologySpec::Grid2d { channel, .. }
        | TopologySpec::RandomDag { channel, .. }
        | TopologySpec::FatTree { channel, .. } => channel_stochastic(channel),
        TopologySpec::Netlist(n) => n
            .edges
            .iter()
            .any(|e| e.channel.as_ref().is_some_and(channel_stochastic)),
    }
}

fn channel_stochastic(c: &ChannelSpec) -> bool {
    if !matches!(
        c.kind.as_str(),
        "pure" | "inertial" | "ddm" | "involution" | "eta"
    ) {
        return true; // custom kind: conservatively assume stochastic
    }
    matches!(
        c.params.text_or("noise", "zero"),
        Ok("uniform" | "gaussian")
    )
}

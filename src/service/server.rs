//! The daemon: accept loop, per-connection reader/writer threads, the
//! shared bounded job pool, and graceful drain.
//!
//! Concurrency model:
//!
//! * one **accept loop** ([`Server::run`]) spawning a reader thread and
//!   a writer thread per connection;
//! * one **shared job pool** of `workers` executor threads pulling cache
//!   misses from a `sync_channel` of `queue_capacity` jobs; a reader
//!   *blocks* while it is full;
//! * **one gate slot per reply**: a connection has `per_connection`
//!   slots. The reader takes one for every submission before parsing it
//!   (hits, spec errors and shutdown rejections too); the slot travels
//!   with the reply and is freed when the writer takes the reply off its
//!   channel. So a connection buffers at most `per_connection + 1`
//!   replies plus one inbound frame (≤ 64 MiB), one pipeliner cannot
//!   monopolize the pool, and a client that stops reading stalls its own
//!   reader, which TCP pushes back to the client. Pool workers never
//!   block on a socket, and a reply not written within `WRITE_DEADLINE`
//!   drops the connection along with the replies still queued for it.
//!
//! Submitted specs are parsed once, keyed by the binary encoding of
//! their canonical tree (no text is rendered), answered from the
//! [`ResultCache`] when possible, and otherwise lint-preflighted (with
//! the spans of that one parse) and run through the [`Experiment`] facade with per-spec `workers`
//! overridden to 1 — parallelism comes from the pool, not from inside
//! a job (and results are unaffected; that is lint `IVL050`'s story).
//!
//! [`ServiceHandle::shutdown`] (the SIGTERM path of `faithful-serve`)
//! stops accepting connections, makes readers reject *new* submissions
//! with typed `shutdown` errors, drains every accepted job, and joins
//! everything before [`Server::run`] returns its [`ServeSummary`].

use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ivl_core::exec::catch_panic;
use ivl_core::factory::ChannelRegistry;

use super::cache::{CacheCounters, ResultCache};
use super::protocol::{Frame, ReadOutcome, GREETING};
use super::wire::{render_error, render_result, ServedErrorKind};
use crate::experiment::Experiment;
use crate::lint::{lint_spanned, LintConfig};
use crate::spec::{ChannelSpec, ExperimentSpec, SpecSpans, TopologySpec, WorkloadSpec};
use crate::value::key_hash;

/// How often idle connection readers wake to check for shutdown.
const IDLE_POLL: Duration = Duration::from_millis(150);

/// How long the writer may spend on one reply frame, first byte to
/// last; a peer that does not read for this long is disconnected.
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// Tuning knobs of a [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, `host:port`. Port 0 picks an ephemeral port
    /// (the default — ask [`Server::local_addr`] what was bound).
    pub addr: String,
    /// Executor threads in the shared job pool (clamped to ≥ 1).
    pub workers: usize,
    /// Depth of the pool's job queue (cache misses waiting for a
    /// worker, clamped to ≥ 1); a connection reader blocks
    /// (backpressure) while it is full.
    pub queue_capacity: usize,
    /// Replies queued per connection, hits and errors included (clamped
    /// to ≥ 1). A submission waits for a slot before it is parsed; the
    /// slot is freed when the connection's writer takes the reply.
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
    /// Submissions answered from the cache (the same count as
    /// `cache.hits`).
    pub cache_hits: u64,
    /// Submissions rejected because the daemon was shutting down.
    pub rejected: u64,
    /// Submissions answered with spec/lint/run/internal errors.
    pub errors: u64,
    /// The result cache's own counters.
    pub cache: CacheCounters,
}

// ======================================================================
// Jobs and replies
// ======================================================================

struct Job {
    id: u64,
    /// Where the submission's parse found each part of the text (lint
    /// spans point into the text as submitted).
    spans: SpecSpans,
    /// The spec's cache key ([`ExperimentSpec::cache_key`]) and its hash.
    key: Vec<u8>,
    hash: u64,
    cacheable: bool,
    spec: ExperimentSpec,
    reply: mpsc::Sender<Reply>,
    slot: GateGuard,
}

/// One reply on its way to the connection's writer, holding the gate
/// slot its request was admitted under until the writer takes it.
struct Reply {
    frame: Frame,
    slot: GateGuard,
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
        // only the connection's reader waits, and only on a full gate
        if *n == self.0.cap {
            self.0.cv.notify_one();
        }
        *n = n.saturating_sub(1);
    }
}

// ======================================================================
// The server
// ======================================================================

struct Shared {
    shutdown: AtomicBool,
    cache: Mutex<ResultCache>,
    connections: AtomicU64,
    jobs: AtomicU64,
    rejected: AtomicU64,
    errors: AtomicU64,
}

/// A bound (but not yet running) experiment service daemon.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    workers: usize,
    queue_capacity: usize,
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
                cache: Mutex::new(cache),
                connections: AtomicU64::new(0),
                jobs: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                errors: AtomicU64::new(0),
            }),
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
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
        let (jobs, queue) = mpsc::sync_channel::<Box<Job>>(self.queue_capacity);
        let queue = Arc::new(Mutex::new(queue));
        let mut pool = Vec::with_capacity(self.workers);
        for i in 0..self.workers {
            let queue = Arc::clone(&queue);
            let shared = Arc::clone(&self.shared);
            pool.push(
                std::thread::Builder::new()
                    .name(format!("ivl-serve-worker-{i}"))
                    .spawn(move || {
                        let registry = ChannelRegistry::with_builtins();
                        loop {
                            // the lock guard ends with this statement, so
                            // workers wait on the queue, not on each other
                            let next = queue.lock().expect("job queue lock").recv();
                            let Ok(job) = next else { break };
                            process(*job, &registry, &shared);
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
            let jobs = jobs.clone();
            let n = shared.connections.fetch_add(1, Ordering::SeqCst);
            let per_connection = self.per_connection;
            conns.push(
                std::thread::Builder::new()
                    .name(format!("ivl-serve-conn-{n}"))
                    .spawn(move || serve_connection(stream, &jobs, &shared, per_connection))
                    .expect("spawn connection thread"),
            );
        }
        drop(self.listener);
        for c in conns {
            let _ = c.join();
        }
        // All readers are gone, so nothing can submit any more: dropping
        // the last sender lets the pool drain what is left and exit.
        drop(jobs);
        for w in pool {
            let _ = w.join();
        }
        let cache = self.shared.cache.lock().expect("cache lock").counters();
        ServeSummary {
            connections: self.shared.connections.load(Ordering::SeqCst),
            jobs: self.shared.jobs.load(Ordering::SeqCst),
            cache_hits: cache.hits,
            rejected: self.shared.rejected.load(Ordering::SeqCst),
            errors: self.shared.errors.load(Ordering::SeqCst),
            cache,
        }
    }
}

// ======================================================================
// Connection handling
// ======================================================================

/// A socket writer that gives up once `by` has passed, however the
/// frame was split into partial writes (`SO_SNDTIMEO` alone restarts on
/// every call).
struct DeadlineWriter<'a> {
    stream: &'a TcpStream,
    by: Instant,
}

impl Write for DeadlineWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let left = self.by.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_write_timeout(Some(left))?;
        self.stream.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Writes one frame within [`WRITE_DEADLINE`].
fn write_frame(stream: &TcpStream, frame: &Frame) -> io::Result<()> {
    frame.write_to(&mut DeadlineWriter {
        stream,
        by: Instant::now() + WRITE_DEADLINE,
    })
}

fn serve_connection(
    stream: TcpStream,
    jobs: &mpsc::SyncSender<Box<Job>>,
    shared: &Arc<Shared>,
    per_connection: usize,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<Reply>();
    let writer = std::thread::Builder::new()
        .name("ivl-serve-writer".to_owned())
        .spawn(move || {
            let hello = Frame::Hello {
                greeting: GREETING.to_owned(),
            };
            let mut written = write_frame(&write_half, &hello);
            while written.is_ok() {
                let Ok(Reply { frame, slot }) = rx.recv() else {
                    return;
                };
                drop(slot);
                written = write_frame(&write_half, &frame);
            }
            // A failed or overdue write drops the connection: the reader
            // sees EOF, and the replies still queued are discarded with
            // `rx`, freeing their slots.
            let _ = write_half.shutdown(Shutdown::Both);
        })
        .expect("spawn writer thread");

    let gate = Gate::new(per_connection);
    // buffered: a frame arrives in one read, not three
    let mut stream = std::io::BufReader::new(stream);
    loop {
        let violation = match Frame::read_from(&mut stream) {
            Ok(ReadOutcome::Frame(Frame::Submit { id, spec })) => {
                if handle_submit(id, spec, gate.acquire(), &tx, jobs, shared) {
                    continue;
                }
                break;
            }
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst) && gate.in_flight() == 0 {
                    break;
                }
                continue;
            }
            Ok(ReadOutcome::Eof) => break,
            Err(_) => "malformed frame; closing the connection",
            Ok(ReadOutcome::Frame(_)) => {
                "unexpected frame type from a client; closing the connection"
            }
        };
        // Protocol violation: answer typed (request id unknown — 0 by
        // convention) and hang up; resync is impossible.
        let _ = tx.send(Reply {
            frame: error_frame(0, ServedErrorKind::Protocol, violation),
            slot: gate.acquire(),
        });
        break;
    }
    drop(tx);
    let _ = writer.join();
}

/// A typed error reply without diagnostics.
fn error_frame(id: u64, kind: ServedErrorKind, message: &str) -> Frame {
    Frame::Error {
        id,
        text: render_error(kind, message, &[]),
    }
}

/// Answers one submission admitted under `slot` from the cache, with a
/// typed error, or via the pool; `false` once the writer or pool is gone.
fn handle_submit(
    id: u64,
    text: String,
    slot: GateGuard,
    tx: &mpsc::Sender<Reply>,
    jobs: &mpsc::SyncSender<Box<Job>>,
    shared: &Arc<Shared>,
) -> bool {
    let reply = |frame, slot| tx.send(Reply { frame, slot }).is_ok();
    if shared.shutdown.load(Ordering::SeqCst) {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        let message = "the daemon is draining and no longer accepts jobs";
        return reply(error_frame(id, ServedErrorKind::Shutdown, message), slot);
    }
    let (spec, spans) = match ExperimentSpec::parse_spanned(&text) {
        Ok(parsed) => parsed,
        Err(e) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            return reply(error_frame(id, ServedErrorKind::Spec, &e.to_string()), slot);
        }
    };
    let key = spec.cache_key();
    let hash = key_hash(&key);
    let hit = shared.cache.lock().expect("cache lock").get(hash, &key);
    if let Some(text) = hit {
        return reply(
            Frame::Result {
                id,
                cached: true,
                text,
            },
            slot,
        );
    }
    // A miss goes to the pool; the send blocks while its queue is full,
    // which is the backpressure.
    let job = Box::new(Job {
        id,
        cacheable: replayable(&spec),
        key,
        hash,
        spec,
        spans,
        reply: tx.clone(),
        slot,
    });
    jobs.send(job).is_ok()
}

// ======================================================================
// Job execution
// ======================================================================

fn process(job: Job, registry: &ChannelRegistry, shared: &Arc<Shared>) {
    let frame = match run_job(job.id, job.spec, &job.spans, registry) {
        Ok(rendered) => {
            if job.cacheable {
                shared.cache.lock().expect("cache lock").insert(
                    job.hash,
                    &job.key,
                    rendered.clone(),
                );
            }
            shared.jobs.fetch_add(1, Ordering::SeqCst);
            Frame::Result {
                id: job.id,
                cached: false,
                text: rendered,
            }
        }
        Err(error) => {
            shared.errors.fetch_add(1, Ordering::SeqCst);
            error
        }
    };
    let _ = job.reply.send(Reply {
        frame,
        slot: job.slot,
    });
}

/// Lint-preflights and runs one job: its rendered result, or the typed
/// error reply.
fn run_job(
    id: u64,
    mut spec: ExperimentSpec,
    spans: &SpecSpans,
    registry: &ChannelRegistry,
) -> Result<String, Frame> {
    // Lint preflight over the wire: reject Error-severity findings as a
    // typed error carrying every diagnostic (spans point into the
    // submitted text, not the canonical rendering).
    let report = lint_spanned(&spec, spans, registry, true);
    if report.has_errors() {
        return Err(Frame::Error {
            id,
            text: render_error(
                ServedErrorKind::Lint,
                "rejected by the lint preflight",
                report.diagnostics(),
            ),
        });
    }
    override_workers(&mut spec);
    let experiment = Experiment::new(spec).with_lint(LintConfig::Off);
    match catch_panic(|| experiment.run()) {
        Ok(Ok(result)) => Ok(render_result(&result)),
        Ok(Err(e)) => Err(error_frame(id, ServedErrorKind::Run, &e.to_string())),
        Err(message) => {
            let message = format!("worker panicked: {message}");
            Err(error_frame(id, ServedErrorKind::Internal, &message))
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
        | TopologySpec::FatTree { channel, .. } => channel.is_stochastic(),
        TopologySpec::Netlist(n) => n
            .edges
            .iter()
            .any(|e| e.channel.as_ref().is_some_and(ChannelSpec::is_stochastic)),
    }
}

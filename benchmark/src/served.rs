//! `serve_hot` and `serve_cold`: one process, one connection to an
//! in-process daemon with `workers = nproc`, at most `nproc` requests in
//! flight, closed loop (the next request goes out only when a reply
//! frees a window slot).

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use faithful::core::factory::ChannelRegistry;
use faithful::service::{
    parse_result, render_result, ResultCache, ServeConfig, ServeSummary, Server, ServiceHandle,
};
use faithful::{lint_text_for_service, Experiment, ExperimentSpec, LintConfig, WorkloadSpec};

use crate::client::{FrameClient, RESULT, RESULT_CACHED};
use crate::gen::{self, SplitMix64};
use crate::host::{self, Probe};
use crate::report::{mean, ratio, Layers, Outcome, Slice, Timed, SETUPS, SLICES};
use crate::trace::Tracer;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Hot,
    Cold,
}

/// Cache entries of the `serve_cold` daemon: far fewer than the corpus
/// it cycles through in a fixed order, so every submission misses and
/// every insert evicts, as in a long stream of new specs.
const COLD_CACHE_ENTRIES: usize = 16;

/// One spec with the reply the daemon must send for it.
struct Item {
    text: String,
    expected: Vec<u8>,
    processed: u64,
    scheduled: u64,
}

struct Daemon {
    addr: SocketAddr,
    handle: ServiceHandle,
    join: JoinHandle<ServeSummary>,
}

impl Daemon {
    fn start(config: ServeConfig) -> Result<Daemon, String> {
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let join = std::thread::Builder::new()
            .name("bench-daemon".to_owned())
            .spawn(move || server.run())
            .map_err(|e| format!("spawn daemon: {e}"))?;
        Ok(Daemon { addr, handle, join })
    }

    /// Drains and joins the daemon; the client must be dropped first.
    fn stop(self) -> ServeSummary {
        self.handle.shutdown();
        self.join.join().expect("the daemon thread does not panic")
    }
}

fn config(mode: Mode, cpus: usize) -> ServeConfig {
    ServeConfig {
        workers: cpus,
        per_connection: cpus,
        cache_entries: match mode {
            Mode::Hot => ServeConfig::default().cache_entries,
            Mode::Cold => COLD_CACHE_ENTRIES,
        },
        ..ServeConfig::default()
    }
}

fn corpus(mode: Mode, seed: u64) -> Vec<String> {
    match mode {
        Mode::Hot => gen::hot_corpus(seed),
        Mode::Cold => gen::cold_corpus(seed),
    }
}

/// What the in-process replica of the daemon answers for one spec.
struct Answer {
    payload: String,
    cached: bool,
    processed: u64,
    scheduled: u64,
}

/// One request through the daemon's stages in process and in the
/// daemon's order, under a `stages` span: parse → canonical hash → cache
/// get, then on a miss lint → run → render → cache insert, with
/// `workers` forced to 1 as the daemon forces it. A `graph.build` probe
/// before the run lets simulate be told apart from build.
fn stage_op(
    id: u64,
    text: &str,
    registry: &ChannelRegistry,
    cache: &mut ResultCache,
    tracer: &mut Tracer,
) -> Result<Answer, String> {
    tracer.span(id, "stages", |t| {
        let mut spec: ExperimentSpec = t
            .span(id, "spec.parse", |_| text.parse::<ExperimentSpec>())
            .map_err(|e| format!("generated spec does not parse: {e}"))?;
        let hash = t.span(id, "spec.canonical_hash", |_| spec.canonical_hash());
        let canonical = t.span(id, "bench.cache_key", |_| spec.to_string());
        if let Some(payload) = t.span(id, "cache.get", |_| cache.get(hash, &canonical)) {
            return Ok(Answer {
                payload,
                cached: true,
                processed: 0,
                scheduled: 0,
            });
        }
        let report = t
            .span(id, "lint.preflight", |_| {
                lint_text_for_service(text, registry)
            })
            .map_err(|e| e.to_string())?;
        if report.has_errors() {
            return Err(format!("generated spec fails lint:\n{report}"));
        }
        match &mut spec.workload {
            WorkloadSpec::Digital(d) => d.workers = Some(1),
            WorkloadSpec::Analog(a) => a.workers = Some(1),
            _ => {}
        }
        let experiment = Experiment::new(spec).with_lint(LintConfig::Off);
        if let WorkloadSpec::Digital(d) = &experiment.spec().workload {
            t.span(id, "graph.build", |_| {
                experiment.build_circuit(&d.topology).map(drop)
            })
            .map_err(|e| e.to_string())?;
        }
        let result = t
            .span(id, "experiment.run", |_| experiment.run())
            .map_err(|e| format!("generated spec fails to run: {e}"))?;
        let payload = t.span(id, "wire.render", |_| render_result(&result));
        let stored = payload.clone();
        t.span(id, "cache.insert", |_| {
            cache.insert(hash, &canonical, stored)
        });
        let stats = result.digital().and_then(|d| d.stats.clone());
        Ok(Answer {
            payload,
            cached: false,
            processed: stats.as_ref().map_or(0, |s| s.processed_events),
            scheduled: stats.as_ref().map_or(0, |s| s.scheduled_events),
        })
    })
}

/// Computes every expected reply in process, filling `cache` as the
/// daemon fills its own.
fn expected_replies(
    corpus: &[String],
    registry: &ChannelRegistry,
    cache: &mut ResultCache,
) -> Result<Vec<Item>, String> {
    let mut untraced = Tracer::new(false);
    let mut items = Vec::with_capacity(corpus.len());
    for (i, text) in corpus.iter().enumerate() {
        let answer = stage_op(i as u64, text, registry, cache, &mut untraced)
            .map_err(|e| format!("spec {i}: {e}"))?;
        if answer.cached {
            return Err(format!("generated spec {i} repeats an earlier one"));
        }
        items.push(Item {
            text: text.clone(),
            expected: answer.payload.into_bytes(),
            processed: answer.processed,
            scheduled: answer.scheduled,
        });
    }
    Ok(items)
}

enum Stop {
    After(Duration),
    Ops(usize),
}

#[derive(Default)]
struct Served {
    latencies_ns: Vec<u64>,
    failed: u64,
    events: u64,
    hits: u64,
}

impl Served {
    fn absorb(&mut self, other: Served) {
        self.latencies_ns.extend(other.latencies_ns);
        self.failed += other.failed;
        self.events += other.events;
        self.hits += other.hits;
    }
}

/// Closed loop: `window` requests in flight; each reply is checked
/// byte for byte against its expected payload and frame type, then the
/// next request goes out until `stop` says the loop is done. With the
/// tracer enabled every request gets a `request` span.
fn closed_loop(
    client: &mut FrameClient,
    items: &[Item],
    next_item: &mut dyn FnMut() -> usize,
    window: usize,
    stop: Stop,
    want_tag: u8,
    tracer: &mut Tracer,
) -> Result<Served, String> {
    let io = |e: std::io::Error| format!("connection: {e}");
    let start = Instant::now();
    let mut sent = 0usize;
    let more = |sent: usize| match stop {
        Stop::After(budget) => start.elapsed() < budget,
        Stop::Ops(n) => sent < n,
    };
    let mut in_flight: Vec<(u64, usize, Instant)> = Vec::with_capacity(window);
    let mut out = Served::default();
    while in_flight.len() < window && more(sent) {
        let item = next_item();
        let at = Instant::now();
        let id = client.submit(&items[item].text).map_err(io)?;
        in_flight.push((id, item, at));
        sent += 1;
    }
    while !in_flight.is_empty() {
        let reply = client.recv().map_err(io)?;
        let done = Instant::now();
        let slot = in_flight
            .iter()
            .position(|f| f.0 == reply.id)
            .ok_or_else(|| format!("reply to unknown request {}", reply.id))?;
        let (id, item, at) = in_flight.swap_remove(slot);
        out.latencies_ns
            .push(u64::try_from((done - at).as_nanos()).unwrap_or(u64::MAX));
        if reply.tag == RESULT_CACHED {
            out.hits += 1;
        }
        if reply.tag == want_tag && reply.payload == items[item].expected {
            out.events += items[item].processed;
        } else {
            out.failed += 1;
        }
        tracer.record(id, "request", at, done);
        if more(sent) {
            let item = next_item();
            let at = Instant::now();
            let id = client.submit(&items[item].text).map_err(io)?;
            in_flight.push((id, item, at));
            sent += 1;
        }
    }
    Ok(out)
}

pub fn run(mode: Mode, seed: u64, seconds: u64, tracer: &mut Tracer) -> Result<Outcome, String> {
    let cpus = host::cpus();
    let config = config(mode, cpus);
    let registry = ChannelRegistry::with_builtins();
    let corpus = corpus(mode, seed);
    // the in-process replica of the daemon's cache, filled as the daemon
    // fills its own; only the traced run's stage passes use it
    let mut replica = ResultCache::new(config.cache_entries, config.cache_bytes);
    let items = expected_replies(&corpus, &registry, &mut replica)?;
    let mut replica = tracer.enabled().then_some(replica);
    let warmup = match mode {
        Mode::Hot => Vec::new(),
        Mode::Cold => expected_replies(
            &gen::cold_warmup(seed),
            &registry,
            &mut ResultCache::new(0, 0),
        )?,
    };

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut untraced = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for _ in 0..SETUPS {
        if let Some((daemon, client)) = live.take() {
            drop::<FrameClient>(client);
            Daemon::stop(daemon);
        }
        let probe = Probe::start();
        if self::corpus(mode, seed) != corpus {
            return Err("the corpus generator is not deterministic".to_owned());
        }
        let daemon = Daemon::start(config.clone())?;
        let mut client = FrameClient::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
        // serve_hot: the cold fill; serve_cold: warm the pool
        let (set_up, fill) = match mode {
            Mode::Hot => (&items, items.len()),
            Mode::Cold => (&warmup, warmup.len()),
        };
        let mut k = 0;
        let filled = closed_loop(
            &mut client,
            set_up,
            &mut || {
                k += 1;
                k - 1
            },
            cpus,
            Stop::Ops(fill),
            RESULT,
            &mut untraced,
        )?;
        setups.push(probe.stop());
        attempted += filled.latencies_ns.len() as u64;
        failed += filled.failed;
        live = Some((daemon, client));
    }
    let (daemon, mut client) = live.expect("at least one set-up ran");

    // hot replays the corpus in a fresh seeded permutation per pass;
    // cold cycles it in its (seeded) corpus order
    let mut order = SplitMix64::new(seed ^ 0x0D3E);
    let mut pass: Vec<usize> = (0..items.len()).collect();
    let mut at = pass.len();
    let mut next_item = move || {
        if at == pass.len() {
            if mode == Mode::Hot {
                order.shuffle(&mut pass);
            }
            at = 0;
        }
        at += 1;
        pass[at - 1]
    };
    let want = match mode {
        Mode::Hot => RESULT_CACHED,
        Mode::Cold => RESULT,
    };
    // a traced run alternates untraced and traced slices, so host drift
    // cancels out of trace.overhead; a traced slice gives half its time
    // to traced requests and half to the in-process stage passes
    let budget = Duration::from_secs(seconds) / SLICES as u32;
    let (plain_budget, traced_budget) = if tracer.enabled() {
        (budget / 2, budget / 2)
    } else {
        (budget, Duration::ZERO)
    };
    let mut plain = Served::default();
    let mut traced = Served::default();
    let mut slices = Vec::with_capacity(SLICES);
    let mut passes = 0usize;
    host::reset_peak_rss();
    let whole = Probe::start();
    for _ in 0..SLICES {
        let probe = Probe::start();
        let slice = closed_loop(
            &mut client,
            &items,
            &mut next_item,
            cpus,
            Stop::After(plain_budget),
            want,
            &mut untraced,
        )?;
        slices.push(Slice {
            window: probe.stop(),
            ops: slice.latencies_ns.len(),
            events: slice.events,
        });
        plain.absorb(slice);
        if let Some(replica) = &mut replica {
            traced.absorb(closed_loop(
                &mut client,
                &items,
                &mut next_item,
                cpus,
                Stop::After(traced_budget / 2),
                want,
                tracer,
            )?);
            let started = Instant::now();
            while started.elapsed() < traced_budget / 2 {
                let item = &items[passes % items.len()];
                let answer = stage_op(passes as u64, &item.text, &registry, replica, tracer)?;
                attempted += 1;
                if answer.cached != (mode == Mode::Hot)
                    || answer.payload.as_bytes() != item.expected
                {
                    failed += 1;
                }
                passes += 1;
            }
        }
    }
    let window = whole.stop();
    drop(client);
    let summary = daemon.stop();
    if tracer.enabled() {
        // client-side decoding, kept out of the latencies: every reply
        // equals its expected payload, so decode each of those once
        for (i, item) in items.iter().enumerate() {
            attempted += 1;
            let decoded = tracer.span(i as u64, "wire.parse_result", |_| {
                std::str::from_utf8(&item.expected)
                    .ok()
                    .and_then(|text| parse_result(text).ok())
            });
            if decoded.is_none() {
                failed += 1;
            }
        }
    }

    let ops = (plain.latencies_ns.len() + traced.latencies_ns.len()) as u64;
    let hits = plain.hits + traced.hits;
    failed += plain.failed + traced.failed;
    attempted += ops;
    // the daemon's own counters must agree with what the client saw
    let (want_hits, want_jobs) = match mode {
        Mode::Hot => (ops, items.len() as u64),
        Mode::Cold => (0, warmup.len() as u64 + ops),
    };
    attempted += 1;
    if hits != want_hits || summary.cache_hits != want_hits || summary.jobs != want_jobs {
        eprintln!(
            "count mismatch: {hits} cached replies seen, daemon counted {} hits and {} jobs, \
             expected {want_hits} hits and {want_jobs} jobs",
            summary.cache_hits, summary.jobs
        );
        failed += 1;
    }

    let timed = Timed {
        setups,
        window,
        slices,
        latencies_ns: plain.latencies_ns,
        tail_pct: match mode {
            Mode::Hot => 90.0,
            Mode::Cold => 99.0,
        },
    };
    let layers = if tracer.enabled() {
        layers(mode, &items, &traced, &timed, tracer)
    } else {
        Layers::default()
    };
    Ok(Outcome {
        timed,
        layers,
        attempted,
        failed,
    })
}

/// Per-op layer costs: the in-process stage passes give each stage's
/// self time; the remainder of the client-measured latency is transport
/// (frames, reader → worker → writer hand-offs, job-queue wait).
fn layers(mode: Mode, items: &[Item], traced: &Served, plain: &Timed, tracer: &Tracer) -> Layers {
    let spans = tracer.self_times_per_root("stages");
    let get = |name: &str| spans.get(name).copied().unwrap_or(0.0);
    let n = items.len().max(1) as f64;
    let mut l = Layers {
        parse_ns: get("spec.parse"),
        hash_ns: get("spec.canonical_hash"),
        doc_bytes: mean(items.iter().map(|i| i.text.len() as f64)),
        cache_get_ns: get("cache.get"),
        hit_ratio: traced.hits as f64 / traced.latencies_ns.len().max(1) as f64,
        result_bytes: mean(items.iter().map(|i| i.expected.len() as f64)),
        parse_result_ns: tracer.mean_root_ns("wire.parse_result"),
        ..Layers::default()
    };
    if mode == Mode::Cold {
        l.cache_insert_ns = get("cache.insert");
        l.lint_ns = get("lint.preflight");
        l.build_ns = get("graph.build");
        l.simulate_ns = (get("experiment.run") - l.build_ns).max(0.0);
        l.render_ns = get("wire.render");
        l.lint_share = ratio(l.lint_ns, l.lint_ns + l.simulate_ns);
        l.events_per_op = items.iter().map(|i| i.processed as f64).sum::<f64>() / n;
        l.scheduled_per_op = items.iter().map(|i| i.scheduled as f64).sum::<f64>() / n;
    }
    // the daemon builds inside its run, so the build probe is not a stage
    let stages = l.parse_ns
        + l.hash_ns
        + l.cache_get_ns
        + l.lint_ns
        + l.build_ns
        + l.simulate_ns
        + l.render_ns
        + l.cache_insert_ns;
    let latency = tracer.mean_root_ns("request");
    l.transport_ns = (latency - stages).max(0.0);
    l.unattributed_ns = l.transport_ns;
    l.coverage = if latency > 0.0 { stages / latency } else { 0.0 };
    let plain_latency = mean(plain.latencies_ns.iter().map(|&v| v as f64));
    l.overhead = if plain_latency > 0.0 {
        latency / plain_latency - 1.0
    } else {
        0.0
    };
    l
}

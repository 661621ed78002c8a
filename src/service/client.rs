//! Client side: a pipelined connection handle plus the multi-connection
//! batch driver behind the `faithful-client` bin and the `service`
//! benchmark tier.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use super::protocol::{Frame, ReadOutcome, GREETING};
use super::wire::{parse_error, parse_result, ServedError, ServedErrorKind, ServedResult};

/// One decoded server response.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id this answers (echoed from the submit).
    pub id: u64,
    /// `true` when the result came out of the server's cache.
    pub cached: bool,
    /// The raw response document, byte-exact as served. For results
    /// this is the `faithful/1 result { … }` text — byte-identical
    /// between a fresh run and a cache replay of the same spec.
    pub payload: String,
    /// The typed view: a decoded result, or the served error.
    pub reply: Result<ServedResult, ServedError>,
}

/// A connection to a `faithful-serve` daemon.
///
/// Requests pipeline: issue any number of [`submit`](Self::submit)s,
/// then collect responses with [`recv`](Self::recv) — they may arrive
/// in any order, matched by id. [`run_one`](Self::run_one) is the
/// blocking single-spec convenience.
pub struct ServiceClient {
    /// Buffered for reads (a frame arrives in one read, not three);
    /// frames are written straight to the socket underneath.
    stream: BufReader<TcpStream>,
    next_id: u64,
}

impl ServiceClient {
    /// Connects and validates the server's `HELLO` greeting.
    ///
    /// # Errors
    ///
    /// Connection failures; `InvalidData` when the peer is not a
    /// compatible `faithful-serve`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServiceClient> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut client = ServiceClient {
            stream: BufReader::new(stream),
            next_id: 0,
        };
        match client.read_frame()? {
            Frame::Hello { greeting } if greeting == GREETING => Ok(client),
            Frame::Hello { greeting } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("incompatible server: {greeting:?} (need {GREETING:?})"),
            )),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server did not open with a HELLO frame",
            )),
        }
    }

    /// Sends one spec document; returns the request id to match the
    /// eventual response.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn submit(&mut self, spec_text: &str) -> io::Result<u64> {
        self.next_id += 1;
        let id = self.next_id;
        Frame::Submit {
            id,
            spec: spec_text.to_owned(),
        }
        .write_to(&mut self.stream.get_ref())?;
        Ok(id)
    }

    /// Receives the next response frame (any pending id).
    ///
    /// # Errors
    ///
    /// Read failures; `UnexpectedEof` when the server hung up;
    /// `InvalidData` on protocol violations.
    pub fn recv(&mut self) -> io::Result<Response> {
        match self.read_frame()? {
            Frame::Result { id, cached, text } => {
                let reply = parse_result(&text).map_err(|e| ServedError {
                    kind: ServedErrorKind::Protocol,
                    message: format!("undecodable result document: {e}"),
                    diagnostics: Vec::new(),
                });
                Ok(Response {
                    id,
                    cached,
                    payload: text,
                    reply,
                })
            }
            Frame::Error { id, text } => {
                let error = parse_error(&text).unwrap_or_else(|e| ServedError {
                    kind: ServedErrorKind::Protocol,
                    message: format!("undecodable error document: {e}"),
                    diagnostics: Vec::new(),
                });
                Ok(Response {
                    id,
                    cached: false,
                    payload: text,
                    reply: Err(error),
                })
            }
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "unexpected frame from the server",
            )),
        }
    }

    /// Submits one spec and blocks for its response.
    ///
    /// # Errors
    ///
    /// Propagates [`submit`](Self::submit) and [`recv`](Self::recv)
    /// failures.
    pub fn run_one(&mut self, spec_text: &str) -> io::Result<Response> {
        let id = self.submit(spec_text)?;
        loop {
            let response = self.recv()?;
            if response.id == id {
                return Ok(response);
            }
        }
    }

    fn read_frame(&mut self) -> io::Result<Frame> {
        match Frame::read_from(&mut self.stream)? {
            ReadOutcome::Frame(frame) => Ok(frame),
            ReadOutcome::Eof | ReadOutcome::Idle => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
        }
    }
}

// ======================================================================
// Batch driver
// ======================================================================

/// Knobs of [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchOptions {
    /// Concurrent connections.
    pub connections: usize,
    /// Maximum in-flight requests per connection.
    pub pipeline: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        BatchOptions {
            connections: 4,
            pipeline: 32,
        }
    }
}

/// What a batch run did, with client-observed latency percentiles.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// Specs submitted.
    pub submitted: usize,
    /// Successful results.
    pub ok: usize,
    /// Results served from the cache.
    pub cached: usize,
    /// Error responses, as `(spec index, message)`.
    pub errors: Vec<(usize, String)>,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Client-observed latencies (submit → response), sorted.
    latencies_ms: Vec<f64>,
}

impl BatchReport {
    /// End-to-end throughput.
    #[must_use]
    pub fn specs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.submitted as f64 / secs
        } else {
            f64::INFINITY
        }
    }

    /// The `q`-th latency quantile in milliseconds (`0.5` = p50,
    /// `0.99` = p99); `None` for an empty batch.
    #[must_use]
    pub fn latency_ms(&self, q: f64) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let rank = ((self.latencies_ms.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.latencies_ms.get(rank).copied()
    }
}

/// Submits every spec in `specs` across `options.connections`
/// connections (round-robin), pipelining up to `options.pipeline`
/// requests per connection, and aggregates the outcome.
///
/// # Errors
///
/// Connection and I/O failures (a *served* error is reported in
/// [`BatchReport::errors`], not here).
pub fn run_batch(addr: &str, specs: &[String], options: &BatchOptions) -> io::Result<BatchReport> {
    let connections = options.connections.clamp(1, specs.len().max(1));
    let pipeline = options.pipeline.max(1);
    let started = Instant::now();
    let mut workers = Vec::with_capacity(connections);
    for c in 0..connections {
        // Round-robin split; indices keep error attribution stable.
        let mine: Vec<(usize, String)> = specs
            .iter()
            .enumerate()
            .skip(c)
            .step_by(connections)
            .map(|(i, s)| (i, s.clone()))
            .collect();
        let addr = addr.to_owned();
        workers.push(std::thread::spawn(move || -> io::Result<BatchReport> {
            let mut client = ServiceClient::connect(addr.as_str())?;
            let mut report = BatchReport::default();
            let mut in_flight: HashMap<u64, (usize, Instant)> = HashMap::new();
            let drain = |client: &mut ServiceClient,
                         in_flight: &mut HashMap<u64, (usize, Instant)>,
                         report: &mut BatchReport|
             -> io::Result<()> {
                let response = client.recv()?;
                if let Some((index, sent)) = in_flight.remove(&response.id) {
                    report.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                    match response.reply {
                        Ok(_) => {
                            report.ok += 1;
                            if response.cached {
                                report.cached += 1;
                            }
                        }
                        Err(e) => report.errors.push((index, e.to_string())),
                    }
                }
                Ok(())
            };
            for (index, spec) in mine {
                while in_flight.len() >= pipeline {
                    drain(&mut client, &mut in_flight, &mut report)?;
                }
                let id = client.submit(&spec)?;
                in_flight.insert(id, (index, Instant::now()));
                report.submitted += 1;
            }
            while !in_flight.is_empty() {
                drain(&mut client, &mut in_flight, &mut report)?;
            }
            Ok(report)
        }));
    }
    let mut total = BatchReport::default();
    for w in workers {
        let part = w
            .join()
            .map_err(|_| io::Error::other("batch connection thread panicked"))??;
        total.submitted += part.submitted;
        total.ok += part.ok;
        total.cached += part.cached;
        total.errors.extend(part.errors);
        total.latencies_ms.extend(part.latencies_ms);
    }
    total.elapsed = started.elapsed();
    total
        .latencies_ms
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    total.errors.sort_by_key(|(i, _)| *i);
    Ok(total)
}

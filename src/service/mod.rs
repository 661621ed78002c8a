//! The experiment service: `faithful/1` specs served over TCP with
//! content-addressed result caching.
//!
//! Every workload in this crate is a canonical, bit-identical-replayable
//! text spec ([`ExperimentSpec`](crate::ExperimentSpec)), so the
//! simulator core can be run as a long-lived backend where *specs are
//! the API*: a daemon ([`Server`], shipped as the `faithful-serve` bin)
//! accepts length-prefixed spec documents over a versioned frame
//! protocol, runs the [lint](mod@crate::lint) preflight, schedules accepted
//! specs onto one shared bounded worker pool, and streams typed results
//! (or typed spec/lint/run errors) back — pipelined, out of order, many
//! requests per connection.
//!
//! ## Exact result caching
//!
//! Because replay of a spec is bit-identical, a result cache keyed on
//! the *canonical* spec is exact, not approximate: results are cached
//! under [`ExperimentSpec::cache_key`](crate::ExperimentSpec::cache_key)
//! (a binary encoding of the canonical tree, equal exactly when the
//! canonical texts are equal, computed without rendering them), found by
//! its stable hash
//! [`ExperimentSpec::canonical_hash`](crate::ExperimentSpec::canonical_hash)
//! and compared byte for byte. So comment, whitespace and formatting
//! variants of the same spec hit the same entry, a hash collision is a
//! miss, and a hot resubmission is a pure byte replay. The in-memory
//! store is an LRU bounded by entry count *and* bytes ([`ResultCache`]); an
//! optional on-disk store under `IVL_CACHE_DIR` persists entries across
//! daemon restarts using the same atomic tmp+rename discipline as
//! checkpoint sidecars. The only workloads never cached are digital
//! sweeps with *unseeded* scenarios over stochastic channels — the one
//! case where replay is allowed to differ.
//!
//! ## Frame protocol (`faithful-serve/1`)
//!
//! Every frame is `[type: u8][request id: u64 BE][length: u32 BE]`
//! followed by `length` bytes of UTF-8 payload:
//!
//! | type | name | direction | payload |
//! |------|------|-----------|---------|
//! | 1 | `HELLO` | server → client | the greeting `faithful-serve/1` |
//! | 2 | `SUBMIT` | client → server | a `faithful/1` spec document |
//! | 3 | `RESULT` | server → client | a `faithful/1 result { … }` document (computed) |
//! | 4 | `RESULT_CACHED` | server → client | same document, served from the cache |
//! | 5 | `ERROR` | server → client | a `faithful/1 error { … }` document |
//!
//! Request ids are chosen by the client and echoed back verbatim;
//! responses may arrive in any order. `RESULT` and `RESULT_CACHED`
//! carry byte-identical payloads for the same spec — only the frame
//! type reveals the cache.
//!
//! ## Shutdown
//!
//! On SIGTERM (or [`ServiceHandle::shutdown`]) the daemon stops
//! accepting connections, rejects *new* submissions with a typed
//! `shutdown` error, drains every already-accepted job, flushes the
//! replies, and only then exits: no accepted job is ever lost. Each
//! reply frame must be written within a fixed deadline (5 s): a peer
//! that does not read for that long is disconnected and loses its
//! remaining replies, so it cannot hold up the drain.
//!
//! ```no_run
//! use faithful::service::{ServeConfig, Server, ServiceClient};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(ServeConfig::default())?;
//! let addr = server.local_addr()?;
//! let handle = server.handle();
//! let join = std::thread::spawn(move || server.run());
//! let mut client = ServiceClient::connect(addr)?;
//! let response = client.run_one("faithful/1 channel { channel = pure { delay = 1.0 }; input = pulse { at = 0.0; width = 2.0 } }")?;
//! assert!(response.reply.is_ok());
//! handle.shutdown();
//! join.join().unwrap();
//! # Ok(())
//! # }
//! ```

mod cache;
mod client;
mod protocol;
mod server;
mod wire;

pub use cache::{CacheCounters, ResultCache};
pub use client::{run_batch, BatchOptions, BatchReport, Response, ServiceClient};
pub use protocol::GREETING;
pub use server::{ServeConfig, ServeSummary, Server, ServiceHandle};
pub use wire::{
    parse_error, parse_result, render_result, ServedDiagnostic, ServedError, ServedErrorKind,
    ServedOutcome, ServedResult,
};

/// Environment knob naming the daemon's listen address
/// (`host:port`), read by the `faithful-serve` and `faithful-client`
/// bins when `--addr` is not given.
pub const ENV_ADDR: &str = "IVL_SERVE_ADDR";

/// Environment knob naming the on-disk result cache directory, read by
/// the `faithful-serve` bin when `--cache-dir` is not given. Unset
/// means the cache is memory-only.
pub const ENV_CACHE_DIR: &str = "IVL_CACHE_DIR";

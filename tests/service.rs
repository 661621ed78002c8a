//! End-to-end tests of the experiment service: golden bit-identity
//! between served and in-process results, cache semantics, typed error
//! frames, graceful drain (in-process and via SIGTERM against the real
//! `faithful-serve` bin), disk-cache persistence across restarts, and
//! the bound on what a peer that does not read can make the daemon
//! buffer.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use faithful::service::{
    render_result, ServeConfig, ServeSummary, ServedErrorKind, ServedResult, Server, ServiceClient,
    ServiceHandle,
};
use faithful::Experiment;

const CHANNEL_SPEC: &str = "faithful/1 channel {\n  \
    channel = involution { delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5 };\n  \
    input = pulse { at = 0.0; width = 3.0 };\n}\n";

const SPF_SPEC: &str = "faithful/1 spf {\n  \
    delay = exp { tau = 1.0; t_p = 0.5; v_th = 0.5 };\n  \
    eta_minus = 0.02;\n  eta_plus = 0.02;\n  task = theory;\n}\n";

const ANALOG_SPEC: &str = "faithful/1 analog {\n  \
    chain = chain { stages = 3; width_scale = 1.0 };\n  \
    supply = dc { volts = 1.0 };\n  \
    sweep = sweep {\n    \
    widths = [30.0, 60.0, 90.0];\n    \
    settle = 20.0; tail = 60.0; dt = 0.1; slew = 10.0; stage = 1;\n    \
    integrator = rk4;\n  };\n  \
    task = samples { inverted = false };\n}\n";

/// A seeded digital sweep; `seed` varies the scenario so distinct specs
/// are distinct cache entries.
fn digital_spec(seed: u64) -> String {
    format!(
        "faithful/1 digital {{\n  topology = chain {{\n    stages = 8;\n    \
         channel = eta {{\n      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;\n      \
         minus = 0.02; plus = 0.02;\n      noise = uniform; seed = 0;\n    }};\n  }};\n  \
         horizon = 100.0;\n  workers = 4;\n  scenarios = [\n    \
         scenario {{ label = \"draw\"; seed = {seed}; inputs = [\n      \
         drive {{ port = \"a\"; signal = pulse {{ at = 1.0; width = 6.0 }} }}\n    ] }}\n  ];\n  \
         outputs = outputs {{ signals = true; stats = true; vcd = false }};\n}}\n"
    )
}

fn start(config: ServeConfig) -> (SocketAddr, ServiceHandle, thread::JoinHandle<ServeSummary>) {
    let server = Server::bind(config).expect("bind ephemeral server");
    let addr = server.local_addr().unwrap();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn in_process(text: &str) -> String {
    render_result(&Experiment::parse(text).unwrap().run().unwrap())
}

#[test]
fn served_results_are_bit_identical_to_in_process_across_connections() {
    // (spec, in-process golden bytes); the server overrides `workers`,
    // so equality here also pins worker-count invariance end to end.
    let golden: Vec<(String, String)> = [
        CHANNEL_SPEC.to_owned(),
        SPF_SPEC.to_owned(),
        ANALOG_SPEC.to_owned(),
        digital_spec(0),
    ]
    .into_iter()
    .map(|text| {
        let expected = in_process(&text);
        (text, expected)
    })
    .collect();

    for connections in [1usize, 2, 4] {
        let (addr, handle, join) = start(ServeConfig::default());
        let mut clients = Vec::new();
        for _ in 0..connections {
            let golden = golden.clone();
            clients.push(thread::spawn(move || {
                let mut client = ServiceClient::connect(addr).unwrap();
                for (text, expected) in &golden {
                    let response = client.run_one(text).unwrap();
                    assert!(response.reply.is_ok(), "{:?}", response.reply);
                    assert_eq!(
                        &response.payload, expected,
                        "served bytes drifted from in-process bytes \
                         ({connections} connection(s))"
                    );
                }
            }));
        }
        for c in clients {
            c.join().unwrap();
        }
        handle.shutdown();
        let summary = join.join().unwrap();
        assert_eq!(summary.connections, connections as u64);
        assert_eq!(
            summary.jobs + summary.cache_hits,
            (connections * golden.len()) as u64
        );
        assert_eq!(summary.errors, 0);
    }
}

#[test]
fn cache_replays_are_byte_identical_and_format_insensitive() {
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();

    let text = digital_spec(7);
    let fresh = client.run_one(&text).unwrap();
    assert!(fresh.reply.is_ok(), "{:?}", fresh.reply);
    assert!(!fresh.cached);

    let replay = client.run_one(&text).unwrap();
    assert!(replay.cached, "second submission must hit the cache");
    assert_eq!(replay.payload, fresh.payload, "cache replay must be exact");

    // a comment/whitespace variant is the same cache entry
    let variant = format!(
        "\n# reformatted\n{}\n  # trailing comment\n",
        text.replacen('{', "{\n  # inline\n", 1)
    );
    let reformatted = client.run_one(&variant).unwrap();
    assert!(
        reformatted.cached,
        "formatting variants must share the cache entry"
    );
    assert_eq!(reformatted.payload, fresh.payload);

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.jobs, 1);
    assert_eq!(summary.cache_hits, 2);
}

#[test]
fn unseeded_stochastic_sweeps_bypass_the_cache() {
    // No scenario seed over a `noise = uniform` channel: the one spec
    // class whose replay may differ, so it must never be cached.
    let text = "faithful/1 digital {\n  topology = chain {\n    stages = 4;\n    \
         channel = eta {\n      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;\n      \
         minus = 0.02; plus = 0.02;\n      noise = uniform; seed = 0;\n    };\n  };\n  \
         horizon = 50.0;\n  scenarios = [\n    \
         scenario { label = \"unseeded\"; inputs = [\n      \
         drive { port = \"a\"; signal = pulse { at = 1.0; width = 6.0 } }\n    ] }\n  ];\n}\n";
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();
    for _ in 0..2 {
        let response = client.run_one(text).unwrap();
        assert!(response.reply.is_ok(), "{:?}", response.reply);
        assert!(!response.cached, "non-replayable specs must not be cached");
    }
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.jobs, 2);
    assert_eq!(summary.cache_hits, 0);
}

#[test]
fn spec_and_lint_failures_come_back_as_typed_errors() {
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();

    let garbled = client.run_one("faithful/1 cooking {}").unwrap();
    let err = garbled.reply.unwrap_err();
    assert_eq!(err.kind, ServedErrorKind::Spec);
    assert!(err.message.contains("workload"), "{err}");

    // parses, but the lint preflight rejects the unknown channel kind
    let unlintable =
        "faithful/1 channel {\n  channel = warp { factor = 9.0 };\n  input = zero;\n}\n";
    let linted = client.run_one(unlintable).unwrap();
    let err = linted.reply.unwrap_err();
    assert_eq!(err.kind, ServedErrorKind::Lint);
    let ivl030 = err
        .diagnostics
        .iter()
        .find(|d| d.code == "IVL030")
        .unwrap_or_else(|| panic!("no IVL030 in {err}"));
    assert_eq!(ivl030.severity, faithful::Severity::Error);
    assert!(
        ivl030.span.is_some(),
        "wire diagnostics keep their source spans"
    );

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.errors, 2);
    assert_eq!(summary.jobs, 0);
}

#[test]
fn shutdown_drains_accepted_jobs_and_rejects_new_ones() {
    let (addr, handle, join) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut client = ServiceClient::connect(addr).unwrap();

    // two distinct jobs accepted before the drain begins (the pause
    // lets the connection reader consume both submissions; acceptance
    // happens at the reader, not at the client's write)...
    let a = client.submit(&digital_spec(100)).unwrap();
    let b = client.submit(&digital_spec(101)).unwrap();
    thread::sleep(Duration::from_millis(100));
    handle.shutdown();
    // ... and one submitted after: the flag is already set, so the
    // reader must reject it with a typed `shutdown` error.
    let c = client.submit(&digital_spec(102)).unwrap();

    let mut ok = Vec::new();
    let mut rejected = Vec::new();
    for _ in 0..3 {
        let response = client.recv().unwrap();
        match response.reply {
            Ok(_) => ok.push(response.id),
            Err(e) => {
                assert_eq!(e.kind, ServedErrorKind::Shutdown, "{e}");
                rejected.push(response.id);
            }
        }
    }
    ok.sort_unstable();
    assert_eq!(ok, vec![a, b], "accepted jobs must drain to results");
    assert_eq!(rejected, vec![c]);

    let summary = join.join().unwrap();
    assert_eq!(summary.jobs + summary.cache_hits, 2);
    assert_eq!(summary.rejected, 1);
}

#[test]
fn disk_cache_survives_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("faithful_serve_disk_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let config = || ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let text = digital_spec(55);

    let (addr, handle, join) = start(config());
    let mut client = ServiceClient::connect(addr).unwrap();
    let fresh = client.run_one(&text).unwrap();
    assert!(!fresh.cached);
    drop(client);
    handle.shutdown();
    join.join().unwrap();

    // a brand-new daemon over the same directory serves it from disk
    let (addr, handle, join) = start(config());
    let mut client = ServiceClient::connect(addr).unwrap();
    let replay = client.run_one(&text).unwrap();
    assert!(replay.cached, "disk entries must survive restarts");
    assert_eq!(replay.payload, fresh.payload);
    drop(client);
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.jobs, 0);
    assert_eq!(summary.cache_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

// ======================================================================
// The real daemon, over SIGTERM
// ======================================================================

#[cfg(unix)]
#[test]
fn sigterm_mid_batch_drains_every_accepted_job() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_faithful-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn faithful-serve");
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("faithful-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();

    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let batch = 10u64;
    let mut pending: Vec<u64> = (0..batch)
        .map(|i| client.submit(&digital_spec(1000 + i)).unwrap())
        .collect();
    // let a prefix of the batch reach the queue, then pull the plug
    thread::sleep(Duration::from_millis(100));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());

    // Every submitted job is accounted for: a result if it was accepted
    // before the signal, a typed shutdown rejection otherwise. Nothing
    // is dropped and the stream stays decodable throughout.
    let mut results = 0u64;
    let mut rejections = 0u64;
    for _ in 0..batch {
        let response = client.recv().expect("every job must be answered");
        let index = pending
            .iter()
            .position(|&id| id == response.id)
            .expect("response for an id we submitted");
        pending.remove(index);
        match response.reply {
            Ok(_) => results += 1,
            Err(e) => {
                assert_eq!(e.kind, ServedErrorKind::Shutdown, "{e}");
                rejections += 1;
            }
        }
    }
    assert!(pending.is_empty());
    assert_eq!(results + rejections, batch);
    assert!(results >= 1, "at least the in-flight job must complete");

    let status = child.wait().unwrap();
    assert!(status.success(), "daemon must exit 0 after a clean drain");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(rest.contains("drained"), "missing drain summary: {rest:?}");
}

/// A 40 KB spec of 20 000 nested lists used to overflow the connection
/// thread's stack and abort the daemon; it is now a typed `spec` error
/// and the same connection keeps working.
#[cfg(unix)]
#[test]
fn deeply_nested_spec_is_refused_and_the_daemon_stays_up() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_faithful-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn faithful-serve");
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("faithful-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();

    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let depth = 20_000;
    let hostile = format!(
        "faithful/1 channel {{ junk = {}{} }}",
        "[".repeat(depth),
        "]".repeat(depth)
    );
    let err = client.run_one(&hostile).unwrap().reply.unwrap_err();
    assert_eq!(err.kind, ServedErrorKind::Spec, "{err}");
    assert!(err.message.contains("nest deeper than 128"), "{err}");

    let next = client.run_one(CHANNEL_SPEC).unwrap();
    assert!(next.reply.is_ok(), "{:?}", next.reply);
    assert_eq!(next.payload, in_process(CHANNEL_SPEC));

    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    assert!(daemon.wait().unwrap().success());
}

/// What a spec does depends only on the spec: the fault-injection seed
/// the chaos matrix sets for its own test binary must not leak into a
/// daemon started under it. With two scenarios, `FaultPlan::seeded`
/// would plan a panic and a budget exhaustion (no stall), so a daemon
/// that honoured the variable would answer — and cache — a faulted
/// sweep.
#[cfg(unix)]
#[test]
fn fault_seed_in_the_daemon_environment_changes_nothing() {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_faithful-serve"))
        .args(["--addr", "127.0.0.1:0", "--workers", "1"])
        .env("IVL_FAULT_SEED", "1")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn faithful-serve");
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("faithful-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();

    let spec = digital_spec(41).replace(
        "    ] }\n  ];",
        "    ] },\n    scenario { label = \"second\"; seed = 42; inputs = [\n      \
         drive { port = \"a\"; signal = pulse { at = 2.0; width = 5.0 } }\n    ] }\n  ];",
    );
    assert_eq!(spec.matches("scenario {").count(), 2, "{spec}");
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let served = client.run_one(&spec).unwrap();
    // stop the daemon before asserting, so a failure leaves no process
    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    assert!(daemon.wait().unwrap().success());

    let Ok(ServedResult::Digital {
        completed, failed, ..
    }) = served.reply
    else {
        panic!("expected a digital result, got {:?}", served.reply);
    };
    assert_eq!((completed, failed), (2, 0));
    assert_eq!(served.payload, in_process(&spec));
}

/// A 4e9-stage chain: it fits `u32` node ids, but not memory.
const HOSTILE_CHAIN: &str = "faithful/1 digital {\n  \
    topology = chain { stages = 4000000000; channel = pure { delay = 1.0 } };\n  \
    horizon = 10.0;\n  max_events = 1;\n  scenarios = [\n    \
    scenario { label = \"s\"; inputs = [\n      \
    drive { port = \"a\"; signal = pulse { at = 1.0; width = 2.0 } }\n    ] }\n  ];\n}\n";

/// The address-space cap hostile specs run under, in KiB.
const ADDRESS_SPACE_KIB: u32 = 2_000_000;

/// `bin` with `args`, started by a shell that first caps the address
/// space, so an allocation sized by the spec fails instead of growing
/// toward the host's memory.
#[cfg(unix)]
fn capped(bin: &str, args: &[&str]) -> Command {
    let mut cmd = Command::new("sh");
    cmd.arg("-c")
        .arg(format!("ulimit -v {ADDRESS_SPACE_KIB}; exec \"$0\" \"$@\""))
        .arg(bin)
        .args(args);
    cmd
}

/// A one-worker `faithful-serve` under the address-space cap, and the
/// address it listens on.
#[cfg(unix)]
fn capped_daemon() -> (Child, String) {
    let mut daemon = capped(
        env!("CARGO_BIN_EXE_faithful-serve"),
        &["--addr", "127.0.0.1:0", "--workers", "1"],
    )
    .stdout(Stdio::piped())
    .stderr(Stdio::null())
    .spawn()
    .expect("spawn faithful-serve");
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("faithful-serve: listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .to_owned();
    // keep the pipe open: the daemon reports its drain on stdout
    daemon.stdout = Some(stdout.into_inner());
    (daemon, addr)
}

/// Sends SIGTERM and waits for the exit. Tests stop the daemon before
/// asserting, so a failure leaves no process behind.
#[cfg(unix)]
fn terminate(mut daemon: Child) -> ExitStatus {
    Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    daemon.wait().unwrap()
}

/// Under the cap, `hostile` gets a typed `run` error whose message
/// contains `names`, and the shipped sweep then gets its normal result
/// on the same connection.
#[cfg(unix)]
fn assert_run_error_under_the_cap(hostile: &str, names: &str) {
    let (daemon, addr) = capped_daemon();
    let mut client = ServiceClient::connect(addr.as_str()).unwrap();
    let hostile = client.run_one(hostile);
    let next = client.run_one(SHIPPED_SWEEP);
    let status = terminate(daemon);

    let err = hostile
        .expect("a reply to the hostile spec")
        .reply
        .unwrap_err();
    assert_eq!(err.kind, ServedErrorKind::Run, "{err}");
    assert!(err.message.contains(names), "{err}");
    let next = next.expect("a reply on the same connection");
    assert!(next.reply.is_ok(), "{:?}", next.reply);
    assert_eq!(next.payload, in_process(SHIPPED_SWEEP));
    assert!(status.success(), "{status}");
}

/// The spec lints and builds through closed forms: lint models the
/// chain without a node per stage, the generator's reservation fails,
/// and the daemon answers with a typed `run` error and keeps serving
/// the connection.
#[cfg(unix)]
#[test]
fn a_chain_too_large_for_memory_is_a_typed_error_under_an_address_space_cap() {
    assert_run_error_under_the_cap(HOSTILE_CHAIN, "4000000002 nodes");
}

/// The analog chain reserves its stages once, so a stage count that
/// does not fit in memory is refused before anything grows.
#[cfg(unix)]
#[test]
fn an_analog_chain_too_large_for_memory_is_a_typed_error_under_an_address_space_cap() {
    let hostile = ANALOG_SPEC.replace("stages = 3", "stages = 4000000000");
    assert_run_error_under_the_cap(&hostile, "4000000000 inverter stages");
}

/// Frame headers whose claimed lengths add up past the cap: each
/// stalled connection claims a full 64 MiB payload and sends only its
/// first bytes. The payload buffer grows as bytes arrive, so a fresh
/// connection is still served.
#[cfg(unix)]
#[test]
fn claimed_frame_lengths_cost_nothing_before_their_bytes_arrive() {
    const MAX_FRAME_LEN: u32 = 64 << 20;
    const STALLED: u64 = 40;
    assert!(STALLED * u64::from(MAX_FRAME_LEN) > u64::from(ADDRESS_SPACE_KIB) * 1024);
    let (daemon, addr) = capped_daemon();
    let stalled: Vec<TcpStream> = (0..STALLED)
        .map(|id| {
            let mut stream = TcpStream::connect(addr.as_str()).unwrap();
            let mut header = vec![TAG_SUBMIT];
            header.extend_from_slice(&id.to_be_bytes());
            header.extend_from_slice(&MAX_FRAME_LEN.to_be_bytes());
            header.extend_from_slice(b"faithful/1");
            stream.write_all(&header).unwrap();
            stream
        })
        .collect();
    // give every reader time to take its header
    thread::sleep(Duration::from_millis(500));
    let fresh = ServiceClient::connect(addr.as_str()).and_then(|mut c| c.run_one(SHIPPED_SWEEP));
    // a started frame has no deadline: close the stalled sockets so the
    // drain can finish
    drop(stalled);
    let status = terminate(daemon);

    let fresh = fresh.expect("a reply on a fresh connection");
    assert!(fresh.reply.is_ok(), "{:?}", fresh.reply);
    assert_eq!(fresh.payload, in_process(SHIPPED_SWEEP));
    assert!(status.success(), "{status}");
}

/// `faithful-lint` under the same cap: the 4e9-stage chain reports what
/// the 8-stage chain does.
#[cfg(unix)]
#[test]
fn lint_reads_a_chain_too_large_for_memory_like_a_short_one() {
    let dir = std::env::temp_dir().join(format!("faithful_lint_cap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("chain.spec");
    let lint = |text: &str| {
        std::fs::write(&file, text).unwrap();
        capped(
            env!("CARGO_BIN_EXE_faithful-lint"),
            &[file.to_str().unwrap()],
        )
        .output()
        .unwrap()
    };
    let hostile = lint(HOSTILE_CHAIN);
    let short = lint(&HOSTILE_CHAIN.replace("4000000000", "8"));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(hostile.status.code(), Some(0), "{hostile:?}");
    let stdout = String::from_utf8(hostile.stdout).unwrap();
    assert!(stdout.contains("warning[IVL040]"), "{stdout}");
    assert_eq!(stdout, String::from_utf8(short.stdout).unwrap());
}

#[cfg(unix)]
#[test]
fn client_bin_reports_cache_hits_on_resubmission() {
    let dir = std::env::temp_dir().join(format!("faithful_serve_bin_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let spec_file = dir.join("one.spec");
    std::fs::write(&spec_file, digital_spec(9000)).unwrap();

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_faithful-serve"))
        .args(["--addr", "127.0.0.1:0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(daemon.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .trim()
        .strip_prefix("faithful-serve: listening on ")
        .unwrap()
        .to_owned();

    let client = |extra: &[&str]| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_faithful-client"));
        cmd.args(["--addr", &addr, "--connections", "2"])
            .args(extra)
            .arg(&spec_file);
        cmd.status().unwrap()
    };
    assert!(client(&[]).success(), "cold submission must succeed");
    assert!(
        client(&["--expect-cached"]).success(),
        "hot resubmission must be served from the cache"
    );

    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success());
    assert!(daemon.wait().unwrap().success());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batch_driver_aggregates_throughput_and_latency() {
    let (addr, handle, join) = start(ServeConfig::default());
    let specs: Vec<String> = (0..16).map(digital_spec).collect();
    let report = faithful::service::run_batch(
        &addr.to_string(),
        &specs,
        &faithful::service::BatchOptions {
            connections: 4,
            pipeline: 8,
        },
    )
    .unwrap();
    assert_eq!(report.submitted, 16);
    assert_eq!(report.ok, 16);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.specs_per_sec() > 0.0);
    let (p50, p99) = (
        report.latency_ms(0.5).unwrap(),
        report.latency_ms(0.99).unwrap(),
    );
    assert!(p50 <= p99, "p50 {p50} must not exceed p99 {p99}");

    // the same batch again is pure cache replay
    let hot = faithful::service::run_batch(
        &addr.to_string(),
        &specs,
        &faithful::service::BatchOptions::default(),
    )
    .unwrap();
    assert_eq!(hot.cached, 16);

    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.jobs, 16);
    assert!(summary.cache_hits >= 16);
}

#[test]
fn service_docs_are_pinned() {
    // The spec block shown in EXPERIMENTS.md "Experiment service" —
    // kept verbatim here so the walkthrough cannot drift from a
    // runnable, cacheable spec.
    let spec = r#"faithful/1 digital {
  topology = chain {
    stages = 6;
    channel = eta {
      delay = exp; tau = 1.0; t_p = 0.5; v_th = 0.5;
      minus = 0.02; plus = 0.02;
      noise = uniform; seed = 0;
    };
  };
  horizon = 120.0;
  workers = 4;
  scenarios = [
    scenario { label = "served0"; seed = 0; inputs = [
      drive { port = "a"; signal = pulse { at = 1.0; width = 8.0 } }
    ] },
    scenario { label = "served1"; seed = 1; inputs = [
      drive { port = "a"; signal = pulse { at = 2.0; width = 5.0 } }
    ] }
  ];
}"#;
    let experiments = include_str!("../EXPERIMENTS.md");
    assert!(
        experiments.contains(spec),
        "EXPERIMENTS.md drifted from the pinned service spec"
    );

    // Serve it twice: fresh run, then a byte-identical cache replay —
    // exactly the behavior the walkthrough promises.
    let expected = in_process(spec);
    let (addr, handle, join) = start(ServeConfig::default());
    let mut client = ServiceClient::connect(addr).unwrap();
    let fresh = client.run_one(spec).unwrap();
    assert!(fresh.reply.is_ok(), "{:?}", fresh.reply);
    assert!(!fresh.cached);
    assert_eq!(fresh.payload, expected);
    let replay = client.run_one(spec).unwrap();
    assert!(
        replay.cached,
        "docs promise the second submission replays from cache"
    );
    assert_eq!(replay.payload, expected);
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.jobs, 1);
    assert_eq!(summary.cache_hits, 1);

    // both documents describe the service surface
    for needle in [
        "## Experiment service",
        "### Frame format",
        "### Error frames",
        "### Cache semantics",
        "RESULT_CACHED",
        "IVL_SERVE_ADDR",
        "IVL_CACHE_DIR",
    ] {
        assert!(
            experiments.contains(needle),
            "EXPERIMENTS.md lost {needle:?}"
        );
    }
    let readme = include_str!("../README.md");
    for needle in [
        "## Experiment service",
        "faithful-serve",
        "faithful-client",
        "canonical_hash",
        "IVL_SERVE_ADDR",
        "IVL_CACHE_DIR",
    ] {
        assert!(readme.contains(needle), "README.md lost {needle:?}");
    }
}

// ======================================================================
// Peers that do not read
// ======================================================================

/// The daemon's per-frame write deadline (`WRITE_DEADLINE` in
/// `src/service/server.rs`).
const WRITE_DEADLINE: Duration = Duration::from_secs(5);

/// A write that makes no progress for this long counts as stalled.
const STALL: Duration = Duration::from_secs(1);

/// A flood that gets this many frames out without a stall is unbounded.
const FLOOD_FRAMES: u64 = 20_000;

const TAG_HELLO: u8 = 1;
const TAG_SUBMIT: u8 = 2;
const TAG_RESULT_CACHED: u8 = 4;

/// The shipped sweep: a 730-byte spec with a 792-byte reply.
const SHIPPED_SWEEP: &str = include_str!("../specs/digital_sweep.spec");

fn submit_frame(id: u64, spec: &str) -> Vec<u8> {
    let mut frame = vec![TAG_SUBMIT];
    frame.extend_from_slice(&id.to_be_bytes());
    frame.extend_from_slice(&u32::try_from(spec.len()).unwrap().to_be_bytes());
    frame.extend_from_slice(spec.as_bytes());
    frame
}

fn read_raw_frame(r: &mut impl Read) -> (u8, u64, Vec<u8>) {
    let mut header = [0u8; 13];
    r.read_exact(&mut header).expect("a complete frame header");
    let id = u64::from_be_bytes(header[1..9].try_into().unwrap());
    let len = u32::from_be_bytes(header[9..13].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .expect("a complete frame payload");
    (header[0], id, payload)
}

/// A raw connection that resubmitted one spec without reading.
struct Flood {
    stream: TcpStream,
    /// Frames started, with ids `0..started`.
    started: u64,
    /// The unwritten tail of the last started frame.
    unsent: Vec<u8>,
    /// Whether a write made no progress for [`STALL`].
    stalled: bool,
}

/// Resubmits `spec` from a non-blocking socket and never reads, until a
/// write stalls or [`FLOOD_FRAMES`] frames have gone out.
fn flood(addr: SocketAddr, spec: &str) -> Flood {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nonblocking(true).unwrap();
    let mut started = 0u64;
    let mut unsent = Vec::new();
    let mut progress = Instant::now();
    loop {
        if unsent.is_empty() {
            if started == FLOOD_FRAMES {
                break;
            }
            unsent = submit_frame(started, spec);
            started += 1;
        }
        match (&stream).write(&unsent) {
            Ok(n) => {
                unsent.drain(..n);
                progress = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if progress.elapsed() >= STALL {
                    return Flood {
                        stream,
                        started,
                        unsent,
                        stalled: true,
                    };
                }
                thread::sleep(Duration::from_millis(1));
            }
            Err(e) => panic!("flood write failed: {e}"),
        }
    }
    Flood {
        stream,
        started,
        unsent,
        stalled: false,
    }
}

fn stall_config() -> ServeConfig {
    ServeConfig {
        per_connection: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn a_client_that_does_not_read_cannot_grow_the_daemon() {
    let (addr, handle, join) = start(stall_config());
    let fresh = ServiceClient::connect(addr)
        .unwrap()
        .run_one(SHIPPED_SWEEP)
        .unwrap();
    assert!(fresh.reply.is_ok(), "{:?}", fresh.reply);

    let flood = flood(addr, SHIPPED_SWEEP);
    assert!(
        flood.stalled,
        "{} frames went out and no write stalled: the daemon buffers replies \
         for a peer that does not read",
        flood.started
    );

    // the stalled peer stalls only itself
    let other = ServiceClient::connect(addr)
        .unwrap()
        .run_one(SHIPPED_SWEEP)
        .unwrap();
    assert!(other.cached);
    assert_eq!(other.payload, fresh.payload);

    // Read everything (finishing the torn frame alongside): every id
    // gets exactly one byte-identical cache replay.
    let Flood {
        stream,
        started,
        unsent,
        ..
    } = flood;
    stream.set_nonblocking(false).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut tail = stream.try_clone().unwrap();
    let finish = thread::spawn(move || tail.write_all(&unsent));
    let mut r = BufReader::new(&stream);
    assert_eq!(read_raw_frame(&mut r).0, TAG_HELLO);
    let mut seen = vec![false; usize::try_from(started).unwrap()];
    for _ in 0..started {
        let (tag, id, payload) = read_raw_frame(&mut r);
        assert_eq!(tag, TAG_RESULT_CACHED, "id {id}");
        let slot = &mut seen[usize::try_from(id).unwrap()];
        assert!(!*slot, "id {id} answered twice");
        *slot = true;
        assert!(payload == fresh.payload.as_bytes(), "id {id} drifted");
    }
    finish.join().unwrap().unwrap();
    handle.shutdown();
    let summary = join.join().unwrap();
    assert_eq!(summary.cache_hits, started + 1);
    assert_eq!(summary.jobs, 1);
}

#[test]
fn drain_completes_with_a_stalled_peer() {
    let (addr, handle, join) = start(stall_config());
    let fresh = ServiceClient::connect(addr)
        .unwrap()
        .run_one(SHIPPED_SWEEP)
        .unwrap();
    assert!(fresh.reply.is_ok(), "{:?}", fresh.reply);
    let flood = flood(addr, SHIPPED_SWEEP);

    // a hang fails the test instead of blocking it
    let (done, drained) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(join.join());
    });
    let begun = Instant::now();
    handle.shutdown();
    let summary = drained
        .recv_timeout(3 * WRITE_DEADLINE)
        .unwrap_or_else(|_| {
            panic!(
                "Server::run did not return within {:?} of shutdown with a peer \
                 that does not read ({} frames sent, stalled: {})",
                3 * WRITE_DEADLINE,
                flood.started,
                flood.stalled
            )
        })
        .unwrap();
    eprintln!(
        "drained in {:?} after {} frames (stalled: {})",
        begun.elapsed(),
        flood.started,
        flood.stalled
    );
    assert_eq!(summary.jobs, 1);
}

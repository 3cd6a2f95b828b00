//! Fleet chaos drills: the compiled `mime` binary serving as a TCP front
//! door over replica processes, driven by in-test clients over real
//! sockets while faults hit the replicas or the image they load.
//!
//! Every drill runs on one harness ([`Fleet`] plus [`client`]) and
//! asserts the fleet's acceptance invariant — **every request a client
//! sends reaches exactly one terminal frame, carrying its own id** —
//! plus the outcome counts its fault must produce:
//!
//! | drill | fault | outcome |
//! |---|---|---|
//! | `replica_abort` | replicas `abort()` every 5th dispatch | all terminal, restarts counted, traces stitched, flight dumps |
//! | `replica_slow` | 1 replica sleeps per layer every 4th dispatch | exactly the injected dispatches blow their deadline |
//! | `dequeue_expiry` | 1 slow replica, `--max-batch 1` | requests queued behind it expire at dequeue |
//! | `truncated_image` | image cut short | replicas never ready, every request `Unavailable`/`DeadlineExceeded` |
//! | `lost_task_section` | bit flips in the last task section | healthy tasks bit-identical to serial, lost task degraded to its parent |

use bytes::Bytes;
use mime_core::deploy::unpack_model;
use mime_core::faults::FaultInjector;
use mime_core::{MimeNetwork, MultiTaskModel};
use mime_nn::{build_network, vgg16_arch};
use mime_runtime::{BoundNetwork, ComputePath, HardwareExecutor, SparseDispatch};
use mime_serve::proto::{
    probe_image, read_frame, write_frame, ErrorCode, Frame, RequestInput,
};
use mime_systolic::ArrayConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One request a client sends: `(id, task, deadline_ms)`.
type Req = (u64, u32, u32);

/// A running `mime serve --listen` fleet with a scratch directory for
/// its metrics, trace, flight dumps and images.
struct Fleet {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Fleet {
    /// A fresh scratch directory for drill `name`.
    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mime_fleet_drill_{name}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Starts `mime <global flags> serve --listen 127.0.0.1:0 <serve>`
    /// and waits for its `listening on` line.
    fn start(dir: PathBuf, global: &[&str], serve: &[&str]) -> Fleet {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mime"))
            .args(global)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(serve)
            .env("TMPDIR", &dir)
            .stdout(Stdio::piped())
            .spawn()
            .expect("front door starts");
        // First stdout line carries the kernel-assigned port.
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line).expect("listening line");
        let addr = line
            .split_whitespace()
            .nth(2)
            .unwrap_or_else(|| panic!("unparseable listening line: {line:?}"))
            .to_string();
        // keep draining stdout so the final report never blocks the exit
        std::thread::spawn(move || std::io::copy(&mut stdout, &mut std::io::sink()));
        Fleet { child, addr, dir }
    }

    fn stats(&self) -> String {
        let mut s = TcpStream::connect(&self.addr).expect("stats connection");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        write_frame(&mut s, &Frame::StatsRequest).unwrap();
        match read_frame(&mut s).expect("stats reply") {
            Frame::StatsReply { json } => json,
            other => panic!("expected StatsReply, got {other:?}"),
        }
    }

    /// Graceful drain via the wire, then the exit status.
    fn drain(self) -> ExitStatus {
        let mut s = TcpStream::connect(&self.addr).expect("shutdown connection");
        write_frame(&mut s, &Frame::Shutdown).unwrap();
        drop(s);
        self.exit_within(Duration::from_secs(60))
    }

    /// The exit status, failing the drill if the fleet is still up after
    /// `limit`.
    fn exit_within(mut self, limit: Duration) -> ExitStatus {
        let until = Instant::now() + limit;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            if Instant::now() > until {
                self.child.kill().ok();
                panic!("front door still running after {limit:?}");
            }
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// The value of the first `name` line of a Prometheus text file.
fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find(|l| l.starts_with(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
}

/// One client connection sending `reqs` in order, one outstanding at a
/// time. Each request must be answered by exactly one terminal frame
/// carrying its id; the frames come back in request order.
fn client(addr: &str, reqs: Vec<Req>) -> JoinHandle<Vec<(Req, Frame)>> {
    let addr = addr.to_string();
    std::thread::spawn(move || {
        let mut s = TcpStream::connect(&addr).expect("client connects");
        s.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let mut out = Vec::with_capacity(reqs.len());
        for (id, task, deadline_ms) in reqs {
            let req = Frame::Request {
                id,
                trace: 0,
                task,
                deadline_ms,
                rung: 0,
                input: RequestInput::Probe(id as u32),
            };
            write_frame(&mut s, &req).expect("request written");
            let frame = read_frame(&mut s).expect("one terminal frame per request");
            match &frame {
                Frame::Reply { id: got, .. } | Frame::ErrorReply { id: got, .. } => {
                    assert_eq!(*got, id, "terminal frame answers its own request");
                }
                other => panic!("non-terminal frame for request {id}: {other:?}"),
            }
            out.push(((id, task, deadline_ms), frame));
        }
        out
    })
}

fn join_all(clients: Vec<JoinHandle<Vec<(Req, Frame)>>>) -> Vec<(Req, Frame)> {
    let mut all: Vec<(Req, Frame)> =
        clients.into_iter().flat_map(|c| c.join().expect("client thread")).collect();
    all.sort_by_key(|((id, ..), _)| *id);
    all
}

/// Terminal-frame counts, one bucket per outcome.
#[derive(Debug, Default, PartialEq)]
struct Tally {
    success: u64,
    degraded: u64,
    shed: u64,
    unavailable: u64,
    deadline_exceeded: u64,
    failed: u64,
}

impl Tally {
    fn of(frames: &[(Req, Frame)]) -> Tally {
        let mut t = Tally::default();
        for (_, frame) in frames {
            match frame {
                Frame::Reply { degraded: false, .. } => t.success += 1,
                Frame::Reply { degraded: true, .. } => t.degraded += 1,
                Frame::ErrorReply { code: ErrorCode::Overloaded, .. } => t.shed += 1,
                Frame::ErrorReply { code: ErrorCode::Unavailable, .. } => {
                    t.unavailable += 1
                }
                Frame::ErrorReply { code: ErrorCode::DeadlineExceeded, .. } => {
                    t.deadline_exceeded += 1
                }
                _ => t.failed += 1,
            }
        }
        t
    }
}

fn deadline_message(frame: &Frame) -> Option<&str> {
    match frame {
        Frame::ErrorReply { code: ErrorCode::DeadlineExceeded, message, .. } => {
            Some(message)
        }
        _ => None,
    }
}

/// Replicas abort on every 5th dispatch while 4 clients send 64
/// requests: the supervisor must requeue or fail-fast every victim —
/// never drop one. With observability on, every request's trace ID shows
/// up exactly once in the stitched trace and each abort leaves a flight
/// dump.
#[test]
fn replica_abort() {
    const REQUESTS: u64 = 64;
    const CLIENTS: u64 = 4;
    let dir = Fleet::scratch("replica_abort");
    let (metrics, trace, flight) = (
        dir.join("metrics.prom").to_str().unwrap().to_string(),
        dir.join("trace.json").to_str().unwrap().to_string(),
        dir.join("flight").to_str().unwrap().to_string(),
    );
    let fleet = Fleet::start(
        dir,
        &["--metrics-out", &metrics, "--trace-out", &trace],
        &[
            "--replicas",
            "2",
            "--tasks",
            "3",
            "--flight-dir",
            &flight,
            "--inject",
            "replica-abort",
            "--inject-every",
            "5",
        ],
    );
    let clients = (0..CLIENTS)
        .map(|c| {
            let reqs = (c..REQUESTS)
                .step_by(CLIENTS as usize)
                .map(|i| (i, (i % 3) as u32, 30_000));
            client(&fleet.addr, reqs.collect())
        })
        .collect();
    let frames = join_all(clients);
    assert_eq!(frames.len() as u64, REQUESTS, "every request reached one terminal frame");
    let tally = Tally::of(&frames);
    assert!(tally.success > 0, "the fleet still served through the chaos: {tally:?}");

    // The front door survived and answers stats; the kills were counted.
    let stats = fleet.stats();
    let restarts: u64 = stats
        .split("\"restarts\":")
        .nth(1)
        .and_then(|rest| rest.split(&[',', '}'][..]).next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("unparseable stats: {stats}"));
    assert!(restarts >= 1, "abort injection must have killed at least one replica");
    let dir = fleet.dir.clone();
    let status = fleet.drain();
    assert!(status.success(), "front door drained cleanly: {status:?}");

    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert_eq!(metric(&text, "mime_frontdoor_requests_total"), REQUESTS);
    assert!(metric(&text, "mime_replica_restarts_total") >= restarts);

    // Stitched trace: every admitted request's trace ID shows up as
    // exactly one front-door `request` span, and at least one replica
    // lane made it across the process boundary despite the aborts.
    let trace_json = std::fs::read_to_string(&trace).expect("stitched trace written");
    let mut traces: Vec<u64> = frames
        .iter()
        .map(|(_, f)| match f {
            Frame::Reply { trace, .. } | Frame::ErrorReply { trace, .. } => *trace,
            _ => unreachable!("client() only returns terminal frames"),
        })
        .collect();
    traces.sort_unstable();
    let dups = traces.windows(2).filter(|w| w[0] == w[1]).count();
    assert_eq!(dups, 0, "trace IDs are unique per request");
    for t in &traces {
        assert_ne!(*t, 0, "every terminal frame carries a minted trace ID");
        let needle = format!("\"trace\":\"{t}\"");
        let count = trace_json
            .lines()
            .filter(|l| l.contains("\"name\":\"request\"") && l.contains(&needle))
            .count();
        assert_eq!(count, 1, "trace {t} has exactly one front-door request span");
    }
    assert!(
        trace_json.lines().any(|l| l.contains("\"name\":\"replica_request\"")),
        "replica spans were stitched into the front door's trace"
    );

    // Each injected abort calls `flight::dump_now("abort")` on its way
    // down: the killed replicas must have left parseable dumps behind.
    let dumps: Vec<_> = std::fs::read_dir(&flight)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                n.starts_with("mime_flight_replica") && n.contains("_abort_")
            })
        })
        .collect();
    assert!(!dumps.is_empty(), "aborted replica left a flight dump");
    for dump in &dumps {
        let text = std::fs::read_to_string(dump).expect("flight dump readable");
        assert!(text.contains("\"schema\":\"mime-flight/v1\""), "dump has schema: {text}");
        assert!(text.contains("\"reason\":\"abort\""), "dump records the abort");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One replica sleeps per layer on every 4th dispatch while one client
/// sends 16 requests in sequence under a 1 s budget: exactly the 4th,
/// 8th, 12th and 16th requests blow their deadline; every other request
/// is served.
#[test]
fn replica_slow() {
    let fleet = Fleet::start(
        Fleet::scratch("replica_slow"),
        &[],
        &[
            "--replicas",
            "1",
            "--tasks",
            "3",
            "--inject",
            "replica-slow",
            "--inject-every",
            "4",
        ],
    );
    let frames = join_all(vec![client(
        &fleet.addr,
        (0..16).map(|i| (i, (i % 3) as u32, 1000)).collect(),
    )]);
    assert_eq!(frames.len(), 16);
    for ((id, ..), frame) in &frames {
        let injected = (id + 1) % 4 == 0;
        assert_eq!(
            deadline_message(frame).is_some(),
            injected,
            "request {id}: only injected dispatches blow their deadline: {frame:?}"
        );
        if !injected {
            assert!(matches!(frame, Frame::Reply { .. }), "request {id}: {frame:?}");
        }
    }
    let tally = Tally::of(&frames);
    assert_eq!(tally.deadline_exceeded, 4, "{tally:?}");
    assert_eq!(tally.success + tally.degraded, 12, "{tally:?}");
    let dir = fleet.dir.clone();
    assert!(fleet.drain().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// A 1-replica `--max-batch 1` fleet whose every dispatch is slow: the
/// head-of-line request (10 s budget) holds the replica for seconds,
/// and the requests queued behind it (500 ms budgets) expire while they
/// wait — each answered at dequeue, never dispatched.
#[test]
fn dequeue_expiry() {
    let fleet = Fleet::start(
        Fleet::scratch("dequeue_expiry"),
        &[],
        &[
            "--replicas",
            "1",
            "--tasks",
            "2",
            "--max-batch",
            "1",
            "--inject",
            "replica-slow",
            "--inject-every",
            "1",
        ],
    );
    let head = client(&fleet.addr, vec![(0, 0, 10_000)]);
    // let the head request reach the replica before the others queue
    std::thread::sleep(Duration::from_millis(300));
    let mut clients: Vec<_> =
        (1..8).map(|i| client(&fleet.addr, vec![(i, (i % 2) as u32, 500)])).collect();
    clients.push(head);
    let frames = join_all(clients);
    assert_eq!(frames.len(), 8);
    assert!(
        matches!(frames[0].1, Frame::Reply { .. }),
        "head-of-line request: {:?}",
        frames[0].1
    );
    for ((id, ..), frame) in &frames[1..] {
        assert_eq!(
            deadline_message(frame),
            Some("expired waiting in the admission queue"),
            "request {id}: {frame:?}"
        );
    }
    let tally = Tally::of(&frames);
    assert_eq!(tally.deadline_exceeded, 7, "{tally:?}");
    let dir = fleet.dir.clone();
    assert!(fleet.drain().success());
    std::fs::remove_dir_all(&dir).ok();
}

/// Packs a 3-task image with `mime pack` into `dir`, lets `corrupt`
/// damage its bytes, and returns the image path and the damaged bytes.
fn damaged_image(
    dir: &std::path::Path,
    corrupt: impl FnOnce(&mut Vec<u8>),
) -> (String, Vec<u8>) {
    let path = dir.join("fleet.mime");
    let path_str = path.to_str().unwrap().to_string();
    let out = Command::new(env!("CARGO_BIN_EXE_mime"))
        .args(["pack", "--out", &path_str, "--tasks", "3", "--seed", "5"])
        .output()
        .expect("mime pack runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let mut bytes = std::fs::read(&path).unwrap();
    corrupt(&mut bytes);
    std::fs::write(&path, &bytes).unwrap();
    (path_str, bytes)
}

/// An image cut short loses its backbone, so no replica ever becomes
/// ready: the front door still answers every request exactly once —
/// `Unavailable` once every slot has spent its restart budget, or
/// `DeadlineExceeded` — and then drains on its own.
#[test]
fn truncated_image() {
    let dir = Fleet::scratch("truncated_image");
    let (image, _) = damaged_image(&dir, |b| {
        FaultInjector::new(4).truncate(b);
    });
    let metrics = dir.join("metrics.prom").to_str().unwrap().to_string();
    let fleet = Fleet::start(
        dir,
        &["--metrics-out", &metrics],
        &["--replicas", "1", "--tasks", "3", "--image", &image],
    );
    let clients =
        (0..6).map(|i| client(&fleet.addr, vec![(i, (i % 3) as u32, 500)])).collect();
    let frames = join_all(clients);
    assert_eq!(frames.len(), 6);
    let tally = Tally::of(&frames);
    assert_eq!(tally.unavailable + tally.deadline_exceeded, 6, "{tally:?}");
    let dir = fleet.dir.clone();
    // the last slot giving up drains the front door without a Shutdown
    fleet.exit_within(Duration::from_secs(120));
    let text = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert_eq!(metric(&text, "mime_frontdoor_requests_total"), 6);
    assert_eq!(metric(&text, "mime_frontdoor_success_total"), 0);
    assert!(metric(&text, "mime_replica_spawn_failures_total") >= 1);
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit flips inside the last task section: the fleet starts anyway.
/// Healthy tasks answer bit-identically to a serial `run_image` on the
/// unpacked plans; the lost task keeps its index and answers degraded
/// with its thresholds-stripped parent's logits.
#[test]
fn lost_task_section() {
    let dir = Fleet::scratch("lost_task_section");
    let (image, bytes) = damaged_image(&dir, |b| {
        let off = b.len() - 64;
        FaultInjector::new(3).flip_bits(&mut b[off..], 4);
    });
    // the reference side: the same containment unpack at `mime pack`'s
    // geometry, then a plain serial executor on the replica's path
    let arch = vgg16_arch(0.0625, 32, 3, 8, 16);
    let parent = build_network(&arch, &mut StdRng::seed_from_u64(0));
    let mut receiver =
        MultiTaskModel::new(MimeNetwork::from_trained(&arch, &parent, 0.01).unwrap());
    let report = unpack_model(&Bytes::from(bytes), &mut receiver).unwrap();
    assert_eq!(report.loaded, ["task0", "task1"], "only the last section is damaged");
    assert_eq!(report.rejected[0].index, 2);
    let plans: Vec<BoundNetwork> = report
        .loaded
        .iter()
        .map(|name| {
            receiver.activate(name).unwrap();
            BoundNetwork::from_mime(receiver.network()).unwrap()
        })
        .collect();
    let stripped = plans[0].strip_thresholds();
    let mut exec = HardwareExecutor::with_options(
        ArrayConfig::eyeriss_65nm(),
        ComputePath::Software,
        SparseDispatch::Auto,
    );

    let fleet =
        Fleet::start(dir, &[], &["--replicas", "2", "--tasks", "3", "--image", &image]);
    let frames = join_all(vec![client(
        &fleet.addr,
        (0..12).map(|i| (i, (i % 3) as u32, 30_000)).collect(),
    )]);
    assert_eq!(frames.len(), 12);
    for ((id, task, _), frame) in &frames {
        let Frame::Reply { degraded, rung, logits, .. } = frame else {
            panic!("request {id} (task {task}): expected a Reply, got {frame:?}");
        };
        assert_eq!(*rung, 0, "an unloaded fleet serves rung 0");
        let lost = *task == 2;
        assert_eq!(*degraded, lost, "request {id} (task {task})");
        let plan = if lost { &stripped } else { &plans[*task as usize] };
        let want = exec.run_image(plan, &probe_image(*id as usize), true).unwrap();
        assert!(
            logits.len() == want.len()
                && logits.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()),
            "request {id} (task {task}): fleet logits diverge from the serial reference"
        );
    }
    let dir = fleet.dir.clone();
    assert!(fleet.drain().success());
    std::fs::remove_dir_all(&dir).ok();
}

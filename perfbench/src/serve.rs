//! The `serve-mix` workload: the default `mime serve --listen` fleet (a
//! front door plus two replica processes) serving the mini model with
//! the three tasks interleaved, driven over the public wire protocol with
//! literal tensors. Three phases: closed loop on two connections, open
//! loop (Poisson arrivals at a fixed rate below capacity, each request
//! timed from its due time), and fresh connections opened one at a time.

use crate::model::{self, Inputs, Result, TASKS};
use crate::stats::{median, quantile, Metrics, Tally};
use crate::{host, layers};
use mime_runtime::prepack_plans;
use mime_serve::proto::{read_frame, write_frame, Frame, RequestInput};
use mime_systolic::TaskMode;
use mime_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Open-loop offered rate: a quarter to a third of the closed-loop
/// capacity of a two-core host, so the fleet is never overloaded.
const OPEN_LOOP_RPS: f64 = 500.0;
/// Fleet set-ups per run; the median of their CPU time is `setup_s`.
const SPAWNS: usize = 15;
/// Unmeasured, checked requests per connection before the closed loop.
const WARMUP: usize = 100;
/// Think times between fresh connections are spread evenly over this.
const THINK_MS: f64 = 50.0;
/// Workload images per task.
const POOL: usize = 32;

/// The build directory `run.sh` builds into.
fn build_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()).into()
}

/// Where the benchmark keeps its scratch files (the packed image and
/// stitched traces): inside the build directory of the checkout.
fn scratch_dir() -> Result<PathBuf> {
    let dir = build_dir().join("perfbench-tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// A running fleet. Dropping it stops the front door and its replicas.
struct Fleet {
    child: Child,
    /// Drains the front door's stdout (its drain report) until it exits.
    stdout: Option<std::thread::JoinHandle<std::io::Result<u64>>>,
    addr: String,
    /// Spawn to first `/readyz` 200, in seconds.
    ready_s: f64,
}

impl Fleet {
    fn spawn(image: &Path, trace_out: Option<&Path>, tmp: &Path) -> Result<Fleet> {
        let start = Instant::now();
        let mut cmd = Command::new(build_dir().join("release").join("mime"));
        if let Some(t) = trace_out {
            cmd.arg("--trace-out").arg(t);
        }
        cmd.args(["serve", "--listen", "127.0.0.1:0", "--replicas", "2", "--tasks"])
            .arg(TASKS.to_string())
            .arg("--image")
            .arg(image)
            .env("TMPDIR", tmp)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        let mut child = cmd.spawn()?;
        let mut out = BufReader::new(child.stdout.take().ok_or("fleet stdout")?);
        let mut line = String::new();
        out.read_line(&mut line)?;
        let stdout =
            std::thread::spawn(move || std::io::copy(&mut out, &mut std::io::sink()));
        let mut fleet =
            Fleet { child, stdout: Some(stdout), addr: String::new(), ready_s: 0.0 };
        fleet.addr = line
            .strip_prefix("listening on ")
            .and_then(|r| r.split_whitespace().next())
            .ok_or_else(|| format!("unexpected fleet banner {line:?}"))?
            .to_string();
        // Ready is `/readyz`'s condition (a ready replica, not draining),
        // polled with StatsRequest frames over one connection: each
        // fresh connection waits for the front door's 25 ms accept poll,
        // which would quantise the reading.
        let deadline = start + Duration::from_secs(60);
        let mut conn = Conn::open(&fleet.addr)?;
        loop {
            write_frame(&mut conn.w, &Frame::StatsRequest)?;
            let ready = match read_frame(&mut conn.r)? {
                Frame::StatsReply { json } => json_u64(&json, "ready_replicas") > 0,
                other => return Err(format!("unexpected stats frame {other:?}").into()),
            };
            if ready {
                break;
            }
            if Instant::now() > deadline {
                return Err("fleet not ready within 60 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        fleet.ready_s = start.elapsed().as_secs_f64();
        let (code, _) = http_get(&fleet.addr, "/readyz")?;
        if code != 200 {
            return Err(
                format!("/readyz answered {code} after the stats said ready").into()
            );
        }
        Ok(fleet)
    }

    /// CPU seconds the front door and its replicas have consumed.
    fn cpu_seconds(&self) -> f64 {
        let door = self.child.id();
        std::iter::once(door).chain(host::children(door)).map(host::cpu_seconds).sum()
    }

    /// Sum of peak resident memory over the front door and its replicas.
    fn peak_rss_mb(&self) -> f64 {
        let door = self.child.id();
        std::iter::once(door)
            .chain(host::children(door))
            .filter_map(host::peak_rss_mb)
            .sum()
    }

    /// Drains the fleet with a `Shutdown` frame and waits for it to exit.
    fn stop(mut self) -> Result<()> {
        if let Ok(mut s) = TcpStream::connect(&self.addr) {
            let _ = write_frame(&mut s, &Frame::Shutdown);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                if let Some(h) = self.stdout.take() {
                    h.join().map_err(|_| "fleet stdout reader panicked")??;
                }
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("fleet did not drain within 30 s".into())
    }
}

/// `SPAWNS` fleet set-ups, each spawned, readied and stopped with no
/// traffic: per set-up, the spawn-to-ready wall time and the CPU seconds
/// the front door and its replicas consumed from spawn to exit. Unlike
/// wall time, CPU time is not charged for the time the hypervisor steals
/// from a shared host's vCPUs.
fn setups(image: &Path, tmp: &Path) -> Result<(Vec<f64>, Vec<f64>)> {
    let (mut ready, mut cpu) = (Vec::new(), Vec::new());
    for _ in 0..SPAWNS {
        let before = host::reaped_children_cpu_s();
        let fleet = Fleet::spawn(image, None, tmp)?;
        ready.push(fleet.ready_s);
        fleet.stop()?;
        cpu.push(host::reaped_children_cpu_s() - before);
    }
    Ok((ready, cpu))
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            for pid in host::children(self.child.id()) {
                let _ = Command::new("kill").arg("-9").arg(pid.to_string()).status();
            }
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}

/// The unsigned integer field `key` of a flat JSON object (0 if absent).
fn json_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    json.find(&pat)
        .map(|at| &json[at + pat.len()..])
        .map(|rest| {
            rest.bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0, |n, d| n * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(0)
}

/// One plain HTTP GET on the frame port: `(status, body)`.
fn http_get(addr: &str, path: &str) -> Result<(u32, String)> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(s, "GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")?;
    let mut resp = String::new();
    s.read_to_string(&mut resp)?;
    let code = resp.split_whitespace().nth(1).and_then(|c| c.parse().ok()).unwrap_or(0);
    let body = resp.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    Ok((code, body))
}

/// Sum over every series of `name` in a Prometheus text page whose
/// labels include `label` (all series when `None`).
fn prom_sum(page: &str, name: &str, label: Option<&str>) -> f64 {
    page.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (series, value) = l.rsplit_once(' ')?;
            let (metric, labels) = series.split_once('{').unwrap_or((series, ""));
            (metric == name && label.is_none_or(|want| labels.contains(want)))
                .then(|| value.parse::<f64>().ok())
                .flatten()
        })
        .sum()
}

/// One client connection speaking the frame protocol.
struct Conn {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

/// A terminal reply that delivered full-fidelity logits.
struct Served {
    logits: Vec<f32>,
    queue_us: u32,
    compute_us: u32,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn> {
        let w = TcpStream::connect(addr)?;
        w.set_nodelay(true)?;
        w.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn { r: BufReader::new(w.try_clone()?), w })
    }

    /// Sends one request and reads its terminal frame. A shed, failed,
    /// degraded or browned-out reply is a failure: the workload runs
    /// below overload, so each of them is a defect.
    fn call(&mut self, id: u64, task: usize, image: &Tensor) -> Result<Option<Served>> {
        let req = Frame::Request {
            id,
            trace: 0,
            task: task as u32,
            deadline_ms: 0,
            rung: 0,
            input: RequestInput::Tensor(image.clone()),
        };
        write_frame(&mut self.w, &req)?;
        Ok(match read_frame(&mut self.r)? {
            Frame::Reply {
                id: got,
                degraded: false,
                rung: 0,
                queue_us,
                compute_us,
                logits,
                ..
            } if got == id => Some(Served { logits, queue_us, compute_us }),
            Frame::Reply { id: got, .. } | Frame::ErrorReply { id: got, .. }
                if got == id =>
            {
                None
            }
            other => {
                return Err(format!("unexpected frame for request {id}: {other:?}").into())
            }
        })
    }
}

/// Requests, references and the shared id sequence of one run.
struct Traffic<'a> {
    inputs: &'a Inputs,
    refs: &'a [Vec<Vec<f32>>],
    next: AtomicU64,
}

impl Traffic<'_> {
    /// Sends the next request on `conn` (tasks interleave by id) and
    /// checks its output; returns the reply's stage timings when it
    /// succeeded.
    fn send(&self, conn: &mut Conn, tally: &mut Tally) -> Result<Option<(u32, u32)>> {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let task = (id % TASKS as u64) as usize;
        let img = (id / TASKS as u64) as usize % POOL;
        let served = conn.call(id, task, &self.inputs.pool[task][img])?;
        tally.check(
            id,
            served.as_ref().map(|s| s.logits.as_slice()),
            &self.refs[task][img],
        );
        Ok(served.map(|s| (s.queue_us, s.compute_us)))
    }
}

/// One request of the open-loop phase.
struct Sample {
    /// Due time to reply, µs.
    latency_us: f64,
    /// Due time to send, µs: how late the generator ran.
    lag_us: f64,
    /// The reply's `queue_us` and `compute_us`, and the rest of the
    /// send-to-reply time (`None` when the request failed).
    stages: Option<[f64; 3]>,
}

fn latencies_us(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.latency_us).collect()
}

/// Stage `i` (queue, compute, unaccounted) of every successful request.
fn stage(samples: &[Sample], i: usize) -> Vec<f64> {
    samples.iter().filter_map(|s| s.stages.map(|st| st[i])).collect()
}

/// Closed loop: after a warm-up, each of two connections sends its next
/// request as soon as the previous reply arrives. Returns completed
/// requests per second.
fn closed_loop(addr: &str, t: &Traffic, secs: f64, tally: &mut Tally) -> Result<f64> {
    let mut conns = [Conn::open(addr)?, Conn::open(addr)?];
    for conn in &mut conns {
        for _ in 0..WARMUP {
            t.send(conn, tally)?;
        }
    }
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                s.spawn(move || -> Result<(Tally, usize)> {
                    let mut tally = Tally::default();
                    let mut done = 0;
                    while start.elapsed().as_secs_f64() < secs {
                        t.send(&mut conn, &mut tally)?;
                        done += 1;
                    }
                    Ok((tally, done))
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("closed-loop worker"))
            .collect::<Vec<_>>()
    });
    let elapsed = start.elapsed().as_secs_f64();
    let mut done = 0;
    for r in results {
        let (t, d) = r?;
        tally.absorb(&t);
        done += d;
    }
    Ok(done as f64 / elapsed.max(1e-9))
}

/// Open loop: Poisson arrivals at `rate`, served by whichever of two
/// connections is free. Each request is timed from its due time, so a
/// stalled connection charges the wait to every request behind it.
fn open_loop(
    addr: &str,
    t: &Traffic,
    secs: f64,
    rate: f64,
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<Sample>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0BE7_100F);
    let mut due = Vec::new();
    let mut at = 0.0f64;
    while at < secs {
        at += -rng.gen_range(f64::EPSILON..1.0f64).ln() / rate;
        due.push(Duration::from_secs_f64(at));
    }
    let conns = [Conn::open(addr)?, Conn::open(addr)?];
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let results = std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .into_iter()
            .map(|mut conn| {
                let (due, next) = (&due, &next);
                s.spawn(move || -> Result<(Vec<Sample>, Tally)> {
                    let mut rec = Vec::new();
                    let mut tally = Tally::default();
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&when) = due.get(k) else { break };
                        let wait = when.saturating_sub(start.elapsed());
                        if !wait.is_zero() {
                            std::thread::sleep(wait);
                        }
                        let sent = start.elapsed();
                        let stages = t.send(&mut conn, &mut tally)?;
                        let done = start.elapsed();
                        let rtt = (done - sent).as_secs_f64() * 1e6;
                        rec.push(Sample {
                            latency_us: (done - when).as_secs_f64() * 1e6,
                            lag_us: sent.saturating_sub(when).as_secs_f64() * 1e6,
                            stages: stages.map(|(q, c)| {
                                let (q, c) = (f64::from(q), f64::from(c));
                                [q, c, rtt - q - c]
                            }),
                        });
                    }
                    Ok((rec, tally))
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("open-loop worker")).collect::<Vec<_>>()
    });
    let mut all = Vec::new();
    for r in results {
        let (rec, t) = r?;
        tally.absorb(&t);
        all.extend(rec);
    }
    Ok(all)
}

/// Fresh connections, one at a time, each after a think time drawn from
/// an evenly spread (golden-ratio) sequence with a seeded start: the
/// time from TCP connect to the first reply, in ms.
fn fresh_connections(
    addr: &str,
    t: &Traffic,
    secs: f64,
    seed: u64,
    tally: &mut Tally,
) -> Result<Vec<f64>> {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let mut phase = (seed % 1000) as f64 / 1000.0;
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut out = Vec::new();
    while Instant::now() < end {
        phase = (phase + PHI).fract();
        std::thread::sleep(Duration::from_secs_f64(phase * THINK_MS / 1e3));
        let start = Instant::now();
        let mut conn = Conn::open(addr)?;
        t.send(&mut conn, tally)?;
        out.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(out)
}

/// The packed image, its reference plans' logits, and what the traced
/// run reports about the deployment.
struct Setup {
    inputs: Inputs,
    image_path: PathBuf,
    refs: Vec<Vec<Vec<f32>>>,
    tmp: PathBuf,
    /// The reference model (image weights) and plans, for the per-layer
    /// counts.
    model: model::Model,
    plans: Vec<mime_runtime::BoundNetwork>,
    image_bytes: usize,
    prepack_ms: f64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// Calibrates the mini model on this seed's child-task images, packs it
/// as the fleet's image, and computes the reference logits of every pool
/// image on the very plans a replica binds from that image.
fn prepare(seed: u64) -> Result<Setup> {
    let inputs = model::inputs(seed, 32, 8, POOL)?;
    let image = model::pack(model::build_model(&model::mini_arch(), &inputs.calib)?)?;
    let tmp = scratch_dir()?;
    let image_path = tmp.join("serve-mix.mime");
    std::fs::write(&image_path, &image)?;
    let (model, mut plans) = model::plans_from_image(&image)?;
    let prepack_ms = prepack_plans(&mut plans)?.ms;
    let mut exec = model::executor();
    let mut refs = Vec::with_capacity(TASKS);
    for (plan, pool) in plans.iter().zip(&inputs.pool) {
        refs.push(
            pool.iter()
                .map(|img| exec.run_image(plan, img, true))
                .collect::<std::result::Result<Vec<_>, _>>()?,
        );
    }
    Ok(Setup {
        inputs,
        image_path,
        refs,
        tmp,
        model,
        plans,
        image_bytes: image.len(),
        prepack_ms,
    })
}

/// The three phases of a run on one fleet.
struct Phases {
    /// Closed-loop requests per second.
    rps: f64,
    /// Fleet CPU ms per request over the closed loop.
    cpu_ms: f64,
    open: Vec<Sample>,
    /// Fresh connection to first reply, ms.
    connect: Vec<f64>,
    /// Closed, open and fresh-connection outcomes.
    tallies: [Tally; 3],
}

impl Phases {
    fn run(fleet: &Fleet, t: &Traffic, seconds: f64, seed: u64) -> Result<Phases> {
        let mut tallies = [Tally::default(), Tally::default(), Tally::default()];
        let cpu_before = fleet.cpu_seconds();
        let rps = closed_loop(&fleet.addr, t, seconds * 0.3, &mut tallies[0])?;
        let cpu_ms =
            (fleet.cpu_seconds() - cpu_before) * 1e3 / tallies[0].attempted.max(1) as f64;
        let open = open_loop(
            &fleet.addr,
            t,
            seconds * 0.45,
            OPEN_LOOP_RPS,
            seed,
            &mut tallies[1],
        )?;
        let connect =
            fresh_connections(&fleet.addr, t, seconds * 0.25, seed, &mut tallies[2])?;
        Ok(Phases { rps, cpu_ms, open, connect, tallies })
    }

    fn tally(&self) -> Tally {
        let mut all = Tally::default();
        for t in &self.tallies {
            all.absorb(t);
        }
        all
    }

    /// One JSON line: outcomes per phase, the open loop's latency
    /// percentiles and generator lag.
    fn detail(&self, ready: &[f64], cpu: &[f64]) -> String {
        let latency = latencies_us(&self.open);
        let lag: Vec<f64> = self.open.iter().map(|s| s.lag_us).collect();
        let [c, o, f] = &self.tallies;
        format!(
            "{{\"detail\": {{\"closed\": [{}, {}], \"open\": [{}, {}], \
             \"connect\": [{}, {}], \"open_rps\": {OPEN_LOOP_RPS}, \
             \"open_p50_ms\": {:.4}, \"open_p90_ms\": {:.4}, \"open_p99_ms\": {:.4}, \
             \"lag_p50_us\": {:.1}, \"lag_p99_us\": {:.1}, \"lag_max_us\": {:.1}, \
             \"spawn_ready_s\": {ready:?}, \"setup_cpu_s\": {cpu:?}}}}}",
            c.attempted,
            c.failed,
            o.attempted,
            o.failed,
            f.attempted,
            f.failed,
            median(&latency) / 1e3,
            quantile(&latency, 0.90) / 1e3,
            quantile(&latency, 0.99) / 1e3,
            median(&lag),
            quantile(&lag, 0.99),
            quantile(&lag, 1.0),
        )
    }
}

/// An untraced run: the end-to-end metrics.
pub fn run_e2e(seed: u64, seconds: f64) -> Result<(Metrics, Tally)> {
    let setup = prepare(seed)?;
    let (ready, cpu) = setups(&setup.image_path, &setup.tmp)?;
    let fleet = Fleet::spawn(&setup.image_path, None, &setup.tmp)?;
    let traffic =
        Traffic { inputs: &setup.inputs, refs: &setup.refs, next: AtomicU64::new(0) };
    let phases = Phases::run(&fleet, &traffic, seconds, seed)?;
    let rss = fleet.peak_rss_mb();
    fleet.stop()?;
    println!("{}", phases.detail(&ready, &cpu));
    let tally = phases.tally();
    let mut m = Metrics::default();
    m.put("setup_s", median(&cpu), "s");
    m.put("peak_rss_mb", rss, "MB");
    m.put("ok_share", tally.ok_share(), "share");
    m.put("cpu_ms_per_image", phases.cpu_ms, "ms");
    Ok((m, tally))
}

/// Durations (µs) of the spans called `name` in a stitched Chrome trace.
fn span_durations(trace: &str, name: &str) -> Vec<f64> {
    let prefix = format!("{{\"name\":\"{name}\",");
    trace
        .lines()
        .filter(|l| l.starts_with(&prefix))
        .filter_map(|l| {
            let rest = &l[l.find("\"dur\":")? + 6..];
            rest[..rest.find(',')?].parse().ok()
        })
        .collect()
}

/// Mean µs to encode and to decode one request and one reply frame of
/// this workload, and the two frame sizes.
fn proto_costs(image: &Tensor, logits: &[f32]) -> Result<(f64, f64, usize, usize)> {
    let req = Frame::Request {
        id: 1,
        trace: 0,
        task: 0,
        deadline_ms: 0,
        rung: 0,
        input: RequestInput::Tensor(image.clone()),
    };
    let reply = Frame::Reply {
        id: 1,
        trace: 7,
        degraded: false,
        queue_us: 10,
        compute_us: 500,
        rung: 0,
        logits: logits.to_vec(),
    };
    const REPS: usize = 2000;
    let (mut enc, mut dec, mut sizes) = (0.0, 0.0, [0usize; 2]);
    for (i, frame) in [req, reply].iter().enumerate() {
        let mut buf = Vec::new();
        let start = Instant::now();
        for _ in 0..REPS {
            buf.clear();
            write_frame(&mut buf, std::hint::black_box(frame))?;
        }
        enc += start.elapsed().as_secs_f64() * 1e6 / REPS as f64;
        sizes[i] = buf.len();
        let start = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(
                read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())?,
            );
        }
        dec += start.elapsed().as_secs_f64() * 1e6 / REPS as f64;
    }
    Ok((enc, dec, sizes[0], sizes[1]))
}

/// A traced run: per-stage numbers from the replies, the fleet's own
/// `/metrics` page and its stitched `--trace-out`, next to an untraced
/// fleet serving the same open loop.
pub fn run_layers(seed: u64, seconds: f64, m: &mut Metrics) -> Result<Tally> {
    let mut setup = prepare(seed)?;
    let mut tally = Tally::default();
    let traffic =
        Traffic { inputs: &setup.inputs, refs: &setup.refs, next: AtomicU64::new(0) };

    let (ready, _) = setups(&setup.image_path, &setup.tmp)?;
    m.put("wall.setup_s", median(&ready), "s");
    let fleet = Fleet::spawn(&setup.image_path, None, &setup.tmp)?;
    let phases = Phases::run(&fleet, &traffic, seconds, seed)?;
    let (_, page) = http_get(&fleet.addr, "/metrics")?;
    fleet.stop()?;
    tally.absorb(&phases.tally());
    let plain = &phases.open;

    let trace_path = setup.tmp.join("serve-mix.trace.json");
    let fleet = Fleet::spawn(&setup.image_path, Some(&trace_path), &setup.tmp)?;
    closed_loop(&fleet.addr, &traffic, 0.0, &mut tally)?; // warm-up only
    let traced =
        open_loop(&fleet.addr, &traffic, seconds / 2.0, OPEN_LOOP_RPS, seed, &mut tally)?;
    fleet.stop()?;
    let trace = std::fs::read_to_string(&trace_path)?;

    let plain_latency = latencies_us(plain);
    let p50_us = median(&plain_latency);
    m.put("wall.throughput_ips", phases.rps, "1/s");
    m.put("wall.latency_p50_ms", p50_us / 1e3, "ms");
    m.put("wall.latency_p99_ms", quantile(&plain_latency, 0.99) / 1e3, "ms");
    m.put("wall.first_result_ms", median(&phases.connect), "ms");
    let (queue, compute) = (stage(plain, 0), stage(plain, 1));
    m.put("frontdoor.queue_us.p50", median(&queue), "us");
    m.put("frontdoor.queue_us.p99", quantile(&queue, 0.99), "us");
    let batch_mean = prom_sum(&page, "mime_frontdoor_batch_size_sum", None)
        / prom_sum(&page, "mime_frontdoor_batch_size_count", None).max(1.0);
    m.put("frontdoor.batch_size.mean", batch_mean, "count");
    m.put(
        "frontdoor.retries",
        prom_sum(&page, "mime_frontdoor_retries_total", None),
        "count",
    );
    let (enc, dec, req_bytes, reply_bytes) =
        proto_costs(&setup.inputs.pool[0][0], &setup.refs[0][0])?;
    m.put("proto.encode_us", enc, "us");
    m.put("proto.decode_us", dec, "us");
    m.put("proto.request_bytes", req_bytes as f64, "bytes");
    m.put("proto.reply_bytes", reply_bytes as f64, "bytes");
    m.put("replica.compute_us.p50", median(&compute), "us");
    m.put("replica.compute_us.p99", quantile(&compute, 0.99), "us");
    let lag: Vec<f64> = plain.iter().map(|s| s.lag_us).collect();
    let unaccounted = median(&stage(plain, 2));
    m.put("serve.unaccounted_us.p50", unaccounted, "us");
    // Per-stage medians of skewed stages need not add up to the median
    // latency; this share says how far they fall short of it.
    let stage_sum = median(&lag) + median(&queue) + median(&compute) + unaccounted;
    m.put("serve.stage_sum_share", stage_sum / p50_us.max(1e-9), "share");
    m.put("serve.send_lag_us.p50", median(&lag), "us");
    m.put("serve.send_lag_us.p99", quantile(&lag, 0.99), "us");
    m.put("serve.send_lag_us.max", quantile(&lag, 1.0), "us");
    m.put("trace.request_us.p50", median(&span_durations(&trace, "request")), "us");
    let mut replica = span_durations(&trace, "replica_request");
    replica.extend(span_durations(&trace, "replica_batch"));
    m.put("trace.replica_us.p50", median(&replica), "us");
    m.put("executor.batch_ms.p50", median(&compute) / 1e3, "ms");
    m.put(
        "obs.trace_overhead_share",
        median(&latencies_us(&traced)) / p50_us.max(1e-9) - 1.0,
        "share",
    );
    m.put(
        "tensor.rows_skipped_share",
        prom_sum(&page, "mime_sparse_rows_skipped_total", None)
            / prom_sum(&page, "mime_sparse_rows_total", None).max(1.0),
        "share",
    );

    let mut layer_us = BTreeMap::new();
    for name in layers::layer_names() {
        let label = format!("layer=\"{name}\"");
        let sum = prom_sum(&page, "mime_runtime_layer_latency_seconds_sum", Some(&label));
        let count =
            prom_sum(&page, "mime_runtime_layer_latency_seconds_count", Some(&label));
        if count > 0.0 {
            layer_us.insert(name, sum / count * 1e6);
        }
    }
    let counted = 8;
    let counts: Vec<_> = (0..TASKS)
        .map(|t| model::layer_counts(&mut setup.model, t, &setup.inputs.pool[t][..counted]))
        .collect::<Result<_>>()?;
    let images: Vec<&[Tensor]> = setup.inputs.pool.iter().map(|p| &p[..counted]).collect();
    model::check_counts(&setup.plans, &images, &counts)?;
    layers::put_layers(m, &layer_us, &counts, counted, batch_mean.max(1.0));
    m.put(
        "systolic.energy_per_image",
        model::energy_per_image(&setup.model.arch, &TaskMode::paper_pipelined(), &counts),
        "MAC",
    );
    let res = model::residency(&setup.plans);
    m.put("bind.weight_bytes_resident", res.bytes as f64, "bytes");
    m.put("bind.weight_copies", res.copies, "count");
    m.put("bind.prepack_ms", setup.prepack_ms, "ms");
    m.put("deploy.image_bytes", setup.image_bytes as f64, "bytes");
    Ok(tally)
}

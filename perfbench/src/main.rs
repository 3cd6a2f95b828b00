//! MIME benchmark: served latency, batch throughput and resident memory
//! on three workloads, end to end (`--trace 0`) or layer by layer
//! (`--trace 1`).
//!
//! ```text
//! bash perfbench/run.sh --workload <serve-mix|batch-mix|vgg224-singular> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a provenance line, the paper anchors, and as its last line
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Exits 1 when any output differs from the serial reference.

mod anchors;
mod host;
mod inproc;
mod layers;
mod model;
mod serve;
mod stats;

use stats::{Metrics, Tally};

/// The end-to-end metrics every untraced run reports, with units. The
/// wall-clock latency and throughput figures are per-layer metrics of
/// the traced run (`wall.*`): on a shared 2-vCPU host they move with
/// other tenants' load by more than any bound a gate could hold.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
    ("cpu_ms_per_image", "ms"),
];

const WORKLOADS: [&str; 3] = ["serve-mix", "batch-mix", "vgg224-singular"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (one of {WORKLOADS:?})"));
    }
    let num = |s: String, flag: &str| {
        s.parse::<u64>().map_err(|_| format!("{flag}: not a number"))
    };
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    Ok(Args { workload, seed, seconds, trace })
}

fn run(args: &Args) -> model::Result<(Metrics, Tally)> {
    let secs = args.seconds as f64;
    if !args.trace {
        return match args.workload.as_str() {
            "serve-mix" => serve::run_e2e(args.seed, secs),
            "batch-mix" => inproc::run_e2e(&inproc::batch_mix(), args.seed, secs),
            _ => inproc::run_e2e(&inproc::vgg224_singular(), args.seed, secs),
        };
    }
    let mut m = Metrics::default();
    layers::defaults(&mut m);
    m.put("tensor.peak_gflops", layers::peak_gflops(), "GFLOP/s");
    let tally = match args.workload.as_str() {
        "serve-mix" => serve::run_layers(args.seed, secs, &mut m)?,
        "batch-mix" => inproc::run_layers(&inproc::batch_mix(), args.seed, secs, &mut m)?,
        _ => inproc::run_layers(&inproc::vgg224_singular(), args.seed, secs, &mut m)?,
    };
    Ok((m, tally))
}

/// The names a run must report, in order.
fn expected(trace: bool) -> Vec<String> {
    if trace {
        layers::per_layer_names().into_iter().map(|(n, _)| n).collect()
    } else {
        END_TO_END.iter().map(|(n, _)| n.to_string()).collect()
    }
}

/// Executor workers, in process and in every replica (which inherit
/// the environment).
const THREADS: &str = "2";

fn main() {
    std::env::set_var("MIME_THREADS", THREADS);
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    println!("{}", host::provenance(&args.workload, args.seed, args.seconds, args.trace));
    println!("{}", anchors::json());
    let cpu = host::CpuTimes::now();
    let (metrics, tally) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let (steal, busy) = host::CpuTimes::now().shares_since(&cpu);
    println!("{{\"host\": {{\"steal_share\": {steal:.4}, \"busy_share\": {busy:.4}}}}}");
    let names = metrics.names();
    assert_eq!(names, expected(args.trace), "metric set drifted from BENCHMARK.json");
    if !tally.correct() {
        eprintln!(
            "perfbench: correctness gate failed: {} of {} outputs wrong or missing, \
             served checksum {:016x} vs reference {:016x}",
            tally.failed, tally.attempted, tally.served_sum, tally.reference_sum
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics.to_json()
    );
    std::process::exit(if tally.correct() { 0 } else { 1 });
}

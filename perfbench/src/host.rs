//! Host facts: provenance for every result, and resident-memory, CPU
//! time and steal readings from `/proc`.

use crate::stats::json_str;
use std::os::raw::c_long;
use std::path::Path;
use std::process::Command;

/// The kernel arm `mime-tensor` dispatches its GEMM microkernels to. The
/// crate keeps its selector private, so this repeats its detection order
/// (AVX-512F, then AVX2+FMA, else portable).
pub fn isa_arm() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return "avx2";
        }
    }
    "portable"
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The source revision: `git rev-parse HEAD` in a git checkout, else an
/// FNV-1a fingerprint over the workspace sources (a plain export of the
/// tree has no history to name).
pub fn revision() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = Command::new("git").args(["rev-parse", "HEAD"]).output() {
            if out.status.success() {
                return format!("git:{}", String::from_utf8_lossy(&out.stdout).trim());
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "perfbench", "Cargo.toml", "Cargo.lock"] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    format!("tree:{h:016x}")
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for e in entries.flatten() {
            let p = e.path();
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_files(&p, out);
        }
    }
}

/// One JSON line of provenance: revision, host fingerprint, executor
/// workers (`MIME_THREADS`), seed and run length.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
    format!(
        "{{\"provenance\": {{\"revision\": {}, \"cpu\": {}, \"nproc\": {nproc}, \
         \"isa\": \"{}\", \"threads\": {}, \"workload\": \"{workload}\", \
         \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}}}}}",
        json_str(&revision()),
        json_str(&cpu_model()),
        isa_arm(),
        json_str(&std::env::var("MIME_THREADS").unwrap_or_default())
    )
}

/// Peak resident set (`VmHWM`) of a process in MiB, if it is alive.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Direct children of a process, from `/proc/<pid>/task/*/children`.
pub fn children(pid: u32) -> Vec<u32> {
    let mut out = Vec::new();
    if let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) {
        for t in tasks.flatten() {
            if let Ok(s) = std::fs::read_to_string(t.path().join("children")) {
                out.extend(s.split_whitespace().filter_map(|p| p.parse::<u32>().ok()));
            }
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Host CPU time counters (jiffies summed over CPUs) from `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    busy: u64,
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        let get = |i: usize| fields.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal
        CpuTimes {
            busy: get(0) + get(1) + get(2) + get(5) + get(6),
            steal: get(7),
            total: (0..8).map(get).sum(),
        }
    }

    /// `(steal share, busy share)` of all CPU time since `earlier`.
    pub fn shares_since(&self, earlier: &CpuTimes) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total).max(1) as f64;
        (
            self.steal.saturating_sub(earlier.steal) as f64 / total,
            self.busy.saturating_sub(earlier.busy) as f64 / total,
        )
    }
}

/// CPU time (user + system, all threads, exited ones included) this
/// process has consumed, in seconds (`CLOCK_PROCESS_CPUTIME_ID`, ns
/// resolution). Time the hypervisor steals from the vCPU is not charged.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// CPU time (user + system) of every child process this process has
/// reaped, and of the descendants those children reaped in turn, in
/// seconds (`getrusage(RUSAGE_CHILDREN)`, µs resolution).
pub fn reaped_children_cpu_s() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: c_long,
        usec: c_long,
    }
    /// `struct rusage` on Linux: two timevals, then 14 longs.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [c_long; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_CHILDREN: i32 = -1;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a valid, writable `struct rusage` (layout above).
    let rc = unsafe { getrusage(RUSAGE_CHILDREN, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_CHILDREN) failed");
    let tv = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    tv(&ru.utime) + tv(&ru.stime)
}

/// CPU time (user + system, all threads, exited ones included) a live
/// process has consumed, in seconds, from `/proc/<pid>/stat` (10 ms
/// ticks). Time the
/// hypervisor steals from the vCPU is not charged to the process.
pub fn cpu_seconds(pid: u32) -> f64 {
    /// `sysconf(_SC_CLK_TCK)` on Linux.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).unwrap_or_default();
    // utime and stime are fields 14 and 15; the command name before them
    // is parenthesised and may hold spaces
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let field = |i: usize| -> f64 {
        after_comm.split_whitespace().nth(i).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    };
    (field(11) + field(12)) / TICKS_PER_S
}

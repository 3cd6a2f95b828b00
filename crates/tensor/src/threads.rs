//! Worker-count policy and the kernel helper pool.
//!
//! Every threaded kernel in this crate (and the parallel batch executor
//! in `mime-runtime`) sizes its worker pool through [`worker_count`]:
//! the `MIME_THREADS` environment variable when set to a positive
//! integer, otherwise the machine's available parallelism. Kernels also
//! accept an explicit `threads` argument (`*_with_threads` variants) so
//! tests and benchmarks can pin a worker count without touching the
//! process environment.
//!
//! The kernels split their output into `threads` stripes and hand them
//! to [`run_stripes`], which runs them on one process-wide pool of
//! parked helper threads (named `mime-kernel-<i>`, `worker_count() - 1`
//! of them, started on the first threaded call). The calling thread
//! works through the stripes too, so a call needs no thread of its own
//! and, after the first, starts none. The pool serves one call at a
//! time: a call that finds it taken — from another thread, or from a
//! stripe of the running call — runs its stripes inline, in the same
//! partition, so results never depend on who ran which stripe and the
//! pool cannot deadlock.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;

/// Upper bound on workers a kernel will spawn, regardless of
/// `MIME_THREADS`. Guards against pathological env values; far above
/// any useful count for the row-range splits used here.
pub const MAX_THREADS: usize = 256;

/// The number of kernel workers to use by default: `MIME_THREADS` if it
/// parses as a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 when unknown). Clamped to
/// [`MAX_THREADS`].
pub fn worker_count() -> usize {
    worker_count_from(std::env::var("MIME_THREADS").ok().as_deref())
}

/// [`worker_count`] with the environment value passed explicitly
/// (pure; used directly by tests to avoid mutating the process env).
pub fn worker_count_from(env: Option<&str>) -> usize {
    let parsed = env.and_then(|s| s.trim().parse::<usize>().ok()).filter(|&t| t > 0);
    parsed.unwrap_or_else(available_parallelism).min(MAX_THREADS)
}

/// The machine's available parallelism, ignoring `MIME_THREADS`: the
/// worker count past which additional threads can only time-slice a
/// core and thrash its cache. Benchmarks use this to avoid measuring
/// oversubscription instead of the kernels.
pub fn hardware_cap() -> usize {
    available_parallelism()
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map(usize::from).unwrap_or(1)
}

/// Thread-name prefix of the process-wide pool's helpers.
const HELPER_NAME: &str = "mime-kernel";

/// Calls `f` once on every stripe, spread over the calling thread and
/// the process-wide helper pool, and returns when all have run. Each
/// stripe must own disjoint output (typically a `&mut` sub-slice), so
/// the result does not depend on which thread ran it.
///
/// # Panics
///
/// If a stripe panics, the first payload is resumed on the caller once
/// every stripe has finished; the pool stays usable.
pub(crate) fn run_stripes<T: Send>(stripes: Vec<T>, f: impl Fn(T) + Sync) {
    // A static is never dropped: the helpers park until the process
    // exits, holding nothing but their stacks between calls.
    static POOL: OnceLock<HelperPool> = OnceLock::new();
    POOL.get_or_init(|| HelperPool::new(HELPER_NAME, worker_count() - 1)).run(stripes, f);
}

/// Parked helper threads that serve one published job at a time.
struct HelperPool {
    shared: Arc<Shared>,
    helpers: Vec<JoinHandle<()>>,
    /// Taken by the caller whose job is published. Any other call made
    /// while it is taken runs inline.
    busy: AtomicBool,
}

struct Shared {
    state: Mutex<State>,
    /// Parked helpers wait here for a job with open seats.
    work: Condvar,
    /// The publishing caller waits here for helpers to check back in.
    done: Condvar,
}

#[derive(Default)]
struct State {
    job: Option<JobRef>,
    /// Helpers that may still join the published job.
    seats: usize,
    /// Helpers that took the job and have not checked back in.
    inside: usize,
    /// Helpers that have started (and so carry their names).
    started: usize,
    shutdown: bool,
}

/// A published job with its lifetime erased: a pointer to a `Job` on
/// the publishing caller's stack and the function that works on it.
#[derive(Clone, Copy)]
struct JobRef {
    data: *const (),
    work: unsafe fn(*const ()),
}

// SAFETY: `data` points to a `Job<T, F>`, which is `Sync` (`T: Send`,
// `F: Sync`; checked where it is published), so helpers may work on it
// from any thread. The publisher
// keeps it alive while any helper holds the reference (see `Published`).
unsafe impl Send for JobRef {}

/// The stripes of one call, claimed one at a time by whichever thread
/// asks next.
struct Job<T, F> {
    stripes: Mutex<std::vec::IntoIter<T>>,
    f: F,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<T: Send, F: Fn(T) + Sync> Job<T, F> {
    /// Runs stripes until none is left. A panicking stripe is caught and
    /// its payload kept (the first one only), so this never unwinds.
    fn work(&self) {
        loop {
            // (a separate statement, so the claim lock is released
            // before the stripe runs)
            let next = lock(&self.stripes).next();
            let Some(stripe) = next else { return };
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| (self.f)(stripe)))
            {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }

    /// # Safety
    ///
    /// `data` must point to a live `Job<T, F>`.
    unsafe fn work_erased(data: *const ()) {
        // SAFETY: the caller guarantees `data` came from a live
        // `&Job<T, F>` of exactly this type.
        unsafe { (*data.cast::<Self>()).work() }
    }
}

/// Locks `m`, ignoring poison: no critical section in this module can
/// panic (stripes run outside every lock), so the data is always
/// consistent, and the `Drop` paths that lock must not panic.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl HelperPool {
    /// Starts up to `helpers` parked threads named `<name>-<i>` (fewer if
    /// the OS refuses one; with none, every call runs inline) and returns
    /// once all of them are running.
    fn new(name: &str, helpers: usize) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let helpers = (0..helpers)
            .map_while(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || helper_loop(&shared))
                    .ok()
            })
            .collect::<Vec<_>>();
        let mut state = lock(&shared.state);
        while state.started < helpers.len() {
            state = shared.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        Self { shared, helpers, busy: AtomicBool::new(false) }
    }

    fn run<T: Send>(&self, stripes: Vec<T>, f: impl Fn(T) + Sync) {
        let seats = self.helpers.len().min(stripes.len().saturating_sub(1));
        if seats == 0 || self.busy.swap(true, Ordering::Acquire) {
            stripes.into_iter().for_each(f);
            return;
        }
        let job =
            Job { stripes: Mutex::new(stripes.into_iter()), f, panic: Mutex::new(None) };
        {
            // Dropped at the end of this block, or while unwinding out of
            // it: either way it waits for every helper that took the job
            // before `job` can go out of scope.
            let _published = Published::new(self, &job, seats);
            job.work();
        }
        if let Some(payload) =
            job.panic.into_inner().unwrap_or_else(PoisonError::into_inner)
        {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for HelperPool {
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.work.notify_all();
        for helper in self.helpers.drain(..) {
            let _ = helper.join();
        }
    }
}

/// A job published to the pool's helpers. Dropping it retracts the job
/// and blocks until every helper that took it has checked back in, then
/// frees the pool for the next caller.
struct Published<'p> {
    pool: &'p HelperPool,
}

impl<'p> Published<'p> {
    fn new<T: Send, F: Fn(T) + Sync>(
        pool: &'p HelperPool,
        job: &Job<T, F>,
        seats: usize,
    ) -> Self {
        // (the `Send` impl on `JobRef` relies on this)
        fn assert_sync<J: Sync>(_: &J) {}
        assert_sync(job);
        let published = Self { pool };
        let shared = &pool.shared;
        let mut state = lock(&shared.state);
        state.job = Some(JobRef {
            data: std::ptr::from_ref(job).cast(),
            work: Job::<T, F>::work_erased,
        });
        state.seats = seats;
        drop(state);
        for _ in 0..seats {
            shared.work.notify_one();
        }
        published
    }
}

impl Drop for Published<'_> {
    fn drop(&mut self) {
        let shared = &self.pool.shared;
        let mut state = lock(&shared.state);
        state.job = None;
        state.seats = 0;
        while state.inside > 0 {
            state = shared.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        self.pool.busy.store(false, Ordering::Release);
    }
}

/// Checks a helper back in when dropped, so even a helper that unwinds
/// out of a job releases the caller waiting on it.
struct CheckIn<'s>(&'s Shared);

impl Drop for CheckIn<'_> {
    fn drop(&mut self) {
        let mut state = lock(&self.0.state);
        state.inside -= 1;
        if state.inside == 0 {
            self.0.done.notify_all();
        }
    }
}

fn helper_loop(shared: &Shared) {
    let mut state = lock(&shared.state);
    state.started += 1;
    shared.done.notify_all();
    loop {
        if state.shutdown {
            return;
        }
        match state.job {
            Some(job) if state.seats > 0 => {
                state.seats -= 1;
                state.inside += 1;
                drop(state);
                let check_in = CheckIn(shared);
                // SAFETY: `inside` was raised under the lock while the
                // job was published, so its `Published` guard cannot let
                // the caller return before `check_in` lowers it again.
                unsafe { (job.work)(job.data) };
                drop(check_in);
                state = lock(&shared.state);
            }
            _ => state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        matmul_fused_batch_into, matmul_into_with_threads,
        matmul_prepacked_into_with_threads, FusedMask, PrepackedB, SparseDispatch, Tensor,
    };
    use std::sync::atomic::AtomicUsize;
    use std::sync::{mpsc, Barrier};

    #[test]
    fn explicit_value_wins() {
        assert_eq!(worker_count_from(Some("4")), 4);
        assert_eq!(worker_count_from(Some(" 64 ")), 64);
    }

    #[test]
    fn invalid_values_fall_back_to_hardware() {
        let hw = available_parallelism();
        assert_eq!(worker_count_from(None), hw.min(MAX_THREADS));
        assert_eq!(worker_count_from(Some("0")), hw.min(MAX_THREADS));
        assert_eq!(worker_count_from(Some("auto")), hw.min(MAX_THREADS));
        assert_eq!(worker_count_from(Some("")), hw.min(MAX_THREADS));
    }

    #[test]
    fn absurd_values_are_clamped() {
        assert_eq!(worker_count_from(Some("1000000")), MAX_THREADS);
    }

    #[test]
    fn worker_count_is_positive() {
        assert!(worker_count() >= 1);
    }

    #[test]
    fn hardware_cap_is_positive_and_env_independent() {
        assert!(hardware_cap() >= 1);
        assert_eq!(hardware_cap(), available_parallelism());
    }

    fn det(seed: u64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let h = (i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97;
                // every fourth value zero, so the sparse probes see work
                if i % 4 == 0 {
                    0.0
                } else {
                    h as f32 * 0.125 - 6.0
                }
            })
            .collect()
    }

    fn matrix(seed: u64, m: usize, n: usize) -> Tensor {
        Tensor::from_vec(det(seed, m * n), &[m, n]).unwrap()
    }

    /// Every threaded kernel path above the spawn threshold at
    /// `threads`, flattened into one vector of output bits: the row split
    /// (tall `C`), the column split (short, wide `C`), the prepacked row
    /// split, and the batched fused FC kernel.
    fn kernel_bits(threads: usize) -> Vec<u32> {
        let mut bits = Vec::new();
        for (m, k, n) in [(128, 64, 48), (16, 128, 256)] {
            let (a, b) = (matrix(1, m, k), matrix(2, k, n));
            let mut c = Tensor::zeros(&[m, n]);
            matmul_into_with_threads(&a, &b, &mut c, threads).unwrap();
            bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
        }
        let (a, pb) =
            (matrix(3, 128, 64), PrepackedB::from_matrix(&matrix(4, 64, 48)).unwrap());
        let mut c = Tensor::zeros(&[128, 48]);
        matmul_prepacked_into_with_threads(&a, &pb, &mut c, threads).unwrap();
        bits.extend(c.as_slice().iter().map(|v| v.to_bits()));
        let (batch, k, n) = (8, 256, 320);
        let w = PrepackedB::from_weight_transposed(&matrix(5, n, k), k, n).unwrap();
        let (xs, bias) = (matrix(6, batch, k), matrix(7, 1, n));
        let masks = [FusedMask::Relu; 8];
        let mut out = Tensor::zeros(&[batch, n]);
        let mut activity = Vec::new();
        matmul_fused_batch_into(
            &xs,
            &w,
            &bias,
            &masks,
            &[None; 8],
            SparseDispatch::Auto,
            &mut out,
            &mut activity,
            threads,
        )
        .unwrap();
        bits.extend(out.as_slice().iter().map(|v| v.to_bits()));
        bits
    }

    #[test]
    fn a_panicking_stripe_surfaces_after_every_stripe_finished() {
        let pool = HelperPool::new("test-panic", 1);
        assert_eq!(pool.helpers.len(), 1);
        // Both stripes pass the barrier together, so the helper runs one
        // of them; the survivor finishes only after the other panicked.
        let barrier = Barrier::new(2);
        let (tx, rx) = mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let finished = AtomicBool::new(false);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(vec![0, 1], |i| {
                barrier.wait();
                if i == 0 {
                    lock(&tx).send(()).unwrap();
                    panic!("stripe 0 failed");
                }
                lock(&rx).recv().unwrap();
                finished.store(true, Ordering::SeqCst);
            });
        }));
        let payload = caught.expect_err("the stripe's panic must reach the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"stripe 0 failed"));
        assert!(finished.load(Ordering::SeqCst), "resumed before every stripe finished");
        // the pool still serves both threads afterwards
        let barrier = Barrier::new(2);
        let ran = AtomicUsize::new(0);
        pool.run(vec![0, 1], |_| {
            barrier.wait();
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn kernels_stay_bit_identical_after_a_stripe_panics_on_the_shared_pool() {
        let reference = kernel_bits(1);
        let caught = panic::catch_unwind(|| {
            run_stripes(vec![0, 1, 2], |i| assert_ne!(i, 1, "stripe 1 failed"));
        });
        assert!(caught.is_err());
        for threads in [2, 3, 4] {
            assert_eq!(kernel_bits(threads), reference, "threads = {threads}");
        }
    }

    #[test]
    fn concurrent_callers_get_single_threaded_bits() {
        let reference = kernel_bits(1);
        let callers = 4;
        let barrier = Barrier::new(callers);
        std::thread::scope(|s| {
            for t in 0..callers {
                let (barrier, reference) = (&barrier, &reference);
                s.spawn(move || {
                    barrier.wait();
                    for round in 0..5 {
                        let threads = 2 + (t + round) % 3;
                        assert_eq!(&kernel_bits(threads), reference, "threads = {threads}");
                    }
                });
            }
        });
    }

    #[test]
    fn a_kernel_called_from_a_pool_task_completes() {
        let reference = kernel_bits(1);
        // nested on the same pool: the barrier puts one stripe on the
        // helper and one on the caller, and each calls back in
        let pool = HelperPool::new("test-nested", 1);
        assert_eq!(pool.helpers.len(), 1);
        let barrier = Barrier::new(2);
        let inner = AtomicUsize::new(0);
        pool.run(vec![0, 1], |_| {
            barrier.wait();
            pool.run(vec![0, 1, 2], |_| {
                inner.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner.load(Ordering::SeqCst), 6);
        // nested on the shared pool, through the kernels themselves
        let results = Mutex::new(Vec::new());
        run_stripes(vec![2, 3, 4], |threads| lock(&results).push(kernel_bits(threads)));
        let results = results.into_inner().unwrap();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|bits| *bits == reference));
    }

    /// TIDs of this process's threads whose name starts with `prefix`.
    #[cfg(target_os = "linux")]
    fn named_tids(prefix: &str) -> std::collections::BTreeSet<u64> {
        std::fs::read_dir("/proc/self/task")
            .unwrap()
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let comm = std::fs::read_to_string(entry.path().join("comm")).ok()?;
                if !comm.starts_with(prefix) {
                    return None;
                }
                entry.file_name().to_str()?.parse().ok()
            })
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn threaded_kernels_start_no_threads_after_warm_up() {
        let reference = kernel_bits(1);
        assert_eq!(kernel_bits(2), reference);
        let helpers = named_tids(HELPER_NAME);
        assert_eq!(helpers.len(), worker_count() - 1);
        for round in 0..50 {
            // four threaded GEMMs per round
            assert_eq!(kernel_bits(2 + round % 3), reference);
        }
        assert_eq!(named_tids(HELPER_NAME), helpers);
    }
}

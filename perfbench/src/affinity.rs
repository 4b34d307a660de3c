//! Pins the generator and the serve workers to different CPUs.
//!
//! A run has two busy threads on a two-CPU host. Left to the scheduler, a
//! woken worker is often placed on the generator's CPU, and the two then
//! share it for a time slice while the other CPU idles; which runs hit
//! that, and for how long, differs from run to run. Workers inherit the
//! mask of the thread that spawns them, so the generator builds engines
//! while it holds the worker CPU and moves to its own CPU afterwards.
//! With fewer than two allowed CPUs nothing is pinned.
//!
//! In a virtual machine, a CPU with nothing to run halts, and waking it
//! again waits for the hypervisor to schedule it. On a busy host that wait
//! reaches milliseconds, and the parked serve worker pays it on every
//! wake-up. [`KeepAwake`] keeps the worker CPU from halting with a spinner
//! at idle priority, which yields the CPU to the worker the moment it
//! wakes.

use std::mem::size_of;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// `cpu_set_t`: 1,024 CPU bits.
type CpuSet = [u64; 16];

/// `SCHED_IDLE`: runs only when no other thread wants the CPU.
const SCHED_IDLE: i32 = 5;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

fn get() -> Option<CpuSet> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable `cpu_set_t`-sized buffer and `size`
    // is its length; pid 0 names the calling thread.
    let status = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) };
    (status == 0).then_some(mask)
}

fn set(mask: &CpuSet) {
    // SAFETY: `mask` is a readable `cpu_set_t`-sized buffer and `size` is
    // its length; pid 0 names the calling thread. A refusal leaves the
    // thread's mask as it was, which only costs steadiness.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
}

fn only(cpu: usize) -> CpuSet {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// The CPUs the process started with and the two it pins to.
pub struct Pinning {
    original: CpuSet,
    cpus: Option<(usize, usize)>,
}

impl Pinning {
    /// Picks the first two CPUs the process may run on: the first for the
    /// generator, the second for the workers.
    pub fn new() -> Self {
        let original = get().unwrap_or([u64::MAX; 16]);
        let mut allowed = (0..1024).filter(|&cpu| original[cpu / 64] >> (cpu % 64) & 1 == 1);
        let cpus = allowed.next().zip(allowed.next());
        Self { original, cpus }
    }

    /// Runs `build` on the worker CPU, so the threads it spawns stay there,
    /// then returns the calling thread to the generator CPU.
    pub fn spawn_on_worker_cpu<T>(&self, build: impl FnOnce() -> T) -> T {
        let Some((generator, worker)) = self.cpus else {
            return build();
        };
        set(&only(worker));
        let built = build();
        set(&only(generator));
        built
    }

    /// Starts a spinner at idle priority on the worker CPU; it stops when
    /// the returned guard is dropped. `None` when nothing is pinned.
    pub fn keep_worker_cpu_awake(&self) -> Option<KeepAwake> {
        self.cpus?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let spinner = self.spawn_on_worker_cpu(|| {
            std::thread::spawn(move || {
                let priority = 0i32;
                // SAFETY: `param` points to a `struct sched_param`, whose only
                // field is the `int` priority (0 for SCHED_IDLE); pid 0 names
                // the calling thread.
                if unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) } != 0 {
                    // At normal priority a spinner would compete with the
                    // worker, so there is none.
                    return;
                }
                while !flag.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        });
        Some(KeepAwake {
            stop,
            spinner: Some(spinner),
        })
    }

    /// Lets the calling thread, and the threads it spawns next, run on
    /// every CPU the process started with.
    pub fn release(&self) {
        set(&self.original);
    }

    /// `generator/worker` CPU numbers, or `none`.
    pub fn describe(&self) -> String {
        self.cpus.map_or("none".into(), |(g, w)| {
            format!("generator cpu {g}, workers cpu {w}")
        })
    }
}

/// The worker CPU's idle-priority spinner; dropping it stops and joins it.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            // A panic in the spinner has nothing to report; the run goes on.
            let _ = spinner.join();
        }
    }
}

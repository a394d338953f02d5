//! What the benchmark does about the host it runs on: a shared guest
//! whose speed changes under it (see README, host findings).
//!
//! * [`thread_cpu_us`], [`process_cpu_us`]: time the calling thread, or
//!   all threads, actually ran, which leaves out what the hypervisor
//!   stole and what other tasks took.
//! * [`keep_freed_memory`]: no page faults for memory the program
//!   already had.
//! * [`Reference`]: a fixed kernel owned by the benchmark, timed between
//!   operations; its CPU time against [`REFERENCE_US`] is the host's
//!   speed at that moment.
//! * [`Spinners`]: idle-priority busy loops that keep the guest's CPUs
//!   from halting, so that waking a thread does not wait for the host to
//!   schedule the virtual CPU back in.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

#[repr(C)]
struct SchedParam {
    priority: i32,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const SCHED_IDLE: i32 = 5;

extern "C" {
    #[cfg(target_env = "gnu")]
    fn mallopt(param: i32, value: i32) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Tells the allocator to keep freed memory instead of handing it back
/// to the kernel. An epoch allocates and frees ~24 MB of tensors; by
/// default glibc returns that memory and faults it in again every epoch,
/// and in this guest those ~6 000 page faults cost 12 to 30 ms of a
/// 100 ms epoch depending on what the host is doing (README, host
/// findings). The program's own allocation work is unchanged.
pub fn keep_freed_memory() {
    #[cfg(target_env = "gnu")]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_TOP_PAD: i32 = -2;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: mallopt only stores the three values.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
            mallopt(M_TOP_PAD, 256 << 20);
        }
    }
}

fn clock_us(clock: i32) -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock})");
    ts.sec as f64 * 1e6 + ts.nsec as f64 / 1e3
}

/// CPU time the calling thread has consumed, µs.
pub fn thread_cpu_us() -> f64 {
    clock_us(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time all threads of this process have consumed, µs.
pub fn process_cpu_us() -> f64 {
    clock_us(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU µs one [`Reference::pass`] takes on the reference host (2-vCPU
/// Xeon 2.1 GHz guest) when nothing shares its core.
pub const REFERENCE_US: f64 = 1000.0;

/// The benchmark's own fixed kernel: a 128x128 product summed in scalar
/// order, so that no later change to the repo's kernels, and no
/// vectoriser, changes what it costs. Only the host does.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Reference {
    const N: usize = 128;

    pub fn new() -> Reference {
        let cell = |i: usize| (i % 17) as f32 * 0.0625 - 0.5;
        Reference {
            a: (0..Self::N * Self::N).map(cell).collect(),
            b: (0..Self::N * Self::N).map(|i| cell(i * 7 + 3)).collect(),
        }
    }

    fn pass(&mut self) -> f32 {
        let n = Self::N;
        let mut acc = 0.0f32;
        for i in 0..n {
            for k in 0..n {
                let x = self.a[i * n + k];
                for j in 0..n {
                    acc += x * self.b[k * n + j];
                }
            }
        }
        // Feed the result back so no pass can be hoisted or skipped.
        self.a[0] = acc * 1e-9;
        acc
    }

    /// How much slower than the reference host this host is right now
    /// (1.0 = as fast): the quickest of three passes, in thread CPU time,
    /// over [`REFERENCE_US`].
    pub fn slowness(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let started = thread_cpu_us();
                std::hint::black_box(self.pass());
                thread_cpu_us() - started
            })
            .fold(f64::INFINITY, f64::min)
            / REFERENCE_US
    }
}

/// One idle-priority busy loop per CPU for as long as the value lives.
pub struct Spinners {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Spinners {
    pub fn start() -> Spinners {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let threads = (0..cpus.min(64))
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mask = 1u64 << cpu;
                    let param = SchedParam { priority: 0 };
                    // SAFETY: pid 0 is the calling thread; both pointers
                    // are valid for the calls. A refusal leaves a normal
                    // thread, which only spins less politely.
                    unsafe {
                        sched_setaffinity(0, std::mem::size_of::<u64>(), &mask);
                        sched_setscheduler(0, SCHED_IDLE, &param);
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Spinners { stop, threads }
    }
}

impl Drop for Spinners {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_the_reference_reads_a_plausible_host() {
        let (thread, process) = (thread_cpu_us(), process_cpu_us());
        let mut reference = Reference::new();
        let slowness = reference.slowness();
        // Anything from ten times faster to a hundred times slower than
        // the reference host is a host; zero, negative or NaN is a bug.
        assert!(slowness > 0.1 && slowness < 100.0, "slowness {slowness}");
        assert!(thread_cpu_us() > thread);
        assert!(process_cpu_us() > process);
        // The kernel feeds its result back, so passes are not identical
        // work the optimiser could fold, and stay finite.
        assert!(reference.pass().is_finite());
    }

    #[test]
    fn spinners_stop_when_dropped() {
        let spinners = Spinners::start();
        assert!(!spinners.threads.is_empty());
        drop(spinners);
    }
}

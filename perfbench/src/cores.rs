//! Core placement for the benchmark's single-threaded phases.
//!
//! On a shared host each core's speed changes on its own, by up to 2x,
//! as other tenants load its sibling hardware thread and its caches (see
//! `BENCHMARK.md`, "Spread and bounds"). A single-threaded phase left on
//! one core measures that core's luck; a [`Spread`] moves the calling
//! thread round-robin over every allowed core, a few times a second, so
//! the phase sees the mean of all of them, as the two-thread trainers
//! do. Only placement changes: the program runs unmodified.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the thread stays on one core before it moves to the next.
const SPREAD_PERIOD: Duration = Duration::from_millis(50);

/// Bits of a Linux `cpu_set_t` (1024 CPUs).
#[repr(C)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn gettid() -> i32;
}

/// The cores this process may run on, or an empty list when the
/// affinity mask cannot be read (then no phase is ever moved).
pub fn allowed() -> Vec<usize> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a live, writable `cpu_set_t`-sized buffer and the
    // size passed is exactly its size; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Restricts thread `tid` (0: the calling thread) to `cpus`; threads it
/// spawns later inherit the mask. Returns false if the kernel refused.
fn pin_thread(tid: i32, cpus: &[usize]) -> bool {
    let mut set = CpuSet([0; 16]);
    for &c in cpus.iter().filter(|&&c| c < 1024) {
        set.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is a fully initialised `cpu_set_t`-sized buffer that
    // outlives the call; `tid` is 0 or a live thread of this process.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Restricts the calling thread (and threads it spawns later) to `cpus`.
/// Returns false if the kernel refused.
fn pin(cpus: &[usize]) -> bool {
    pin_thread(0, cpus)
}

/// While alive, moves the thread that created it round-robin over
/// `cpus`, one core every [`SPREAD_PERIOD`]; dropping it stops the mover
/// and gives the thread every core back. The thread must not spawn
/// threads meanwhile: they would inherit whichever single core it holds.
pub struct Spread {
    stop: Arc<AtomicBool>,
    mover: Option<JoinHandle<()>>,
    cpus: Vec<usize>,
}

impl Spread {
    /// Starts moving the calling thread; does nothing with fewer than two
    /// cores.
    pub fn start(cpus: &[usize]) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let mover = (cpus.len() >= 2).then(|| {
            // SAFETY: gettid has no preconditions.
            let tid = unsafe { gettid() };
            let ring = cpus.to_vec();
            let first = ring[0];
            let stop = Arc::clone(&stop);
            // Spawned before the first pin, so the mover may run anywhere.
            let mover = std::thread::spawn(move || {
                for c in ring.iter().cycle().skip(1) {
                    std::thread::park_timeout(SPREAD_PERIOD);
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    pin_thread(tid, &[*c]);
                }
            });
            pin_thread(tid, &[first]);
            mover
        });
        Self {
            stop,
            mover,
            cpus: cpus.to_vec(),
        }
    }
}

impl Drop for Spread {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(mover) = self.mover.take() {
            mover.thread().unpark();
            // The mover only sleeps and re-pins; it cannot panic.
            let _ = mover.join();
        }
        pin(&self.cpus);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_round_trip() {
        let cpus = allowed();
        assert!(!cpus.is_empty());
        assert!(pin(&cpus[..1]));
        assert_eq!(allowed(), cpus[..1].to_vec());
        assert!(pin(&cpus));
        assert_eq!(allowed(), cpus);
    }

    #[test]
    fn spread_visits_every_core_and_restores_the_mask() {
        let cpus = allowed();
        let spread = Spread::start(&cpus);
        let mut seen = std::collections::BTreeSet::new();
        let start = std::time::Instant::now();
        while seen.len() < cpus.len() && start.elapsed() < Duration::from_secs(5) {
            seen.extend(allowed());
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(spread);
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), cpus);
        assert_eq!(allowed(), cpus);
    }
}

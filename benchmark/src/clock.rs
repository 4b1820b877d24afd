//! The two clocks every timed call is read against.
//!
//! Host times are reported in **CPU seconds**: what the process itself
//! consumed, read from the operating system's per-process CPU clock.
//! The program under test is single-threaded and does no I/O, so on a
//! core of its own its CPU time is its wall time; on the shared 2-core
//! box the benchmark runs on, wall time also counts every moment
//! another process held the core (two busy loops beside a run grew its
//! wall time by half and its CPU time by 4 %). The wall clock is still
//! read beside it: spans carry wall nanoseconds, and
//! `host.wall_over_cpu` reports how much of a run's wall time was not
//! the program's own. What CPU time does not remove is the box's cores
//! themselves running slower in phases; see `README.md`.

use std::time::Instant;

/// One reading of both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    /// The monotonic wall clock.
    pub wall: Instant,
    /// CPU seconds consumed by this process (all its threads) so far.
    pub cpu: f64,
}

impl Tick {
    /// Reads both clocks.
    pub fn now() -> Tick {
        Tick {
            wall: Instant::now(),
            cpu: process_cpu_s(),
        }
    }

    /// CPU seconds consumed since `earlier`.
    pub fn cpu_since(&self, earlier: &Tick) -> f64 {
        self.cpu - earlier.cpu
    }

    /// Wall seconds passed since `earlier`.
    pub fn wall_since(&self, earlier: &Tick) -> f64 {
        self.wall.duration_since(earlier.wall).as_secs_f64()
    }
}

#[cfg(target_os = "linux")]
fn process_cpu_s() -> f64 {
    // `std` links the C library but offers no CPU clock, and the
    // benchmark may not add a dependency for one call.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on every 64-bit Linux target) that outlives the call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is always available on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Elsewhere there is no portable CPU clock without a dependency; the
/// wall clock stands in (the benchmark is only measured on Linux).
#[cfg(not(target_os = "linux"))]
fn process_cpu_s() -> f64 {
    use std::sync::OnceLock;
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::Tick;

    #[test]
    fn both_clocks_advance() {
        // Other tests run on other threads of this process, so nothing
        // can be said about CPU time during a sleep; only that the wall
        // clock covers the sleep and the CPU clock covers the work.
        let start = Tick::now();
        std::thread::sleep(std::time::Duration::from_millis(30));
        let slept = Tick::now();
        let mut x = 1u64;
        while Tick::now().cpu_since(&slept) < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        assert!(slept.wall_since(&start) >= 0.03);
        assert!(Tick::now().wall_since(&slept) > 0.0);
    }
}

//! The benchmark's clock: CPU time of the whole process, all threads.
//!
//! On a shared host the hypervisor takes CPU time away from a guest
//! whose vCPUs are all busy, and the wall clock counts that time. On the
//! 2-vCPU host the benchmark was written on, the optimizer's two scoring
//! threads lost 2-30% of their time to the hypervisor from one run to
//! the next, which moved `he_cold`'s wall time between 2.1 s and 3.7 s
//! while `CLOCK_PROCESS_CPUTIME_ID`, which the guest kernel does not
//! charge for stolen time, stayed within 3.45-3.83 s. Every duration the
//! benchmark reports is therefore read from that clock: the time the
//! program spent working, on every thread it ran.

#[cfg(not(target_os = "linux"))]
compile_error!("perfbench reads Linux clocks and /proc");

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU: i32 = 2;

fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and clock_gettime
    // writes nothing else.
    let rc = unsafe { clock_gettime(PROCESS_CPU, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// A reading of the process CPU clock.
#[derive(Clone, Copy)]
pub struct Stamp(f64);

impl Stamp {
    pub fn now() -> Stamp {
        Stamp(process_cpu_seconds())
    }

    /// CPU seconds since this reading.
    pub fn elapsed(self) -> f64 {
        process_cpu_seconds() - self.0
    }

    /// CPU seconds from `earlier` to this reading.
    pub fn since(self, earlier: Stamp) -> f64 {
        self.0 - earlier.0
    }
}

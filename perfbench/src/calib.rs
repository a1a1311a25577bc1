//! Host-speed calibration of the end-to-end time metrics.
//!
//! The benchmark's host is shared with other tenants, which slow it in
//! two ways. On the 2-vCPU development VM:
//!
//! * Their memory load came and went in regimes of seconds: a trial's
//!   phase took anywhere from 1.3 to 2.4 s while thread CPU time tracked
//!   wall time. A pure ALU loop timed alongside stayed within 10%, while
//!   a loop of hash lookups slowed with the benchmark (correlation 0.84
//!   over 4096-call chunks).
//! * At other times the hypervisor ran other vCPUs on ours (steal,
//!   counted in `/proc/stat`; a 30-s busy loop lost 3% of its wall time
//!   to it), and a trial's phase took up to 7 s of wall time.
//!
//! No estimator over whole trials removes either when a run never sees a
//! quiet period. So phase and set-up times are taken as thread CPU time,
//! which the guest kernel keeps free of steal, and are scaled by host
//! speed: every [`SAMPLE_CALLS`] client calls a fixed reference kernel of
//! hash lookups runs (its time is left out of the phase), and the phase's
//! CPU time and the wall time of each call in it are scaled by
//! `(REF_KERNEL_NS / kernel)^SENSITIVITY`, with `kernel` the median of
//! the phase's samples. Contention regimes last seconds, about a trial;
//! a factor per 4096-call chunk tracked them no better and carried each
//! sample's own noise into the per-call latencies. Set-up time is scaled
//! by samples taken just before and after it. The calibrated metrics
//! read as time on the quiet development VM (where the kernel takes
//! about [`REF_KERNEL_NS`]) with most of the contention taken out. The
//! raw wall figures stay available as per-layer metrics.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Client calls between kernel samples.
pub const SAMPLE_CALLS: usize = 4096;

/// Kernel time the calibrated metrics are scaled to, ns.
pub const REF_KERNEL_NS: f64 = 50_000.0;

/// How much of the kernel's slowdown a phase shares: times are scaled by
/// `(REF_KERNEL_NS / kernel)^SENSITIVITY`. The kernel suffers more from
/// contention than the benchmarked code, and differently per workload
/// (the syscall-heavy `create_durable` least). Over 30 runs (10 seeds ×
/// 3 workloads) on the development VM, full scaling left the runs'
/// end-to-end medians spreading up to 15% on `create_durable`, no
/// scaling up to 20%; 0.75 gave the smallest worst spread (8%).
const SENSITIVITY: f64 = 0.75;

/// Entries in the kernel's table (about 2 MiB with the map's overhead:
/// more than a core's private cache, less than the shared one).
const TABLE: u64 = 1 << 16;
/// Lookups per timed pass.
const LOOKUPS: usize = 4_000;

/// The reference kernel: random lookups in a fixed `HashMap`, a stand-in
/// for the metadata lookups the benchmarked code does, written with std
/// alone so that no change to the system under test moves it.
pub struct RefKernel {
    map: HashMap<u64, u64>,
}

impl RefKernel {
    /// The process's kernel (its table is built once).
    pub fn shared() -> &'static RefKernel {
        static KERNEL: OnceLock<RefKernel> = OnceLock::new();
        KERNEL.get_or_init(|| RefKernel {
            map: (0..TABLE).map(|i| (key(i), i)).collect(),
        })
    }

    /// One untimed pass that brings the table back into cache after the
    /// benchmarked code evicted it (so the timed pass does not depend on
    /// that code's footprint), then one timed pass; returns its CPU ns.
    pub fn measure(&self) -> u64 {
        self.pass();
        let t = thread_cpu_ns();
        self.pass();
        thread_cpu_ns() - t
    }

    fn pass(&self) {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sum = sum.wrapping_add(self.map[&key(x % TABLE)]);
        }
        black_box(sum);
    }
}

fn key(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// CPU time of the calling thread, ns (`CLOCK_THREAD_CPUTIME_ID`). With
/// paravirtual time accounting the guest kernel leaves out steal. The
/// `/proc/thread-self/schedstat` figure would do, but it only moves at
/// scheduler ticks (4 ms here), longer than some set-ups.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
pub fn thread_cpu_ns() -> u64 {
    const SYS_CLOCK_GETTIME: i64 = 228;
    const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
    let mut ts = [0i64; 2];
    let ret: i64;
    // SAFETY: clock_gettime writes one `struct timespec` (two i64 on
    // x86_64) through the pointer, which points at `ts`; the syscall
    // instruction clobbers rcx and r11 besides the rax result.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_CLOCK_GETTIME => ret,
            in("rdi") CLOCK_THREAD_CPUTIME_ID,
            in("rsi") ts.as_mut_ptr(),
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack),
        );
    }
    assert_eq!(ret, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// Elsewhere, wall time since the first call stands in (steal stays in).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
pub fn thread_cpu_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Scale factor for a time measured between two kernel runs.
pub fn scale(before_ns: u64, after_ns: u64) -> f64 {
    (REF_KERNEL_NS * 2.0 / (before_ns + after_ns) as f64).powf(SENSITIVITY)
}

/// Kernel samples taken through one measured phase.
pub struct Calibration {
    /// Kernel CPU ns at the phase start, every [`SAMPLE_CALLS`] calls,
    /// and at the end.
    kernel_ns: Vec<u64>,
    /// CPU and wall ns spent in the kernels inside the phase.
    pub inside_cpu_ns: u64,
    pub inside_wall_ns: u64,
}

impl Calibration {
    pub fn new() -> Self {
        Self {
            kernel_ns: Vec::new(),
            inside_cpu_ns: 0,
            inside_wall_ns: 0,
        }
    }

    /// Forget the previous phase and take the first sample.
    pub fn start(&mut self) {
        self.kernel_ns.clear();
        self.inside_cpu_ns = 0;
        self.inside_wall_ns = 0;
        self.sample(false);
    }

    /// Run the kernel once; `inside` marks a sample inside the phase,
    /// whose time the phase leaves out.
    pub fn sample(&mut self, inside: bool) {
        let wall = Instant::now();
        let cpu = thread_cpu_ns();
        self.kernel_ns.push(RefKernel::shared().measure());
        if inside {
            self.inside_cpu_ns += thread_cpu_ns() - cpu;
            self.inside_wall_ns += wall.elapsed().as_nanos() as u64;
        }
    }

    /// Median kernel ns over the phase.
    pub fn kernel_median_ns(&self) -> u64 {
        let mut v = self.kernel_ns.clone();
        v.sort_unstable();
        v[v.len() / 2]
    }

    /// Scale factor of the phase's times.
    pub fn factor(&self) -> f64 {
        let k = self.kernel_median_ns();
        scale(k, k)
    }
}

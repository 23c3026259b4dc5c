//! Host-speed probe: fixed work owned by the benchmark, timed next to every
//! measured operation, so each sample can be rescaled to a reference host
//! speed. On a shared host a neighbour slows everything in the process for
//! tens of seconds at a time; the program under test cannot change the
//! probe, so the ratio of an operation's time to the probe's keeps the
//! program's cost and drops most of the host's state. The probe exercises
//! what the program spends its time on: dependent loads through the shared
//! cache, dependent arithmetic, and first-touch page faults (the workloads
//! spend about 15% of their time in the kernel, mostly faulting in fresh
//! allocations, and that path's cost varies up to 4x on a shared host).

use crate::sub_seed;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Probe time, ms, on the reference host (2-core KVM guest, 105 MB shared
/// L3) in its fast state: the 5th percentile of 870 probes, whose median
/// was 7.5 ms. It only sets the scale: a scaled sample reads as the
/// milliseconds the operation would take at the reference speed.
pub const REF_MS: f64 = 6.46;

/// 4 MB of chase slots: beyond a core's private caches, inside the shared L3.
const SLOTS: usize = 1 << 20;
const CHASE_STEPS: usize = 40_000;
const ALU_STEPS: u64 = 5_000_000;
/// Fresh zeroed buffers faulted in page by page, then returned.
const FAULT_BUFFERS: usize = 4;
const FAULT_BUFFER_BYTES: usize = 2 << 20;
const PAGE_BYTES: usize = 4096;

struct Probe {
    next: Vec<u32>,
}

impl Probe {
    fn new() -> Self {
        // Sattolo's shuffle: one cycle through every slot, in a fixed order.
        let mut next: Vec<u32> = (0..SLOTS as u32).collect();
        for i in (1..SLOTS).rev() {
            let j = (sub_seed(0x5EED, i as u64) % i as u64) as usize;
            next.swap(i, j);
        }
        Probe { next }
    }

    /// Dependent loads through the shared cache, a dependent multiply-add
    /// chain, then first-touch page faults.
    fn run(&self) -> f64 {
        let t = Instant::now();
        let mut i = 0u32;
        for _ in 0..CHASE_STEPS {
            i = self.next[i as usize];
        }
        let mut x = u64::from(i);
        for k in 0..ALU_STEPS {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(k);
        }
        black_box(x);
        for _ in 0..FAULT_BUFFERS {
            let mut buf = vec![0u8; FAULT_BUFFER_BYTES];
            for page in buf.chunks_mut(PAGE_BYTES) {
                page[0] = 1;
            }
            black_box(&buf);
        }
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Times one run of the probe, ms.
pub fn time_ms() -> f64 {
    static PROBE: OnceLock<Probe> = OnceLock::new();
    PROBE.get_or_init(Probe::new).run()
}

/// `wall` rescaled to the reference host speed, given the probe times
/// taken just before and just after it.
pub fn scaled(wall: f64, before_ms: f64, after_ms: f64) -> f64 {
    wall * REF_MS * 2.0 / (before_ms + after_ms)
}

//! The host's speed, probed between requests so that host times can be
//! scaled to a fixed speed.
//!
//! The benchmark shares its machine with other tenants, and how fast the
//! CPU runs the program's code moves by a third within minutes with no
//! change to the program (another tenant on the same core, or on the
//! caches it shares). A probe of fixed work slows down by about the same
//! factor: random reads over a buffer that fits in the core's own cache,
//! like the program's hot data. Dividing it out leaves what the program
//! itself costs.

use std::hint::black_box;
use std::time::Instant;

/// Bytes of the probe's buffer: 1 MiB, inside a core's L2 cache.
const PROBE_BYTES: usize = 1 << 20;

/// Random reads per probe.
const PROBE_READS: usize = 20_000;

/// Probe time, in nanoseconds, that scaled host times are expressed at:
/// about what a probe takes on an idle host of the kind the benchmark was
/// tuned on (a 2-vCPU Intel Xeon virtual machine).
pub const REF_PROBE_NS: f64 = 100_000.0;

/// A buffer to read from and the state of its index sequence.
pub struct SpeedProbe {
    buf: Vec<u64>,
    state: u64,
}

impl Default for SpeedProbe {
    fn default() -> Self {
        Self::new()
    }
}

impl SpeedProbe {
    /// Allocate and fill the buffer.
    pub fn new() -> SpeedProbe {
        SpeedProbe {
            buf: (0..PROBE_BYTES as u64 / 8).collect(),
            state: 1,
        }
    }

    /// Time one probe and return the factor that scales a host time
    /// measured now to a host on which the probe takes [`REF_PROBE_NS`]:
    /// below 1 while the host is slower than that.
    pub fn scale(&mut self) -> f64 {
        let n = self.buf.len() as u64;
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..PROBE_READS {
            // A 64-bit LCG; its high bits pick the slot.
            self.state = self
                .state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            sum = sum.wrapping_add(self.buf[((self.state >> 20) % n) as usize]);
        }
        black_box(sum);
        REF_PROBE_NS / start.elapsed().as_nanos().max(1) as f64
    }
}

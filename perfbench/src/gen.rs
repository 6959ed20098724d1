//! Seeded input generators: the benchmark's own, so that a change to the
//! program cannot change the inputs it is measured on.
//!
//! Every generator here is a pure function of its seed: no OS entropy, no
//! clocks, no shared state.

/// SplitMix64 (Steele, Lea and Flood): a 64-bit state, one add and two
/// multiply-xorshift rounds per output.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator whose whole output is fixed by `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`, 53 bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Poisson arrivals: exponential gaps at a fixed mean rate, summed into
/// absolute offsets (nanoseconds of virtual time from the window start).
#[derive(Debug, Clone)]
pub struct Poisson {
    rng: Rng,
    mean_gap_ns: f64,
    at_ns: u64,
}

impl Poisson {
    /// Arrivals at `rate_per_s` per virtual second.
    pub fn new(seed: u64, rate_per_s: f64) -> Poisson {
        assert!(rate_per_s > 0.0, "arrival rate must be positive");
        Poisson {
            rng: Rng::new(seed),
            mean_gap_ns: 1e9 / rate_per_s,
            at_ns: 0,
        }
    }

    /// Offset of the next arrival; strictly increasing.
    pub fn next_ns(&mut self) -> u64 {
        // Inverse CDF of Exp(1/mean); 1 - u lies in (0, 1], so ln is finite.
        let gap = -self.mean_gap_ns * (1.0 - self.rng.next_f64()).ln();
        self.at_ns += (gap.round() as u64).max(1);
        self.at_ns
    }
}

/// Zipf over ranks `0..n` (rank 0 most popular) by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// `n` ranks with exponent `s` (0 is uniform).
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "zipf over no ranks");
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Operation of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `kv_hot`: read a session's slot.
    Get,
    /// `kv_hot`: overwrite a session's slot with this value.
    Put(u64),
    /// `ledger_2pc`: gcp-thread deposit of 1 into an account.
    Deposit,
    /// `dsm_spill`: read the counter at the start of this data page.
    Read(u32),
    /// `dsm_spill`: increment the counter at the start of this data page.
    Bump(u32),
}

/// One request: when it is due, which object, which compute server, what.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Intended arrival, virtual nanoseconds after the window start.
    pub arrival_ns: u64,
    /// Index into the workload's object list.
    pub object: usize,
    /// Index of the compute server that serves it.
    pub compute: usize,
    /// The operation.
    pub op: Op,
}

/// The shape of a workload's request stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mix {
    /// Zipf over `objects`; `get_frac` gets, the rest puts.
    Kv {
        /// Session objects.
        objects: usize,
        /// Share of gets.
        get_frac: f64,
    },
    /// Zipf over `objects`; every request a deposit.
    Ledger {
        /// Account objects.
        objects: usize,
    },
    /// Zipf over `objects × pages` data pages, scattered over the objects;
    /// `read_frac` reads, the rest read-modify-writes; requests alternate
    /// between `computes` compute servers.
    Spill {
        /// Page objects.
        objects: usize,
        /// Data pages per object.
        pages: u32,
        /// Share of reads.
        read_frac: f64,
        /// Compute servers to alternate between.
        computes: usize,
    },
}

/// A seeded request stream: Poisson arrivals, Zipf keys, the op mix.
#[derive(Debug, Clone)]
pub struct RequestGen {
    mix: Mix,
    arrivals: Poisson,
    rng: Rng,
    zipf: Zipf,
    issued: u64,
}

impl RequestGen {
    /// The stream for `mix` at `rate_per_s`, Zipf exponent `skew`.
    pub fn new(seed: u64, mix: Mix, rate_per_s: f64, skew: f64) -> RequestGen {
        let ranks = match mix {
            Mix::Kv { objects, .. } | Mix::Ledger { objects } => objects,
            Mix::Spill { objects, pages, .. } => objects * pages as usize,
        };
        RequestGen {
            mix,
            arrivals: Poisson::new(seed ^ 0x000A_7712_1A15, rate_per_s),
            rng: Rng::new(seed ^ 0x0B5E_55ED),
            zipf: Zipf::new(ranks, skew),
            issued: 0,
        }
    }

    /// The next request of the stream.
    pub fn next_request(&mut self) -> Request {
        let arrival_ns = self.arrivals.next_ns();
        let rank = self.zipf.sample(&mut self.rng);
        let seq = self.issued;
        self.issued += 1;
        let (object, compute, op) = match self.mix {
            Mix::Kv { get_frac, .. } => {
                let op = if self.rng.next_f64() < get_frac {
                    Op::Get
                } else {
                    Op::Put(self.rng.next_u64() >> 1)
                };
                (rank, 0, op)
            }
            Mix::Ledger { .. } => (rank, 0, Op::Deposit),
            Mix::Spill {
                objects,
                pages,
                read_frac,
                computes,
            } => {
                // Scatter popularity ranks over the pages so hot pages are
                // not neighbours (read-ahead should earn its hits).
                let total = objects as u64 * u64::from(pages);
                let slot = scatter(rank as u64, total);
                let object = (slot / u64::from(pages)) as usize;
                let page = (slot % u64::from(pages)) as u32;
                let op = if self.rng.next_f64() < read_frac {
                    Op::Read(page)
                } else {
                    Op::Bump(page)
                };
                (object, (seq % computes as u64) as usize, op)
            }
        };
        Request {
            arrival_ns,
            object,
            compute,
            op,
        }
    }
}

/// A fixed bijection on `0..n`: multiply by a constant coprime to `n`.
fn scatter(rank: u64, n: u64) -> u64 {
    let mut k = 0x9E37_79B1 % n;
    while gcd(k, n) != 1 {
        k += 1;
    }
    (rank * k) % n
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_is_a_bijection() {
        for n in [1u64, 7, 64, 1280] {
            let mut seen: Vec<u64> = (0..n).map(|r| scatter(r, n)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_head_is_heavier_than_tail() {
        let z = Zipf::new(64, 0.99);
        let mut rng = Rng::new(1);
        let mut counts = [0u32; 64];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 10 * counts[63]);
    }

    #[test]
    fn poisson_rate_is_close_to_nominal() {
        let mut p = Poisson::new(3, 40.0);
        let n = 20_000;
        let mut last = 0;
        for _ in 0..n {
            last = p.next_ns();
        }
        let rate = n as f64 / (last as f64 / 1e9);
        assert!((rate - 40.0).abs() < 40.0 * 0.03, "rate {rate}");
    }
}

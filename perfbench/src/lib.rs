//! The Clouds reproduction's benchmark: three seeded workloads against a
//! booted [`clouds::Cluster`], each reported on the host clock (what the
//! Rust costs) and the virtual clock (what the modelled Sun-3 system
//! costs), with a separate traced run that attributes the end-to-end
//! numbers to the layers. See `README.md` beside this crate.

pub mod gen;
pub mod layers;
pub mod speed;
pub mod workload;

use layers::{
    Counters, Probes, VtSelf, APPEND_REPS, CODEC_REPS, FAULT_REPS, GCP_REPS, NULL_REPS,
    RATP_8K_REPS, RATP_REPS,
};
use speed::SpeedProbe;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};
use workload::{Bench, Sample, Spec};

/// Span-ring capacity for traced runs, in events: an upper bound with room
/// for set-up, warm-up and both traced-run windows of every workload.
pub const TRACE_CAP: usize = 4_000_000;

/// Episodes per end-to-end run at the least, whatever `--seconds` says:
/// the host tier takes the median of them request by request, and so does
/// `setup_s`.
pub const MIN_EPISODES: usize = 3;

/// Host time between two probes of the host's speed in the host window;
/// a probe takes about 0.1 ms of it.
pub const PROBE_PERIOD: Duration = Duration::from_millis(200);

/// Counters of host-timer-driven recovery work, reported when nonzero.
const TROUBLE: [&str; 4] = [
    "ratp.retransmits",
    "ratp.timeouts",
    "dsm.server.ack_timeouts",
    "2pc.aborts",
];

/// Which clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Host wall clock or process state: varies between runs.
    Host,
    /// Virtual time or a count: a pure function of the seed.
    Model,
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
    /// Samples behind the value (requests, probe calls or set-ups).
    pub samples: u64,
    /// Clock it comes from.
    pub tier: Tier,
}

/// What one run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Requests attempted in the timed window.
    pub attempted: u64,
    /// Of those, requests that returned an error.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Lines to print before the metrics (warm-up trace, notes).
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: &str, unit: &'static str, value: f64, samples: u64, tier: Tier) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
            tier,
        });
    }
}

/// Nearest-rank quantile of sorted values.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of the sorted values between quantiles `lo` and `hi`.
fn band_mean(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    let n = sorted.len();
    let a = ((lo * n as f64) as usize).min(n.saturating_sub(1));
    let b = ((hi * n as f64).ceil() as usize).clamp(a + 1, n);
    sorted[a..b].iter().map(|&v| v as f64).sum::<f64>() / (b - a) as f64
}

/// Median; the mean of the middle two for an even count.
fn median_f64(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set of this process in MiB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end run: episodes while `seconds` of host time last (at
/// least [`MIN_EPISODES`]; no episode starts that the last one's length
/// says would end past the deadline). An episode boots, populates and
/// warms a cluster (the set-up, timed), runs requests (timed), checks the
/// outputs and drops the cluster. The first episode runs the workload's
/// whole `window`, and the virtual tier comes from it: the same for every
/// run of a seed. Later episodes replay only its first `host_window`
/// requests, so a run gets more replays in its time.
///
/// Every host time is scaled to a fixed host speed by the [`speed`]
/// probe: set-up by a probe right after it, and each request by the
/// latest probe, taken every [`PROBE_PERIOD`].
///
/// Every episode replays the same requests from the same state, so the
/// `i`-th request of one episode is the same work as the `i`-th of any
/// other. The host tier prices each of the first `host_window` requests
/// at the median of its scaled replays in the run, and reports the
/// throughput and percentiles of those prices: a burst of other load on
/// the host moves a few replays of a request and not its median.
///
/// # Errors
///
/// A failed set-up or a wrong answer.
pub fn run_end_to_end(spec: Spec, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut probe = SpeedProbe::new();
    let mut replays: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<(Vec<Sample>, f64)> = None;
    let t_run = Instant::now();
    let mut last_episode_s = 0.0;
    while setup_s.len() < MIN_EPISODES || t_run.elapsed().as_secs_f64() + last_episode_s < seconds {
        let t = Instant::now();
        let mut bench = Bench::setup(spec, seed)?;
        setup_s.push(t.elapsed().as_secs_f64() * probe.scale());

        let before = Counters::snapshot(&bench);
        let origin = bench.origin();
        let mut stream = bench.stream();
        let requests = if first.is_none() {
            spec.window
        } else {
            spec.host_window
        };
        let mut window: Vec<Sample> = Vec::with_capacity(requests as usize);
        let mut scaled = Vec::with_capacity(spec.host_window as usize);
        let mut scale = 1.0;
        let mut next_probe = Instant::now();
        for i in 0..requests as usize {
            let timed = i < spec.host_window as usize;
            if timed && Instant::now() >= next_probe {
                scale = probe.scale();
                next_probe = Instant::now() + PROBE_PERIOD;
            }
            let sample = bench.issue(&stream.next_request(), origin)?;
            if timed {
                scaled.push(sample.host_ns as f64 * scale);
            }
            window.push(sample);
        }
        bench.verify()?;
        replays.push(scaled);

        out.attempted += requests;
        out.failed += window.iter().filter(|s| !s.ok).count() as u64;
        if first.is_none() {
            out.notes.push(warm_note(&bench));
            let delta = Counters::snapshot(&bench).since(&before);
            let trouble: Vec<String> = TROUBLE
                .iter()
                .filter(|&&c| delta.get(c) > 0)
                .map(|&c| format!("{c}={}", delta.get(c)))
                .collect();
            if !trouble.is_empty() {
                out.notes.push(format!(
                    "in the window: {}; host timers fire these, so the virtual tier may differ between runs of this seed",
                    trouble.join(" ")
                ));
            }
            // Memory after the first episode: a fixed amount of work.
            first = Some((window, peak_rss_mb().unwrap_or(0.0)));
        }
        drop(bench);
        last_episode_s = t.elapsed().as_secs_f64();
    }
    let (window, rss_mb) = first.expect("at least one episode");
    let episodes = setup_s.len() as u64;
    out.notes.push(format!(
        "{episodes} episode(s): one of {} requests, then {} requests each",
        spec.window, spec.host_window
    ));

    let mut host_ns: Vec<u64> = (0..spec.host_window as usize)
        .map(|i| median_f64(replays.iter().map(|r| r[i]).collect()) as u64)
        .collect();
    let host_s = host_ns.iter().sum::<u64>() as f64 / 1e9;
    host_ns.sort_unstable();
    let mut vt: Vec<u64> = window.iter().map(|s| s.vt_latency).collect();
    vt.sort_unstable();
    let busy: u64 = window.iter().map(|s| s.vt_service).sum();
    let w = spec.window;
    let n = out.attempted;
    let setups = setup_s.len() as u64;
    out.push("setup_s", "s", median_f64(setup_s), setups, Tier::Host);
    out.push(
        "host_ops_per_s",
        "1/s",
        spec.host_window as f64 / host_s,
        n,
        Tier::Host,
    );
    out.push(
        "host_p50_us",
        "us",
        quantile(&host_ns, 0.50) as f64 / 1e3,
        n,
        Tier::Host,
    );
    out.push(
        "host_p99_us",
        "us",
        quantile(&host_ns, 0.99) as f64 / 1e3,
        n,
        Tier::Host,
    );
    // Virtual latencies pile up on a few exact service times, and a plain
    // quantile lands on one of them (the same for every seed) or jumps
    // between them. The mean of a percentile band moves smoothly with the
    // seed's mix instead.
    out.push(
        "vt_p50_ms",
        "ms",
        band_mean(&vt, 0.45, 0.55) / 1e6,
        w,
        Tier::Model,
    );
    out.push(
        "vt_p99_ms",
        "ms",
        band_mean(&vt, 0.985, 0.995) / 1e6,
        w,
        Tier::Model,
    );
    out.push(
        "vt_capacity_rps",
        "1/s",
        ratio(w * 1_000_000_000, busy),
        w,
        Tier::Model,
    );
    out.push(
        "failed_frac",
        "ratio",
        ratio(out.failed, out.attempted),
        out.attempted,
        Tier::Host,
    );
    out.push("peak_rss_mb", "MiB", rss_mb, 1, Tier::Host);
    Ok(out)
}

fn warm_note(bench: &Bench) -> String {
    let rounds: Vec<String> = bench
        .warm_grants
        .iter()
        .map(|g| format!("{g:.2}"))
        .collect();
    format!(
        "warm-up: {} round(s) of {} requests, pages granted per request [{}]",
        rounds.len(),
        bench.spec.warm_round,
        rounds.join(", ")
    )
}

/// One of the benchmark's host spans: a call it made into a layer.
#[derive(Debug, Clone)]
pub struct HostSpan {
    /// Request sequence number (the trace id's sequence).
    pub request: u64,
    /// Span id, unique within the run.
    pub id: u64,
    /// Parent span id (0 for a root).
    pub parent: u64,
    /// Layer called.
    pub layer: &'static str,
    /// Call.
    pub name: &'static str,
    /// Start, nanoseconds since the window began.
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
}

/// The traced run: one set-up as in the end-to-end run, then the first
/// `trace_window` requests of the same stream, with host spans around each
/// request, counters diffed across the window and the program's span ring
/// walked for virtual self times; then the same count of requests untraced
/// (for the tracing overhead) and the layer probes.
///
/// The caller sets `CLOUDS_TRACE_CAP` (see [`TRACE_CAP`]) before the run if
/// the default ring is too small for the spec.
///
/// # Errors
///
/// A failed set-up, a wrong answer, a failed probe, broken trace trees,
/// or a span ring that overflowed.
pub fn run_traced(
    spec: Spec,
    seed: u64,
    trace_out: Option<&std::path::Path>,
) -> Result<Outcome, String> {
    let mut bench = Bench::setup(spec, seed)?;
    let mut out = Outcome::default();
    out.notes.push(warm_note(&bench));
    let mut spans: Vec<HostSpan> = Vec::new();

    let origin = bench.origin();
    let mut stream = bench.stream();
    let first_seq = bench.issued();
    let mut user_writes = 0u64;
    let before = Counters::snapshot(&bench);
    let t0 = Instant::now();
    for _ in 0..spec.trace_window {
        let request = bench.issued();
        let start = t0.elapsed().as_nanos() as u64;
        let req = stream.next_request();
        let call_start = t0.elapsed().as_nanos() as u64;
        let sample = bench.issue(&req, origin)?;
        let end = t0.elapsed().as_nanos() as u64;
        let root = 2 * request + 1;
        spans.push(HostSpan {
            request,
            id: root,
            parent: 0,
            layer: "bench",
            name: "request",
            start_ns: start,
            dur_ns: end - start,
        });
        let (layer, name) = match req.op {
            gen::Op::Deposit => ("consistency", "ConsistencyRuntime::invoke"),
            _ => ("core", "ComputeServer::invoke"),
        };
        spans.push(HostSpan {
            request,
            id: root + 1,
            parent: root,
            layer,
            name,
            start_ns: call_start,
            dur_ns: sample.host_ns,
        });
        out.attempted += 1;
        out.failed += u64::from(!sample.ok);
        user_writes += u64::from(!matches!(req.op, gen::Op::Get | gen::Op::Read(_)));
    }
    let traced_s = t0.elapsed().as_secs_f64();
    let delta = Counters::snapshot(&bench).since(&before);
    let traces: BTreeSet<u64> = (first_seq..first_seq + spec.trace_window)
        .map(|s| bench.trace_id(s))
        .collect();

    let t1 = Instant::now();
    for _ in 0..spec.trace_window {
        bench.issue(&stream.next_request(), origin)?;
    }
    let untraced_s = t1.elapsed().as_secs_f64();
    bench.verify()?;

    let dropped = bench.cluster.trace_sink().dropped();
    if dropped > 0 {
        return Err(format!(
            "obs.trace.dropped = {dropped}: the span ring overflowed"
        ));
    }
    let vt = layers::vt_self_times(&bench, &traces)?;
    if vt.trees != spec.trace_window {
        return Err(format!(
            "found {} request trees in the ring, expected {}",
            vt.trees, spec.trace_window
        ));
    }
    let probes = layers::probe(&bench)?;

    let host_per_op_us: f64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.dur_ns as f64 / 1e3)
        .sum::<f64>()
        / spec.trace_window as f64;
    per_layer(
        &mut out,
        spec,
        &delta,
        &vt,
        &probes,
        host_per_op_us,
        user_writes,
    );
    // Relative drop in ops/s with the host spans on.
    let overhead = 1.0 - untraced_s / traced_s;
    out.push(
        "host.trace_overhead_frac",
        "ratio",
        overhead,
        spec.trace_window,
        Tier::Host,
    );
    if let Some(dir) = trace_out {
        let tag = format!("{}-{seed}", spec.name);
        write_trace(
            dir,
            &tag,
            &spans,
            &bench.cluster.trace_sink().canonical_jsonl(),
        )
        .map_err(|e| format!("writing the trace to {}: {e}", dir.display()))?;
    }
    Ok(out)
}

/// Turn the window's counter deltas, self times and probes into the
/// per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    out: &mut Outcome,
    spec: Spec,
    d: &Counters,
    vt: &VtSelf,
    p: &Probes,
    host_per_op_us: f64,
    user_writes: u64,
) {
    let n = spec.trace_window;
    let per_op = |c: u64| c as f64 / n as f64;
    let m = Tier::Model;
    let h = Tier::Host;
    let reps = |(r, b): (usize, usize)| (r * b) as u64;
    out.push(
        "simnet.frames_per_op",
        "count",
        per_op(d.get("simnet.frames")),
        n,
        m,
    );
    out.push(
        "simnet.bytes_per_op",
        "B",
        per_op(d.get("simnet.bytes")),
        n,
        m,
    );
    out.push(
        "simnet.frames_dropped",
        "count",
        d.get("simnet.frames_dropped") as f64,
        n,
        m,
    );
    out.push(
        "ratp.calls_per_op",
        "count",
        per_op(d.get("ratp.calls")),
        n,
        m,
    );
    // Retransmits are fired by host timers, so they are a host-tier count.
    out.push(
        "ratp.retransmits_per_op",
        "count",
        per_op(d.get("ratp.retransmits")),
        n,
        h,
    );
    out.push(
        "ratp.host_call_us",
        "us",
        p.ratp_call_us,
        reps(RATP_REPS),
        h,
    );
    out.push(
        "ratp.host_call_8k_us",
        "us",
        p.ratp_call_8k_us,
        reps(RATP_8K_REPS),
        h,
    );
    out.push(
        "codec.host_page_encode_us",
        "us",
        p.page_encode_us,
        reps(CODEC_REPS),
        h,
    );
    out.push(
        "codec.host_page_decode_us",
        "us",
        p.page_decode_us,
        reps(CODEC_REPS),
        h,
    );
    let hits = d.get("ra.cache.hits");
    let misses = d.get("ra.cache.misses");
    out.push(
        "ra.cache_hit_ratio",
        "ratio",
        ratio(hits, hits + misses),
        hits + misses,
        m,
    );
    out.push(
        "ra.evictions_per_op",
        "count",
        per_op(d.get("ra.cache.evictions")),
        n,
        m,
    );
    out.push(
        "ra.sched_switches_per_op",
        "count",
        per_op(d.get("sched.switches")),
        n,
        m,
    );
    out.push(
        "dsm.fetch_rpcs_per_op",
        "count",
        per_op(d.get("dsm.client.fetch_rpcs")),
        n,
        m,
    );
    out.push(
        "dsm.pages_granted_per_op",
        "count",
        per_op(d.get("dsm.client.pages_granted")),
        n,
        m,
    );
    out.push(
        "dsm.write_backs_per_op",
        "count",
        per_op(d.get("dsm.server.write_backs")),
        n,
        m,
    );
    let installs = d.get("ra.cache.prefetch_installs");
    out.push(
        "dsm.prefetch_useful_ratio",
        "ratio",
        ratio(d.get("ra.cache.prefetch_hits"), installs),
        installs,
        m,
    );
    out.push(
        "dsm.invalidations_per_op",
        "count",
        per_op(d.get("dsm.server.invalidations")),
        n,
        m,
    );
    out.push("dsm.host_fault_us", "us", p.fault_us, reps(FAULT_REPS), h);
    out.push(
        "store.appends_per_op",
        "count",
        per_op(d.get("store.appends")),
        n,
        m,
    );
    // Every write the workloads make is one u64.
    let user_bytes = 8 * user_writes;
    out.push(
        "store.bytes_per_user_byte",
        "ratio",
        ratio(d.get("store.append_bytes"), user_bytes),
        user_bytes,
        m,
    );
    out.push(
        "store.host_append_us",
        "us",
        p.append_us,
        reps(APPEND_REPS),
        h,
    );
    let commits = d.get("2pc.commits");
    out.push(
        "2pc.prepares_per_commit",
        "count",
        ratio(d.get("2pc.prepares"), commits),
        commits,
        m,
    );
    out.push(
        "2pc.aborts_per_commit",
        "count",
        ratio(d.get("2pc.aborts"), commits),
        commits,
        m,
    );
    out.push("2pc.host_gcp_us", "us", p.gcp_us, reps(GCP_REPS), h);
    out.push(
        "core.host_null_invoke_us",
        "us",
        p.null_invoke_us,
        reps(NULL_REPS),
        h,
    );

    // Virtual self time on each request's critical path, by layer.
    let self_ms = |layers: &[&str]| -> f64 {
        let ns: u64 = layers
            .iter()
            .map(|l| vt.by_layer.get(*l).copied().unwrap_or(0))
            .sum();
        ns as f64 / 1e6 / n as f64
    };
    for (name, layers) in [
        ("queue.vt_self_ms_per_op", &["bench"][..]),
        ("core.vt_self_ms_per_op", &["invoke"][..]),
        ("consistency.vt_self_ms_per_op", &["2pc"][..]),
        ("dsm.vt_self_ms_per_op", &["dsm.client", "dsm.server"][..]),
        ("ratp.vt_self_ms_per_op", &["ratp"][..]),
    ] {
        out.push(name, "ms", self_ms(layers), n, m);
    }
    let self_total: u64 = vt.by_layer.values().sum();
    let vt_residual = (vt.roots_ns as f64 - self_total as f64) / vt.roots_ns.max(1) as f64;
    out.push("vt.residual_frac", "ratio", vt_residual, n, m);

    // Host attribution: price each op's layer calls by the probes, with no
    // call counted twice. A fault covers its fetch RPC and the grant's
    // codec work; a page write-back is priced as an 8 KiB RaTP call; every
    // other RaTP call as a small one; log appends on top.
    let fetches = d.get("dsm.client.fetch_rpcs");
    let write_backs = d.get("dsm.server.write_backs");
    let small_calls = d.get("ratp.calls").saturating_sub(fetches + write_backs);
    let attributed = p.null_invoke_us
        + p.fault_us * per_op(misses)
        + p.ratp_call_8k_us * per_op(write_backs)
        + p.ratp_call_us * per_op(small_calls)
        + p.append_us * per_op(d.get("store.appends"));
    out.push("host.per_op_us", "us", host_per_op_us, n, h);
    out.push(
        "host.residual_frac",
        "ratio",
        (host_per_op_us - attributed) / host_per_op_us,
        n,
        h,
    );
}

/// Write the host spans and the program's virtual span ring as JSONL:
/// `<tag>.host.jsonl` and `<tag>.vt.jsonl` under `dir`.
///
/// # Errors
///
/// Filesystem errors.
fn write_trace(
    dir: &std::path::Path,
    tag: &str,
    spans: &[HostSpan],
    ring: &str,
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    std::fs::create_dir_all(dir)?;
    let mut host = String::new();
    for s in spans {
        let _ = writeln!(
            host,
            "{{\"request\":{},\"span\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
            s.request, s.id, s.parent, s.layer, s.name, s.start_ns, s.dur_ns
        );
    }
    std::fs::write(dir.join(format!("{tag}.host.jsonl")), host)?;
    std::fs::write(dir.join(format!("{tag}.vt.jsonl")), ring)
}

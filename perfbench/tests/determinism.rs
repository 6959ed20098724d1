//! The virtual tier and the per-layer counts are pure functions of the
//! seed; so is every input generator.
//!
//! Runs use shrunken windows so the suite stays quick. A RaTP retransmit
//! (fired by a host timer on a badly overloaded machine) perturbs virtual
//! time; the benchmark notes it in its output when it happens.

use clouds_perfbench::gen::{Mix, Poisson, RequestGen, Rng, Zipf};
use clouds_perfbench::workload::{Spec, Workload, ALL};
use clouds_perfbench::{run_end_to_end, run_traced, Outcome, Tier};

fn small(w: Workload) -> Spec {
    Spec {
        window: 120,
        host_window: 60,
        trace_window: 60,
        warm_round: 60,
        warm_rounds_max: 2,
        ..w.spec()
    }
}

/// Model-tier metrics of an end-to-end run and a traced run.
fn model_metrics(spec: Spec, seed: u64) -> Vec<(String, f64)> {
    let e2e = run_end_to_end(spec, seed, 0.0).expect("end-to-end run");
    let traced = run_traced(spec, seed, None).expect("traced run");
    let pick = |o: &Outcome| {
        o.metrics
            .iter()
            .filter(|m| m.tier == Tier::Model)
            .map(|m| (m.name.clone(), m.value))
            .collect::<Vec<_>>()
    };
    let mut all = pick(&e2e);
    all.extend(pick(&traced));
    all
}

#[test]
fn same_seed_gives_identical_virtual_tier_and_counts() {
    for w in ALL {
        let spec = small(w);
        let a = model_metrics(spec, 21);
        let b = model_metrics(spec, 21);
        assert!(
            a.iter().any(|(n, _)| n == "vt_p99_ms"),
            "{}: no vt metrics",
            spec.name
        );
        assert!(
            a.iter().any(|(n, _)| n == "simnet.frames_per_op"),
            "{}: no counts",
            spec.name
        );
        assert_eq!(a, b, "{}: same seed, different model metrics", spec.name);
    }
}

#[test]
fn different_seed_changes_virtual_tier_and_counts() {
    for w in ALL {
        let spec = small(w);
        let a = model_metrics(spec, 21);
        let b = model_metrics(spec, 22);
        assert_ne!(a, b, "{}: seed does not reach the inputs", spec.name);
    }
}

#[test]
fn generators_are_pure_functions_of_their_seed() {
    let take = |seed: u64, f: fn(&mut Rng) -> u64| {
        let mut r = Rng::new(seed);
        (0..64).map(|_| f(&mut r)).collect::<Vec<_>>()
    };
    assert_eq!(take(5, |r| r.next_u64()), take(5, |r| r.next_u64()));
    assert_ne!(take(5, |r| r.next_u64()), take(6, |r| r.next_u64()));

    let arrivals = |seed| {
        let mut p = Poisson::new(seed, 40.0);
        (0..256).map(|_| p.next_ns()).collect::<Vec<_>>()
    };
    assert_eq!(arrivals(5), arrivals(5));
    assert_ne!(arrivals(5), arrivals(6));

    let zipf = Zipf::new(64, 0.99);
    let keys = |seed| {
        let mut r = Rng::new(seed);
        (0..256).map(|_| zipf.sample(&mut r)).collect::<Vec<_>>()
    };
    assert_eq!(keys(5), keys(5));
    assert_ne!(keys(5), keys(6));

    for w in ALL {
        let spec = w.spec();
        let stream = |seed| {
            let mut g = RequestGen::new(seed, spec.mix, spec.rate, spec.skew);
            (0..512).map(|_| g.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(stream(5), stream(5), "{}", spec.name);
        assert_ne!(stream(5), stream(6), "{}", spec.name);
    }
}

#[test]
fn streams_have_the_stated_shape() {
    let mut g = RequestGen::new(
        9,
        Mix::Spill {
            objects: 8,
            pages: 160,
            read_frac: 0.5,
            computes: 2,
        },
        10.0,
        0.5,
    );
    let reqs: Vec<_> = (0..4000).map(|_| g.next_request()).collect();
    let reads = reqs
        .iter()
        .filter(|r| matches!(r.op, clouds_perfbench::gen::Op::Read(_)))
        .count();
    assert!((1800..2200).contains(&reads), "reads {reads} of 4000");
    assert!(
        reqs.iter().enumerate().all(|(i, r)| r.compute == i % 2),
        "requests alternate servers"
    );
    assert!(reqs.windows(2).all(|p| p[0].arrival_ns < p[1].arrival_ns));
}

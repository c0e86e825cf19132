//! The early-bird effect (paper §4.3 / Fig. 8) on the simulated MeluXina:
//! sweep the message size and print the measured gain of pipelined
//! strategies over the bulk-synchronized single message, next to the
//! analytical prediction of eq. (4). Then the same effect on the real
//! runtime: a delayed 16-partition pipeline, partitioned vs single
//! message, with the received bytes checked.
//!
//! ```text
//! cargo run --release --example early_bird
//! # the real pipeline across two processes on the shared-segment fabric:
//! PCOMM_NET_FABRIC=ipc pcomm-launch -n 2 -- target/release/examples/early_bird
//! ```

use pcomm::core::strategies::{measure_validated, RealApproach, RealScenario};
use pcomm::netmodel::MachineConfig;
use pcomm::perfmodel::{eta_large, us_per_mb_to_s_per_b};
use pcomm::simcore::Dur;
use pcomm::simmpi::scenario::{run_scenario, Approach, Scenario};

fn main() {
    let cfg = MachineConfig::meluxina();
    let n_threads = 4;
    let gamma = us_per_mb_to_s_per_b(100.0); // 100 µs/MB delay rate
    let iters = 40;
    let warmup = 1;

    println!("early-bird gain, γ = 100 µs/MB, {n_threads} threads / partitions");
    println!(
        "{:>10}  {:>12}  {:>12}  {:>12}  {:>10}",
        "total", "single [us]", "part [us]", "gain", "theory"
    );

    let ideal = eta_large(n_threads as u64, 1, gamma, cfg.bandwidth);
    let mut total = 8 << 10;
    while total <= 64 << 20 {
        let part_bytes = total / n_threads;
        let mut sc = Scenario::immediate(n_threads, 1, part_bytes, iters + warmup);
        let d = Dur::from_secs_f64(gamma * part_bytes as f64);
        let n = sc.delays.len();
        sc.delays[n - 1] = d;

        let mean = |a: Approach| -> f64 {
            let times = run_scenario(&cfg, 1, 7, a, &sc);
            let xs: Vec<f64> = times[warmup..].iter().map(|t| t.as_us_f64()).collect();
            xs.iter().sum::<f64>() / xs.len() as f64
        };
        let single = mean(Approach::PtpSingle);
        let part = mean(Approach::PtpPart);
        println!(
            "{:>10}  {:>12.2}  {:>12.2}  {:>12.3}  {:>10.3}",
            human(total),
            single,
            part,
            single / part,
            ideal
        );
        total *= 4;
    }
    println!("\n(eq. 4 gain is the large-size asymptote; at small sizes latency and");
    println!(" thread contention make pipelining lose, as in the paper's Fig. 8)");

    real_pipeline();
}

/// The real runtime: one thread readies 16 partitions of 64 KiB, `p`
/// ready `20·(p+1)` µs into the iteration (a stencil-like ramp). Early
/// partitions travel while later ones compute; both strategies must
/// deliver the same bytes. Under the launcher only the receiving
/// process reports timings.
fn real_pipeline() {
    let mut sc = RealScenario::immediate(1, 16, 64 << 10, 1, 21);
    for (p, d) in sc.delays_us.iter_mut().enumerate() {
        *d = 20.0 * (p + 1) as f64;
    }
    let (part, part_digest) = measure_validated(RealApproach::PtpPart, &sc);
    let (single, single_digest) = measure_validated(RealApproach::PtpSingle, &sc);
    assert_eq!(
        part_digest, single_digest,
        "strategies disagree on the data"
    );
    if part.is_empty() {
        return; // the sending process of a multi-process run
    }
    let mean = |t: &[std::time::Duration]| {
        t[1..].iter().map(|d| d.as_secs_f64() * 1e6).sum::<f64>() / (t.len() - 1) as f64
    };
    println!(
        "\nreal runtime, 16 x 64 KiB ready at 20..320 us: receiver time past the last \
         delay {:.1} us single, {:.1} us partitioned (20 iterations); same bytes delivered",
        mean(&single),
        mean(&part)
    );
}

fn human(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{}MiB", b >> 20)
    } else {
        format!("{}KiB", b >> 10)
    }
}

//! Emergency-alert dissemination across a long multi-hop corridor.
//!
//! Motivated by the paper's introduction: real wireless deployments
//! (tunnel/pipeline/highway relays) have large diameters, and noise is
//! the norm. This example sweeps the fault probability on a
//! 300-node corridor (caterpillar) and shows where each algorithm
//! wins — reproducing the Lemma 9 / Lemma 10 / Theorem 11 triangle in
//! one table.
//!
//! Run with: `cargo run --release --example emergency_broadcast`

use noisy_radio::core::decay::Decay;
use noisy_radio::core::fastbc::FastbcSchedule;
use noisy_radio::core::robust_fastbc::RobustFastbcSchedule;
use noisy_radio::model::Channel;
use noisy_radio::netgraph::{generators, NodeId};
use noisy_radio::throughput::Table;

fn mean(mut f: impl FnMut(u64) -> u64, trials: u64) -> f64 {
    (0..trials).map(&mut f).sum::<u64>() as f64 / trials as f64
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A corridor: 100 relay stations, each covering 2 local devices.
    let corridor = generators::caterpillar(100, 2)?;
    let source = NodeId::new(0);
    let trials = 5;
    println!(
        "corridor: {} nodes ({} relays), diameter {}\n",
        corridor.node_count(),
        100,
        noisy_radio::netgraph::metrics::diameter(&corridor).expect("connected"),
    );

    // FASTBC in the paper's general-schedule regime: the fast-round
    // modulus reserves Θ(log n) rank slots, so a dropped wave waits
    // Θ(log n) fast rounds — exactly Lemma 10's setting.
    let log_n = (corridor.node_count() as f64).log2().ceil() as u32;
    let fastbc = FastbcSchedule::with_rank_slots(&corridor, source, log_n)?;
    let robust = RobustFastbcSchedule::new(&corridor, source)?;

    let mut table = Table::new(&["p", "Decay", "FASTBC", "Robust FASTBC", "winner"]);
    for p in [0.0, 0.1, 0.3, 0.5] {
        let fault = if p == 0.0 {
            Channel::faultless()
        } else {
            Channel::receiver(p)?
        };
        let d = mean(
            |s| {
                Decay::new()
                    .run(&corridor, source, fault, 10 + s, 10_000_000)
                    .expect("completes")
                    .rounds_used()
            },
            trials,
        );
        let f = mean(
            |s| {
                fastbc
                    .run(fault, 20 + s, 10_000_000)
                    .expect("completes")
                    .rounds_used()
            },
            trials,
        );
        let r = mean(
            |s| {
                robust
                    .run(fault, 30 + s, 10_000_000)
                    .expect("completes")
                    .rounds_used()
            },
            trials,
        );
        let winner = if f <= d && f <= r {
            "FASTBC"
        } else if r <= d {
            "Robust FASTBC"
        } else {
            "Decay"
        };
        table.row_owned(vec![
            format!("{p:.1}"),
            format!("{d:.0}"),
            format!("{f:.0}"),
            format!("{r:.0}"),
            winner.into(),
        ]);
    }
    println!("{}", table.render());
    println!("Faultless: FASTBC is unbeatable (Lemma 8).");
    println!("Noisy: FASTBC's wave collapses (Lemma 10); Robust FASTBC holds (Theorem 11).");
    Ok(())
}

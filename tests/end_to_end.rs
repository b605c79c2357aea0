//! Cross-crate integration: every broadcast algorithm on every fault
//! model, on a spread of topologies.

use noisy_radio::core::decay::Decay;
use noisy_radio::core::fastbc::FastbcSchedule;
use noisy_radio::core::robust_fastbc::RobustFastbcSchedule;
use noisy_radio::model::Channel;
use noisy_radio::netgraph::{generators, Graph, NodeId};

const MAX: u64 = 50_000_000;

fn topologies() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", generators::path(64)),
        ("star", generators::star(64)),
        ("grid", generators::grid(8, 8)),
        ("tree", generators::balanced_tree(3, 3).expect("valid")),
        (
            "gnp",
            generators::gnp_connected(64, 0.08, 5).expect("valid"),
        ),
        ("spider", generators::spider(4, 12).expect("valid")),
        ("hypercube", generators::hypercube(6).expect("valid")),
        (
            "layered",
            generators::layered_random(8, 8, 0.3, 7).expect("valid"),
        ),
    ]
}

fn fault_models() -> Vec<Channel> {
    vec![
        Channel::faultless(),
        Channel::sender(0.3).expect("valid"),
        Channel::receiver(0.3).expect("valid"),
        Channel::sender(0.6).expect("valid"),
        Channel::receiver(0.6).expect("valid"),
    ]
}

#[test]
fn decay_completes_everywhere() {
    for (name, g) in topologies() {
        for fault in fault_models() {
            let run = Decay::new()
                .run(&g, NodeId::new(0), fault, 1, MAX)
                .expect("valid config");
            assert!(run.completed(), "Decay stalled on {name} under {fault}");
        }
    }
}

#[test]
fn fastbc_completes_everywhere() {
    for (name, g) in topologies() {
        let sched = FastbcSchedule::new(&g, NodeId::new(0)).expect("connected");
        for fault in fault_models() {
            let run = sched.run(fault, 2, MAX).expect("valid config");
            assert!(run.completed(), "FASTBC stalled on {name} under {fault}");
        }
    }
}

#[test]
fn robust_fastbc_completes_everywhere() {
    for (name, g) in topologies() {
        let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).expect("connected");
        for fault in fault_models() {
            let run = sched.run(fault, 3, MAX).expect("valid config");
            assert!(
                run.completed(),
                "Robust FASTBC stalled on {name} under {fault}"
            );
        }
    }
}

#[test]
fn faultless_fastbc_beats_decay_on_long_paths() {
    // Lemma 8 vs Lemma 6: D + log² n < D·log n for large D.
    let g = generators::path(512);
    let fastbc = FastbcSchedule::new(&g, NodeId::new(0)).expect("connected");
    let f = fastbc
        .run(Channel::faultless(), 7, MAX)
        .expect("valid")
        .rounds_used();
    let d = Decay::new()
        .run(&g, NodeId::new(0), Channel::faultless(), 7, MAX)
        .expect("valid")
        .rounds_used();
    assert!(f < d, "FASTBC ({f}) should beat Decay ({d}) faultlessly");
}

#[test]
fn noisy_robust_fastbc_beats_fastbc_on_long_paths() {
    // Theorem 11 vs Lemma 10 (log-slot regime).
    let g = generators::path(512);
    let log_n = 9;
    let fastbc = FastbcSchedule::with_rank_slots(&g, NodeId::new(0), log_n).expect("connected");
    let robust = RobustFastbcSchedule::new(&g, NodeId::new(0)).expect("connected");
    let fault = Channel::receiver(0.5).expect("valid");
    let mut f_total = 0;
    let mut r_total = 0;
    for seed in 0..3 {
        f_total += fastbc.run(fault, seed, MAX).expect("valid").rounds_used();
        r_total += robust.run(fault, seed, MAX).expect("valid").rounds_used();
    }
    assert!(
        r_total < f_total,
        "Robust FASTBC ({r_total}) should beat noisy FASTBC ({f_total})"
    );
}

#[test]
fn same_seed_reproduces_across_algorithms() {
    let g = generators::gnp_connected(48, 0.1, 11).expect("valid");
    let fault = Channel::receiver(0.4).expect("valid");
    for _ in 0..2 {
        let a = Decay::new()
            .run(&g, NodeId::new(0), fault, 99, MAX)
            .expect("valid");
        let b = Decay::new()
            .run(&g, NodeId::new(0), fault, 99, MAX)
            .expect("valid");
        assert_eq!(a, b);
    }
    let sched = RobustFastbcSchedule::new(&g, NodeId::new(0)).expect("connected");
    assert_eq!(
        sched.run(fault, 99, MAX).expect("valid"),
        sched.run(fault, 99, MAX).expect("valid")
    );
}

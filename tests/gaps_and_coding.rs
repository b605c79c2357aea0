//! Cross-crate integration: the paper's throughput-gap results at
//! test scale, plus end-to-end coding validation.

use noisy_radio::coding::rlnc::RlncNode;
use noisy_radio::coding::rs::ReedSolomon;
use noisy_radio::coding::{Field, Gf256};
use noisy_radio::core::multi_message::DecayRlnc;
use noisy_radio::core::schedules::single_link::{
    single_link_adaptive_routing, single_link_coding, single_link_nonadaptive_routing,
};
use noisy_radio::core::schedules::star::{star_coding, star_coding_end_to_end, star_routing};
use noisy_radio::core::schedules::wct::{wct_coding, wct_routing};
use noisy_radio::model::Channel;
use noisy_radio::netgraph::wct::{Wct, WctParams};
use noisy_radio::netgraph::{generators, NodeId};

const MAX: u64 = 100_000_000;

#[test]
fn star_gap_coding_beats_routing() {
    // Theorem 17 at n = 512, k = 16, p = 1/2.
    let fault = Channel::receiver(0.5).expect("valid");
    let routing = star_routing(512, 16, fault, 1, MAX)
        .expect("valid")
        .rounds
        .expect("completes");
    let coding = star_coding(512, 16, fault, 1, MAX)
        .expect("valid")
        .rounds_used();
    assert!(
        routing as f64 > 2.0 * coding as f64,
        "expected a clear star gap: routing {routing}, coding {coding}"
    );
}

#[test]
fn star_end_to_end_rs_decodes_real_payloads() {
    let rounds =
        star_coding_end_to_end(32, 12, 8, Channel::receiver(0.4).expect("valid"), 3, 50_000)
            .expect("decodes everywhere");
    assert!(rounds >= 12);
}

#[test]
fn wct_gap_coding_beats_routing() {
    // Theorem 24 at small scale.
    let wct = Wct::generate(WctParams {
        senders: 16,
        clusters_per_class: 4,
        cluster_size: 16,
        seed: 21,
    })
    .expect("valid");
    let fault = Channel::receiver(0.5).expect("valid");
    let routing = wct_routing(&wct, 6, fault, 2, MAX)
        .expect("valid")
        .rounds
        .expect("completes");
    let coding = wct_coding(&wct, 6, fault, 2, MAX)
        .expect("valid")
        .rounds
        .expect("completes");
    assert!(
        routing > 2 * coding,
        "expected a clear WCT gap: routing {routing}, coding {coding}"
    );
}

#[test]
fn single_link_triangle_of_lemmas() {
    // Lemma 29 vs 30 vs 32 at k = 128, p = 1/2.
    let fault = Channel::receiver(0.5).expect("valid");
    let k = 128;
    // Non-adaptive with 1 repetition: fails.
    assert!(
        !single_link_nonadaptive_routing(k, 1, fault, 3)
            .expect("valid")
            .success
    );
    // Non-adaptive with 3·log k repetitions: succeeds.
    let reps = 3 * 7;
    assert!(
        single_link_nonadaptive_routing(k, reps, fault, 3)
            .expect("valid")
            .success
    );
    // Coding with 2.6k packets: succeeds in Θ(k).
    let coding = single_link_coding(k, (k as f64 * 2.6) as u64, fault, 3).expect("valid");
    assert!(coding.success);
    // Adaptive routing: Θ(k) rounds.
    let adaptive = single_link_adaptive_routing(k, fault, 3, MAX)
        .expect("valid")
        .rounds_used();
    assert!(
        adaptive < (k as u64) * reps,
        "adaptive ({adaptive}) beats non-adaptive budget"
    );
}

#[test]
fn rlnc_multi_message_payloads_survive_noise() {
    // Lemma 12 end to end with payload verification on three graphs.
    for (g, k) in [
        (generators::path(24), 6usize),
        (generators::grid(6, 6), 8),
        (generators::gnp_connected(40, 0.1, 3).expect("valid"), 10),
    ] {
        for fault in [
            Channel::sender(0.3).expect("valid"),
            Channel::receiver(0.3).expect("valid"),
        ] {
            let out = DecayRlnc { payload_len: 4 }
                .run(&g, NodeId::new(0), k, fault, 17, MAX)
                .expect("valid");
            assert!(out.run.completed(), "RLNC stalled under {fault}");
            assert!(out.decoded_ok, "payload mismatch under {fault}");
        }
    }
}

#[test]
fn rs_and_rlnc_substrates_compose() {
    // RS-coded packets absorbed as RLNC rows still decode: coding
    // packet j of the RS code is a known linear combination.
    let k = 5;
    let payload = 3;
    let mut rng = noisy_radio::model::fork_rng(7, 0);
    let data: Vec<Vec<Gf256>> = (0..k)
        .map(|_| (0..payload).map(|_| Gf256::random(&mut rng)).collect())
        .collect();
    let rs = ReedSolomon::<Gf256>::new(k).expect("valid");
    let mut node = RlncNode::<Gf256>::new(k, payload);
    // Packet j evaluates the message polynomial at x_j: coefficients
    // are (x_j^0, ..., x_j^{k-1}).
    for j in [4usize, 17, 33, 90, 200] {
        let x = Gf256::from_index(j + 1);
        let coeffs: Vec<Gf256> = (0..k as u64).map(|e| x.pow(e)).collect();
        let packet = noisy_radio::coding::rlnc::CodedPacket {
            coeffs,
            payload: rs.packet(&data, j).expect("valid"),
        };
        assert!(
            node.absorb(packet),
            "RS packets at distinct points are independent"
        );
    }
    assert_eq!(node.decode().expect("full rank"), data);
}

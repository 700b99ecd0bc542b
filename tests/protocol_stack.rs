//! Integration of the protocol-level pieces across crates: crypto packets
//! carrying BOB payloads, and the functional ORAM behind the planner's
//! geometry.

use doram::bob::{decode_payload, encode_payload, Payload};
use doram::crypto::session::SessionPair;
use doram::oram::plan::{PlanConfig, Planner};
use doram::oram::protocol::PathOram;
use doram::oram::tree::TreeGeometry;
use doram::sim::rng::Xoshiro256;

#[test]
fn sealed_bob_packets_round_trip_through_the_session() {
    // A full CPU→SD request: encode the 72 B BOB payload, seal it, open
    // it on the SD side, decode — the exact §III-B packet path.
    let (mut cpu, mut sd) = SessionPair::negotiate(99).into_endpoints();
    for i in 0..50u64 {
        let p = Payload {
            is_write: i % 3 == 0,
            addr: i * 4096 + 7,
            data: [i as u8; 64],
        };
        let sealed = cpu.seal(&encode_payload(&p));
        let opened = sd.open(&sealed).expect("authentic");
        assert_eq!(decode_payload(&opened), p);
    }
}

#[test]
fn read_and_write_packets_are_indistinguishable_on_the_wire() {
    // §III-B item 1: same size, and OTP encryption randomizes content.
    let (mut cpu, _) = SessionPair::negotiate(1).into_endpoints();
    let read = Payload {
        is_write: false,
        addr: 64,
        data: [0; 64], // dummy zeros for reads
    };
    let write = Payload {
        is_write: true,
        addr: 64,
        data: [9; 64],
    };
    let a = cpu.seal(&encode_payload(&read));
    let b = cpu.seal(&encode_payload(&write));
    assert_eq!(a.ciphertext.len(), b.ciphertext.len());
    // Nothing about the type bit survives in the clear.
    assert_ne!(a.ciphertext, b.ciphertext);
}

#[test]
fn planner_geometry_agrees_with_functional_oram() {
    // The plan's block count matches the protocol's path length, for the
    // same geometry.
    let g = TreeGeometry::new(10, 4);
    let planner = Planner::new(PlanConfig {
        geometry: g,
        subtree_levels: 4,
        cached_levels: 0,
        split: doram::oram::split::SplitConfig::none(),
        tree_units: 4,
    });
    let plan = planner.plan(5);
    assert_eq!(plan.blocks.len() as u64, g.levels() as u64 * g.z as u64);

    let mut oram: PathOram<u64> = PathOram::new(10, 4, 3);
    for i in 0..500 {
        oram.write(i % 50, i);
    }
    oram.check_invariants().expect("protocol invariants");
}

#[test]
fn deterministic_rng_streams_are_independent() {
    let mut a = Xoshiro256::stream(1, 0);
    let mut b = Xoshiro256::stream(1, 1);
    let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
    let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
    assert_ne!(xs, ys);
}

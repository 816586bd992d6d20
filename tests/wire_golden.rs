//! Golden wire traffic for both AMPC modes.
//!
//! The bit-identity and relaxed golden suites pin what a distributed run
//! outputs; this file pins what it sends. For every algorithm of the
//! equivalence roster at 2 workers, in sequenced and in relaxed mode, the
//! frame and byte count of every protocol verb on the coordinator's links
//! (`DistOutcome.net.by_verb`) must equal constants recorded before the
//! CLUGP worker stages and Hashing were folded into shared drivers. A
//! refactor that adds, drops or reshapes a single frame fails here.
//!
//! `Heartbeat` is left out: its count depends on wall-clock time, not on
//! the run. Every other verb is compared, including the ones that must
//! stay at zero.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::proto::Msg;
use clugp::ampc::transport::NetStats;
use clugp::ampc::{run_distributed, AmpcMode, DistConfig, DistInput};
use clugp::baselines::MintConfig;
use clugp::clugp::{ClugpConfig, ClusterAssignMode};
use clugp_repro::test_web_graph;

const K: u32 = 8;
const WORKERS: u32 = 2;

/// The distributed half of the equivalence roster, by name.
fn roster() -> Vec<(&'static str, DistAlgo)> {
    vec![
        ("Hashing", DistAlgo::hashing()),
        ("Grid", DistAlgo::grid()),
        ("DBH", DistAlgo::dbh()),
        ("Greedy", DistAlgo::greedy()),
        ("HDRF", DistAlgo::hdrf()),
        (
            "Mint",
            DistAlgo::Mint(MintConfig {
                batch_size: 97,
                ..Default::default()
            }),
        ),
        ("CLUGP", DistAlgo::clugp()),
        (
            "CLUGP-S",
            DistAlgo::Clugp(ClugpConfig {
                splitting: false,
                ..Default::default()
            }),
        ),
        (
            "CLUGP-G",
            DistAlgo::Clugp(ClugpConfig {
                assign_mode: ClusterAssignMode::Greedy,
                ..Default::default()
            }),
        ),
    ]
}

fn mode_name(mode: AmpcMode) -> &'static str {
    match mode {
        AmpcMode::Sequenced => "sequenced",
        AmpcMode::Relaxed => "relaxed",
    }
}

/// The timing-dependent verb left out of the comparison.
const SKIPPED: &str = "Heartbeat";

/// `(verb, frames, bytes)` for every verb with traffic, in tag order.
fn tallies(net: &NetStats) -> Vec<(&'static str, u64, u64)> {
    net.by_verb
        .iter()
        .enumerate()
        .map(|(tag, t)| (Msg::verb_name(tag), t.frames, t.bytes))
        .filter(|&(verb, frames, _)| frames > 0 && verb != SKIPPED)
        .collect()
}

/// `(algorithm, mode, [(verb, frames, bytes)])`; verbs not listed carry
/// no traffic.
type Golden = (
    &'static str,
    &'static str,
    &'static [(&'static str, u64, u64)],
);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("Hashing", "sequenced", &[("Configure", 2, 121992), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2)]),
    ("Hashing", "relaxed", &[("Configure", 2, 121992), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2)]),
    ("Grid", "sequenced", &[("Configure", 2, 121992), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2)]),
    ("Grid", "relaxed", &[("Configure", 2, 121992), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("EpochDone", 2, 40), ("EpochSync", 2, 40)]),
    ("DBH", "sequenced", &[("Configure", 2, 122034), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("RouteBatch", 8, 5465), ("StateReqBatch", 8, 5433), ("StateRespBatch", 4, 1807), ("RouteReply", 4, 1807)]),
    ("DBH", "relaxed", &[("Configure", 2, 122034), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("EpochDone", 2, 4962), ("EpochSync", 2, 6100)]),
    ("Greedy", "sequenced", &[("Configure", 2, 122018), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("RouteBatch", 8, 5442), ("StateReqBatch", 8, 5410), ("StateRespBatch", 4, 1794), ("RouteReply", 4, 1794)]),
    ("Greedy", "relaxed", &[("Configure", 2, 122018), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("EpochDone", 2, 5308), ("EpochSync", 2, 6802)]),
    ("HDRF", "sequenced", &[("Configure", 2, 122076), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("RouteBatch", 8, 7275), ("StateReqBatch", 8, 7243), ("StateRespBatch", 4, 3589), ("RouteReply", 4, 3589)]),
    ("HDRF", "relaxed", &[("Configure", 2, 122076), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2), ("EpochDone", 2, 10195), ("EpochSync", 2, 12792)]),
    ("Mint", "sequenced", &[("Configure", 2, 122072), ("ConfigureOk", 2, 2), ("RunStage", 2, 5342), ("StageDone", 2, 66296), ("Shutdown", 2, 2)]),
    ("Mint", "relaxed", &[("Configure", 2, 122072), ("ConfigureOk", 2, 2), ("RunStage", 2, 262), ("StageDone", 2, 61216), ("Shutdown", 2, 2)]),
    ("CLUGP", "sequenced", &[("Configure", 2, 122074), ("ConfigureOk", 2, 2), ("RunStage", 6, 578), ("StageDone", 6, 75344), ("StateReq", 3, 49244), ("StateResp", 3, 27), ("Scan", 2, 4), ("ScanResp", 2, 48034), ("Shutdown", 2, 2), ("RouteBatch", 25, 16121), ("StateReqBatch", 25, 16021), ("StateRespBatch", 17, 17343), ("RouteReply", 17, 17343)]),
    ("CLUGP", "relaxed", &[("Configure", 2, 122074), ("ConfigureOk", 2, 2), ("RunStage", 6, 578), ("StageDone", 6, 74852), ("StateReq", 3, 49724), ("StateResp", 3, 27), ("Scan", 6, 12), ("ScanResp", 6, 97766), ("Shutdown", 2, 2), ("Pass1Frontier", 2, 14392), ("TableCast", 6, 24544)]),
    ("CLUGP-S", "sequenced", &[("Configure", 2, 122074), ("ConfigureOk", 2, 2), ("RunStage", 6, 578), ("StageDone", 6, 71696), ("StateReq", 3, 49852), ("StateResp", 3, 27), ("Scan", 2, 4), ("ScanResp", 2, 48034), ("Shutdown", 2, 2), ("RouteBatch", 25, 16926), ("StateReqBatch", 25, 16826), ("StateRespBatch", 17, 17408), ("RouteReply", 17, 17408)]),
    ("CLUGP-S", "relaxed", &[("Configure", 2, 122074), ("ConfigureOk", 2, 2), ("RunStage", 6, 578), ("StageDone", 6, 72096), ("StateReq", 3, 49964), ("StateResp", 3, 27), ("Scan", 6, 12), ("ScanResp", 6, 98006), ("Shutdown", 2, 2), ("Pass1Frontier", 2, 13857), ("TableCast", 6, 24604)]),
    ("CLUGP-G", "sequenced", &[("Configure", 2, 122074), ("ConfigureOk", 2, 2), ("RunStage", 6, 578), ("StageDone", 6, 75344), ("StateReq", 3, 49244), ("StateResp", 3, 27), ("Scan", 2, 4), ("ScanResp", 2, 48034), ("Shutdown", 2, 2), ("RouteBatch", 25, 16121), ("StateReqBatch", 25, 16021), ("StateRespBatch", 17, 17343), ("RouteReply", 17, 17343)]),
    ("CLUGP-G", "relaxed", &[("Configure", 2, 122074), ("ConfigureOk", 2, 2), ("RunStage", 6, 578), ("StageDone", 6, 74852), ("StateReq", 3, 49724), ("StateResp", 3, 27), ("Scan", 6, 12), ("ScanResp", 6, 97766), ("Shutdown", 2, 2), ("Pass1Frontier", 2, 14392), ("TableCast", 6, 24544)]),
];

fn run(algo: &DistAlgo, mode: AmpcMode) -> NetStats {
    let (n, edges) = test_web_graph(1_500, 51);
    let cfg = DistConfig {
        workers: WORKERS,
        mode,
        ..Default::default()
    };
    run_distributed(
        algo,
        DistInput::Edges {
            num_vertices: n,
            edges: &edges,
        },
        K,
        &cfg,
    )
    .unwrap_or_else(|e| panic!("{algo:?} {}: {e}", mode_name(mode)))
    .net
}

fn frames_of(net: &NetStats, verb: &str) -> u64 {
    tallies(net).iter().find(|t| t.0 == verb).map_or(0, |t| t.1)
}

#[test]
fn wire_traffic_matches_the_recorded_goldens() {
    let mut failures = Vec::new();
    let mut checked = 0;
    for (name, algo) in roster() {
        for mode in [AmpcMode::Sequenced, AmpcMode::Relaxed] {
            let got = tallies(&run(&algo, mode));
            let mode = mode_name(mode);
            let line = format!("    (\"{name}\", \"{mode}\", &{got:?}),");
            match GOLDEN.iter().find(|g| g.0 == name && g.1 == mode) {
                Some(g) if g.2 == got.as_slice() => checked += 1,
                _ => failures.push(line),
            }
        }
    }
    assert!(
        failures.is_empty(),
        "wire traffic moved; mismatching or missing rows:\n{}",
        failures.join("\n")
    );
    assert_eq!(checked, GOLDEN.len(), "every golden row is exercised");
}

#[test]
fn relaxed_hashing_skips_epoch_barriers_and_grid_keeps_them() {
    let hashing = run(&DistAlgo::hashing(), AmpcMode::Relaxed);
    assert_eq!(frames_of(&hashing, "EpochDone"), 0);
    assert_eq!(frames_of(&hashing, "EpochSync"), 0);
    let grid = run(&DistAlgo::grid(), AmpcMode::Relaxed);
    assert!(frames_of(&grid, "EpochDone") > 0);
}

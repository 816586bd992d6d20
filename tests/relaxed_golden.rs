//! Golden outputs for relaxed AMPC mode.
//!
//! Relaxed mode is not bit-identical to the monolith, so the equivalence
//! suite only checks it run against run. This file pins its exact output
//! instead: for every algorithm of the equivalence roster, at 2 and 4
//! workers, under a stress config (tiny chunks, short epochs) and the
//! default config, the FNV-1a-64 digest of the assignments plus the loads
//! and vertex count must equal constants recorded before the worker
//! drivers were unified. A refactor that moves a single relaxed placement
//! fails here.

use clugp::ampc::coordinator::DistAlgo;
use clugp::ampc::{run_distributed, AmpcMode, DistConfig, DistInput};
use clugp::baselines::MintConfig;
use clugp::clugp::{ClugpConfig, ClusterAssignMode};
use clugp_repro::test_web_graph;

const K: u32 = 8;

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

/// The two relaxed configurations: `stress` forces many tiny epochs,
/// `default` runs the shipped chunk size and epoch length.
fn config(name: &str, workers: u32) -> DistConfig {
    let base = DistConfig {
        workers,
        mode: AmpcMode::Relaxed,
        ..Default::default()
    };
    match name {
        "stress" => DistConfig {
            chunk_edges: 173,
            epoch_chunks: 2,
            ..base
        },
        _ => base,
    }
}

/// FNV-1a over the little-endian bytes of every assignment.
fn fnv1a64(assignments: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for a in assignments {
        for b in a.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `(algorithm, config, workers, digest, loads, num_vertices)`.
type Golden = (&'static str, &'static str, u32, u64, [u64; K as usize], u64);

#[rustfmt::skip]
const GOLDEN: &[Golden] = &[
    ("Hashing", "stress", 2, 0x2b7840cdadeddfa4, [1995, 2117, 1799, 1894, 1905, 1858, 1757, 1912], 1500),
    ("Hashing", "stress", 4, 0x2b7840cdadeddfa4, [1995, 2117, 1799, 1894, 1905, 1858, 1757, 1912], 1500),
    ("Hashing", "default", 2, 0x2b7840cdadeddfa4, [1995, 2117, 1799, 1894, 1905, 1858, 1757, 1912], 1500),
    ("Hashing", "default", 4, 0x2b7840cdadeddfa4, [1995, 2117, 1799, 1894, 1905, 1858, 1757, 1912], 1500),
    ("Grid", "stress", 2, 0x15a6fdea4a9cde96, [2075, 1715, 1717, 2124, 1696, 1702, 2110, 2098], 1500),
    ("Grid", "stress", 4, 0x2e7f8822e5f9ce93, [1872, 1848, 1857, 2033, 1862, 1816, 1994, 1955], 1500),
    ("Grid", "default", 2, 0x1e2ddfbc86b29d22, [2111, 1712, 1714, 2111, 1680, 1687, 2113, 2109], 1500),
    ("Grid", "default", 4, 0x24a8a980329a52c1, [2064, 1668, 1737, 2111, 1677, 1714, 2131, 2135], 1500),
    ("DBH", "stress", 2, 0xa5df493b50f5d772, [1932, 2175, 1867, 1660, 1626, 2193, 1927, 1857], 1500),
    ("DBH", "stress", 4, 0x394b15fecb932895, [1923, 2223, 1875, 1660, 1732, 2079, 1863, 1882], 1500),
    ("DBH", "default", 2, 0x27d0bae54a53bc16, [1989, 2225, 1846, 1661, 1647, 2103, 1888, 1878], 1500),
    ("DBH", "default", 4, 0x2f9615697ffbef86, [2022, 2238, 1873, 1654, 1722, 2028, 1819, 1881], 1500),
    ("Greedy", "stress", 2, 0x6f87c8249da491a7, [1904, 1885, 1877, 1853, 1922, 1887, 2018, 1891], 1500),
    ("Greedy", "stress", 4, 0x15def55955d65ed1, [1961, 2074, 1926, 1795, 1806, 1932, 1844, 1899], 1500),
    ("Greedy", "default", 2, 0x5ad25263dd0750b3, [8573, 952, 953, 948, 956, 955, 953, 947], 1500),
    ("Greedy", "default", 4, 0x7001e775d1346d66, [5156, 1344, 1350, 1307, 1330, 1334, 1450, 1966], 1500),
    ("HDRF", "stress", 2, 0xafd690b136dc1714, [1888, 1876, 1909, 1888, 1947, 1916, 1896, 1917], 1500),
    ("HDRF", "stress", 4, 0x599be2ba5ddb2466, [1911, 1945, 1928, 1847, 1928, 1922, 1883, 1873], 1500),
    ("HDRF", "default", 2, 0xe1c2625bc0436911, [8571, 954, 953, 950, 953, 953, 950, 953], 1500),
    ("HDRF", "default", 4, 0x30284efee3734da6, [5125, 2047, 1300, 1459, 1360, 1310, 1321, 1315], 1500),
    ("Mint", "stress", 2, 0x216ec9e3c14d52d5, [1508, 2991, 1567, 1567, 2194, 1894, 1822, 1694], 1500),
    ("Mint", "stress", 4, 0x92fde537a8578c63, [1565, 2825, 1675, 1769, 2110, 1708, 1627, 1958], 1500),
    ("Mint", "default", 2, 0x216ec9e3c14d52d5, [1508, 2991, 1567, 1567, 2194, 1894, 1822, 1694], 1500),
    ("Mint", "default", 4, 0x92fde537a8578c63, [1565, 2825, 1675, 1769, 2110, 1708, 1627, 1958], 1500),
    ("CLUGP", "stress", 2, 0xfc9631ffb7d59fe3, [1906, 1906, 1906, 1900, 1906, 1906, 1901, 1906], 1500),
    ("CLUGP", "stress", 4, 0x679c8d14ead12dc0, [1908, 1908, 1908, 1908, 1908, 1895, 1908, 1894], 1500),
    ("CLUGP", "default", 2, 0xfc9631ffb7d59fe3, [1906, 1906, 1906, 1900, 1906, 1906, 1901, 1906], 1500),
    ("CLUGP", "default", 4, 0x679c8d14ead12dc0, [1908, 1908, 1908, 1908, 1908, 1895, 1908, 1894], 1500),
    ("CLUGP-S", "stress", 2, 0xe651e35b7c004882, [1906, 1906, 1906, 1906, 1906, 1906, 1906, 1895], 1500),
    ("CLUGP-S", "stress", 4, 0x7f61c2c0fd4000e0, [1908, 1908, 1908, 1908, 1908, 1901, 1888, 1908], 1500),
    ("CLUGP-S", "default", 2, 0xe651e35b7c004882, [1906, 1906, 1906, 1906, 1906, 1906, 1906, 1895], 1500),
    ("CLUGP-S", "default", 4, 0x7f61c2c0fd4000e0, [1908, 1908, 1908, 1908, 1908, 1901, 1888, 1908], 1500),
    ("CLUGP-G", "stress", 2, 0x42d632197388a932, [1906, 1906, 1906, 1904, 1902, 1906, 1906, 1901], 1500),
    ("CLUGP-G", "stress", 4, 0x1130df83fa2af561, [1908, 1908, 1908, 1908, 1901, 1908, 1908, 1888], 1500),
    ("CLUGP-G", "default", 2, 0x42d632197388a932, [1906, 1906, 1906, 1904, 1902, 1906, 1906, 1901], 1500),
    ("CLUGP-G", "default", 4, 0x1130df83fa2af561, [1908, 1908, 1908, 1908, 1901, 1908, 1908, 1888], 1500),
];

#[test]
fn relaxed_outputs_match_the_recorded_goldens() {
    let (n, edges) = test_web_graph(1_500, 51);
    let mut failures = Vec::new();
    let mut checked = 0;
    for (name, algo) in roster() {
        for cfg_name in ["stress", "default"] {
            for workers in [2u32, 4] {
                let out = run_distributed(
                    &algo,
                    DistInput::Edges {
                        num_vertices: n,
                        edges: &edges,
                    },
                    K,
                    &config(cfg_name, workers),
                )
                .unwrap_or_else(|e| panic!("{name} {cfg_name} x{workers}: {e}"));
                let part = out.partitioning;
                let got = (
                    fnv1a64(&part.assignments),
                    part.loads.clone(),
                    part.num_vertices,
                );
                let line = format!(
                    "    (\"{name}\", \"{cfg_name}\", {workers}, {:#018x}, {:?}, {}),",
                    got.0, got.1, got.2
                );
                match GOLDEN
                    .iter()
                    .find(|g| g.0 == name && g.1 == cfg_name && g.2 == workers)
                {
                    Some(g) if (g.3, g.4.to_vec(), g.5) == got => checked += 1,
                    _ => failures.push(line),
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "relaxed output moved; mismatching or missing rows:\n{}",
        failures.join("\n")
    );
    assert_eq!(checked, GOLDEN.len(), "every golden row is exercised");
}

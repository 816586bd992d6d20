//! Golden `--output` bytes of the shipped `clugp-part` binary.
//!
//! Each case runs the binary on a deterministic fixture and compares the
//! FNV-1a-64 digest and byte length of the assignment TSV against constants
//! recorded from the `writeln!`-based writer, before the byte-level TSV
//! writer replaced it. A writer change that moves one byte fails here: a
//! digit, a separator, a line ending, or a translated external id.

use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

/// A scratch directory unique to this process and case.
fn scratch(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clugp_cli_golden_{}_{case}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Writes a small web crawl as a text edge list, in crawl (source) order.
fn web_fixture(dir: &Path) -> PathBuf {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 3_000,
        seed: 14,
        ..Default::default()
    });
    let mut text = String::new();
    for e in g.edge_vec() {
        text.push_str(&format!("{} {}\n", e.src, e.dst));
    }
    let path = dir.join("web.txt");
    std::fs::write(&path, text).unwrap();
    path
}

/// Writes a sparse-id edge list: external ids spread over the whole `u64`
/// range (most above 2^32), plus the digit-boundary ids 0, 9, 10, 99, 100,
/// 10^9-1, 10^9, `u32::MAX` and `u64::MAX`.
fn sparse_fixture(dir: &Path) -> PathBuf {
    let boundary = [
        0u64,
        9,
        10,
        99,
        100,
        999_999_999,
        1_000_000_000,
        u64::from(u32::MAX),
        u64::MAX,
    ];
    let mut ids: Vec<u64> = boundary.to_vec();
    let mut state: u64 = 0x2545_F491_4F6C_DD1D;
    for _ in 0..400 {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ids.push(state | (1 << 33));
    }
    let mut text = String::from("# sparse external ids\n");
    for i in 0..4_000usize {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let a = ids[i % ids.len()];
        let b = ids[(state >> 33) as usize % ids.len()];
        text.push_str(&format!("{a} {b}\n"));
    }
    let path = dir.join("sparse.txt");
    std::fs::write(&path, text).unwrap();
    path
}

/// FNV-1a-64 over every byte.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `clugp-part input --output <dir>/out.tsv <extra>` and returns the
/// (digest, length) of the TSV it wrote.
fn run_digest(dir: &Path, input: &Path, extra: &[&str]) -> (u64, usize) {
    let out_path = dir.join("out.tsv");
    let out = Command::new(env!("CARGO_BIN_EXE_clugp-part"))
        .arg(input)
        .args(extra)
        .arg("--output")
        .arg(&out_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "clugp-part {extra:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&out_path).unwrap();
    (fnv1a64(&bytes), bytes.len())
}

#[test]
fn dense_monolith_tsv_matches_golden() {
    let dir = scratch("dense");
    let input = web_fixture(&dir);
    let got = run_digest(
        &dir,
        &input,
        &["--k", "8", "--algo", "clugp", "--threads", "2"],
    );
    assert_eq!(
        got,
        (0xfc5f_9b6e_4b7d_f601, 362_473),
        "dense monolith TSV moved"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unix_workers_tsv_matches_golden() {
    let dir = scratch("unix");
    let input = web_fixture(&dir);
    let socks = dir.join("socks");
    let got = run_digest(
        &dir,
        &input,
        &[
            "--k",
            "8",
            "--algo",
            "hdrf",
            "--workers",
            "2",
            "--transport",
            "unix",
            "--socket-dir",
            &socks.to_string_lossy(),
        ],
    );
    assert_eq!(
        got,
        (0x90d1_1107_524c_4233, 362_473),
        "2-worker unix TSV moved"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sparse_tsv_matches_golden() {
    let dir = scratch("sparse");
    let input = sparse_fixture(&dir);
    let got = run_digest(&dir, &input, &["--k", "4", "--algo", "hdrf", "--sparse"]);
    assert_eq!(
        got,
        (0x189b_556a_9332_7973, 169_196),
        "sparse external-id TSV moved"
    );
    std::fs::remove_dir_all(&dir).ok();
}

//! `clugp-part` without `--order` streams each algorithm in the order the
//! paper runs it under. HDRF and Greedy on a BFS-ordered crawl keep growing
//! one partition; under their default (shuffled) order they must stay
//! balanced. An explicit `--order` still overrides the default.

use clugp_graph::gen::{generate_web_crawl, WebCrawlConfig};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Writes a small web crawl as a text edge list, in crawl (source) order.
fn web_fixture(dir: &Path) -> PathBuf {
    let g = generate_web_crawl(&WebCrawlConfig {
        vertices: 2_000,
        seed: 61,
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

/// Runs `clugp-part` and returns (relative balance, stderr).
fn run(input: &Path, extra: &[&str]) -> (f64, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_clugp-part"))
        .arg(input)
        .args(["--k", "8"])
        .args(extra)
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "clugp-part {extra:?} failed: {stderr}"
    );
    let balance = stdout
        .lines()
        .find_map(|l| l.strip_prefix("relative balance   = "))
        .unwrap_or_else(|| panic!("no balance line in {stdout}"))
        .parse()
        .unwrap();
    (balance, stderr)
}

#[test]
fn default_order_keeps_one_pass_heuristics_balanced() {
    let dir = std::env::temp_dir().join(format!("clugp_cli_order_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = web_fixture(&dir);
    for algo in ["hdrf", "greedy"] {
        let (balance, stderr) = run(&input, &["--algo", algo]);
        assert!(
            balance <= 1.10,
            "{algo} with the default order: relative balance {balance}"
        );
        assert!(stderr.contains("(order: Random("), "{stderr}");
        let (_, stderr) = run(&input, &["--algo", algo, "--order", "bfs"]);
        assert!(stderr.contains("(order: Bfs)"), "{stderr}");
    }
    let (_, stderr) = run(&input, &["--algo", "clugp"]);
    assert!(stderr.contains("(order: Bfs)"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

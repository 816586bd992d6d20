//! `clugp-e2ebench` — the compiled half of the end-to-end benchmark
//! (`e2ebench/run.py` drives it).
//!
//! ```text
//! clugp-e2ebench gen      --kind web|social --seed S --scale F --out <txt>
//! clugp-e2ebench ingest   --input <txt> --pack <clugpz>
//! clugp-e2ebench multiset --input <txt>
//! clugp-e2ebench validate --tsv <tsv> --k K
//! clugp-e2ebench trace    --input <file> --k K --algo clugp|hdrf|replay
//!                         --order bfs|random --threads N --output <tsv>
//!                         [--assignment <tsv>]
//! ```
//!
//! Every subcommand prints one JSON object on stdout.
//!
//! * `gen` writes a seeded synthetic input as a text edge list.
//! * `ingest` times the text parse and the pack encode of an input.
//! * `multiset` digests an input's edge multiset, independent of order.
//! * `validate` checks a `clugp-part` TSV with its own parser and its own
//!   replication/balance arithmetic, so a bug in the program's metrics
//!   layer cannot hide a bad assignment; it reports the TSV's edge
//!   multiset digest for comparison with the input's.
//! * `trace` re-enacts the `clugp-part` monolith call sequence through the
//!   library's public layer functions, timing each call, and writes the
//!   same TSV the CLI writes. `replay` re-enacts only the coordinator-side
//!   layers of a distributed run (decode, CSR, order, quality, output),
//!   taking the assignment from that run's TSV.

use clugp::baselines::Hdrf;
use clugp::clugp::cluster_graph::ClusterGraph;
use clugp::clugp::clustering::stream_clustering_capped;
use clugp::clugp::game::solve_game;
use clugp::clugp::transform::transform;
use clugp::clugp::ClugpConfig;
use clugp::metrics::PartitionQuality;
use clugp::partition::Partitioning;
use clugp::partitioner::Partitioner;
use clugp_graph::csr::CsrGraph;
use clugp_graph::gen::{generate_ba, generate_web_crawl, BaConfig, WebCrawlConfig};
use clugp_graph::io::edge_list::{read_edge_list, write_edge_list};
use clugp_graph::io::{open_edge_stream, sniff_format, GraphFileFormat};
use clugp_graph::order::{ordered_edges, StreamOrder};
use clugp_graph::pack::{
    pack_edge_stream, ChecksumPolicy, DecodeOptions, PackOptions, DEFAULT_PREFETCH_BLOCKS,
};
use clugp_graph::stream::{collect_stream, EdgeStream, InMemoryStream, RestreamableStream};
use clugp_graph::types::Edge;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Web-crawl analogue at scale 1: the uk-s generator parameters
/// (88% intra-site links, mean out-degree 15.8), ≈3.2M edges.
const WEB_VERTICES: f64 = 200_000.0;
/// Social analogue at scale 1: Barabási–Albert, 34 edges per vertex, ≈2.0M
/// edges.
const SOCIAL_VERTICES: f64 = 60_000.0;
const SOCIAL_EDGES_PER_VERTEX: u64 = 34;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("usage: clugp-e2ebench gen|ingest|multiset|validate|trace [options]");
        return ExitCode::from(2);
    };
    let flags = match Flags::parse(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("clugp-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "gen" => gen(&flags),
        "ingest" => ingest(&flags),
        "multiset" => multiset(&flags),
        "validate" => validate(&flags),
        "trace" => trace(&flags),
        other => Err(format!("unknown subcommand {other:?}").into()),
    };
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("clugp-e2ebench {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Res<Flags> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let name = a
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {a:?}"))?;
            let value = it.next().ok_or_else(|| format!("missing value for {a}"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, name: &str) -> Res<&str> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("--{name} is required").into())
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Res<T>
    where
        T::Err: std::fmt::Display,
    {
        self.str(name)?
            .parse()
            .map_err(|e| format!("--{name}: {e}").into())
    }
}

/// A flat JSON object, written in insertion order.
#[derive(Default)]
struct Json(Vec<(String, String)>);

impl Json {
    fn num(mut self, k: &str, v: f64) -> Json {
        self.0.push((k.into(), format!("{v}")));
        self
    }

    fn int(mut self, k: &str, v: u64) -> Json {
        self.0.push((k.into(), v.to_string()));
        self
    }

    fn bool(mut self, k: &str, v: bool) -> Json {
        self.0.push((k.into(), v.to_string()));
        self
    }

    fn str(mut self, k: &str, v: &str) -> Json {
        self.0.push((k.into(), format!("{v:?}")));
        self
    }

    fn finish(self) -> String {
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{k:?}:{v}")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Time spent in each call into a library layer, in call order.
struct Spans {
    origin: Instant,
    list: Vec<(&'static str, f64)>,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Vec::new(),
        }
    }

    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        self.list.push((layer, start.elapsed().as_secs_f64()));
        out
    }

    fn total(&self, layer: &str) -> f64 {
        self.list
            .iter()
            .filter(|(name, _)| *name == layer)
            .fold(0.0, |acc, (_, dur)| acc + dur)
    }

    fn covered(&self) -> f64 {
        self.list.iter().fold(0.0, |acc, (_, dur)| acc + dur)
    }
}

/// 64-bit FNV-1a: an equality digest for byte-identity checks.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn file_digest(path: &Path) -> Res<(String, u64)> {
    let bytes = std::fs::read(path)?;
    Ok((format!("{:016x}", fnv1a(&bytes)), bytes.len() as u64))
}

/// Mixes the run seed with a per-workload constant, so the two input kinds
/// of one seed are unrelated.
fn mix_seed(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.rotate_left(17);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn gen(flags: &Flags) -> Res<String> {
    let seed: u64 = flags.num("seed")?;
    let scale: f64 = flags.num("scale")?;
    if !(scale > 0.0 && scale <= 4.0) {
        return Err("--scale must be in (0, 4]".into());
    }
    let graph = match flags.str("kind")? {
        "web" => generate_web_crawl(&WebCrawlConfig {
            vertices: ((WEB_VERTICES * scale) as u64).max(1_000),
            mean_out_degree: 15.8,
            intra_site_fraction: 0.88,
            site_size_alpha: 1.8,
            min_site_size: 32,
            max_site_size: 1 << 14,
            out_degree_alpha: 2.1,
            max_out_degree: 1 << 12,
            seed: mix_seed(seed, 0x2002),
        }),
        "social" => generate_ba(&BaConfig {
            vertices: ((SOCIAL_VERTICES * scale) as u64).max(500),
            edges_per_vertex: SOCIAL_EDGES_PER_VERTEX,
            seed: mix_seed(seed, 0x0771_77e4),
        }),
        other => return Err(format!("unknown --kind {other:?}").into()),
    };
    let edges = graph.edge_vec();
    write_edge_list(Path::new(flags.str("out")?), &edges)?;
    Ok(Json::default()
        .int("vertices", graph.num_vertices())
        .int("edges", edges.len() as u64)
        .finish())
}

fn ingest(flags: &Flags) -> Res<String> {
    let input = Path::new(flags.str("input")?);
    let pack = Path::new(flags.str("pack")?);
    let mut spans = Spans::new();
    let edges = spans.time("io.text_parse", || read_edge_list(input))?;
    // The `clugp-pack pack` path: open the text as a stream and encode it.
    let stats = spans.time("pack.encode", || -> Res<_> {
        let mut stream = open_edge_stream(input)?;
        Ok(pack_edge_stream(
            stream.as_mut(),
            pack,
            &PackOptions::default(),
        )?)
    })?;
    let pack_bytes = std::fs::metadata(pack)?.len();
    Ok(Json::default()
        .num("io.text_parse_s", spans.total("io.text_parse"))
        .num("pack.encode_s", spans.total("pack.encode"))
        .int("packed_edges", stats.num_edges)
        .num(
            "pack.bytes_per_edge",
            pack_bytes as f64 / (edges.len().max(1) as f64),
        )
        .finish())
}

/// Calls `f(fields)` for every data line of a whitespace-separated text
/// file, skipping blank lines and `#`/`%` comments.
fn for_each_record(bytes: &[u8], mut f: impl FnMut(&[&[u8]]) -> Res<()>) -> Res<()> {
    let mut fields: Vec<&[u8]> = Vec::with_capacity(4);
    for (no, line) in bytes.split(|&b| b == b'\n').enumerate() {
        let line = line.strip_suffix(b"\r").unwrap_or(line);
        if line.is_empty() || line[0] == b'#' || line[0] == b'%' {
            continue;
        }
        fields.clear();
        fields.extend(
            line.split(|b| b.is_ascii_whitespace())
                .filter(|s| !s.is_empty()),
        );
        f(&fields).map_err(|e| format!("line {}: {e}", no + 1))?;
    }
    Ok(())
}

fn parse_u32(field: Option<&&[u8]>) -> Res<u32> {
    let field = field.ok_or("missing field")?;
    if field.is_empty() || field.len() > 10 {
        return Err("bad integer field".into());
    }
    let mut v: u64 = 0;
    for &b in field.iter() {
        if !b.is_ascii_digit() {
            return Err(format!("bad integer {:?}", String::from_utf8_lossy(field)).into());
        }
        v = v * 10 + u64::from(b - b'0');
    }
    u32::try_from(v).map_err(|_| "integer exceeds u32".into())
}

/// `src dst partition`, the fields of one assignment TSV line.
fn parse_assignment_line(f: &[&[u8]]) -> Res<(u32, u32, u32)> {
    if f.len() != 3 {
        return Err(format!("expected 3 fields, got {}", f.len()).into());
    }
    Ok((
        parse_u32(f.first())?,
        parse_u32(f.get(1))?,
        parse_u32(f.get(2))?,
    ))
}

/// Order-independent digest of an edge multiset: two wrapping sums of
/// independent 64-bit mixes of each `(src, dst)`, plus the count.
#[derive(Debug, Default, PartialEq)]
struct Multiset {
    count: u64,
    a: u64,
    b: u64,
}

impl Multiset {
    fn add(&mut self, src: u32, dst: u32) {
        let key = (u64::from(src) << 32) | u64::from(dst);
        self.count += 1;
        self.a = self.a.wrapping_add(mix_seed(key, 0x5151));
        self.b = self.b.wrapping_add(mix_seed(key, 0xA7A7));
    }

    fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.a, self.b)
    }
}

fn multiset(flags: &Flags) -> Res<String> {
    let input = std::fs::read(flags.str("input")?)?;
    let mut set = Multiset::default();
    for_each_record(&input, |f| {
        set.add(parse_u32(f.first())?, parse_u32(f.get(1))?);
        Ok(())
    })?;
    Ok(Json::default()
        .int("lines", set.count)
        .str("multiset", &set.hex())
        .finish())
}

/// What [`validate`] computes from one assignment TSV alone.
#[derive(Debug, PartialEq)]
struct Check {
    edges: Multiset,
    ids_ok: bool,
    replication_factor: f64,
    relative_balance: f64,
}

/// Independent check of an assignment TSV: its edge multiset (compared to
/// the input's by the caller), whether every partition id is below `k`,
/// and RF and balance recomputed from the TSV alone.
fn check_assignment(tsv: &[u8], k: u32) -> Res<Check> {
    if k == 0 || k > 64 {
        return Err("validator supports 1 <= k <= 64".into());
    }
    let mut edges = Multiset::default();
    let mut loads = vec![0u64; k as usize];
    let mut masks: Vec<u64> = Vec::new();
    let mut ids_ok = true;
    for_each_record(tsv, |f| {
        let (src, dst, p) = parse_assignment_line(f)?;
        edges.add(src, dst);
        if p >= k {
            ids_ok = false;
            return Ok(());
        }
        loads[p as usize] += 1;
        let top = src.max(dst) as usize;
        if masks.len() <= top {
            masks.resize(top + 1, 0);
        }
        masks[src as usize] |= 1 << p;
        masks[dst as usize] |= 1 << p;
        Ok(())
    })?;
    let (replicas, touched) = masks
        .iter()
        .filter(|&&m| m != 0)
        .fold((0u64, 0u64), |(r, t), m| {
            (r + u64::from(m.count_ones()), t + 1)
        });
    let max_load = loads.iter().copied().max().unwrap_or(0);
    let lines = edges.count;
    Ok(Check {
        edges,
        ids_ok,
        replication_factor: if touched == 0 {
            0.0
        } else {
            replicas as f64 / touched as f64
        },
        relative_balance: if lines == 0 {
            0.0
        } else {
            f64::from(k) * max_load as f64 / lines as f64
        },
    })
}

fn validate(flags: &Flags) -> Res<String> {
    let k: u32 = flags.num("k")?;
    let tsv = std::fs::read(flags.str("tsv")?)?;
    let check = check_assignment(&tsv, k)?;
    Ok(Json::default()
        .int("lines", check.edges.count)
        .str("multiset", &check.edges.hex())
        .bool("ids_ok", check.ids_ok)
        .num("replication_factor", check.replication_factor)
        .num("relative_balance", check.relative_balance)
        .str("digest", &format!("{:016x}", fnv1a(&tsv)))
        .int("bytes", tsv.len() as u64)
        .finish())
}

/// Counters the CLUGP passes expose.
#[derive(Default)]
struct ClugpCounts {
    clusters: u64,
    splits: u64,
    migrations: u64,
    game_moves: u64,
    reroutes: u64,
}

/// The four CLUGP passes, called one by one in the order and with the
/// configuration `Clugp::partition` uses for `clugp-part --algo clugp`.
fn run_clugp(
    spans: &mut Spans,
    n: u64,
    edges: &[Edge],
    k: u32,
    threads: usize,
) -> Res<(Partitioning, ClugpCounts)> {
    let cfg = ClugpConfig {
        tau: 1.0,
        threads,
        ..Default::default()
    };
    cfg.validate()?;
    let mut stream = InMemoryStream::new(n, edges.to_vec());
    stream.reset()?;
    let n = stream.num_vertices_hint().unwrap_or(0);
    let m = stream.len_hint().unwrap_or(0);
    let vmax = if m > 0 { cfg.vmax(m, k) } else { u64::MAX };
    let clustering = spans.time("clugp.clustering", || {
        stream_clustering_capped(
            &mut stream,
            vmax,
            cfg.splitting,
            cfg.migration,
            cfg.max_vertices,
        )
    })?;
    let m_real: u64 = clustering.degree.iter().map(|&d| u64::from(d)).sum::<u64>() / 2;
    let cg = spans.time("clugp.cluster_graph", || -> Res<_> {
        stream.reset()?;
        Ok(ClusterGraph::build(&mut stream, &clustering))
    })?;
    let game = spans.time("clugp.game", || solve_game(&cg, k, &cfg))?;
    let tr = spans.time("clugp.transform", || -> Res<_> {
        stream.reset()?;
        Ok(transform(
            &mut stream,
            &clustering,
            &game.partition_of,
            k,
            cfg.tau,
            m_real,
        )?)
    })?;
    let counts = ClugpCounts {
        clusters: u64::from(clustering.num_clusters),
        splits: clustering.splits,
        migrations: clustering.migrations,
        game_moves: game.total_moves,
        reroutes: tr.balance_reroutes,
    };
    let partitioning = Partitioning {
        k,
        num_vertices: n.max(clustering.cluster_of.len()),
        assignments: tr.assignments,
        loads: tr.loads,
    };
    Ok((partitioning, counts))
}

/// Reads a distributed run's TSV back as a partitioning, checking that it
/// lists exactly `edges` in stream order.
fn read_assignment(path: &Path, n: u64, edges: &[Edge], k: u32) -> Res<Partitioning> {
    let bytes = std::fs::read(path)?;
    let mut assignments = Vec::with_capacity(edges.len());
    let mut loads = vec![0u64; k as usize];
    for_each_record(&bytes, |f| {
        let i = assignments.len();
        let (src, dst, p) = parse_assignment_line(f)?;
        let want = edges.get(i).ok_or("more lines than edges")?;
        if (want.src, want.dst) != (src, dst) || p >= k {
            return Err(format!("assignment line {i} does not match the stream").into());
        }
        loads[p as usize] += 1;
        assignments.push(p);
        Ok(())
    })?;
    if assignments.len() != edges.len() {
        return Err("fewer lines than edges".into());
    }
    Ok(Partitioning {
        k,
        num_vertices: n,
        assignments,
        loads,
    })
}

fn trace(flags: &Flags) -> Res<String> {
    let input = Path::new(flags.str("input")?);
    let output = Path::new(flags.str("output")?);
    let k: u32 = flags.num("k")?;
    let threads: usize = flags.num("threads")?;
    let algo = flags.str("algo")?;
    let order = match flags.str("order")? {
        "bfs" => StreamOrder::Bfs,
        // The seed `clugp-part --order random` uses.
        "random" => StreamOrder::Random(0x5EED),
        other => return Err(format!("unsupported --order {other:?}").into()),
    };
    // The decode knobs `clugp-part` sets when given no decode flags.
    clugp_graph::pack::set_decode_options(DecodeOptions {
        threads: 0,
        prefetch: DEFAULT_PREFETCH_BLOCKS,
        checksums: ChecksumPolicy::Full,
    });

    let mut spans = Spans::new();
    let (n, raw) = match sniff_format(input)? {
        GraphFileFormat::Packed => spans.time("pack.decode", || -> Res<_> {
            let mut s = open_edge_stream(input)?;
            let n = s
                .num_vertices_hint()
                .ok_or("pack header has no vertex count")?;
            let edges = collect_stream(s.as_mut());
            s.reset()?;
            Ok((n, edges))
        })?,
        GraphFileFormat::Text => spans.time("io.text_parse", || -> Res<_> {
            let edges = read_edge_list(input)?;
            Ok((clugp_graph::types::implied_num_vertices(&edges), edges))
        })?,
        GraphFileFormat::Binary => return Err("binary inputs are not benchmarked".into()),
    };
    let graph = spans.time("csr.build", || CsrGraph::from_edges(n, &raw))?;
    let edges = spans.time("order", || ordered_edges(&graph, order));
    drop(raw);

    let mut counts = ClugpCounts::default();
    let partitioning = match algo {
        "clugp" => {
            let (p, c) = run_clugp(&mut spans, n, &edges, k, threads)?;
            counts = c;
            p
        }
        "hdrf" => {
            let mut stream = InMemoryStream::new(n, edges.clone());
            spans
                .time("baselines.hdrf", || {
                    Hdrf::default().partition(&mut stream, k)
                })?
                .partitioning
        }
        "replay" => read_assignment(Path::new(flags.str("assignment")?), n, &edges, k)?,
        other => return Err(format!("unknown --algo {other:?}").into()),
    };
    let quality = spans.time("metrics.quality", || {
        PartitionQuality::compute(&edges, &partitioning)
    });
    spans.time("output.tsv", || -> Res<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(output)?);
        for (e, p) in edges.iter().zip(&partitioning.assignments) {
            writeln!(w, "{}\t{}\t{}", e.src, e.dst, p)?;
        }
        w.flush()?;
        Ok(())
    })?;
    let wall = spans.origin.elapsed().as_secs_f64();
    let (digest, bytes) = file_digest(output)?;
    let m = edges.len() as u64;
    Ok(Json::default()
        .num("wall_s", wall)
        .num("covered_s", spans.covered())
        .num("io.text_parse_s", spans.total("io.text_parse"))
        .num("pack.decode_s", spans.total("pack.decode"))
        .num("csr.build_s", spans.total("csr.build"))
        .num("order.s", spans.total("order"))
        .num("clugp.clustering_s", spans.total("clugp.clustering"))
        .num("clugp.cluster_graph_s", spans.total("clugp.cluster_graph"))
        .num("clugp.game_s", spans.total("clugp.game"))
        .num("clugp.transform_s", spans.total("clugp.transform"))
        .int("clugp.clusters", counts.clusters)
        .int("clugp.splits", counts.splits)
        .int("clugp.migrations", counts.migrations)
        .int("clugp.game_moves", counts.game_moves)
        .num(
            "clugp.reroute_frac",
            counts.reroutes as f64 / (m.max(1) as f64),
        )
        .num("baselines.hdrf_s", spans.total("baselines.hdrf"))
        .num("metrics.quality_s", spans.total("metrics.quality"))
        .num("output.tsv_s", spans.total("output.tsv"))
        .int("output.bytes", bytes)
        .num("replication_factor", quality.replication_factor)
        .num("relative_balance", quality.relative_balance)
        .str("digest", &digest)
        .finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_of(edges: &[(u32, u32)]) -> Multiset {
        let mut set = Multiset::default();
        for &(s, d) in edges {
            set.add(s, d);
        }
        set
    }

    #[test]
    fn check_recomputes_quality_from_the_tsv() {
        let c = check_assignment(b"0\t1\t0\n1\t2\t1\n2\t0\t1\n", 2).unwrap();
        assert!(c.ids_ok);
        assert_eq!(c.edges, set_of(&[(2, 0), (0, 1), (1, 2)]));
        // Vertices 0 and 1 sit on both partitions, vertex 2 on one.
        assert!((c.replication_factor - 5.0 / 3.0).abs() < 1e-12);
        assert!((c.relative_balance - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn check_sees_lost_edges_and_bad_ids() {
        let input = set_of(&[(0, 1), (0, 1), (1, 2)]);
        let lost = check_assignment(b"0\t1\t0\n1\t2\t0\n", 2).unwrap();
        assert_ne!(lost.edges, input);
        let swapped = check_assignment(b"1\t0\t0\n0\t1\t0\n1\t2\t0\n", 2).unwrap();
        assert_ne!(swapped.edges, input);
        let bad_id = check_assignment(b"0\t1\t0\n0\t1\t2\n1\t2\t0\n", 2).unwrap();
        assert_eq!(bad_id.edges, input);
        assert!(!bad_id.ids_ok);
        assert!(check_assignment(b"0\t1\n", 2).is_err());
    }

    #[test]
    fn digest_is_byte_sensitive() {
        assert_ne!(fnv1a(b"0\t1\t0\n"), fnv1a(b"0\t1\t1\n"));
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }
}

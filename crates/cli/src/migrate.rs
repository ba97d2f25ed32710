//! `dar migrate` — converts one pre-v2 text file to the binary v2 format.
//!
//! Engine snapshots, ring snapshots and cluster files were once written
//! as line-oriented text ("v1"). Every writer now emits the v2 binary
//! formats and every runtime reader accepts only v2, so this module is
//! the one place that still parses v1 text:
//!
//! ```text
//! dar-engine v1 epoch=<u64> tuples=<u64> sets=<k>
//! set <metric> <attr,attr,…>     (one line per attribute set, in order)
//! thresholds <t,…>               (per-set tree thresholds at extraction)
//! acf-clusters v1 …              (a cluster file body, verbatim)
//!
//! dar-stream v1 <ring header fields, as in v2>
//! window seq=<s> lines=<L>       (then L lines of a dar-engine v1 snapshot;
//! …                               one section per live window, oldest first)
//!
//! acf-clusters v1 sets=<k> dims=<d0,d1,…>
//! cluster id=<u32> set=<usize> n=<u64>
//! bbox <lo> <hi> [<lo> <hi> …]
//! image <set> ls=<v,…> ss=<v,…>  (one image line per set, then the next cluster)
//! ```
//!
//! The parsed sections are re-framed with the v2 writers
//! ([`encode_clusters`], [`write_snapshot_bytes`], [`write_ring_bytes`]);
//! nothing is restored into an engine, whose re-insertion of summaries
//! would change them. The output is installed through the atomic snapshot
//! protocol under the input's footer seq (0 if it was unsealed), so a
//! migrated snapshot plus a newer WAL tail replays exactly that tail.

use crate::args::Args;
use crate::CliError;
use dar_core::{
    Acf, AcfLayout, AttrSet, BoundingBox, ClusterId, ClusterSummary, CoreError, Interval, Metric,
};
use dar_engine::snapshot::{
    partitioning_of, write_ring_bytes, write_snapshot_bytes, RingHeader, Snapshot, RING_V2_TAG,
};
use mining::persist::encode_clusters;
use std::path::Path;

/// Runs the command: `--input <old> --out <new>`.
pub fn run(args: &Args) -> Result<String, CliError> {
    let input = args.required("input")?;
    let out = args.required("out")?;
    let bytes = std::fs::read(input).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let (body, seq) =
        dar_durable::unseal_bytes(&bytes).map_err(|e| CliError::new(format!("{input}: {e}")))?;
    let seq = seq.unwrap_or(0);
    let (kind, v2) = migrate_body(body, &dar_par::ThreadPool::resolve(0))
        .map_err(|e| CliError::new(format!("{input}: {e}")))?;
    dar_durable::snapshot::install(&dar_durable::DiskStorage, Path::new(out), &v2, seq)
        .map_err(|e| CliError::new(e.to_string()))?;
    Ok(format!("migrated {kind} {input} to v2 at {out} ({} bytes, seq {seq})\n", v2.len()))
}

/// Converts one unsealed v1 body to its v2 bytes, naming what it was.
fn migrate_body(
    body: &[u8],
    pool: &dar_par::ThreadPool,
) -> Result<(&'static str, Vec<u8>), CoreError> {
    let v2_tags: [&[u8]; 3] =
        [&dar_engine::snapshot::V2_MAGIC, &mining::persist::V2_MAGIC, RING_V2_TAG.as_bytes()];
    if v2_tags.iter().any(|tag| body.starts_with(tag)) {
        return Err(CoreError::LayoutMismatch(
            "already v2; there is nothing to migrate".to_string(),
        ));
    }
    let text = std::str::from_utf8(body)
        .map_err(|_| CoreError::LayoutMismatch("neither v2 binary nor v1 text".to_string()))?;
    if text.starts_with("dar-engine v1 ") {
        let snap = parse_engine(text)?;
        Ok(("engine snapshot", engine_bytes(&snap, pool)?))
    } else if text.starts_with("dar-stream v1 ") {
        Ok(("ring snapshot", migrate_ring(text, pool)?))
    } else if text.starts_with("acf-clusters v1 ") {
        Ok(("cluster file", encode_clusters(&read_clusters(text, 1)?, pool)?))
    } else {
        let first = text.lines().next().unwrap_or("");
        Err(CoreError::LayoutMismatch(format!("not a v1 snapshot or cluster file: {first:?}")))
    }
}

fn engine_bytes(snap: &Snapshot, pool: &dar_par::ThreadPool) -> Result<Vec<u8>, CoreError> {
    write_snapshot_bytes(
        snap.epoch,
        snap.tuples,
        &snap.partitioning,
        &snap.thresholds,
        &snap.clusters,
        pool,
    )
}

/// Re-frames a v1 ring: the header carries over, and each line-counted
/// v1 window section becomes a byte-counted v2 one.
fn migrate_ring(text: &str, pool: &dar_par::ThreadPool) -> Result<Vec<u8>, CoreError> {
    let bad = |msg: String| CoreError::LayoutMismatch(msg);
    let mut lines = text.lines();
    let header = lines.next().unwrap_or("");
    let fields = header.strip_prefix("dar-stream v1 ").expect("routed on the v1 ring tag");
    let (header_fields, num_windows) =
        RingHeader::parse(fields, text.len().saturating_sub(header.len() + 1))?;
    let mut windows = Vec::with_capacity(num_windows);
    for i in 0..num_windows {
        let section = lines.next().ok_or_else(|| bad(format!("missing window section {i}")))?;
        let rest = section
            .strip_prefix("window ")
            .ok_or_else(|| bad(format!("expected window line, got {section:?}")))?;
        let seq: u64 = parse_field(rest, "seq=")?;
        let body_lines: usize = parse_field(rest, "lines=")?;
        let mut body = String::new();
        for _ in 0..body_lines {
            let l = lines
                .next()
                .ok_or_else(|| bad(format!("window {seq}: truncated embedded snapshot")))?;
            body.push_str(l);
            body.push('\n');
        }
        let snap = parse_engine(&body).map_err(|e| match e {
            CoreError::LayoutMismatch(msg) => bad(format!("window {seq}: {msg}")),
            other => other,
        })?;
        windows.push((seq, engine_bytes(&snap, pool)?));
    }
    Ok(write_ring_bytes(&header_fields, &windows))
}

/// Parses a v1 engine snapshot. Parse errors name the offending line,
/// counted from the start of the snapshot text.
fn parse_engine(text: &str) -> Result<Snapshot, CoreError> {
    let located = |line_no: usize, e: CoreError| match e {
        CoreError::LayoutMismatch(msg) => {
            CoreError::LayoutMismatch(format!("line {line_no}: {msg}"))
        }
        other => other,
    };
    let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l));
    let (_, header) =
        lines.next().ok_or_else(|| CoreError::LayoutMismatch("line 1: empty snapshot".into()))?;
    if !header.starts_with("dar-engine v1 ") {
        return Err(CoreError::LayoutMismatch(format!(
            "line 1: not a dar-engine v1 snapshot: {header:?}"
        )));
    }
    let epoch: u64 = parse_field(header, "epoch=").map_err(|e| located(1, e))?;
    let tuples: u64 = parse_field(header, "tuples=").map_err(|e| located(1, e))?;
    let num_sets: usize = parse_field(header, "sets=").map_err(|e| located(1, e))?;

    // No `with_capacity` by a count read off the input: a claimed count
    // the lines cannot back must not size an allocation.
    let mut sets = Vec::new();
    for expect in 0..num_sets {
        let (n, line) = lines.next().ok_or_else(|| {
            CoreError::LayoutMismatch(format!("line {}: missing set line", expect + 2))
        })?;
        let rest = line.strip_prefix("set ").ok_or_else(|| {
            CoreError::LayoutMismatch(format!("line {n}: expected set line, got {line:?}"))
        })?;
        let mut parts = rest.split_whitespace();
        let metric = parse_metric(parts.next().unwrap_or("")).map_err(|e| located(n, e))?;
        let attrs_csv = parts.next().ok_or_else(|| {
            CoreError::LayoutMismatch(format!("line {n}: set line missing attrs: {line:?}"))
        })?;
        let attrs: Vec<usize> = attrs_csv
            .split(',')
            .map(|t| {
                t.parse().map_err(|_| {
                    CoreError::LayoutMismatch(format!("line {n}: bad attribute id {t:?}"))
                })
            })
            .collect::<Result<_, _>>()?;
        sets.push(AttrSet { attrs, metric });
    }
    let partitioning = partitioning_of(sets)?;

    let (tn, t_line) = lines.next().ok_or_else(|| {
        CoreError::LayoutMismatch(format!("line {}: missing thresholds line", num_sets + 2))
    })?;
    let t_csv = t_line.strip_prefix("thresholds ").ok_or_else(|| {
        CoreError::LayoutMismatch(format!("line {tn}: expected thresholds line, got {t_line:?}"))
    })?;
    let thresholds: Vec<f64> = t_csv
        .split(',')
        .map(|t| {
            t.parse()
                .map_err(|_| CoreError::LayoutMismatch(format!("line {tn}: bad threshold {t:?}")))
        })
        .collect::<Result<_, _>>()?;
    if thresholds.len() != num_sets {
        return Err(CoreError::LayoutMismatch(format!(
            "line {tn}: snapshot has {} thresholds for {num_sets} sets",
            thresholds.len()
        )));
    }

    let body_start = text
        .find("acf-clusters v1")
        .ok_or_else(|| CoreError::LayoutMismatch("snapshot missing cluster body".into()))?;
    // Body errors get absolute line numbers within the snapshot text.
    let body_first_line = text[..body_start].matches('\n').count() + 1;
    let clusters = read_clusters(&text[body_start..], body_first_line)?;
    Ok(Snapshot { epoch, tuples, partitioning, thresholds, clusters })
}

/// Parses a v1 cluster body. Error line numbers start at `first_line`, so
/// a body embedded in an engine snapshot reports lines of the enclosing
/// text.
fn read_clusters(text: &str, first_line: usize) -> Result<Vec<ClusterSummary>, CoreError> {
    // `at` converts a 0-based index into `text` to the caller's line
    // numbering; errors from the keyed-field helpers get it prepended.
    let at = |idx: usize| idx + first_line;
    let located = |idx: usize, e: CoreError| match e {
        CoreError::LayoutMismatch(msg) => {
            CoreError::LayoutMismatch(format!("line {}: {msg}", at(idx)))
        }
        other => other,
    };
    let mut lines = text.lines().enumerate();
    let (_, header) = lines
        .next()
        .ok_or_else(|| CoreError::LayoutMismatch(format!("line {}: empty cluster file", at(0))))?;
    let num_sets: usize = field(header, "sets=")
        .and_then(|v| {
            v.parse().map_err(|_| CoreError::LayoutMismatch(format!("bad sets= field {v:?}")))
        })
        .map_err(|e| located(0, e))?;

    let mut out = Vec::new();
    // Clusters of one file share a layout; it is rebuilt only if the image
    // widths change.
    let mut layout: Option<AcfLayout> = None;
    while let Some((i, line)) = lines.next() {
        if line.trim().is_empty() {
            continue;
        }
        if !line.starts_with("cluster ") {
            return Err(CoreError::LayoutMismatch(format!(
                "line {}: expected cluster line, got {line:?}",
                at(i)
            )));
        }
        let id: u32 = parse_field(line, "id=").map_err(|e| located(i, e))?;
        let set: usize = parse_field(line, "set=").map_err(|e| located(i, e))?;
        let n: u64 = parse_field(line, "n=").map_err(|e| located(i, e))?;

        let (bi, bbox_line) = lines.next().ok_or_else(|| {
            CoreError::LayoutMismatch(format!("line {}: missing bbox line", at(i + 1)))
        })?;
        let nums: Vec<f64> = bbox_line
            .strip_prefix("bbox")
            .ok_or_else(|| {
                CoreError::LayoutMismatch(format!(
                    "line {}: expected bbox, got {bbox_line:?}",
                    at(bi)
                ))
            })?
            .split_whitespace()
            .map(|t| {
                t.parse::<f64>().map_err(|_| {
                    CoreError::LayoutMismatch(format!("line {}: bad bbox number {t:?}", at(bi)))
                })
            })
            .collect::<Result<_, _>>()?;
        if !nums.len().is_multiple_of(2) {
            return Err(CoreError::LayoutMismatch(format!(
                "line {}: bbox has an odd count of bounds",
                at(bi)
            )));
        }
        let intervals: Vec<Interval> =
            nums.chunks(2).map(|c| Interval { lo: c[0], hi: c[1] }).collect();
        let bbox = BoundingBox::from_intervals(intervals);

        let mut dims = Vec::new();
        let mut moments = Vec::new();
        for expect in 0..num_sets {
            let (ii, img) = lines.next().ok_or_else(|| {
                CoreError::LayoutMismatch(format!("line {}: missing image line", at(bi + 1)))
            })?;
            let rest = img.strip_prefix("image ").ok_or_else(|| {
                CoreError::LayoutMismatch(format!(
                    "line {}: expected image line, got {img:?}",
                    at(ii)
                ))
            })?;
            let s: usize =
                rest.split_whitespace().next().and_then(|t| t.parse().ok()).ok_or_else(|| {
                    CoreError::LayoutMismatch(format!("line {}: bad image set index", at(ii)))
                })?;
            if s != expect {
                return Err(CoreError::LayoutMismatch(format!(
                    "line {}: image set {s} out of order (expected {expect})",
                    at(ii)
                )));
            }
            let ls = field(rest, "ls=").and_then(parse_floats).map_err(|e| located(ii, e))?;
            let ss = field(rest, "ss=").and_then(parse_floats).map_err(|e| located(ii, e))?;
            if ls.len() != ss.len() {
                return Err(CoreError::LayoutMismatch(format!(
                    "line {}: LS has {} dims but SS has {}",
                    at(ii),
                    ls.len(),
                    ss.len()
                )));
            }
            dims.push(ls.len());
            moments.extend(ls);
            moments.extend(ss);
        }
        if !layout.as_ref().is_some_and(|l| l.dims().eq(dims.iter().copied())) {
            layout = Some(AcfLayout::new(dims));
        }
        let layout = layout.as_ref().expect("layout just set");
        let acf = Acf::from_moments(layout, set, n, moments, bbox)?;
        out.push(ClusterSummary { id: ClusterId(id), set, acf });
    }
    Ok(out)
}

fn parse_metric(name: &str) -> Result<Metric, CoreError> {
    match name {
        "euclidean" => Ok(Metric::Euclidean),
        "manhattan" => Ok(Metric::Manhattan),
        "chebyshev" => Ok(Metric::Chebyshev),
        "discrete" => Ok(Metric::Discrete),
        other => Err(CoreError::LayoutMismatch(format!("unknown metric {other:?}"))),
    }
}

/// Extracts the whitespace-terminated value of `key` inside `line`.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, CoreError> {
    let start = line
        .find(key)
        .ok_or_else(|| CoreError::LayoutMismatch(format!("missing {key} in {line:?}")))?
        + key.len();
    let rest = &line[start..];
    Ok(rest.split_whitespace().next().unwrap_or(rest))
}

fn parse_field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, CoreError> {
    field(line, key)?
        .parse()
        .map_err(|_| CoreError::LayoutMismatch(format!("bad {key} field in {line:?}")))
}

fn parse_floats(csv: &str) -> Result<Vec<f64>, CoreError> {
    if csv.is_empty() {
        return Ok(Vec::new());
    }
    csv.split(',')
        .map(|t| {
            t.parse::<f64>().map_err(|_| CoreError::LayoutMismatch(format!("bad float {t:?}")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-set v1 snapshot over dyadic rows, as the v1 writer laid it
    /// out: set 0 is attributes {0, 1} holding rows (1, 2, 0.5) and
    /// (1.5, 2.5, 0.25); set 1 is attribute 2 holding (-1, 3, 7).
    const ENGINE: &str = "dar-engine v1 epoch=7 tuples=1234 sets=2
set euclidean 0,1
set discrete 2
thresholds 0.125,3.5
acf-clusters v1 sets=2 dims=2,1
cluster id=0 set=0 n=2
bbox 1.0 1.5 2.0 2.5
image 0 ls=2.5,4.5 ss=3.25,10.25
image 1 ls=0.75 ss=0.3125
cluster id=1 set=1 n=1
bbox 7.0 7.0
image 0 ls=-1.0,3.0 ss=1.0,9.0
image 1 ls=7.0 ss=49.0
";

    fn sample_clusters() -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![2, 1]);
        let mut a = Acf::empty(&layout, 0);
        a.add_row(&[1.0, 2.0, 0.5]);
        a.add_row(&[1.5, 2.5, 0.25]);
        let mut b = Acf::empty(&layout, 1);
        b.add_row(&[-1.0, 3.0, 7.0]);
        vec![
            ClusterSummary { id: ClusterId(0), set: 0, acf: a },
            ClusterSummary { id: ClusterId(1), set: 1, acf: b },
        ]
    }

    fn cluster_body() -> &'static str {
        &ENGINE[ENGINE.find("acf-clusters").unwrap()..]
    }

    #[test]
    fn v1_engine_text_parses_every_field() {
        let snap = parse_engine(ENGINE).unwrap();
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.tuples, 1234);
        assert_eq!(snap.thresholds, vec![0.125, 3.5]);
        assert_eq!(snap.partitioning.num_sets(), 2);
        assert_eq!(snap.partitioning.set(0).attrs, vec![0, 1]);
        assert_eq!(snap.partitioning.set(0).metric, Metric::Euclidean);
        assert_eq!(snap.partitioning.set(1).metric, Metric::Discrete);
        assert_eq!(snap.clusters, sample_clusters());
        assert_eq!(read_clusters(cluster_body(), 1).unwrap(), sample_clusters());
    }

    #[test]
    fn malformed_v1_inputs_error_cleanly() {
        assert!(parse_engine("").is_err());
        assert!(parse_engine("acf-clusters v1 sets=0 dims=\n").is_err());
        assert!(parse_engine(&ENGINE.replace("thresholds", "thersholds")).is_err());
        assert!(parse_engine(&ENGINE.replace("euclidean", "euclidian")).is_err());
        assert!(parse_engine(&ENGINE[..ENGINE.find("acf-clusters").unwrap()]).is_err());
        assert!(read_clusters("", 1).is_err());
        assert!(read_clusters("acf-clusters v1 sets=x dims=", 1).is_err());
        let truncated: String = cluster_body().lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(read_clusters(&truncated, 1).is_err());
        assert!(read_clusters(&cluster_body().replace("ls=", "ls=oops,"), 1).is_err());
        assert!(read_clusters(&cluster_body().replace("bbox 7.0 7.0", "bbox 7.0"), 1).is_err());
        // An attribute id no listed set can cover is refused, not sized.
        let err = parse_engine(&ENGINE.replace("set discrete 2", "set discrete 4294967280"))
            .unwrap_err()
            .to_string();
        assert!(err.contains("4294967280"), "{err}");
    }

    #[test]
    fn parse_errors_name_the_offending_line() {
        // Header, 2 set lines, thresholds — thresholds is line 4.
        let err =
            parse_engine(&ENGINE.replace("thresholds ", "thresholds x,")).unwrap_err().to_string();
        assert!(err.contains("line 4"), "{err}");
        let err = parse_engine(&ENGINE.replace("euclidean", "euclidian")).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
        // Damage inside the cluster body reports the line within the
        // snapshot (the body starts on line 5), not within the body.
        let err = parse_engine(&ENGINE.replacen("cluster id=", "cluster xd=", 1))
            .unwrap_err()
            .to_string();
        assert!(err.contains("line 6"), "{err}");
        let err =
            read_clusters(&cluster_body().replace("ls=", "ls=oops,"), 1).unwrap_err().to_string();
        assert!(err.contains("line 4"), "{err}");
        let err = read_clusters("acf-clusters v1 sets=x dims=", 1).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn every_v1_kind_reframes_with_the_v2_writers() {
        let pool = dar_par::ThreadPool::serial();
        let (kind, bytes) = migrate_body(ENGINE.as_bytes(), &pool).unwrap();
        assert_eq!(kind, "engine snapshot");
        assert_eq!(bytes, engine_bytes(&parse_engine(ENGINE).unwrap(), &pool).unwrap());
        let (kind, bytes) = migrate_body(cluster_body().as_bytes(), &pool).unwrap();
        assert_eq!(kind, "cluster file");
        assert_eq!(bytes, encode_clusters(&sample_clusters(), &pool).unwrap());
        // Migrating the output again is refused: it is already v2.
        let err = migrate_body(&bytes, &pool).unwrap_err().to_string();
        assert!(err.contains("already v2"), "{err}");
        let err = migrate_body(b"hello\n", &pool).unwrap_err().to_string();
        assert!(err.contains("not a v1"), "{err}");
    }

    /// A v1 ring header claiming a trillion windows over one section line
    /// is refused before anything is sized by the claim, and `run` leaves
    /// no output behind.
    #[test]
    fn v1_ring_header_with_an_impossible_window_count_is_refused() {
        let oversized = "dar-stream v1 epoch=1 open_batches=0 policy=subtract window_batches=1 \
             slots=1 windows=1000000000000\nwindow seq=0 lines=0\n";
        let err = migrate_body(oversized.as_bytes(), &dar_par::ThreadPool::serial()).err();
        assert!(
            matches!(&err, Some(CoreError::LayoutMismatch(m)) if m.contains("1000000000000 windows")),
            "{err:?}"
        );
        let dir = dar_durable::storage::scratch_dir("cli_migrate_oversized");
        let (input, out) = (dir.join("oversized.snap"), dir.join("out.snap"));
        std::fs::write(&input, oversized).unwrap();
        let argv = ["--input", input.to_str().unwrap(), "--out", out.to_str().unwrap()];
        let err = run(&crate::args::parse(&argv.map(String::from)).unwrap()).unwrap_err();
        assert!(err.to_string().contains("1000000000000 windows"), "{err}");
        assert!(!out.exists(), "a refused migration must not create its output");
        std::fs::remove_dir_all(&dir).ok();
    }
}

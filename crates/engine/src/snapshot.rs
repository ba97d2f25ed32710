//! Epoch snapshot serialization: an engine header wrapped around the
//! `mining::persist` cluster body.
//!
//! Two formats. Writers emit the v2 binary layout; readers sniff the
//! leading bytes and accept both, so pre-v2 snapshot files stay
//! restorable.
//!
//! v1 text (read-only now):
//!
//! ```text
//! dar-engine v1 epoch=<u64> tuples=<u64> sets=<k>
//! set <metric> <attr,attr,…>     (one line per attribute set, in order)
//! thresholds <t,…>               (per-set tree thresholds at extraction)
//! acf-clusters v1 …              (the persist v1 body, verbatim)
//! ```
//!
//! v2 binary (all integers and floats little-endian):
//!
//! ```text
//! magic "DARS" | version u32=2 | epoch u64 | tuples u64 | num_sets u32
//! per set: metric u8 | attr_count u32 | attr u32 × attr_count
//! threshold f64 × num_sets
//! <mining::persist v2 cluster body, verbatim>   (ends with the 0x0A
//!                                                format terminator)
//! ```
//!
//! Both formats round-trip floats bit-exactly (v1 via shortest-roundtrip
//! text, v2 via raw IEEE-754 bytes), and both end with a newline byte so
//! the `dar-durable` seal footer never has to alter the body.

use dar_core::{AttrSet, ClusterSummary, CoreError, Metric, Partitioning, Schema};
use mining::persist::{decode_clusters, encode_clusters, read_clusters_at, write_clusters};
use std::fmt::Write as _;

/// The v2 binary engine-snapshot magic.
pub const V2_MAGIC: [u8; 4] = *b"DARS";

/// The v2 binary engine-snapshot version field.
pub const V2_VERSION: u32 = 2;

/// A parsed snapshot, ready to install into an engine. Public so the
/// sliding-window layer (`dar-stream`) can embed per-window engine
/// snapshots inside its own ring serialization, and so the cluster
/// coordinator can cache parsed shard snapshots across merges.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The epoch the snapshot captured.
    pub epoch: u64,
    /// Tuples the snapshotted engine had ingested.
    pub tuples: u64,
    /// The partitioning the engine mined under.
    pub partitioning: Partitioning,
    /// Per-set tree thresholds at extraction time.
    pub thresholds: Vec<f64>,
    /// The epoch's cluster summaries.
    pub clusters: Vec<ClusterSummary>,
}

fn metric_name(metric: Metric) -> &'static str {
    match metric {
        Metric::Euclidean => "euclidean",
        Metric::Manhattan => "manhattan",
        Metric::Chebyshev => "chebyshev",
        Metric::Discrete => "discrete",
    }
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

fn metric_code(metric: Metric) -> u8 {
    match metric {
        Metric::Euclidean => 0,
        Metric::Manhattan => 1,
        Metric::Chebyshev => 2,
        Metric::Discrete => 3,
    }
}

fn parse_metric_code(code: u8) -> Result<Metric, CoreError> {
    match code {
        0 => Ok(Metric::Euclidean),
        1 => Ok(Metric::Manhattan),
        2 => Ok(Metric::Chebyshev),
        3 => Ok(Metric::Discrete),
        other => Err(CoreError::LayoutMismatch(format!("unknown metric code {other}"))),
    }
}

/// Serializes one epoch to the v1 text format. Kept for migration
/// fixtures and tests; live writers use [`write_snapshot_bytes`].
///
/// # Errors
/// Propagates serialization failures from the cluster body writer.
pub fn write_snapshot(
    epoch: u64,
    tuples: u64,
    partitioning: &Partitioning,
    thresholds: &[f64],
    clusters: &[ClusterSummary],
) -> Result<String, CoreError> {
    let mut out =
        format!("dar-engine v1 epoch={epoch} tuples={tuples} sets={}\n", partitioning.num_sets());
    for set in partitioning.sets() {
        let attrs: Vec<String> = set.attrs.iter().map(|a| a.to_string()).collect();
        let _ = writeln!(out, "set {} {}", metric_name(set.metric), attrs.join(","));
    }
    let t: Vec<String> = thresholds.iter().map(|v| format!("{v:?}")).collect();
    let _ = writeln!(out, "thresholds {}", t.join(","));
    out.push_str(&write_clusters(clusters)?);
    Ok(out)
}

/// Parses a snapshot back. The schema is synthesized from the highest
/// attribute id the partitioning mentions (the snapshot stores no attribute
/// names; the engine only needs the id space). Parse errors name the
/// offending line, counted from the start of the snapshot text.
pub fn parse_snapshot(text: &str) -> Result<Snapshot, CoreError> {
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
    let epoch: u64 = header_field(header, "epoch=").map_err(|e| located(1, e))?;
    let tuples: u64 = header_field(header, "tuples=").map_err(|e| located(1, e))?;
    let num_sets: usize = header_field(header, "sets=").map_err(|e| located(1, e))?;

    let mut sets = Vec::with_capacity(num_sets);
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
    let max_attr = sets.iter().flat_map(|s| s.attrs.iter()).copied().max().map_or(0, |m| m + 1);
    let schema = Schema::interval_attrs(max_attr);
    let partitioning = Partitioning::new(&schema, sets)?;

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
    let clusters = read_clusters_at(&text[body_start..], body_first_line)?;
    Ok(Snapshot { epoch, tuples, partitioning, thresholds, clusters })
}

/// Serializes one epoch to the v2 binary format, fanning the cluster
/// body encode across `pool`. Output is byte-identical at any worker
/// count and always ends with the format's `0x0A` terminator.
///
/// # Errors
/// Propagates layout errors from the cluster body encoder.
pub fn write_snapshot_bytes(
    epoch: u64,
    tuples: u64,
    partitioning: &Partitioning,
    thresholds: &[f64],
    clusters: &[ClusterSummary],
    pool: &dar_par::ThreadPool,
) -> Result<Vec<u8>, CoreError> {
    let mut out = Vec::with_capacity(64 + 8 * thresholds.len());
    out.extend_from_slice(&V2_MAGIC);
    out.extend_from_slice(&V2_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&tuples.to_le_bytes());
    out.extend_from_slice(&(partitioning.num_sets() as u32).to_le_bytes());
    for set in partitioning.sets() {
        out.push(metric_code(set.metric));
        out.extend_from_slice(&(set.attrs.len() as u32).to_le_bytes());
        for &attr in &set.attrs {
            out.extend_from_slice(&(attr as u32).to_le_bytes());
        }
    }
    for &t in thresholds {
        out.extend_from_slice(&t.to_le_bytes());
    }
    out.extend_from_slice(&encode_clusters(clusters, pool)?);
    Ok(out)
}

/// Parses a snapshot body of either format: bytes opening with
/// [`V2_MAGIC`] take the binary path (cluster records fanned across
/// `pool`); anything else must be UTF-8 and parses as v1 text. The input
/// is the *body* — callers holding a sealed blob unseal first.
pub fn parse_snapshot_bytes(
    bytes: &[u8],
    pool: &dar_par::ThreadPool,
) -> Result<Snapshot, CoreError> {
    if !bytes.starts_with(&V2_MAGIC) {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            CoreError::LayoutMismatch(
                "snapshot bytes are neither dar-engine v2 binary nor UTF-8 text".to_string(),
            )
        })?;
        return parse_snapshot(text);
    }
    let mut cur = ByteCursor { bytes, pos: V2_MAGIC.len() };
    let version = cur.u32("version")?;
    if version != V2_VERSION {
        return Err(CoreError::LayoutMismatch(format!(
            "unsupported dar-engine binary version {version}"
        )));
    }
    let epoch = cur.u64("epoch")?;
    let tuples = cur.u64("tuples")?;
    let num_sets = cur.u32("sets")? as usize;
    if num_sets > cur.rest() / 8 {
        return Err(CoreError::LayoutMismatch(format!(
            "byte {}: set count {num_sets} exceeds what {} remaining bytes can hold",
            cur.pos,
            cur.rest()
        )));
    }
    let mut sets = Vec::with_capacity(num_sets);
    for s in 0..num_sets {
        let metric = parse_metric_code(cur.u8(&format!("set[{s}] metric"))?)?;
        let attr_count = cur.u32(&format!("set[{s}] attr count"))? as usize;
        if attr_count > cur.rest() / 4 {
            return Err(CoreError::LayoutMismatch(format!(
                "byte {}: set {s} attr count {attr_count} exceeds what {} remaining bytes can hold",
                cur.pos,
                cur.rest()
            )));
        }
        let mut attrs = Vec::with_capacity(attr_count);
        for a in 0..attr_count {
            attrs.push(cur.u32(&format!("set[{s}] attr[{a}]"))? as usize);
        }
        sets.push(AttrSet { attrs, metric });
    }
    let max_attr = sets.iter().flat_map(|s| s.attrs.iter()).copied().max().map_or(0, |m| m + 1);
    let schema = Schema::interval_attrs(max_attr);
    let partitioning = Partitioning::new(&schema, sets)?;
    let mut thresholds = Vec::with_capacity(num_sets);
    for s in 0..num_sets {
        thresholds.push(cur.f64(&format!("threshold[{s}]"))?);
    }
    let clusters = decode_clusters(&bytes[cur.pos..], pool)?;
    Ok(Snapshot { epoch, tuples, partitioning, thresholds, clusters })
}

/// A bounds-checked little-endian reader over the v2 header; errors name
/// the byte offset and the field being read.
struct ByteCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl ByteCursor<'_> {
    fn rest(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&[u8], CoreError> {
        if self.rest() < n {
            return Err(CoreError::LayoutMismatch(format!(
                "byte {}: truncated reading {what} ({} bytes left, {n} needed)",
                self.pos,
                self.rest()
            )));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self, what: &str) -> Result<u8, CoreError> {
        Ok(self.take(1, what)?[0])
    }

    fn u32(&mut self, what: &str) -> Result<u32, CoreError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    fn u64(&mut self, what: &str) -> Result<u64, CoreError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CoreError> {
        Ok(f64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }
}

fn header_field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, CoreError> {
    let start = line
        .find(key)
        .ok_or_else(|| CoreError::LayoutMismatch(format!("missing {key} in {line:?}")))?
        + key.len();
    line[start..]
        .split_whitespace()
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| CoreError::LayoutMismatch(format!("bad {key} field in {line:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dar_core::{Acf, AcfLayout, ClusterId};

    fn sample() -> (Partitioning, Vec<ClusterSummary>) {
        let schema = Schema::interval_attrs(3);
        let partitioning = Partitioning::new(
            &schema,
            vec![
                AttrSet { attrs: vec![0, 1], metric: Metric::Euclidean },
                AttrSet { attrs: vec![2], metric: Metric::Discrete },
            ],
        )
        .unwrap();
        let layout = AcfLayout::new(vec![2, 1]);
        let mut a = Acf::empty(&layout, 0);
        a.add_row(&[1.0, 2.0, 0.5]);
        a.add_row(&[1.1, 2.2, 0.25]);
        let mut b = Acf::empty(&layout, 1);
        b.add_row(&[-1.0, 3.0, 7.0]);
        let clusters = vec![
            ClusterSummary { id: ClusterId(0), set: 0, acf: a },
            ClusterSummary { id: ClusterId(1), set: 1, acf: b },
        ];
        (partitioning, clusters)
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let (partitioning, clusters) = sample();
        let text = write_snapshot(7, 1234, &partitioning, &[0.125, 3.5], &clusters).unwrap();
        let snap = parse_snapshot(&text).unwrap();
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.tuples, 1234);
        assert_eq!(snap.thresholds, vec![0.125, 3.5]);
        assert_eq!(snap.partitioning.num_sets(), 2);
        assert_eq!(snap.partitioning.set(0).attrs, vec![0, 1]);
        assert_eq!(snap.partitioning.set(0).metric, Metric::Euclidean);
        assert_eq!(snap.partitioning.set(1).metric, Metric::Discrete);
        assert_eq!(snap.clusters, clusters);
    }

    #[test]
    fn empty_epoch_roundtrips() {
        let (partitioning, _) = sample();
        let text = write_snapshot(1, 0, &partitioning, &[1.0, 1.0], &[]).unwrap();
        let snap = parse_snapshot(&text).unwrap();
        assert!(snap.clusters.is_empty());
        assert_eq!(snap.tuples, 0);
    }

    #[test]
    fn v2_roundtrip_preserves_everything() {
        let (partitioning, clusters) = sample();
        let pool = dar_par::ThreadPool::serial();
        let bytes =
            write_snapshot_bytes(7, 1234, &partitioning, &[0.125, 3.5], &clusters, &pool).unwrap();
        assert!(bytes.starts_with(&V2_MAGIC));
        assert_eq!(bytes.last(), Some(&b'\n'), "v2 bodies end with the format terminator");
        let snap = parse_snapshot_bytes(&bytes, &pool).unwrap();
        assert_eq!(snap.epoch, 7);
        assert_eq!(snap.tuples, 1234);
        assert_eq!(snap.thresholds, vec![0.125, 3.5]);
        assert_eq!(snap.partitioning, partitioning);
        assert_eq!(snap.clusters, clusters);
        // Byte-identical at any worker count.
        for workers in [2, 4, 8] {
            let wide = dar_par::ThreadPool::new(workers);
            let again =
                write_snapshot_bytes(7, 1234, &partitioning, &[0.125, 3.5], &clusters, &wide)
                    .unwrap();
            assert_eq!(again, bytes, "workers={workers}");
        }
    }

    #[test]
    fn v2_parser_sniffs_v1_text() {
        let (partitioning, clusters) = sample();
        let pool = dar_par::ThreadPool::serial();
        let text = write_snapshot(3, 99, &partitioning, &[1.0, 2.0], &clusters).unwrap();
        let snap = parse_snapshot_bytes(text.as_bytes(), &pool).unwrap();
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.tuples, 99);
        assert_eq!(snap.clusters, clusters);
    }

    #[test]
    fn v2_truncation_and_damage_are_rejected() {
        let (partitioning, clusters) = sample();
        let pool = dar_par::ThreadPool::serial();
        let bytes =
            write_snapshot_bytes(1, 10, &partitioning, &[1.0, 1.0], &clusters, &pool).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                parse_snapshot_bytes(&bytes[..cut], &pool).is_err(),
                "prefix of {cut} bytes must not parse"
            );
        }
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        let err = parse_snapshot_bytes(&bad_version, &pool).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");
        let mut bad_metric = bytes.clone();
        bad_metric[28] = 200; // first set's metric code
        assert!(parse_snapshot_bytes(&bad_metric, &pool).is_err());
        // Non-UTF-8 bytes with the wrong magic are neither format.
        let err = parse_snapshot_bytes(&[0xFF, 0xFE, 0x00, 0x01], &pool).unwrap_err().to_string();
        assert!(err.contains("neither"), "{err}");
    }

    #[test]
    fn malformed_snapshots_error_cleanly() {
        assert!(parse_snapshot("").is_err());
        assert!(parse_snapshot("acf-clusters v1 sets=0 dims=\n").is_err());
        let (partitioning, clusters) = sample();
        let good = write_snapshot(1, 10, &partitioning, &[1.0, 1.0], &clusters).unwrap();
        assert!(parse_snapshot(&good.replace("thresholds", "thersholds")).is_err());
        assert!(parse_snapshot(&good.replace("euclidean", "euclidian")).is_err());
        // Drop the cluster body.
        let headless = good[..good.find("acf-clusters").unwrap()].to_string();
        assert!(parse_snapshot(&headless).is_err());
    }

    #[test]
    fn parse_errors_name_the_offending_line() {
        let (partitioning, clusters) = sample();
        let good = write_snapshot(1, 10, &partitioning, &[1.0, 1.0], &clusters).unwrap();
        // Layout: header, 2 set lines, thresholds — thresholds is line 4.
        let err =
            parse_snapshot(&good.replace("thresholds ", "thresholds x,")).unwrap_err().to_string();
        assert!(err.contains("line 4"), "{err}");
        // Damage inside the cluster body reports the absolute line number
        // within the snapshot, not within the embedded body.
        let body_header_line = good.lines().position(|l| l.starts_with("acf-clusters")).unwrap();
        let err = parse_snapshot(&good.replacen("cluster id=", "cluster xd=", 1))
            .unwrap_err()
            .to_string();
        assert!(err.contains(&format!("line {}", body_header_line + 2)), "{err}");
        let err = parse_snapshot(&good.replace("euclidean", "euclidian")).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
    }
}

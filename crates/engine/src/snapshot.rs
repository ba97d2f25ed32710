//! Snapshot serialization: the engine header wrapped around the
//! `mining::persist` cluster body, and the ring layout that frames one
//! such body per live window.
//!
//! The engine format is binary, all integers and floats little-endian:
//!
//! ```text
//! magic "DARS" | version u32=2 | epoch u64 | tuples u64 | num_sets u32
//! per set: metric u8 | attr_count u32 | attr u32 × attr_count
//! threshold f64 × num_sets
//! <mining::persist v2 cluster body, verbatim>   (ends with the 0x0A
//!                                                format terminator)
//! ```
//!
//! Floats round-trip bit-exactly as raw IEEE-754 bytes, and the body ends
//! with a newline byte so the `dar-durable` seal footer never has to alter
//! it. A windowed engine's ring snapshot is a text header line framing one
//! engine body per live window, oldest first, the open window last:
//!
//! ```text
//! dar-stream v2 epoch=<e> open_batches=<b> policy=remerge window_batches=<W> slots=<S> windows=<k>
//! window seq=<s> bytes=<B>
//! <B bytes of engine body, epoch=<s> tuples=<window tuples>>
//! …
//! ```
//!
//! A window's section holds that window's column of every entry and
//! outlier, per set in tree order, under the forest's thresholds. The
//! `policy=` field is always `remerge`: rings once chose between two
//! retirement policies, and readers still accept either name. Snapshots
//! written before these formats (`dar-engine v1` and `dar-stream v1`
//! text) are refused with [`MIGRATE_HINT`]; `dar migrate` converts them
//! once.

use dar_core::{AttrSet, ClusterSummary, CoreError, Metric, Partitioning, Schema};
use dar_stream::WindowSpec;
use mining::persist::{decode_clusters, encode_clusters, MIGRATE_HINT};

/// The v2 binary engine-snapshot magic.
pub const V2_MAGIC: [u8; 4] = *b"DARS";

/// The v2 binary engine-snapshot version field.
pub const V2_VERSION: u32 = 2;

/// A parsed snapshot, ready to install into an engine. Public so the
/// cluster coordinator can cache parsed shard snapshots across merges.
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

/// Validates the attribute sets a snapshot lists and builds their
/// partitioning. The schema is synthesized from the listed ids (snapshots
/// store no attribute names; the engine only needs the id space). Every
/// partitioning a writer emits covers attributes `0..n` where `n` is the
/// number of ids it lists, so an id at or past `n` marks a damaged or
/// foreign file — and refusing it keeps the synthesized schema no larger
/// than the input, whatever id the bytes claim.
///
/// # Errors
/// An id outside `0..n`, an id a set repeats, or sets that are empty or
/// overlap.
pub fn partitioning_of(sets: Vec<AttrSet>) -> Result<Partitioning, CoreError> {
    let listed: usize = sets.iter().map(|s| s.attrs.len()).sum();
    if let Some(&id) = sets.iter().flat_map(|s| &s.attrs).find(|&&id| id >= listed) {
        return Err(CoreError::LayoutMismatch(format!(
            "attribute id {id} is outside the {listed} attributes the snapshot lists"
        )));
    }
    let partitioning = Partitioning::new(&Schema::interval_attrs(listed), sets)?;
    // `Partitioning::new` drops an id a set repeats; a writer never
    // repeats one, and accepting it would not re-encode to the same bytes.
    if partitioning.total_dims() != listed {
        return Err(CoreError::LayoutMismatch("a set lists an attribute id twice".into()));
    }
    Ok(partitioning)
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

/// Parses a v2 snapshot body, fanning cluster-record decode across
/// `pool`. Bytes that do not open with [`V2_MAGIC`] are refused with
/// [`MIGRATE_HINT`]. The input is the *body* — callers holding a sealed
/// blob unseal first.
pub fn parse_snapshot_bytes(
    bytes: &[u8],
    pool: &dar_par::ThreadPool,
) -> Result<Snapshot, CoreError> {
    if !bytes.starts_with(&V2_MAGIC) {
        return Err(CoreError::LayoutMismatch(format!(
            "not a dar-engine v2 snapshot (it opens with {:?}); {MIGRATE_HINT}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(16)])
        )));
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
    let partitioning = partitioning_of(sets)?;
    let mut thresholds = Vec::with_capacity(num_sets);
    for s in 0..num_sets {
        thresholds.push(cur.f64(&format!("threshold[{s}]"))?);
    }
    let clusters = decode_clusters(&bytes[cur.pos..], pool)?;
    Ok(Snapshot { epoch, tuples, partitioning, thresholds, clusters })
}

/// The version tag that opens every ring snapshot.
pub const RING_V2_TAG: &str = "dar-stream v2 ";

/// The `policy=` value every ring header carries. Rings once retired by
/// re-merge or by CF subtraction and named the policy here; there is one
/// retirement now, and readers accept either old name.
const RING_POLICY: &str = "remerge";

/// The shortest window section: its `window seq=…` line alone.
const MIN_SECTION_BYTES: usize = "window seq=0\n".len();

/// The header line of a ring snapshot: the ring's state apart from its
/// windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingHeader {
    /// The engine epoch at snapshot time.
    pub epoch: u64,
    /// Non-empty batches already in the open window.
    pub open_batches: u64,
    /// The window geometry as written (restore reads a zero as one).
    pub spec: WindowSpec,
}

impl RingHeader {
    /// Parses the `key=value` fields that follow a ring header's version
    /// tag, before `rest` bytes of window sections. Returns the header and
    /// its window count.
    ///
    /// # Errors
    /// A missing or malformed field, a `policy=` other than `remerge` or
    /// `subtract`, zero windows, or a window count the
    /// `rest` bytes cannot hold (each section needs at least its
    /// `window seq=…` line), refused before anything is sized by it.
    pub fn parse(fields: &str, rest: usize) -> Result<(RingHeader, usize), CoreError> {
        let bad = |msg: String| CoreError::LayoutMismatch(msg);
        let policy = field(fields, "policy=")?;
        if !matches!(policy, "remerge" | "subtract") {
            return Err(bad(format!("unknown retire policy {policy:?}")));
        }
        let header = RingHeader {
            epoch: number(fields, "epoch=")?,
            open_batches: number(fields, "open_batches=")?,
            spec: WindowSpec {
                batches: number(fields, "window_batches=")?,
                slots: number(fields, "slots=")? as usize,
            },
        };
        let num_windows = number(fields, "windows=")? as usize;
        if num_windows == 0 {
            return Err(bad("dar-stream snapshot with zero windows".into()));
        }
        if num_windows > rest / MIN_SECTION_BYTES {
            return Err(bad(format!(
                "dar-stream header claims {num_windows} windows but only {rest} bytes follow"
            )));
        }
        Ok((header, num_windows))
    }
}

/// Frames per-window engine snapshot bodies, oldest first as `(seq,
/// body)`, under a ring header — the one writer of the ring layout.
pub fn write_ring_bytes(header: &RingHeader, windows: &[(u64, Vec<u8>)]) -> Vec<u8> {
    let mut out = format!(
        "{RING_V2_TAG}epoch={} open_batches={} policy={RING_POLICY} window_batches={} slots={} \
         windows={}\n",
        header.epoch,
        header.open_batches,
        header.spec.batches,
        header.spec.slots,
        windows.len(),
    )
    .into_bytes();
    for (seq, body) in windows {
        out.extend_from_slice(format!("window seq={seq} bytes={}\n", body.len()).as_bytes());
        out.extend_from_slice(body);
    }
    out
}

/// Parses a ring snapshot body that opens with [`RING_V2_TAG`] into its
/// header and its window sections, oldest first, each fanned across
/// `pool` as [`parse_snapshot_bytes`] does.
///
/// # Errors
/// A malformed header or section line, a truncated or malformed embedded
/// body, sections whose seq does not match their body's epoch or is not
/// increasing, and bytes after the last section.
pub(crate) fn parse_ring_bytes(
    bytes: &[u8],
    pool: &dar_par::ThreadPool,
) -> Result<(RingHeader, Vec<Snapshot>), CoreError> {
    let bad = |msg: String| CoreError::LayoutMismatch(msg);
    let line_end = |from: usize| -> Result<usize, CoreError> {
        bytes[from..]
            .iter()
            .position(|&b| b == b'\n')
            .map(|p| from + p)
            .ok_or_else(|| bad("dar-stream snapshot truncated mid-line".into()))
    };
    let header_end = line_end(0)?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| bad("dar-stream header is not UTF-8".into()))?;
    let fields = header
        .strip_prefix(RING_V2_TAG)
        .ok_or_else(|| bad(format!("not a dar-stream v2 ring snapshot; {MIGRATE_HINT}")))?;
    let (header, num_windows) = RingHeader::parse(fields, bytes.len() - header_end - 1)?;
    let mut pos = header_end + 1;
    let mut snaps: Vec<Snapshot> = Vec::with_capacity(num_windows);
    for i in 0..num_windows {
        if pos >= bytes.len() {
            return Err(bad(format!("missing window section {i}")));
        }
        let section_end = line_end(pos)?;
        let section = std::str::from_utf8(&bytes[pos..section_end])
            .map_err(|_| bad(format!("window section {i} is not UTF-8")))?;
        let seq = section_field(section, "seq=")?;
        let body_bytes = section_field(section, "bytes=")? as usize;
        pos = section_end + 1;
        if bytes.len() - pos < body_bytes {
            return Err(bad(format!("window {seq}: truncated embedded snapshot")));
        }
        let snap = parse_snapshot_bytes(&bytes[pos..pos + body_bytes], pool)?;
        if snap.epoch != seq || snaps.last().is_some_and(|prev| prev.epoch >= seq) {
            return Err(bad(format!(
                "window section {i}: seq {seq} does not match its body's epoch {} \
                 or does not follow the previous section's",
                snap.epoch
            )));
        }
        snaps.push(snap);
        pos += body_bytes;
    }
    if pos != bytes.len() {
        return Err(bad(format!(
            "{} unexpected bytes after the last window section",
            bytes.len() - pos
        )));
    }
    Ok((header, snaps))
}

/// The number after `key` in a `window …` section line.
fn section_field(section: &str, key: &str) -> Result<u64, CoreError> {
    let rest = section.strip_prefix("window ").ok_or_else(|| {
        CoreError::LayoutMismatch(format!("expected window line, got {section:?}"))
    })?;
    number(rest, key)
}

/// The whitespace-terminated value after `key` in a header or section
/// line.
fn field<'a>(line: &'a str, key: &str) -> Result<&'a str, CoreError> {
    let start = line
        .find(key)
        .ok_or_else(|| CoreError::LayoutMismatch(format!("missing {key} in {line:?}")))?
        + key.len();
    Ok(line[start..].split_whitespace().next().unwrap_or(""))
}

fn number(line: &str, key: &str) -> Result<u64, CoreError> {
    field(line, key)?
        .parse()
        .map_err(|_| CoreError::LayoutMismatch(format!("bad {key} field in {line:?}")))
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
    fn empty_epoch_roundtrips() {
        let (partitioning, _) = sample();
        let pool = dar_par::ThreadPool::serial();
        let bytes = write_snapshot_bytes(1, 0, &partitioning, &[1.0, 1.0], &[], &pool).unwrap();
        let snap = parse_snapshot_bytes(&bytes, &pool).unwrap();
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
        // Anything without the magic — pre-v2 text or noise — is refused
        // with the way to convert it.
        for old in [&b"dar-engine v1 epoch=1 tuples=0 sets=0\n"[..], &[0xFF, 0xFE, 0x00, 0x01]] {
            let err = parse_snapshot_bytes(old, &pool).unwrap_err().to_string();
            assert!(err.contains("dar migrate"), "{err}");
        }
    }

    /// A 70-byte snapshot whose one attribute id is `0xFFFF_FFF0`, over an
    /// empty one-set cluster body: sizing the schema by that id would ask
    /// for a 128 GiB allocation and abort the process.
    #[test]
    fn an_attribute_id_past_the_listed_count_is_refused() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"DARS");
        bytes.extend_from_slice(&2u32.to_le_bytes()); // version
        bytes.extend_from_slice(&0u64.to_le_bytes()); // epoch
        bytes.extend_from_slice(&0u64.to_le_bytes()); // tuples
        bytes.extend_from_slice(&1u32.to_le_bytes()); // sets
        bytes.push(0); // euclidean
        bytes.extend_from_slice(&1u32.to_le_bytes()); // attr count
        bytes.extend_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
        bytes.extend_from_slice(&1.0f64.to_le_bytes()); // threshold
        bytes.extend_from_slice(b"DACF");
        bytes.extend_from_slice(&2u32.to_le_bytes()); // version
        bytes.extend_from_slice(&1u32.to_le_bytes()); // sets
        bytes.extend_from_slice(&1u32.to_le_bytes()); // dims[0]
        bytes.extend_from_slice(&0u64.to_le_bytes()); // count
        bytes.push(b'\n');
        assert_eq!(bytes.len(), 70);
        let err = parse_snapshot_bytes(&bytes, &dar_par::ThreadPool::serial()).err();
        assert!(
            matches!(&err, Some(CoreError::LayoutMismatch(m)) if m.contains("4294967280")),
            "{err:?}"
        );
        // The same bytes with the id in range parse.
        bytes[33..37].copy_from_slice(&0u32.to_le_bytes());
        assert!(parse_snapshot_bytes(&bytes, &dar_par::ThreadPool::serial()).is_ok());
    }
}

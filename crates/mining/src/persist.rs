//! Cluster-summary persistence: save Phase I output, re-run Phase II later.
//!
//! The whole point of ACFs is that Phase II needs *only* the summaries
//! (Theorem 6.1). Persisting them separates the expensive single data scan
//! from the cheap, re-tunable rule search — mine once, then sweep density
//! and degree thresholds offline without touching the data again.
//!
//! Two formats share one reader ([`decode_clusters`] sniffs the first
//! bytes):
//!
//! **v2 (binary, the writer)** — a length-prefixed little-endian record
//! stream. All writers emit v2; floats travel as raw `f64` bits, so a
//! save/load cycle is exact and costs no formatting:
//!
//! ```text
//! magic "DACF" | version u32=2 | sets u32 | dims u32×sets | count u64
//! per cluster: len u32 | id u32 | set u32 | n u64
//!              | bbox_n u32 | (lo f64, hi f64)×bbox_n
//!              | per set: ls f64×dims[s], ss f64×dims[s]
//! terminator 0x0A
//! ```
//!
//! The per-record length prefix lets the reader scan record spans without
//! decoding, so encode *and* decode fan records across the `dar-par` pool
//! in input order — output is byte-identical at any worker count. The
//! trailing newline keeps the `dar-durable` checksum footer on its own
//! line, unchanged from v1 sealing.
//!
//! **v1 (text, read compat)** — the original line-oriented format with
//! shortest-roundtrip float formatting. [`write_clusters`] is retained
//! for fixtures and migration tests; snapshots written before v2 shipped
//! keep restoring:
//!
//! ```text
//! acf-clusters v1 sets=<k> dims=<d0,d1,…>
//! cluster id=<u32> set=<usize> n=<u64>
//! bbox <lo> <hi> [<lo> <hi> …]
//! image <set> ls=<v,…> ss=<v,…>
//! (one image line per set, then the next cluster)
//! ```

use dar_core::{Acf, AcfLayout, BoundingBox, ClusterId, ClusterSummary, CoreError, Interval};
use std::fmt::Write as _;

/// The first four bytes of every v2 binary cluster body.
pub const V2_MAGIC: [u8; 4] = *b"DACF";
/// The format version the v2 header carries.
pub const V2_VERSION: u32 = 2;
/// Records per pool task when encoding/decoding v2 bodies.
const RECORD_CHUNK: usize = 64;

/// Serializes cluster summaries (all sharing one layout) to the text
/// format. Returns an error if the clusters disagree on the number of
/// sets.
pub fn write_clusters(clusters: &[ClusterSummary]) -> Result<String, CoreError> {
    let Some(first) = clusters.first() else {
        return Ok("acf-clusters v1 sets=0 dims=\n".to_string());
    };
    let num_sets = first.acf.num_sets();
    let dims: Vec<String> = (0..num_sets).map(|s| first.acf.image(s).dims().to_string()).collect();
    let mut out = format!("acf-clusters v1 sets={num_sets} dims={}\n", dims.join(","));
    for c in clusters {
        if c.acf.num_sets() != num_sets {
            return Err(CoreError::LayoutMismatch(format!(
                "cluster {} has {} sets, expected {num_sets}",
                c.id,
                c.acf.num_sets()
            )));
        }
        let _ = writeln!(out, "cluster id={} set={} n={}", c.id.0, c.set, c.support());
        let _ = write!(out, "bbox");
        for iv in c.bbox().intervals() {
            let _ = write!(out, " {:?} {:?}", iv.lo, iv.hi);
        }
        out.push('\n');
        for s in 0..num_sets {
            let cf = c.acf.image(s);
            let ls: Vec<String> = cf.linear_sum().iter().map(|v| format!("{v:?}")).collect();
            let ss: Vec<String> = cf.square_sum().iter().map(|v| format!("{v:?}")).collect();
            let _ = writeln!(out, "image {s} ls={} ss={}", ls.join(","), ss.join(","));
        }
    }
    Ok(out)
}

/// Parses the text format back into cluster summaries. Sealed files (a
/// trailing `dar-durable` checksum footer) are verified and unsealed
/// first; unsealed files parse as before. Parse errors name the offending
/// line (1-based within `text`).
pub fn read_clusters(text: &str) -> Result<Vec<ClusterSummary>, CoreError> {
    read_clusters_at(text, 1)
}

/// Like [`read_clusters`], but error line numbers start at `first_line` —
/// for callers embedding the cluster body inside a larger file (the
/// engine snapshot format), so errors point into the enclosing file.
pub fn read_clusters_at(text: &str, first_line: usize) -> Result<Vec<ClusterSummary>, CoreError> {
    let body = dar_durable::unseal_bytes(text.as_bytes())
        .map_err(|detail| CoreError::LayoutMismatch(format!("cluster file footer: {detail}")))?
        .0;
    let body = std::str::from_utf8(body).expect("prefix of a str ending at a newline");
    // `at` converts a 0-based index into `body` to the caller's line
    // numbering; errors from the keyed-field helpers get it prepended.
    let at = |idx: usize| idx + first_line;
    let located = |idx: usize, e: CoreError| match e {
        CoreError::LayoutMismatch(msg) => {
            CoreError::LayoutMismatch(format!("line {}: {msg}", at(idx)))
        }
        other => other,
    };
    let mut lines = body.lines().enumerate();
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
        let intervals: Vec<Interval> =
            nums.chunks(2).map(|c| Interval { lo: c[0], hi: c[1] }).collect();
        let bbox = BoundingBox::from_intervals(intervals);

        let mut dims = Vec::with_capacity(num_sets);
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

/// Serializes cluster summaries to the v2 binary format, fanning record
/// encoding across `pool` (records concatenate in input order, so the
/// output is byte-identical at any worker count). Returns an error if the
/// clusters disagree on the set/dimension layout.
pub fn encode_clusters(
    clusters: &[ClusterSummary],
    pool: &dar_par::ThreadPool,
) -> Result<Vec<u8>, CoreError> {
    let (num_sets, dims) = match clusters.first() {
        Some(first) => {
            let k = first.acf.num_sets();
            (k, (0..k).map(|s| first.acf.image(s).dims()).collect::<Vec<usize>>())
        }
        None => (0, Vec::new()),
    };
    for c in clusters {
        if c.acf.num_sets() != num_sets {
            return Err(CoreError::LayoutMismatch(format!(
                "cluster {} has {} sets, expected {num_sets}",
                c.id,
                c.acf.num_sets()
            )));
        }
        for (s, &d) in dims.iter().enumerate() {
            if c.acf.image(s).dims() != d {
                return Err(CoreError::LayoutMismatch(format!(
                    "cluster {} set {s} has {} dims, expected {d}",
                    c.id,
                    c.acf.image(s).dims()
                )));
            }
        }
    }
    // Fixed per-record payload given the shared layout; the bbox interval
    // count still varies (empty ACFs have no box), hence the length prefix.
    let moments = 16 * dims.iter().sum::<usize>();
    let mut out = Vec::with_capacity(24 + 4 * num_sets + clusters.len() * (36 + moments));
    out.extend_from_slice(&V2_MAGIC);
    out.extend_from_slice(&V2_VERSION.to_le_bytes());
    out.extend_from_slice(&(num_sets as u32).to_le_bytes());
    for &d in &dims {
        out.extend_from_slice(&(d as u32).to_le_bytes());
    }
    out.extend_from_slice(&(clusters.len() as u64).to_le_bytes());
    let records = pool.map_indexed("persist_encode", clusters.len(), RECORD_CHUNK, |i| {
        encode_record(&clusters[i])
    });
    for record in &records {
        out.extend_from_slice(record);
    }
    out.push(b'\n');
    Ok(out)
}

fn encode_record(c: &ClusterSummary) -> Vec<u8> {
    let bbox = c.bbox().intervals();
    let num_sets = c.acf.num_sets();
    let dims: usize = (0..num_sets).map(|s| c.acf.image(s).dims()).sum();
    let len = 20 + 16 * bbox.len() + 16 * dims;
    let mut rec = Vec::with_capacity(4 + len);
    rec.extend_from_slice(&(len as u32).to_le_bytes());
    rec.extend_from_slice(&c.id.0.to_le_bytes());
    rec.extend_from_slice(&(c.set as u32).to_le_bytes());
    rec.extend_from_slice(&c.support().to_le_bytes());
    rec.extend_from_slice(&(bbox.len() as u32).to_le_bytes());
    for iv in bbox {
        rec.extend_from_slice(&iv.lo.to_le_bytes());
        rec.extend_from_slice(&iv.hi.to_le_bytes());
    }
    for s in 0..num_sets {
        let image = c.acf.image(s);
        for v in image.linear_sum().iter().chain(image.square_sum()) {
            rec.extend_from_slice(&v.to_le_bytes());
        }
    }
    debug_assert_eq!(rec.len(), 4 + len);
    rec
}

/// Parses a cluster body of either format: bytes opening with the
/// [`V2_MAGIC`] decode as v2 binary (records fanned across `pool`);
/// anything else must be UTF-8 and takes the v1 text path of
/// [`read_clusters`] (which also accepts sealed text files). The input is
/// the *body* — callers holding a `dar-durable`-sealed blob unseal first.
pub fn decode_clusters(
    bytes: &[u8],
    pool: &dar_par::ThreadPool,
) -> Result<Vec<ClusterSummary>, CoreError> {
    if !bytes.starts_with(&V2_MAGIC) {
        let text = std::str::from_utf8(bytes).map_err(|_| {
            CoreError::LayoutMismatch(
                "cluster bytes are neither v2 binary nor UTF-8 text".to_string(),
            )
        })?;
        return read_clusters(text);
    }
    let mut cur = Cursor { bytes, pos: V2_MAGIC.len() };
    let version = cur.u32("version")?;
    if version != V2_VERSION {
        return Err(CoreError::LayoutMismatch(format!(
            "unsupported acf-clusters binary version {version}"
        )));
    }
    let num_sets = cur.u32("sets")? as usize;
    if num_sets > cur.rest().len() / 4 {
        return Err(CoreError::LayoutMismatch(format!(
            "byte {}: set count {num_sets} exceeds what {} remaining bytes can hold",
            cur.pos,
            cur.rest().len()
        )));
    }
    let mut dims = Vec::with_capacity(num_sets);
    for s in 0..num_sets {
        dims.push(cur.u32(&format!("dims[{s}]"))? as usize);
    }
    let layout = AcfLayout::new(dims);
    let count = cur.u64("count")? as usize;
    // Sanity before allocating: every record needs at least its 4-byte
    // length prefix, so a count the remaining bytes cannot hold is
    // corruption, not a large file.
    if count > cur.rest().len() / 4 {
        return Err(CoreError::LayoutMismatch(format!(
            "byte {}: cluster count {count} exceeds what {} remaining bytes can hold",
            cur.pos,
            cur.rest().len()
        )));
    }
    // Serial span scan (length prefixes only), then pooled record decode.
    // Context is attached on the error path only — this loop and the
    // per-record field reads below are the decode hot path, and eager
    // `format!` labels would cost an allocation per field.
    let mut spans = Vec::with_capacity(count);
    for i in 0..count {
        let located = |e: CoreError| match e {
            CoreError::LayoutMismatch(msg) => {
                CoreError::LayoutMismatch(format!("record {i}: {msg}"))
            }
            other => other,
        };
        let len = cur.u32("record length").map_err(located)? as usize;
        let start = cur.pos;
        cur.skip(len, "record body").map_err(located)?;
        spans.push((start, len));
    }
    if cur.rest() != b"\n" {
        return Err(CoreError::LayoutMismatch(format!(
            "byte {}: expected the final newline terminator after {count} records, \
             found {} trailing bytes",
            cur.pos,
            cur.rest().len()
        )));
    }
    pool.map_indexed("persist_decode", count, RECORD_CHUNK, |i| {
        let (start, len) = spans[i];
        decode_record(&bytes[start..start + len], i, start, &layout)
    })
    .into_iter()
    .collect()
}

fn decode_record(
    record: &[u8],
    index: usize,
    offset: usize,
    layout: &AcfLayout,
) -> Result<ClusterSummary, CoreError> {
    decode_record_inner(record, layout).map_err(|e| match e {
        CoreError::LayoutMismatch(msg) => {
            CoreError::LayoutMismatch(format!("record {index} at byte {offset}: {msg}"))
        }
        other => other,
    })
}

fn decode_record_inner(record: &[u8], layout: &AcfLayout) -> Result<ClusterSummary, CoreError> {
    let mut cur = Cursor { bytes: record, pos: 0 };
    let id = cur.u32("id")?;
    let set = cur.u32("set")? as usize;
    let n = cur.u64("n")?;
    let bbox_n = cur.u32("bbox count")? as usize;
    // One length check pins the whole remaining layout; the f64 reads
    // below cannot run out of bytes after it.
    let moments = 2 * layout.total_dims();
    let expect = 20 + 16 * bbox_n + 8 * moments;
    if record.len() != expect {
        return Err(CoreError::LayoutMismatch(format!(
            "length prefix pins {} bytes but the layout (bbox count {bbox_n}) \
             needs {expect}",
            record.len(),
        )));
    }
    let mut intervals = Vec::with_capacity(bbox_n);
    for _ in 0..bbox_n {
        let lo = cur.f64("bbox lo")?;
        let hi = cur.f64("bbox hi")?;
        intervals.push(Interval { lo, hi });
    }
    let bbox = BoundingBox::from_intervals(intervals);
    // The record's moments are in `Acf::from_moments` order: per set, LS
    // then SS.
    let moments = cur
        .take(8 * moments, "moments")?
        .chunks_exact(8)
        .map(|b| f64::from_le_bytes(b.try_into().expect("8 bytes")));
    let acf = Acf::from_moments(layout, set, n, moments, bbox)?;
    Ok(ClusterSummary { id: ClusterId(id), set, acf })
}

/// A bounds-checked little-endian reader; errors name the byte offset.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CoreError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len()).ok_or_else(|| {
            CoreError::LayoutMismatch(format!("byte {}: truncated reading {what}", self.pos))
        })?;
        let out = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn skip(&mut self, n: usize, what: &str) -> Result<(), CoreError> {
        self.take(n, what).map(|_| ())
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

    fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
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
    use dar_core::AcfLayout;

    fn sample_clusters() -> Vec<ClusterSummary> {
        let layout = AcfLayout::new(vec![1, 2]);
        let mut a = Acf::empty(&layout, 0);
        a.add_row(&[1.5, 10.0, 0.25]);
        a.add_row(&[2.5, 11.0, 0.5]);
        let mut b = Acf::empty(&layout, 1);
        b.add_row(&[-3.125, 0.1, 0.2]);
        vec![
            ClusterSummary { id: ClusterId(3), set: 0, acf: a },
            ClusterSummary { id: ClusterId(9), set: 1, acf: b },
        ]
    }

    #[test]
    fn roundtrip_is_lossless() {
        let clusters = sample_clusters();
        let text = write_clusters(&clusters).unwrap();
        let back = read_clusters(&text).unwrap();
        assert_eq!(clusters, back);
    }

    #[test]
    fn roundtrip_survives_awkward_floats() {
        let layout = AcfLayout::new(vec![1]);
        let mut a = Acf::empty(&layout, 0);
        a.add_row(&[0.1 + 0.2]); // classic non-representable sum
        a.add_row(&[1e-300]);
        a.add_row(&[-123456.789012345]);
        let clusters = vec![ClusterSummary { id: ClusterId(0), set: 0, acf: a }];
        let text = write_clusters(&clusters).unwrap();
        assert_eq!(read_clusters(&text).unwrap(), clusters);
    }

    #[test]
    fn empty_set_roundtrips() {
        let text = write_clusters(&[]).unwrap();
        assert!(read_clusters(&text).unwrap().is_empty());
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        assert!(read_clusters("").is_err());
        assert!(read_clusters("acf-clusters v1 sets=x dims=").is_err());
        let good = write_clusters(&sample_clusters()).unwrap();
        // Truncate mid-cluster.
        let truncated: String = good.lines().take(2).collect::<Vec<_>>().join("\n");
        assert!(read_clusters(&truncated).is_err());
        // Corrupt a float.
        let corrupt = good.replace("ls=", "ls=oops,");
        assert!(read_clusters(&corrupt).is_err());
    }

    #[test]
    fn errors_name_the_offending_line() {
        let good = write_clusters(&sample_clusters()).unwrap();
        // Header, cluster, bbox, then the first image line: line 4.
        let bad = good.replace("ls=", "ls=oops,");
        let err = read_clusters(&bad).unwrap_err().to_string();
        assert!(err.contains("line 4"), "{err}");
        // Embedded numbering shifts the report by the caller's offset.
        let err = read_clusters_at(&bad, 10).unwrap_err().to_string();
        assert!(err.contains("line 13"), "{err}");
        let err = read_clusters("acf-clusters v1 sets=x dims=").unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn sealed_cluster_files_verify_and_unseal() {
        let clusters = sample_clusters();
        let sealed = String::from_utf8(dar_durable::seal_bytes(
            write_clusters(&clusters).unwrap().as_bytes(),
            0,
        ))
        .unwrap();
        assert_eq!(read_clusters(&sealed).unwrap(), clusters);
        // Damage under the seal is caught by the checksum, with a footer
        // diagnosis rather than a confusing parse error.
        let tampered = sealed.replacen("cluster id", "cluster xd", 1);
        let err = read_clusters(&tampered).unwrap_err().to_string();
        assert!(err.contains("footer"), "{err}");
    }

    #[test]
    fn roundtrip_is_lossless_for_arbitrary_clusters() {
        use proptest::prelude::*;
        // Arbitrary multi-set layouts (1–3 sets, fixed dims per slot) and
        // arbitrary cluster multisets — including the empty file and the
        // single-cluster file — must survive write → read exactly.
        let dims_pool = [2usize, 1, 3];
        proptest!(|(
            sets in 1usize..4,
            cluster_rows in prop::collection::vec(
                prop::collection::vec((-1.0e6f64..1.0e6, 1.0e-3f64..1.0e3, -50.0f64..50.0), 1..5),
                0..5,
            ),
        )| {
            let dims: Vec<usize> = dims_pool[..sets].to_vec();
            let layout = AcfLayout::new(dims.clone());
            let clusters: Vec<ClusterSummary> = cluster_rows
                .iter()
                .enumerate()
                .map(|(i, rows)| {
                    let set = i % sets;
                    let mut acf = Acf::empty(&layout, set);
                    for &(a, b, c) in rows {
                        let vals = [a, b, c];
                        let row: Vec<f64> = dims
                            .iter()
                            .enumerate()
                            .flat_map(|(s, &d)| (0..d).map(move |j| vals[(s + j) % 3]))
                            .collect();
                        acf.add_row(&row);
                    }
                    ClusterSummary { id: ClusterId(i as u32 * 7 + 1), set, acf }
                })
                .collect();
            let text = write_clusters(&clusters).unwrap();
            prop_assert_eq!(read_clusters(&text).unwrap(), clusters);
        });
    }

    #[test]
    fn v2_roundtrip_is_lossless() {
        let pool = dar_par::ThreadPool::serial();
        let clusters = sample_clusters();
        let bytes = encode_clusters(&clusters, &pool).unwrap();
        assert_eq!(&bytes[..4], &V2_MAGIC);
        assert_eq!(*bytes.last().unwrap(), b'\n');
        assert_eq!(decode_clusters(&bytes, &pool).unwrap(), clusters);
        // Empty set, awkward floats.
        let empty = encode_clusters(&[], &pool).unwrap();
        assert!(decode_clusters(&empty, &pool).unwrap().is_empty());
        let layout = AcfLayout::new(vec![1]);
        let mut a = Acf::empty(&layout, 0);
        a.add_row(&[0.1 + 0.2]);
        a.add_row(&[1e-300]);
        a.add_row(&[-123456.789012345]);
        let awkward = vec![ClusterSummary { id: ClusterId(0), set: 0, acf: a }];
        let bytes = encode_clusters(&awkward, &pool).unwrap();
        assert_eq!(decode_clusters(&bytes, &pool).unwrap(), awkward);
    }

    #[test]
    fn v2_bytes_identical_at_every_worker_count() {
        let clusters: Vec<ClusterSummary> = {
            let layout = AcfLayout::new(vec![1, 2]);
            (0..200)
                .map(|i| {
                    let set = i % 2;
                    let mut acf = Acf::empty(&layout, set);
                    acf.add_row(&[i as f64 * 0.5, i as f64, -(i as f64)]);
                    ClusterSummary { id: ClusterId(i as u32), set, acf }
                })
                .collect()
        };
        let serial = encode_clusters(&clusters, &dar_par::ThreadPool::serial()).unwrap();
        for workers in [2, 4, 8] {
            let pool = dar_par::ThreadPool::new(workers);
            assert_eq!(encode_clusters(&clusters, &pool).unwrap(), serial, "workers={workers}");
            assert_eq!(decode_clusters(&serial, &pool).unwrap(), clusters, "workers={workers}");
        }
    }

    #[test]
    fn decode_sniffs_v1_text_and_sealed_v1_text() {
        let pool = dar_par::ThreadPool::serial();
        let clusters = sample_clusters();
        let text = write_clusters(&clusters).unwrap();
        assert_eq!(decode_clusters(text.as_bytes(), &pool).unwrap(), clusters);
        let sealed = dar_durable::seal_bytes(text.as_bytes(), 9);
        assert_eq!(decode_clusters(&sealed, &pool).unwrap(), clusters);
        // Non-UTF-8 bytes that are not v2 diagnose cleanly.
        let err = decode_clusters(&[0xff, 0xfe, 0x00], &pool).unwrap_err().to_string();
        assert!(err.contains("neither"), "{err}");
        // A bad version is rejected, not misparsed.
        let mut bad = encode_clusters(&clusters, &pool).unwrap();
        bad[4] = 9;
        let err = decode_clusters(&bad, &pool).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn v2_truncated_at_every_byte_offset_is_rejected() {
        let pool = dar_par::ThreadPool::serial();
        let bytes = encode_clusters(&sample_clusters(), &pool).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                decode_clusters(&bytes[..cut], &pool).is_err(),
                "decode accepted a truncation at byte {cut}/{}",
                bytes.len()
            );
        }
        // Trailing garbage after the terminator is also rejected.
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode_clusters(&padded, &pool).is_err());
    }

    #[test]
    fn v2_roundtrip_is_lossless_for_arbitrary_clusters() {
        use proptest::prelude::*;
        let dims_pool = [2usize, 1, 3];
        let pool = dar_par::ThreadPool::new(3);
        proptest!(|(
            sets in 1usize..4,
            cluster_rows in prop::collection::vec(
                prop::collection::vec(
                    (-1.0e18f64..1.0e18, 1.0e-12f64..1.0e12, -50.0f64..50.0),
                    1..5,
                ),
                0..6,
            ),
        )| {
            let dims: Vec<usize> = dims_pool[..sets].to_vec();
            let layout = AcfLayout::new(dims.clone());
            let clusters: Vec<ClusterSummary> = cluster_rows
                .iter()
                .enumerate()
                .map(|(i, rows)| {
                    let set = i % sets;
                    let mut acf = Acf::empty(&layout, set);
                    for &(a, b, c) in rows {
                        let vals = [a, b, c];
                        let row: Vec<f64> = dims
                            .iter()
                            .enumerate()
                            .flat_map(|(s, &d)| (0..d).map(move |j| vals[(s + j) % 3]))
                            .collect();
                        acf.add_row(&row);
                    }
                    ClusterSummary { id: ClusterId(i as u32 * 7 + 1), set, acf }
                })
                .collect();
            let bytes = encode_clusters(&clusters, &pool).unwrap();
            prop_assert_eq!(decode_clusters(&bytes, &pool).unwrap(), clusters);
        });
    }

    #[test]
    fn phase2_from_persisted_clusters_matches() {
        use crate::clique::maximal_cliques;
        use crate::graph::{ClusterDistance, ClusteringGraph, GraphConfig};
        let clusters = sample_clusters();
        let text = write_clusters(&clusters).unwrap();
        let reloaded = read_clusters(&text).unwrap();
        let cfg = GraphConfig {
            metric: ClusterDistance::D2,
            density_thresholds: vec![100.0, 100.0],
            prune_poor_density: false,
        };
        let g1 = ClusteringGraph::build(clusters, &cfg);
        let g2 = ClusteringGraph::build(reloaded, &cfg);
        assert_eq!(g1.edges, g2.edges);
        assert_eq!(maximal_cliques(g1.adjacency(), 0), maximal_cliques(g2.adjacency(), 0));
    }
}

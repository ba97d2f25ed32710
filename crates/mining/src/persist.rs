//! Cluster-summary persistence: save Phase I output, re-run Phase II later.
//!
//! The whole point of ACFs is that Phase II needs *only* the summaries
//! (Theorem 6.1). Persisting them separates the expensive single data scan
//! from the cheap, re-tunable rule search — mine once, then sweep density
//! and degree thresholds offline without touching the data again.
//!
//! One format: a length-prefixed little-endian record stream. Floats
//! travel as raw `f64` bits, so a save/load cycle is exact and costs no
//! formatting:
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
//! line.
//!
//! Files written before this format (the line-oriented `acf-clusters v1`
//! text) are not read here: `dar migrate` converts them once, and
//! [`decode_clusters`] refuses them with [`MIGRATE_HINT`].

use dar_core::{Acf, AcfLayout, BoundingBox, ClusterId, ClusterSummary, CoreError, Interval};

/// The first four bytes of every v2 binary cluster body.
pub const V2_MAGIC: [u8; 4] = *b"DACF";
/// The format version the v2 header carries.
pub const V2_VERSION: u32 = 2;
/// Records per pool task when encoding/decoding v2 bodies.
const RECORD_CHUNK: usize = 64;
/// How every binary reader's refusal of a pre-v2 file ends: the one-shot
/// conversion that upgrades it.
pub const MIGRATE_HINT: &str =
    "pre-v2 text files convert once with `dar migrate --input <old> --out <new>`";

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

/// Parses a v2 cluster body, fanning record decode across `pool`. Bytes
/// that do not open with [`V2_MAGIC`] are refused with [`MIGRATE_HINT`].
/// The input is the *body* — callers holding a `dar-durable`-sealed blob
/// unseal first.
pub fn decode_clusters(
    bytes: &[u8],
    pool: &dar_par::ThreadPool,
) -> Result<Vec<ClusterSummary>, CoreError> {
    if !bytes.starts_with(&V2_MAGIC) {
        return Err(CoreError::LayoutMismatch(format!(
            "not an acf-clusters v2 body (it opens with {:?}); {MIGRATE_HINT}",
            String::from_utf8_lossy(&bytes[..bytes.len().min(16)])
        )));
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
    fn decode_refuses_pre_v2_text_naming_migrate() {
        let pool = dar_par::ThreadPool::serial();
        let clusters = sample_clusters();
        for old in [&b"acf-clusters v1 sets=0 dims=\n"[..], &[0xff, 0xfe, 0x00]] {
            let err = decode_clusters(old, &pool).unwrap_err().to_string();
            assert!(err.contains("dar migrate"), "{err}");
        }
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
        let pool = dar_par::ThreadPool::serial();
        let bytes = encode_clusters(&clusters, &pool).unwrap();
        let reloaded = decode_clusters(&bytes, &pool).unwrap();
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

//! `query-mix`: two clients query a static 50K-tuple epoch in a seeded
//! order — 40% retunes (a top-25 knob set never asked before: rank-cache
//! miss, Phase II hit), 40% repeats of eight fixed top-25 sets
//! (rank-cache hits) and 20% the unranked full answer (≈8 MB of JSON).
//!
//! Set-up preloads the tuples and warms the full answer and the eight
//! repeat sets, so Phase I, durability and clustering do no work while
//! measuring. Requests: every query.

use super::{fold, mismatches, plain, process_args, Ctx, SETUPS};
use crate::model::Node;
use crate::plan::{self, Batches, Mix, Size};
use crate::procs::Proc;
use crate::report::{Measured, Outcome, Row};
use crate::target::{digest, Kind, Local, Remote, Target};
use crate::trace::Tracer;
use crate::wire::Wire;
use dar_serve::protocol::Request;
use mining::RuleQuery;
use std::time::Instant;

/// Queries per client per second of `--seconds`.
const QUERIES_PER_SECOND: u64 = 12;
/// Preloaded batches (50K tuples at 1000 rows).
const PRELOAD_BATCHES: usize = 50;

fn flags() -> Vec<String> {
    plan::serve_flags(&["--threads", "2"])
}

fn ops(ctx: &Ctx, client: u64) -> Vec<(Mix, RuleQuery)> {
    plan::query_mix(ctx.seed, client, ctx.size.ops(QUERIES_PER_SECOND, 2, 5) as usize)
}

fn preload(size: Size) -> Batches {
    plan::batches(if size.smoke { 12 } else { PRELOAD_BATCHES }, size.batch())
}

/// Preload, then warm the full answer (the cold query that builds the
/// epoch's Phase II artifacts) and the eight repeat sets.
fn setup(target: &mut impl Target, batches: &[Vec<Vec<f64>>]) -> Result<Vec<u64>, String> {
    let mut digests = Vec::new();
    for rows in batches {
        let line = target.call(Kind::Preload, &Request::Ingest { rows: rows.clone() })?;
        digests.push(digest(line.as_deref()));
    }
    for query in std::iter::once(plan::paper_full()).chain(plan::repeat_sets()) {
        let line = target.call(Kind::Warm, &Request::Query { query })?;
        digests.push(digest(line.as_deref()));
    }
    Ok(digests)
}

/// One client's measured queries; one digest per answer.
fn client(target: &mut impl Target, ops: &[(Mix, RuleQuery)]) -> Result<Vec<u64>, String> {
    target.start_measuring();
    ops.iter()
        .map(|(mix, query)| {
            let kind = match mix {
                Mix::Retune => Kind::QueryRetune,
                Mix::Repeat(_) => Kind::QueryRepeat,
                Mix::Full => Kind::QueryFull,
            };
            target
                .call(kind, &Request::Query { query: query.clone() })
                .map(|l| digest(l.as_deref()))
        })
        .collect()
}

/// The untraced pass: two connections, client 0 on this thread and
/// client 1 on one more.
///
/// # Errors
/// Process, transport or model failures.
pub fn untraced(ctx: &Ctx) -> Result<Outcome, String> {
    let batches = preload(ctx.size);
    let plans = [ops(ctx, 0), ops(ctx, 1)];

    // The reference answers each distinct knob set once.
    let mut t = Tracer::new(false);
    let node = Node::start(&mut t, &plain(&flags()))?;
    let mut reference = Local::new(&mut t, node, true);
    let expected_setup = setup(&mut reference, &batches)?;
    let expected = [client(&mut reference, &plans[0])?, client(&mut reference, &plans[1])?];
    drop(reference);

    let mut measured = Measured::default();
    let mut failed = 0;
    let mut server = None;
    for k in 0..SETUPS {
        drop(server.take());
        let dir = ctx.dir(&format!("setup{k}"))?;
        let start = Instant::now();
        let proc = Proc::spawn(&ctx.dar, &process_args("serve", &flags()), &dir, "serve")
            .map_err(|e| e.to_string())?;
        let mut first = Remote::new(Wire::connect(proc.addr)?, None);
        let second = Remote::new(Wire::connect(proc.addr)?, None);
        failed += mismatches(&expected_setup, &setup(&mut first, &batches)?);
        measured.setups.push(start.elapsed().as_secs_f64());
        server = Some((proc, first, second));
    }
    let (proc, mut first, mut second) = server.ok_or("no set-up ran")?;
    let before = first.wire().metrics()?;
    let start = Instant::now();
    let (got0, got1) = std::thread::scope(|s| {
        let other = s.spawn(|| client(&mut second, &plans[1]));
        let mine = client(&mut first, &plans[0]);
        (mine, other.join().unwrap_or_else(|_| Err("client 1 panicked".into())))
    });
    measured.wall_s = start.elapsed().as_secs_f64();
    let (got0, got1) = (got0?, got1?);
    let after = first.wire().metrics()?;
    measured.rss_mb = proc.peak_rss_mb();
    proc.kill();
    measured.requests = first.requests.into_iter().chain(second.requests).collect();
    failed += mismatches(&expected[0], &got0) + mismatches(&expected[1], &got1);

    let queries = (got0.len() + got1.len()) as f64;
    let mut detail =
        vec![Row::new("queries_per_s", queries / measured.wall_s, "1/s", queries as usize)];
    detail.extend(super::served_rows("", &before, &after));
    let attempted = (got0.len() + got1.len() + expected_setup.len() * SETUPS) as u64;
    let digest = fold(&[fold(&got0), fold(&got1)]);
    super::finish_untraced(&measured, attempted, failed, detail, digest)
}

/// The traced replay: set-up, then client 0's queries, then client 1's.
///
/// # Errors
/// Model or trace failures.
pub fn traced(ctx: &Ctx) -> Result<Outcome, String> {
    let batches = preload(ctx.size);
    let rebuilds = super::rebuilds();
    let mut t = Tracer::new(true);
    let node = t.request("op.setup", |t| Node::start(t, &flags()))?;
    let mut local = Local::new(&mut t, node, false);
    let warm = setup(&mut local, &batches)?;
    let plans = [ops(ctx, 0), ops(ctx, 1)];
    let got0 = client(&mut local, &plans[0])?;
    let got1 = client(&mut local, &plans[1])?;
    let mut counts = std::mem::take(&mut local.counts);
    counts.clusters = local.handler.clusters();
    counts.rebuilds = super::rebuilds() - rebuilds;
    let funnels = local.handler.funnels.clone();
    drop(local);
    // Repeats and full answers must return what set-up warmed: the full
    // answer, then the eight repeat sets, close the set-up digests.
    let warmed = &warm[batches.len()..];
    let failed = plans
        .iter()
        .zip([&got0, &got1])
        .flat_map(|(plan, got)| plan.iter().zip(got.iter()))
        .filter(|((mix, _), got)| match mix {
            Mix::Full => **got != warmed[0],
            Mix::Repeat(i) => **got != warmed[1 + i],
            Mix::Retune => false,
        })
        .count() as u64;
    let digest = fold(&[fold(&got0), fold(&got1)]);
    super::finish_traced(ctx, "query-mix", &t, &counts, &funnels, Vec::new(), (digest, failed))
}

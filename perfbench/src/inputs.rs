//! Workload definitions, seeded input generation and the oracle.
//!
//! Everything here runs before any timed region. The document and the
//! policy are fixed per workload (the paper's XMark-like generator at a
//! scale factor, `coverage_policy(doc, 0.5, 1)`); the seed chooses the
//! request streams: which scan queries, the order of the point lookups,
//! and which uniquely named items the insert/delete pairs touch.
//!
//! Expected answers come from `xac_policy::semantics::accessible_nodes`
//! and `xac_xpath::eval` on the generated document, never from the
//! serving path: a read is granted exactly when every node it selects
//! is accessible.

use std::collections::BTreeSet;
use xac_policy::semantics::accessible_nodes;
use xac_policy::Policy;
use xac_serve::{BackendKind, Request};
use xac_xml::{Document, NodeId};
use xac_xmlgen::{
    coverage_policy, query_workload, xmark_document, xmark_schema, SplitMix64, XmarkConfig,
};

/// One workload: a document, a backend, a durability mode, and the
/// make-up of one round of operations.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub factor: f64,
    pub backend: BackendKind,
    /// Serve through a WAL-backed engine (nosync) rather than in memory.
    pub durable: bool,
    /// Insert/delete pairs per round.
    pub pairs_per_round: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "update_mix",
        factor: 0.3,
        backend: BackendKind::Column,
        durable: false,
        pairs_per_round: 8,
    },
    Workload {
        name: "durable_churn",
        factor: 0.08,
        backend: BackendKind::Row,
        durable: true,
        pairs_per_round: 16,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Scan queries drawn from the paper's query generator (§7.1: 55).
const SCANS: usize = 55;
/// Seed of the scan set.
const SCAN_SEED: u64 = 7;
/// Distinct items the insert/delete pairs cycle through.
const PAIR_POOL: usize = 8;

/// The oracle's answer to one read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expect {
    pub granted: bool,
    pub nodes: u64,
}

/// A read request with its expected decision.
#[derive(Debug, Clone)]
pub struct Read {
    pub request: Request,
    pub text: String,
    pub expect: Expect,
}

/// A guarded insert of one `incategory` under a uniquely named item,
/// then a guarded delete of it by value; each publish is followed by a
/// fresh read whose answer the oracle computed on the exact document.
#[derive(Debug, Clone)]
pub struct Pair {
    pub insert: Request,
    pub delete: Request,
    pub parent: String,
    pub delete_path: String,
    pub text: String,
    /// Scan read after each publish, with its answer after the insert
    /// and after the delete.
    pub fresh: Request,
    pub fresh_after_insert: Expect,
    pub fresh_after_delete: Expect,
    /// Accessible-node count after the insert.
    pub accessible_after_insert: usize,
}

/// Everything a run needs, assembled before timing starts.
pub struct Inputs {
    pub doc: Document,
    pub policy: Policy,
    /// Reads of one round, in order.
    pub reads: Vec<Read>,
    /// The pair pool; a round runs `pairs_per_round` of them cyclically.
    pub pairs: Vec<Pair>,
    /// Element count of the unchanged document.
    pub elements: usize,
    /// Accessible set of the unchanged document.
    pub accessible: BTreeSet<NodeId>,
    /// Share of the round's reads that are point lookups.
    pub lookup_share: f64,
}

fn expect(doc: &Document, accessible: &BTreeSet<NodeId>, path: &xac_xpath::Path) -> Expect {
    let nodes = xac_xpath::eval(doc, path);
    Expect {
        granted: nodes.iter().all(|n| accessible.contains(n)),
        nodes: nodes.len() as u64,
    }
}

/// `(element node, value of its `child` text)` for every `tag` element
/// whose value is unique in the document and safe to quote.
fn unique_keys(doc: &Document, tag: &str, child: &str) -> Vec<(NodeId, String)> {
    let mut seen = std::collections::BTreeMap::<String, Vec<NodeId>>::new();
    for n in doc.all_elements().filter(|&n| doc.name(n) == Some(tag)) {
        if let Some(c) = doc.first_child_named(n, child) {
            seen.entry(doc.text_of(c)).or_default().push(n);
        }
    }
    seen.into_iter()
        .filter(|(v, nodes)| nodes.len() == 1 && !v.is_empty() && !v.contains('"'))
        .map(|(v, nodes)| (nodes[0], v))
        .collect()
}

fn shuffle<T>(v: &mut [T], rng: &mut SplitMix64) {
    for i in (1..v.len()).rev() {
        let j = rng.gen_range(0..=i);
        v.swap(i, j);
    }
}

/// Generate a workload's inputs and their expected answers.
pub fn generate(factor: f64, seed: u64) -> Inputs {
    let doc = xmark_document(XmarkConfig::with_factor(factor));
    let policy = coverage_policy(&doc, 0.5, 1);
    let accessible = accessible_nodes(&doc, &policy);
    let mut rng = SplitMix64::seed_from_u64(seed);

    // The scan set is the same on every seed, so the heaviest reads,
    // and with them the read tail, do not depend on the seed.
    let scans: Vec<String> = query_workload(&xmark_schema(), SCANS, SCAN_SEED)
        .iter()
        .map(|p| p.to_string())
        .collect();
    let mut items = unique_keys(&doc, "item", "name");
    let mut texts: Vec<String> = scans.clone();
    texts.extend(items.iter().map(|(_, k)| format!("//item[name = \"{k}\"]")));
    texts.extend(
        unique_keys(&doc, "person", "emailaddress")
            .iter()
            .map(|(_, k)| format!("//person[emailaddress = \"{k}\"]")),
    );
    let lookup_share = (texts.len() - scans.len()) as f64 / texts.len() as f64;
    shuffle(&mut texts, &mut rng);
    let reads = texts
        .into_iter()
        .map(|text| {
            let path = xac_xpath::parse(&text).expect("generated read parses");
            Read {
                request: Request::query(text.clone()),
                expect: expect(&doc, &accessible, &path),
                text,
            }
        })
        .collect();

    shuffle(&mut items, &mut rng);
    let mut pairs = Vec::with_capacity(PAIR_POOL);
    for (item, name) in items {
        if pairs.len() == PAIR_POOL {
            break;
        }
        if let Some(pair) = make_pair(
            &doc,
            &policy,
            &accessible,
            item,
            &name,
            &scans,
            seed,
            pairs.len(),
        ) {
            pairs.push(pair);
        }
    }
    assert!(
        !pairs.is_empty(),
        "no item admits a granted insert/delete pair"
    );
    Inputs {
        elements: doc.element_count(),
        doc,
        policy,
        reads,
        pairs,
        accessible,
        lookup_share,
    }
}

/// Build one pair under `item`, or `None` when the oracle says a guard
/// would refuse it (the pair must be applied on every run).
#[allow(clippy::too_many_arguments)]
fn make_pair(
    doc: &Document,
    policy: &Policy,
    accessible: &BTreeSet<NodeId>,
    item: NodeId,
    name: &str,
    scans: &[String],
    seed: u64,
    k: usize,
) -> Option<Pair> {
    let parent = format!("//item[name = \"{name}\"]");
    let text = format!("pb{seed:x}k{k}");
    let delete_path = format!("{parent}/incategory[. = \"{text}\"]");
    let parent_sel = xac_xpath::eval(doc, &xac_xpath::parse(&parent).ok()?);
    if parent_sel != [item] || !accessible.contains(&item) {
        return None;
    }
    let mut after = doc.clone();
    let added = after.add_element(item, "incategory");
    after.add_text(added, text.clone());
    let after_acc = accessible_nodes(&after, policy);
    let delete_sel = xac_xpath::eval(&after, &xac_xpath::parse(&delete_path).ok()?);
    if delete_sel != [added] || !after_acc.contains(&added) {
        return None;
    }
    let fresh_text = scans[k % scans.len()].clone();
    let fresh = xac_xpath::parse(&fresh_text).ok()?;
    Some(Pair {
        insert: Request::insert(parent.clone(), "incategory", Some(text.clone())),
        delete: Request::delete(delete_path.clone()),
        fresh: Request::query(fresh_text),
        fresh_after_insert: expect(&after, &after_acc, &fresh),
        fresh_after_delete: expect(doc, accessible, &fresh),
        accessible_after_insert: after_acc.len(),
        parent,
        delete_path,
        text,
    })
}

//! Exact self-time attribution over a [`TraceSnapshot`].
//!
//! A [`Profile`] aggregates every recorded span by its *call path* — the
//! `;`-joined chain of span names from the root down — and attributes to
//! each path its **inclusive** time (the span's own wall time), its
//! **self** time (inclusive minus the inclusive time of its direct
//! children), call count, and any allocation counts attached by
//! [`crate::alloc_counter::AllocScope`].
//!
//! ## The self-time invariant
//!
//! Self times telescope: summing `incl − Σ children incl` over every span
//! cancels every interior term, so
//!
//! ```text
//! Σ self over all paths  ==  Σ inclusive over root spans
//! ```
//!
//! holds *exactly* (pinned under `ManualClock` by
//! `tests/prof_determinism.rs`). Two caveats, documented rather than
//! papered over:
//!
//! * Under a wall clock, children that ran **in parallel** can overlap
//!   their parent, so an individual self time may be negative. The
//!   telescoping sum still holds; the folded export clamps negative
//!   values to zero for flamegraph tools.
//! * Spans whose parent was evicted by ring overflow are treated as
//!   roots, so the invariant degrades gracefully instead of silently
//!   dropping time.
//!
//! ## Determinism
//!
//! The grouping key is the structural call path, and fan-out siblings
//! created with `Span::child_indexed` share a name, so they merge into one
//! node with `calls == fan-out width` — the profile (and its folded
//! rendering) is byte-identical for any `DENSEVLC_JOBS` under
//! `ManualClock`.

use std::collections::BTreeMap;

use vlc_telemetry::export::value::{field, parse_json, push_f64, push_json_string, JsonValue};
use vlc_trace::TraceSnapshot;

use crate::alloc_counter::{ALLOCS_ATTR, DEALLOCS_ATTR};

/// Schema tag written into every profile JSON document and carried by the
/// `profile` record of the observability stream.
pub const PROF_SCHEMA: &str = "densevlc-prof/1";

/// One aggregated call path.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileNode {
    /// `;`-joined span names from the root (folded-stack frame order).
    pub path: String,
    /// Spans folded into this path.
    pub calls: u64,
    /// Total wall time of those spans, seconds.
    pub incl_s: f64,
    /// Inclusive minus direct children's inclusive, seconds. May be
    /// negative under a wall clock when children ran in parallel.
    pub self_s: f64,
    /// Heap allocations attributed via `AllocScope`, summed over calls.
    pub allocs: u64,
    /// Heap deallocations attributed via `AllocScope`, summed over calls.
    pub deallocs: u64,
}

impl ProfileNode {
    /// The last frame of the path (the span's own name).
    pub fn leaf(&self) -> &str {
        self.path.rsplit(';').next().unwrap_or(&self.path)
    }

    /// Number of frames in the path (1 for a root).
    pub fn depth(&self) -> usize {
        self.path.split(';').count()
    }
}

/// A profile: every call path in the trace, sorted by path.
#[derive(Debug, Clone, PartialEq)]
pub struct Profile {
    /// Schema tag ([`PROF_SCHEMA`]).
    pub schema: String,
    /// Worker count the traced run used.
    pub jobs: usize,
    /// Aggregated call paths, sorted by `path`.
    pub nodes: Vec<ProfileNode>,
}

/// Span names may not contain the folded-stack frame separator; a `;`
/// smuggled into a name is rewritten to `:` so paths stay parseable.
fn frame(name: &str) -> String {
    name.replace(';', ":")
}

/// Per-structural-id aggregate, before paths are resolved.
struct IdGroup {
    parent: u64,
    name: String,
    calls: u64,
    incl_s: f64,
    child_incl_s: f64,
    allocs: u64,
    deallocs: u64,
}

fn attr_u64(attrs: &[(String, String)], key: &str) -> u64 {
    attrs
        .iter()
        .filter(|(k, _)| k == key)
        .filter_map(|(_, v)| v.parse::<u64>().ok())
        .sum()
}

impl Profile {
    /// Builds the profile from a snapshot.
    ///
    /// Records are first grouped by structural span id (so a duplicated
    /// position — the same `(parent, name, seq)` recorded twice — cannot
    /// double-subtract its children), then id groups are aggregated by
    /// call path. Orphans (parent id absent from the snapshot, e.g. the
    /// parent is still open or was evicted) are treated as roots.
    pub fn from_snapshot(snapshot: &TraceSnapshot, jobs: usize) -> Self {
        // Pass 1: group by structural id.
        let mut groups: BTreeMap<u64, IdGroup> = BTreeMap::new();
        for s in &snapshot.spans {
            let g = groups.entry(s.id).or_insert_with(|| IdGroup {
                parent: s.parent_id,
                name: frame(&s.name),
                calls: 0,
                incl_s: 0.0,
                child_incl_s: 0.0,
                allocs: 0,
                deallocs: 0,
            });
            g.calls += 1;
            g.incl_s += s.duration_s();
            g.allocs += attr_u64(&s.attrs, ALLOCS_ATTR);
            g.deallocs += attr_u64(&s.attrs, DEALLOCS_ATTR);
        }
        // Pass 2: accumulate each record's inclusive time into its
        // parent's child sum (only when the parent exists; `parent == id`
        // would be a hash-collision cycle and is skipped defensively).
        for s in &snapshot.spans {
            if s.parent_id != 0 && s.parent_id != s.id && groups.contains_key(&s.parent_id) {
                let d = s.duration_s();
                if let Some(p) = groups.get_mut(&s.parent_id) {
                    p.child_incl_s += d;
                }
            }
        }
        // Pass 3: resolve paths (memoized parent-chain walk, cycle-safe).
        let mut paths: BTreeMap<u64, String> = BTreeMap::new();
        fn path_of(
            id: u64,
            groups: &BTreeMap<u64, IdGroup>,
            paths: &mut BTreeMap<u64, String>,
            depth: usize,
        ) -> String {
            if let Some(p) = paths.get(&id) {
                return p.clone();
            }
            let g = &groups[&id];
            let p = if g.parent == 0 || g.parent == id || depth > 512 {
                g.name.clone()
            } else if groups.contains_key(&g.parent) {
                format!("{};{}", path_of(g.parent, groups, paths, depth + 1), g.name)
            } else {
                g.name.clone()
            };
            paths.insert(id, p.clone());
            p
        }
        // Pass 4: aggregate id groups by path.
        let mut by_path: BTreeMap<String, ProfileNode> = BTreeMap::new();
        let ids: Vec<u64> = groups.keys().copied().collect();
        for id in ids {
            let path = path_of(id, &groups, &mut paths, 0);
            let g = &groups[&id];
            let node = by_path.entry(path.clone()).or_insert_with(|| ProfileNode {
                path,
                calls: 0,
                incl_s: 0.0,
                self_s: 0.0,
                allocs: 0,
                deallocs: 0,
            });
            node.calls += g.calls;
            node.incl_s += g.incl_s;
            node.self_s += g.incl_s - g.child_incl_s;
            node.allocs += g.allocs;
            node.deallocs += g.deallocs;
        }
        Profile {
            schema: PROF_SCHEMA.to_string(),
            jobs,
            nodes: by_path.into_values().collect(),
        }
    }

    /// The node for an exact path, if present.
    pub fn node(&self, path: &str) -> Option<&ProfileNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// All nodes whose leaf frame is `name` (a BENCH.json phase name),
    /// in path order.
    pub fn nodes_with_leaf<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a ProfileNode> {
        self.nodes.iter().filter(move |n| n.leaf() == name)
    }

    /// Σ inclusive over root paths (depth 1) — the total traced wall time.
    pub fn total_root_s(&self) -> f64 {
        self.nodes
            .iter()
            .filter(|n| n.depth() == 1)
            .map(|n| n.incl_s)
            .sum()
    }

    /// Σ self over every path. Equals [`Profile::total_root_s`] exactly
    /// under `ManualClock` (see the module docs for the telescoping
    /// argument and the wall-clock caveat).
    pub fn total_self_s(&self) -> f64 {
        self.nodes.iter().map(|n| n.self_s).sum()
    }

    /// Nodes ranked by self time, descending (ties broken by path so the
    /// table is deterministic even with equal times).
    pub fn by_self(&self) -> Vec<&ProfileNode> {
        let mut v: Vec<&ProfileNode> = self.nodes.iter().collect();
        v.sort_by(|a, b| b.self_s.total_cmp(&a.self_s).then(a.path.cmp(&b.path)));
        v
    }

    /// Nodes ranked by inclusive time, descending (same tie-break).
    pub fn by_inclusive(&self) -> Vec<&ProfileNode> {
        let mut v: Vec<&ProfileNode> = self.nodes.iter().collect();
        v.sort_by(|a, b| b.incl_s.total_cmp(&a.incl_s).then(a.path.cmp(&b.path)));
        v
    }

    /// The exclusive (self-time) table, top `n` rows.
    pub fn self_table(&self, n: usize) -> String {
        Self::render_table("self", self.by_self().into_iter().take(n), |node| {
            node.self_s
        })
    }

    /// The inclusive table, top `n` rows.
    pub fn inclusive_table(&self, n: usize) -> String {
        Self::render_table("incl", self.by_inclusive().into_iter().take(n), |node| {
            node.incl_s
        })
    }

    fn render_table<'a>(
        metric: &str,
        rows: impl Iterator<Item = &'a ProfileNode>,
        value: impl Fn(&ProfileNode) -> f64,
    ) -> String {
        let mut out = format!(
            "  {:>12}  {:>7}  {:>9}  path\n",
            format!("{metric}_s"),
            "calls",
            "allocs"
        );
        for node in rows {
            out.push_str(&format!(
                "  {:>12.6}  {:>7}  {:>9}  {}\n",
                value(node),
                node.calls,
                node.allocs,
                node.path
            ));
        }
        out
    }

    /// Writes to the `densevlc-prof/1` JSON document: nodes in path
    /// order, floats in shortest round-trip formatting — deterministic,
    /// and byte-identical across worker counts under `ManualClock`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.nodes.len() * 96);
        out.push_str("{\n  \"schema\": ");
        push_json_string(&mut out, &self.schema);
        out.push_str(&format!(",\n  \"jobs\": {},\n  \"nodes\": [", self.jobs));
        for (i, n) in self.nodes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"path\": ");
            push_json_string(&mut out, &n.path);
            out.push_str(&format!(", \"calls\": {}, \"incl_s\": ", n.calls));
            push_f64(&mut out, n.incl_s);
            out.push_str(", \"self_s\": ");
            push_f64(&mut out, n.self_s);
            out.push_str(&format!(
                ", \"allocs\": {}, \"deallocs\": {}}}",
                n.allocs, n.deallocs
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parses a profile document, validating the schema tag. Nodes are
    /// re-sorted by path, so `from_json(to_json(p)) == p`.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let root = parse_json(text).map_err(|e| e.to_string())?;
        let obj = root.as_obj("profile").map_err(|e| e.to_string())?;
        let schema = field(obj, "schema")
            .and_then(|v| v.as_str("schema").map(str::to_string))
            .map_err(|e| e.to_string())?;
        if schema != PROF_SCHEMA {
            return Err(format!(
                "unsupported profile schema `{schema}` (expected `{PROF_SCHEMA}`)"
            ));
        }
        let jobs = field(obj, "jobs")
            .and_then(|v| v.as_u64("jobs"))
            .map_err(|e| e.to_string())? as usize;
        let items = field(obj, "nodes")
            .and_then(|v| v.as_arr("nodes").map(<[JsonValue]>::to_vec))
            .map_err(|e| e.to_string())?;
        let mut nodes = Vec::with_capacity(items.len());
        for item in &items {
            let n = item.as_obj("node").map_err(|e| e.to_string())?;
            let get = |k: &str| field(n, k).map_err(|e| e.to_string());
            nodes.push(ProfileNode {
                path: get("path")?
                    .as_str("path")
                    .map_err(|e| e.to_string())?
                    .to_string(),
                calls: get("calls")?.as_u64("calls").map_err(|e| e.to_string())?,
                incl_s: get("incl_s")?.as_f64("incl_s").map_err(|e| e.to_string())?,
                self_s: get("self_s")?.as_f64("self_s").map_err(|e| e.to_string())?,
                allocs: get("allocs")?.as_u64("allocs").map_err(|e| e.to_string())?,
                deallocs: get("deallocs")?
                    .as_u64("deallocs")
                    .map_err(|e| e.to_string())?,
            });
        }
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(Profile {
            schema,
            jobs,
            nodes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlc_telemetry::ManualClock;
    use vlc_trace::Tracer;

    /// root (2.0 total): plan (1.0: rank 0.25 + self 0.75), two indexed
    /// `item`s (0.25 each), self 0.5.
    fn sample() -> Profile {
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("round");
        {
            let plan = root.child("plan");
            clock.advance(0.75);
            {
                let rank = plan.child("rank");
                clock.advance(0.25);
                drop(rank);
            }
            drop(plan);
        }
        for i in 0..2 {
            let item = root.child_indexed("item", i);
            clock.advance(0.25);
            drop(item);
        }
        clock.advance(0.5);
        drop(root);
        Profile::from_snapshot(&tracer.snapshot(), 1)
    }

    #[test]
    fn paths_aggregate_and_self_times_telescope() {
        let p = sample();
        let paths: Vec<&str> = p.nodes.iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            paths,
            ["round", "round;item", "round;plan", "round;plan;rank"]
        );
        // Indexed fan-out merges into one node with calls == width.
        let items = p.node("round;item").unwrap();
        assert_eq!(items.calls, 2);
        assert_eq!(items.incl_s, 0.5);
        assert_eq!(items.self_s, 0.5);
        let plan = p.node("round;plan").unwrap();
        assert_eq!(plan.incl_s, 1.0);
        assert_eq!(plan.self_s, 0.75);
        let root = p.node("round").unwrap();
        assert_eq!(root.incl_s, 2.0);
        assert_eq!(root.self_s, 0.5);
        // The invariant, exactly.
        assert_eq!(p.total_self_s(), p.total_root_s());
        assert_eq!(p.total_root_s(), 2.0);
    }

    #[test]
    fn orphans_are_treated_as_roots() {
        // A child recorded while its parent is still open (no parent
        // record in the snapshot) must surface, not vanish.
        let clock = ManualClock::new();
        let tracer = Tracer::with_clock(clock.clone());
        let root = tracer.root("open_root");
        let child = root.child("done_child");
        clock.advance(1.0);
        drop(child);
        let p = Profile::from_snapshot(&tracer.snapshot(), 1);
        drop(root);
        assert_eq!(p.nodes.len(), 1);
        assert_eq!(p.nodes[0].path, "done_child");
        assert_eq!(p.total_root_s(), 1.0);
        assert_eq!(p.total_self_s(), 1.0);
    }

    #[test]
    fn ranking_and_tables_are_deterministic() {
        let p = sample();
        let by_self: Vec<&str> = p.by_self().iter().map(|n| n.path.as_str()).collect();
        assert_eq!(
            by_self,
            ["round;plan", "round", "round;item", "round;plan;rank"]
        );
        let table = p.self_table(2);
        assert!(table.contains("round;plan"));
        assert!(!table.contains("rank"), "top-2 cuts the table: {table}");
        let incl = p.inclusive_table(1);
        assert!(incl.contains("round"));
    }

    #[test]
    fn json_round_trips_exactly() {
        let p = sample();
        let text = p.to_json();
        let back = Profile::from_json(&text).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_json(), text, "byte-stable serialization");
    }

    #[test]
    fn from_json_rejects_foreign_schemas_and_junk() {
        assert!(
            Profile::from_json("{\"schema\": \"other/9\", \"jobs\": 1, \"nodes\": []}").is_err()
        );
        assert!(Profile::from_json("{}").is_err());
        assert!(Profile::from_json("not json").is_err());
    }

    #[test]
    fn semicolons_in_names_are_sanitized() {
        let tracer = Tracer::with_clock(ManualClock::new());
        drop(tracer.root("a;b"));
        let p = Profile::from_snapshot(&tracer.snapshot(), 1);
        assert_eq!(p.nodes[0].path, "a:b");
    }

    #[test]
    fn leaf_and_depth_helpers() {
        let p = sample();
        let rank = p.node("round;plan;rank").unwrap();
        assert_eq!(rank.leaf(), "rank");
        assert_eq!(rank.depth(), 3);
        assert_eq!(p.node("round").unwrap().depth(), 1);
        assert_eq!(p.nodes_with_leaf("plan").count(), 1);
    }
}

//! The workspace call/reference graph, linked over the item table.
//!
//! Call extraction is syntactic — `name(…)`, `Qualifier::name(…)`,
//! `receiver.name(…)`, parenless `Qualifier::name` references, and bare
//! idents naming a same-file fn (fn-pointer dispatch tables) — and
//! resolution is a deliberate *over-approximation*: when a method call's
//! receiver type is unknown, the edge fans out to every workspace method
//! of that name. Reachability answers must err on the side of "reachable"
//! so the graph rules (L7–L10) never silently excuse a real violation;
//! precision comes from the cases that matter in this workspace and
//! are resolved exactly — `self.method(…)` binds to the enclosing impl's
//! method when one exists, `counters::NAME.method(…)` and
//! `timers::NAME.method(…)` bind to the telemetry `Counter`/`Timer`
//! methods, and `module::fn(…)` binds to the named module.
//!
//! What the extractor cannot see, [`CallGraph::reachable`] can compensate
//! for: operator expressions (`a + b`), `?`/`format!` desugarings, and
//! iterator protocol calls never spell the method name at the call site,
//! so `include_protocol` seeds every trait-protocol-named fn (`add`,
//! `fmt`, `next`, `cmp`, …) as reachable. L10 uses that mode — a panic in
//! an `Add` impl is reachable from any arithmetic expression — while the
//! hot-path rules (L9) keep the closure tight and syntactic.

use std::collections::BTreeSet;

use crate::lexer::TokenKind;
use crate::workspace::Workspace;

use super::items::{FnId, ItemTable};

/// Fn names that desugared expression forms call without spelling the
/// name at the call site (operator traits, iteration, formatting,
/// conversion, comparison, hashing, drop).
const PROTOCOL_FNS: [&str; 31] = [
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "not",
    "add_assign",
    "sub_assign",
    "mul_assign",
    "div_assign",
    "rem_assign",
    "index",
    "index_mut",
    "deref",
    "deref_mut",
    "drop",
    "clone",
    "clone_from",
    "default",
    "fmt",
    "from",
    "try_from",
    "into",
    "next",
    "cmp",
    "partial_cmp",
    "eq",
    "ne",
    "hash",
    "from_str",
];

/// Modules of `clos-telemetry`'s registry statics, with the type of
/// every static they hold: `counters::NAME.add(n)` calls `Counter::add`.
const REGISTRY_STATICS: [(&str, &str); 2] = [("counters", "Counter"), ("timers", "Timer")];

/// The linked call graph: one adjacency list per [`FnId`].
#[derive(Clone, Debug)]
pub struct CallGraph {
    /// `edges[f]` — fns that fn `f` may call, sorted and deduped.
    pub edges: Vec<Vec<FnId>>,
}

impl CallGraph {
    /// Extracts and resolves every call site in `ws` against `table`.
    #[must_use]
    pub fn build(ws: &Workspace, table: &ItemTable) -> CallGraph {
        let mut edges: Vec<BTreeSet<FnId>> = vec![BTreeSet::new(); table.fns.len()];
        // References outside any fn body (dispatch-table consts like the
        // repro bin's `EXPERIMENTS`) become edges from every fn in the
        // file: the table's targets are live exactly when the file's
        // code is.
        let mut file_level: Vec<BTreeSet<FnId>> = vec![BTreeSet::new(); table.files.len()];
        for (fi, file_edges) in file_level.iter_mut().enumerate() {
            let toks = table.tokens(ws, fi);
            // `use a::b::leaf;` spells fn names without referencing them
            // — imports are resolution *inputs* (see `use_aliases`), not
            // call sites. Track the `use …;` span and skip it.
            let mut in_use = false;
            for i in 0..toks.len() {
                let t = &toks[i];
                if in_use {
                    if t.is_punct(";") {
                        in_use = false;
                    }
                    continue;
                }
                if t.is_ident("use") {
                    in_use = true;
                    continue;
                }
                if t.kind != TokenKind::Ident {
                    continue;
                }
                // `macro_rules!` templates spell idents without
                // referencing them; binding `$name`-style fragments
                // would fabricate file-level edges.
                if table.is_masked(fi, i) {
                    continue;
                }
                let caller = table.enclosing_fn(fi, i);
                let next_is = |s: &str| toks.get(i + 1).is_some_and(|n| n.is_punct(s));
                let prev = i.checked_sub(1).map(|p| &toks[p]);
                let prev_is = |s: &str| prev.is_some_and(|p| p.is_punct(s));

                // `fn name` is a definition, `name!` a macro, `name::` a
                // qualifier segment (resolved at its leaf ident).
                if prev.is_some_and(|p| p.is_ident("fn")) || next_is("!") || next_is("::") {
                    continue;
                }

                let callees: Vec<FnId> = if prev_is("::") {
                    // Qualified: the segment before the `::`.
                    let qual = i
                        .checked_sub(2)
                        .map(|q| &toks[q])
                        .filter(|q| q.kind == TokenKind::Ident)
                        .map(|q| q.text.as_str());
                    match qual {
                        // A parenless `Qualifier::name` is a function
                        // reference (e.g. `.map(Type::method)`); with a
                        // `(` it is a direct call. Either way: an edge.
                        Some(q) => resolve_qualified(table, caller, q, &t.text),
                        None => Vec::new(),
                    }
                } else if prev_is(".") {
                    if !next_is("(") {
                        continue; // field access, not a call
                    }
                    let Some(caller) = caller else {
                        continue; // method calls need a body
                    };
                    let receiver = |back: usize| i.checked_sub(back).map(|r| &toks[r]);
                    let receiver_is_self = receiver(2).is_some_and(|r| r.is_ident("self"));
                    // `counters::NAME.method(…)` / `timers::NAME.method(…)`:
                    // the receiver is a telemetry registry static.
                    let registry = match (receiver(4), receiver(3), receiver(2)) {
                        (Some(module), Some(sep), Some(name))
                            if sep.is_punct("::") && name.kind == TokenKind::Ident =>
                        {
                            REGISTRY_STATICS
                                .iter()
                                .find(|(m, _)| module.is_ident(m))
                                .map(|&(_, ty)| ty)
                        }
                        _ => None,
                    };
                    resolve_method(table, caller, &t.text, receiver_is_self, registry)
                } else if next_is("(") {
                    resolve_plain(table, fi, &t.text)
                } else {
                    // A bare ident that names a same-file fn is a
                    // fn-pointer reference (dispatch tables). Same-file
                    // only: a workspace-wide match would make every
                    // local binding named `run` an edge to every `run`.
                    table
                        .fns_named(&t.text)
                        .iter()
                        .copied()
                        .filter(|&f| table.fns[f].file == fi)
                        .collect()
                };
                match caller {
                    Some(caller) => edges[caller].extend(callees),
                    None => file_edges.extend(callees),
                }
            }
        }
        for (fi, targets) in file_level.iter().enumerate() {
            if targets.is_empty() {
                continue;
            }
            for (f, item) in table.fns.iter().enumerate() {
                if item.file == fi {
                    edges[f].extend(targets.iter().copied());
                }
            }
        }
        CallGraph {
            edges: edges.into_iter().map(|s| s.into_iter().collect()).collect(),
        }
    }

    /// The set of fns reachable from `roots` (roots included).
    ///
    /// With `include_protocol`, every fn whose name matches a desugared
    /// trait protocol (`add`, `fmt`, `next`, …) is seeded reachable too —
    /// call sites for those never spell the name, so a syntactic walk
    /// alone would wrongly prove them dead.
    #[must_use]
    pub fn reachable(
        &self,
        table: &ItemTable,
        roots: impl IntoIterator<Item = FnId>,
        include_protocol: bool,
    ) -> BTreeSet<FnId> {
        let mut queue: Vec<FnId> = roots.into_iter().collect();
        if include_protocol && !queue.is_empty() {
            for (id, f) in table.fns.iter().enumerate() {
                if PROTOCOL_FNS.contains(&f.name.as_str()) {
                    queue.push(id);
                }
            }
        }
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        while let Some(f) = queue.pop() {
            if !seen.insert(f) {
                continue;
            }
            for &callee in &self.edges[f] {
                if !seen.contains(&callee) {
                    queue.push(callee);
                }
            }
        }
        seen
    }
}

/// `name(…)` with no qualifier: same file, then the `use`-aliased crate,
/// then same crate, then anywhere in the workspace. The first scope with
/// a candidate wins — shadowing outer scopes is how Rust resolves too.
fn resolve_plain(table: &ItemTable, fi: usize, name: &str) -> Vec<FnId> {
    let same_file: Vec<FnId> = table
        .fns_named(name)
        .iter()
        .copied()
        .filter(|&f| table.fns[f].file == fi)
        .collect();
    if !same_file.is_empty() {
        return same_file;
    }
    if let Some(krate) = table.use_crates[fi].get(name) {
        let imported = table.in_crate(krate, name);
        if !imported.is_empty() {
            return imported.to_vec();
        }
    }
    let krate = &table.files[fi].crate_name;
    let same_crate = table.in_crate(krate, name);
    if !same_crate.is_empty() {
        return same_crate.to_vec();
    }
    table.fns_named(name).to_vec()
}

/// `Qualifier::name`: a type qualifier (uppercase head) binds to that
/// type's methods, falling back to every same-named method for generic
/// parameters (`S::zero()`); `Self::name` binds to the enclosing impl; a
/// module qualifier binds to the named module, then the same-named crate.
fn resolve_qualified(table: &ItemTable, caller: Option<FnId>, qual: &str, name: &str) -> Vec<FnId> {
    if qual == "Self" {
        if let Some(ty) = caller.and_then(|c| table.fns[c].self_type.as_ref()) {
            let own = table.methods_of(ty, name);
            if !own.is_empty() {
                return own.to_vec();
            }
        }
        return table.methods_named(name);
    }
    if qual.starts_with(char::is_uppercase) {
        let methods = table.methods_of(qual, name);
        if !methods.is_empty() {
            return methods.to_vec();
        }
        // A short uppercase qualifier is a generic parameter by
        // convention (`S::zero()`): any same-named method fits. A longer
        // unknown type (`Vec`, `String`, `Instant`) is out-of-workspace
        // std/vendor API — no edge, or every `Vec::new()` would fan out
        // to every workspace constructor.
        if qual.len() <= 2 {
            return table.methods_named(name);
        }
        return Vec::new();
    }
    let in_module = table.in_module(qual, name);
    if !in_module.is_empty() {
        return in_module.to_vec();
    }
    table.in_crate(&qual.replace('-', "_"), name).to_vec()
}

/// `receiver.name(…)`: `self` binds to the enclosing impl's own method
/// when it has one, and a telemetry registry static (`registry`, its
/// type) to that type's method; anything else fans out to every
/// workspace method of that name (receiver types are unknown without
/// type inference).
fn resolve_method(
    table: &ItemTable,
    caller: FnId,
    name: &str,
    receiver_is_self: bool,
    registry: Option<&str>,
) -> Vec<FnId> {
    let known = if receiver_is_self {
        table.fns[caller].self_type.as_deref()
    } else {
        registry
    };
    if let Some(ty) = known {
        let own = table.methods_of(ty, name);
        if !own.is_empty() {
            return own.to_vec();
        }
    }
    table.methods_named(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;
    use crate::manifest::Manifest;
    use crate::workspace::{FileClass, Member, SourceFile, Workspace};

    /// Builds an in-memory workspace from `(rel_path, source)` pairs, one
    /// member per `crates/<name>/` prefix.
    fn workspace(files: &[(&str, &str)]) -> Workspace {
        let mut members: Vec<Member> = Vec::new();
        for (rel_path, text) in files {
            let crate_dir = rel_path.split('/').take(2).collect::<Vec<_>>().join("/");
            let name = format!("fx-{}", crate_dir.rsplit('/').next().unwrap());
            let tokens = lexer::lex(text);
            let test_regions = lexer::test_regions(&tokens);
            let class = if rel_path.ends_with("src/main.rs") || rel_path.contains("/src/bin/") {
                FileClass::Bin
            } else {
                FileClass::Lib
            };
            let source = SourceFile {
                rel_path: (*rel_path).to_string(),
                class,
                text: (*text).to_string(),
                tokens,
                test_regions,
            };
            if let Some(m) = members.iter_mut().find(|m| m.rel_dir == crate_dir) {
                m.sources.push(source);
            } else {
                members.push(Member {
                    name,
                    rel_dir: crate_dir.clone(),
                    manifest: Manifest::parse(""),
                    manifest_rel_path: format!("{crate_dir}/Cargo.toml"),
                    sources: vec![source],
                });
            }
        }
        Workspace {
            root: std::path::PathBuf::from("/in-memory"),
            manifest: Manifest::parse("[workspace]"),
            members,
        }
    }

    fn fn_id(table: &ItemTable, name: &str, self_type: Option<&str>) -> FnId {
        table
            .fns_named(name)
            .iter()
            .copied()
            .find(|&f| table.fns[f].self_type.as_deref() == self_type)
            .unwrap_or_else(|| panic!("fn {name} with self type {self_type:?} not found"))
    }

    #[test]
    fn self_calls_bind_to_the_enclosing_impl() {
        let ws = workspace(&[(
            "crates/a/src/lib.rs",
            "struct Fast; struct Slow;\n\
             impl Fast { fn key(&self) -> u32 { 1 } fn beats(&self) -> bool { self.key() > 0 } }\n\
             impl Slow { fn key(&self) -> u32 { expensive() } }\n\
             fn expensive() -> u32 { 2 }",
        )]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let beats = fn_id(&table, "beats", Some("Fast"));
        let fast_key = fn_id(&table, "key", Some("Fast"));
        let slow_key = fn_id(&table, "key", Some("Slow"));
        assert_eq!(graph.edges[beats], vec![fast_key]);
        let closure = graph.reachable(&table, [beats], false);
        assert!(closure.contains(&fast_key));
        assert!(!closure.contains(&slow_key));
    }

    #[test]
    fn module_qualified_calls_bind_to_the_module() {
        let ws = workspace(&[
            ("crates/a/src/bin/cli.rs", "fn main() { e10_sweep::run(); }"),
            (
                "crates/a/src/e10_sweep.rs",
                "pub fn run() { helper(); } fn helper() {}",
            ),
            ("crates/a/src/other.rs", "pub fn run() {}"),
        ]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let main = fn_id(&table, "main", None);
        let closure = graph.reachable(&table, [main], false);
        let sweep_run = table.in_module("e10_sweep", "run")[0];
        let other_run = table.in_module("other", "run")[0];
        let helper = fn_id(&table, "helper", None);
        assert!(closure.contains(&sweep_run));
        assert!(closure.contains(&helper));
        assert!(!closure.contains(&other_run));
    }

    #[test]
    fn imported_plain_calls_bind_to_the_use_crate() {
        let ws = workspace(&[
            (
                "crates/a/src/lib.rs",
                "use fx_b::water;\npub fn go() { water(); }",
            ),
            ("crates/b/src/lib.rs", "pub fn water() {}"),
            ("crates/c/src/lib.rs", "pub fn water() {}"),
        ]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let go = fn_id(&table, "go", None);
        assert_eq!(graph.edges[go].len(), 1);
        let callee = graph.edges[go][0];
        assert_eq!(table.files[table.fns[callee].file].crate_name, "fx_b");
    }

    #[test]
    fn unknown_receivers_fan_out_to_all_methods() {
        let ws = workspace(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn rates(&self) {} }\n\
             impl B { fn rates(&self) {} }\n\
             fn go(x: &A) { x.rates(); }",
        )]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let go = fn_id(&table, "go", None);
        assert_eq!(graph.edges[go].len(), 2);
    }

    #[test]
    fn registry_statics_bind_to_counter_and_timer_methods() {
        let ws = workspace(&[
            (
                "crates/telemetry/src/registry.rs",
                "pub struct Counter; pub struct Timer;\n\
                 impl Counter { pub fn add(&self, _: u64) {} }\n\
                 impl Timer { pub fn record(&self) {} }\n\
                 pub mod counters { pub static HITS: super::Counter = super::Counter; }\n\
                 pub mod timers { pub static T: super::Timer = super::Timer; }",
            ),
            (
                "crates/lp/src/lib.rs",
                "pub struct Lp;\n\
                 impl Lp { pub fn add(&self, _: u64) { let _ = Vec::<u8>::new(); } }\n\
                 impl Lp { pub fn record(&self) {} }",
            ),
            (
                "crates/a/src/lib.rs",
                "use fx_telemetry::{counters, timers};\n\
                 pub fn hot(n: u64) { counters::HITS.add(n); timers::T.record(); }\n\
                 pub fn cold(x: &u64) { x.add(1); }",
            ),
        ]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let hot = fn_id(&table, "hot", None);
        let counter_add = fn_id(&table, "add", Some("Counter"));
        let timer_record = fn_id(&table, "record", Some("Timer"));
        assert_eq!(graph.edges[hot], vec![counter_add, timer_record]);
        // Any other receiver still fans out.
        let cold = fn_id(&table, "cold", None);
        let lp_add = fn_id(&table, "add", Some("Lp"));
        assert_eq!(graph.edges[cold], vec![counter_add, lp_add]);
    }

    #[test]
    fn protocol_seeding_reaches_operator_impls() {
        let ws = workspace(&[(
            "crates/a/src/lib.rs",
            "struct R;\n\
             impl R { fn add(self, _: R) -> R { helper(); R } }\n\
             fn helper() {}\n\
             fn dead() {}\n\
             fn main_like() { let _ = (); }",
        )]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let root = fn_id(&table, "main_like", None);
        let add = fn_id(&table, "add", Some("R"));
        let helper = fn_id(&table, "helper", None);
        let dead = fn_id(&table, "dead", None);
        let tight = graph.reachable(&table, [root], false);
        assert!(!tight.contains(&add));
        let wide = graph.reachable(&table, [root], true);
        assert!(wide.contains(&add));
        assert!(wide.contains(&helper));
        assert!(!wide.contains(&dead));
    }

    #[test]
    fn dispatch_table_fn_pointers_bind_same_file_only() {
        // A top-level const table of fn pointers (the repro bin's
        // `EXPERIMENTS` shape): its targets must be reachable from the
        // file's fns, and the bare references must not bind to
        // same-named fns in other files.
        let ws = workspace(&[
            (
                "crates/a/src/bin/cli.rs",
                "type Runner = fn();\n\
                 fn run_e2() { helper(); }\n\
                 fn helper() {}\n\
                 const TABLE: &[(&str, Runner)] = &[(\"e2\", run_e2)];\n\
                 fn main() { for (_, r) in TABLE { r(); } }",
            ),
            ("crates/a/src/lib.rs", "pub fn run_e2() {}"),
        ]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let main = fn_id(&table, "main", None);
        let closure = graph.reachable(&table, [main], false);
        let bin_run = table
            .fns_named("run_e2")
            .iter()
            .copied()
            .find(|&f| table.files[table.fns[f].file].rel_path.contains("bin"))
            .unwrap();
        let lib_run = table
            .fns_named("run_e2")
            .iter()
            .copied()
            .find(|&f| !table.files[table.fns[f].file].rel_path.contains("bin"))
            .unwrap();
        let helper = fn_id(&table, "helper", None);
        assert!(closure.contains(&bin_run));
        assert!(closure.contains(&helper));
        assert!(!closure.contains(&lib_run));
    }

    #[test]
    fn parenless_qualified_references_count_as_edges() {
        let ws = workspace(&[(
            "crates/a/src/lib.rs",
            "struct K; impl K { fn score(_: u32) -> u32 { 0 } }\n\
             fn go(v: Vec<u32>) { let _ = v.iter().map(K::score); }",
        )]);
        let table = ItemTable::build(&ws);
        let graph = CallGraph::build(&ws, &table);
        let go = fn_id(&table, "go", None);
        let score = fn_id(&table, "score", Some("K"));
        assert_eq!(graph.edges[go], vec![score]);
    }
}

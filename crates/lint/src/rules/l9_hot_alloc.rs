//! L9 — hot-loop allocation: the zero-alloc bench gate, statically.
//!
//! The compiled evaluation pipeline and the churn engine advertise
//! allocation-free steady state, and the benches enforce it dynamically
//! through the counting allocator. That check only sees the paths a
//! bench happens to exercise; this rule closes the gap by walking the
//! call graph from the hot-path roots and flagging every allocating
//! construct in the closure:
//!
//! * `vec![…]` and `format!(…)` macros;
//! * `Vec::new` / `String::with_capacity` / `BTreeMap::from`-style
//!   constructor calls on the owned std collections;
//! * `.clone()`, `.to_vec()`, `.collect()`, `.to_owned()`,
//!   `.to_string()` method calls.
//!
//! The roots are the compile/run split's run-side entry points:
//! `CompiledInstance::evaluate`, `Problem::evaluate`,
//! `WaterfillInstance::run`, the `WaterfillScratch`
//! begin/push/set-multiplicity increments, `EvalScratch::sorted_by`, the
//! `ChurnEngine` arrive/depart increments, and every objective's
//! `beats`/`prefix_cannot_beat` pruning hooks. Deliberately *not* roots:
//! `key`/`prefix_bound` (documented may-allocate — `LexMaxMin::key`
//! sorts a copied rate vector) and `ChurnEngine::flush` (the amortized
//! epoch recompute is allowed to rebuild). The closure does not seed
//! protocol fns: operator desugaring on `Rational`/`Scalar` is
//! allocation-free by construction and seeding `clone` itself would make
//! every `Clone` impl a root.

use crate::diagnostics::{Diagnostic, Rule};
use crate::sema::Sema;
use crate::workspace::Workspace;

/// `(self_type, method)` pairs that anchor the hot-path closure.
const ROOT_METHODS: &[(&str, &str)] = &[
    ("CompiledInstance", "evaluate"),
    ("Problem", "evaluate"),
    ("WaterfillInstance", "run"),
    ("WaterfillScratch", "begin"),
    ("WaterfillScratch", "push_flow"),
    ("WaterfillScratch", "set_multiplicity"),
    ("EvalScratch", "sorted_by"),
    ("ChurnEngine", "arrive"),
    ("ChurnEngine", "depart"),
];

/// Pruning hooks every objective implements; hot on every search node.
const ROOT_ANY_IMPL: &[&str] = &["beats", "prefix_cannot_beat"];

/// Owned std collections whose associated constructors allocate.
const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "VecDeque", "BTreeMap", "BTreeSet"];

/// Associated fns on [`ALLOC_TYPES`] that allocate (or may).
const ALLOC_CTORS: &[&str] = &["new", "with_capacity", "from"];

/// Allocating method calls.
const ALLOC_METHODS: &[&str] = &["clone", "to_vec", "collect", "to_owned", "to_string"];

/// Allocating macros.
const ALLOC_MACROS: &[&str] = &["vec", "format"];

/// Runs L9 over the hot-path closure.
pub fn check(ws: &Workspace, sema: &Sema, out: &mut Vec<Diagnostic>) {
    let roots: Vec<usize> = sema
        .table
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            if f.in_test {
                return false;
            }
            match &f.self_type {
                Some(ty) => {
                    ROOT_METHODS.contains(&(ty.as_str(), f.name.as_str()))
                        || ROOT_ANY_IMPL.contains(&f.name.as_str())
                }
                None => false,
            }
        })
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let closure = sema.reachable(roots, false);

    for fi in 0..sema.table.files.len() {
        let entry = &sema.table.files[fi];
        // Off the measured path by construction: telemetry is snapshot
        // outside the hot loops, and the lint/bench tooling only shares
        // method *names* (push, index, …) with the pipeline — name
        // fan-out into it would be pure noise. The benches themselves
        // are covered dynamically by the counting-allocator gate.
        if entry.rel_path.starts_with("crates/telemetry/")
            || entry.rel_path.starts_with("crates/lint/")
            || entry.rel_path.starts_with("crates/bench/src/bin/")
        {
            continue;
        }
        let toks = sema.table.tokens(ws, fi);
        for (i, t) in toks.iter().enumerate() {
            let Some(fid) = sema.table.enclosing_fn(fi, i) else {
                continue;
            };
            let item = &sema.table.fns[fid];
            if !closure.contains(&fid) || item.in_test {
                continue;
            }
            let next_is = |s: &str| toks.get(i + 1).is_some_and(|n| n.is_punct(s));
            let prev_is = |s: &str| i.checked_sub(1).is_some_and(|p| toks[p].is_punct(s));

            let what = if ALLOC_MACROS.iter().any(|m| t.is_ident(m)) && next_is("!") {
                Some(format!("`{}!` macro", t.text))
            } else if ALLOC_CTORS.iter().any(|m| t.is_ident(m))
                && prev_is("::")
                && i >= 2
                && ALLOC_TYPES.iter().any(|ty| toks[i - 2].is_ident(ty))
            {
                Some(format!("`{}::{}`", toks[i - 2].text, t.text))
            } else if ALLOC_METHODS.iter().any(|m| t.is_ident(m)) && prev_is(".") && next_is("(") {
                Some(format!("`.{}()`", t.text))
            } else {
                None
            };
            if let Some(what) = what {
                out.push(Diagnostic::new(
                    Rule::L9HotAlloc,
                    &entry.rel_path,
                    t.line,
                    format!(
                        "{what} in `{}`, which is reachable from a zero-alloc hot path \
                         (compiled evaluate / waterfill run / churn arrive-depart); \
                         preallocate in the compile step or reuse scratch buffers",
                        super::l7_exactness::fn_label(sema, fid),
                    ),
                ));
            }
        }
    }
}

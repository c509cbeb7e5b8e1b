//! Hierarchical span tracing: thread-local span stacks, aggregated span
//! trees, and Chrome-trace / folded-stack exporters.
//!
//! # Model
//!
//! A *span* is a named scope opened with [`span`], nested under the
//! enclosing span on the same thread, and closed when its guard drops,
//! measuring monotonic wall time in between. Spans are **aggregated, not
//! logged**: every thread folds its closed spans into a [`SpanTree`] —
//! one node per distinct name-path, carrying a count and a total
//! duration — instead of appending one event per occurrence. Aggregation
//! is what keeps tracing affordable inside the branch-and-bound hot loop
//! (millions of water-fillings become one node) and what makes the
//! recorded *structure* deterministic: the set of name-paths and their
//! counts are properties of the work performed, not of the thread
//! schedule, so a `--stable` export is byte-identical for any thread
//! count.
//!
//! [`SpanContext`] keeps that determinism when work is spread over
//! worker threads: work that belongs under the caller's open spans (one
//! sweep row of an experiment, one block of a search) captures the
//! caller's open span path and enters it on the worker, so a span opened
//! there records under the caller's path — `e13;churn.epoch` or
//! `e14;search;search.block` whether the work ran inline or on a worker.
//!
//! # Gating and collection
//!
//! Tracing is **off by default** and controlled by [`set_tracing`],
//! independently of the counter/timer flag
//! ([`set_enabled`](crate::set_enabled)): spans cost a thread-local
//! lookup and two clock reads each, so they are opt-in per run
//! (`repro --trace`). When a traced thread exits, its tree is folded
//! into a process-global accumulator; [`take_trace`] merges that
//! accumulator with the calling thread's live tree. Scoped worker
//! threads (`std::thread::scope`) therefore contribute automatically —
//! they exit before the spawning call returns.
//!
//! # Examples
//!
//! ```
//! use clos_telemetry::span::{reset_tracing, set_tracing, span, take_trace};
//!
//! reset_tracing();
//! set_tracing(true);
//! {
//!     let _outer = span("solve");
//!     let _inner = span("pivot");
//! }
//! set_tracing(false);
//! let trace = take_trace();
//! let folded = trace.to_folded(true);
//! assert_eq!(folded, "solve 1\nsolve;pivot 1\n");
//! # reset_tracing();
//! ```

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::JsonValue;

static TRACING: AtomicBool = AtomicBool::new(false);

/// The trees of every traced thread that has already exited, merged.
static FINISHED: Mutex<Option<SpanTree>> = Mutex::new(None);

/// Turns span tracing on or off globally (independent of the
/// counter/timer flag).
pub fn set_tracing(on: bool) {
    TRACING.store(on, Ordering::Release);
}

/// Returns whether span tracing is currently enabled.
#[must_use]
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One aggregated span node: occurrence count, total wall nanoseconds,
/// and children keyed (and therefore deterministically ordered) by name.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
struct SpanNode {
    count: u64,
    nanos: u64,
    children: BTreeMap<String, SpanNode>,
}

impl SpanNode {
    fn merge(&mut self, other: &SpanNode) {
        self.count += other.count;
        self.nanos += other.nanos;
        for (name, child) in &other.children {
            self.children.entry(name.clone()).or_default().merge(child);
        }
    }
}

/// An aggregated tree of recorded spans.
///
/// Structure (names, nesting, sibling order) and counts are deterministic
/// for deterministic work; durations are wall-clock noise. The `stable`
/// exporter mode therefore weighs nodes by *count* and omits nanoseconds,
/// producing byte-identical output across runs and thread counts.
///
/// # Examples
///
/// ```
/// use clos_telemetry::span::SpanTree;
///
/// let mut tree = SpanTree::new();
/// tree.record_path(&["search", "waterfill"], 1_000);
/// tree.record_path(&["search", "waterfill"], 2_000);
/// tree.record_path(&["search"], 10_000);
/// assert_eq!(tree.to_folded(true), "search 1\nsearch;waterfill 2\n");
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct SpanTree {
    root: SpanNode,
}

impl SpanTree {
    /// Creates an empty tree.
    #[must_use]
    pub fn new() -> SpanTree {
        SpanTree::default()
    }

    /// Returns `true` if no span was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.root.children.is_empty()
    }

    /// Records one completed span occurrence at `path` (outermost name
    /// first), adding `nanos` to its total duration. Intermediate nodes
    /// are created as needed (with zero counts of their own until they
    /// are recorded directly). Empty paths are ignored.
    pub fn record_path(&mut self, path: &[&str], nanos: u64) {
        let Some(node) = path.iter().try_fold(&mut self.root, |node, name| {
            Some(node.children.entry((*name).to_string()).or_default())
        }) else {
            return;
        };
        if path.is_empty() {
            return;
        }
        node.count += 1;
        node.nanos = node.nanos.saturating_add(nanos);
    }

    /// Folds `other` into `self` (summing counts and durations; the
    /// union of paths is kept). Merging is commutative, so the result is
    /// independent of the order finished threads are folded in.
    pub fn merge(&mut self, other: &SpanTree) {
        self.root.merge(&other.root);
    }

    /// Calls `f` once per recorded node in deterministic (depth-first,
    /// name-sorted) order with `(path, count, total_nanos)`.
    pub fn visit(&self, mut f: impl FnMut(&[&str], u64, u64)) {
        fn walk<'a>(
            node: &'a SpanNode,
            path: &mut Vec<&'a str>,
            f: &mut impl FnMut(&[&str], u64, u64),
        ) {
            for (name, child) in &node.children {
                path.push(name);
                f(path, child.count, child.nanos);
                walk(child, path, f);
                path.pop();
            }
        }
        walk(&self.root, &mut Vec::new(), &mut f);
    }

    /// Total recorded occurrences of the span named by `path`, if any.
    #[must_use]
    pub fn count_at(&self, path: &[&str]) -> Option<u64> {
        path.iter()
            .try_fold(&self.root, |node, name| node.children.get(*name))
            .map(|node| node.count)
    }

    /// Exports the tree as a Chrome trace-event JSON document (load it
    /// at `chrome://tracing` or in Perfetto).
    ///
    /// Every node becomes one complete (`"ph":"X"`) event laid out as a
    /// flame graph: children are packed left-to-right inside their
    /// parent, siblings in name order. In wall mode (`stable == false`)
    /// widths are total nanoseconds (emitted as microsecond timestamps)
    /// and each event carries `count` and `total_ns` args. In `stable`
    /// mode widths are occurrence *counts* and nanoseconds are omitted,
    /// so the document is byte-identical for any thread count when the
    /// traced work is deterministic.
    #[must_use]
    pub fn to_chrome_trace(&self, stable: bool) -> String {
        // Width of a node: its own weight, grown to fit its children.
        fn width(node: &SpanNode, stable: bool) -> u64 {
            let own = if stable { node.count } else { node.nanos };
            let kids: u64 = node
                .children
                .values()
                .map(|child| width(child, stable))
                .sum();
            own.max(kids)
        }
        fn emit(node: &SpanNode, start: u64, stable: bool, events: &mut Vec<JsonValue>) {
            let mut cursor = start;
            for (name, child) in &node.children {
                let w = width(child, stable);
                let mut fields = vec![
                    ("name".to_string(), JsonValue::from(name.clone())),
                    ("ph".to_string(), JsonValue::from("X")),
                    ("pid".to_string(), JsonValue::from(0u64)),
                    ("tid".to_string(), JsonValue::from(0u64)),
                    ("ts".to_string(), scale(cursor, stable)),
                    ("dur".to_string(), scale(w, stable)),
                ];
                let mut args = vec![("count".to_string(), JsonValue::from(child.count))];
                if !stable {
                    args.push(("total_ns".to_string(), JsonValue::from(child.nanos)));
                }
                fields.push(("args".to_string(), JsonValue::Object(args)));
                events.push(JsonValue::Object(fields));
                emit(child, cursor, stable, events);
                cursor += w;
            }
        }
        /// Chrome timestamps are microseconds; stable weights are counts
        /// and stay as-is.
        fn scale(raw: u64, stable: bool) -> JsonValue {
            if stable {
                JsonValue::from(raw)
            } else {
                JsonValue::from(raw / 1_000)
            }
        }
        let mut events = Vec::new();
        emit(&self.root, 0, stable, &mut events);
        let doc = JsonValue::Object(vec![
            ("schema".to_string(), JsonValue::from("clos-trace/v1")),
            ("stable".to_string(), JsonValue::from(stable)),
            (
                "displayTimeUnit".to_string(),
                JsonValue::from(if stable { "ns" } else { "ms" }),
            ),
            ("traceEvents".to_string(), JsonValue::Array(events)),
        ]);
        format!("{doc}\n")
    }

    /// Exports the tree as folded stacks (`inferno` / `flamegraph.pl`
    /// input): one `path;seg;ment weight` line per node, in
    /// deterministic order.
    ///
    /// In wall mode the weight is the node's *self* time in nanoseconds
    /// (total minus children; zero-self nodes are skipped, as folded
    /// consumers expect). In `stable` mode the weight is the occurrence
    /// count of every recorded node, durations never appear, and nodes
    /// with a zero count of their own (pure intermediates) are skipped.
    /// Stack-frame separators (`;`), spaces, and newlines inside names
    /// are replaced with `_` so lines stay parseable.
    #[must_use]
    pub fn to_folded(&self, stable: bool) -> String {
        fn sanitize(name: &str) -> String {
            name.replace([';', ' ', '\n', '\r', '\t'], "_")
        }
        let mut out = String::new();
        let mut walk: Vec<(Vec<String>, &SpanNode)> = self
            .root
            .children
            .iter()
            .rev()
            .map(|(name, child)| (vec![sanitize(name)], child))
            .collect();
        while let Some((path, node)) = walk.pop() {
            let weight = if stable {
                node.count
            } else {
                let children: u64 = node.children.values().map(|c| c.nanos).sum();
                node.nanos.saturating_sub(children)
            };
            if weight > 0 {
                out.push_str(&path.join(";"));
                out.push(' ');
                out.push_str(&weight.to_string());
                out.push('\n');
            }
            for (name, child) in node.children.iter().rev() {
                let mut next = path.clone();
                next.push(sanitize(name));
                walk.push((next, child));
            }
        }
        out
    }
}

/// This thread's live trace: the names of its open spans (outermost
/// first) plus the tree of closed ones. The tree is folded into
/// [`FINISHED`] whenever the stack empties (closing an outermost span), so
/// a scoped worker's spans are globally visible the moment its last guard
/// drops — *before* the spawning `std::thread::scope` returns. (Thread-local destructors are
/// only a backstop: they may run after `scope` unblocks, too late for a
/// `take_trace` right after the scope.)
#[derive(Default)]
struct ThreadTrace {
    stack: Vec<&'static str>,
    tree: SpanTree,
}

impl ThreadTrace {
    fn flush(&mut self) {
        if self.tree.is_empty() {
            return;
        }
        let mut finished = FINISHED
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        finished.get_or_insert_with(SpanTree::new).merge(&self.tree);
        self.tree = SpanTree::new();
    }
}

impl Drop for ThreadTrace {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static THREAD_TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace::default());
}

/// The guard returned by [`span`]; closes the span (and
/// records its duration) on drop. Guards must drop in LIFO order, which
/// scoped `let` bindings guarantee.
#[must_use = "a span measures the scope of its guard"]
#[derive(Debug)]
pub struct SpanGuard {
    start: Option<Instant>,
}

/// Opens a span named `name`, nested under the enclosing open span on
/// this thread (if any). A no-op returning an inert guard when tracing
/// is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { start: None };
    }
    THREAD_TRACE.with(|trace| trace.borrow_mut().stack.push(name));
    SpanGuard {
        start: Some(Instant::now()),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        THREAD_TRACE.with(|trace| {
            let trace = &mut *trace.borrow_mut();
            trace.tree.record_path(&trace.stack, nanos);
            trace.stack.pop();
            if trace.stack.is_empty() {
                trace.flush();
            }
        });
    }
}

/// The open span path of one thread, captured to be entered on another.
///
/// [`SpanContext::capture`] on the spawning thread records the path a
/// span opened there would nest under; [`SpanContext::enter`] on a fresh
/// worker (no span open yet) pushes that path onto the worker's stack as
/// frames no guard closes, so the worker's spans record under it. The
/// captured frames themselves are never recorded (the caller's own guards
/// record them once), which keeps the tree — and the `stable` exports —
/// identical whether the work ran inline or on workers. Captured with
/// tracing off, the context is empty and entering it does nothing.
///
/// # Examples
///
/// ```
/// use clos_telemetry::span::{reset_tracing, set_tracing, span, take_trace, SpanContext};
///
/// reset_tracing();
/// set_tracing(true);
/// {
///     let _outer = span("sweep");
///     let context = SpanContext::capture();
///     std::thread::scope(|scope| {
///         scope.spawn(|| {
///             let _entered = context.enter();
///             let _row = span("row");
///         });
///     });
/// }
/// set_tracing(false);
/// assert_eq!(take_trace().to_folded(true), "sweep 1\nsweep;row 1\n");
/// # reset_tracing();
/// ```
#[derive(Debug, Default)]
pub struct SpanContext {
    /// The capturing thread's open span names, outermost first.
    path: Vec<&'static str>,
}

impl SpanContext {
    /// Captures the calling thread's open span path (empty when tracing
    /// is off).
    #[must_use]
    pub fn capture() -> SpanContext {
        if !tracing_enabled() {
            return SpanContext::default();
        }
        THREAD_TRACE.with(|trace| SpanContext {
            path: trace.borrow().stack.clone(),
        })
    }

    /// Enters the captured path on the calling thread until the returned
    /// guard drops. Dropping the guard removes the path and, if it leaves
    /// the stack empty, folds the thread's tree into the global trace —
    /// so a scoped worker's spans reach [`take_trace`] before the scope
    /// returns.
    pub fn enter(&self) -> ContextGuard {
        if self.path.is_empty() {
            return ContextGuard { depth: None };
        }
        THREAD_TRACE.with(|trace| {
            let stack = &mut trace.borrow_mut().stack;
            let depth = stack.len();
            stack.extend_from_slice(&self.path);
            ContextGuard { depth: Some(depth) }
        })
    }
}

/// The guard returned by [`SpanContext::enter`]; removes the entered path
/// on drop. It must outlive every span opened under it.
#[must_use = "an entered context lasts for the scope of its guard"]
#[derive(Debug)]
pub struct ContextGuard {
    /// Stack depth below the entered frames; `None` for an empty context.
    depth: Option<usize>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        let Some(depth) = self.depth else {
            return;
        };
        THREAD_TRACE.with(|trace| {
            let trace = &mut *trace.borrow_mut();
            trace.stack.truncate(depth);
            if trace.stack.is_empty() {
                trace.flush();
            }
        });
    }
}

/// Returns the merged trace: every finished traced thread's tree plus
/// the calling thread's live tree. Does not clear anything; call
/// [`reset_tracing`] to start a fresh trace.
#[must_use]
pub fn take_trace() -> SpanTree {
    let mut merged = FINISHED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
        .unwrap_or_default();
    THREAD_TRACE.with(|trace| merged.merge(&trace.borrow().tree));
    merged
}

/// Clears the global accumulator and the calling thread's recorded tree
/// (open spans on the calling thread keep recording afterwards). Other
/// live threads' trees are untouched.
pub fn reset_tracing() {
    *FINISHED
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    THREAD_TRACE.with(|trace| trace.borrow_mut().tree = SpanTree::new());
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global; serialize the tests that touch it.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = serial();
        reset_tracing();
        set_tracing(false);
        {
            let _a = span("a");
            let _b = span("b");
        }
        assert!(take_trace().is_empty());
    }

    #[test]
    fn nesting_and_counts() {
        let _guard = serial();
        reset_tracing();
        set_tracing(true);
        for _ in 0..3 {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        {
            let _other = span("other");
        }
        set_tracing(false);
        let trace = take_trace();
        assert_eq!(trace.count_at(&["outer"]), Some(3));
        assert_eq!(trace.count_at(&["outer", "inner"]), Some(3));
        assert_eq!(trace.count_at(&["other"]), Some(1));
        assert_eq!(trace.count_at(&["inner"]), None);
        reset_tracing();
    }

    #[test]
    fn worker_threads_fold_into_the_global_trace() {
        let _guard = serial();
        reset_tracing();
        set_tracing(true);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let _block = span("block");
                    let _leaf = span("leaf");
                });
            }
        });
        set_tracing(false);
        let trace = take_trace();
        assert_eq!(trace.count_at(&["block"]), Some(2));
        assert_eq!(trace.count_at(&["block", "leaf"]), Some(2));
        reset_tracing();
    }

    /// Runs two rows under `outer`: inline on this thread, or on two
    /// scoped workers that enter the captured context. Returns the trace
    /// as `take_trace` sees it right after the scope returns.
    fn rows_under_outer(on_workers: bool) -> SpanTree {
        let row = || {
            let _row = span("row");
            let _leaf = span("leaf");
        };
        reset_tracing();
        set_tracing(true);
        let trace = {
            let _outer = span("outer");
            if on_workers {
                let context = SpanContext::capture();
                std::thread::scope(|scope| {
                    for _ in 0..2 {
                        scope.spawn(|| {
                            let _entered = context.enter();
                            row();
                        });
                    }
                });
            } else {
                row();
                row();
            }
            // `outer` is still open: only flushed worker trees can show.
            take_trace()
        };
        set_tracing(false);
        reset_tracing();
        trace
    }

    #[test]
    fn worker_spans_record_under_the_inherited_path() {
        let _guard = serial();
        let trace = rows_under_outer(true);
        assert_eq!(trace.count_at(&["outer", "row"]), Some(2));
        assert_eq!(trace.count_at(&["outer", "row", "leaf"]), Some(2));
        assert_eq!(trace.count_at(&["row"]), None, "worker spans at the root");
        // The inherited frame is the caller's; only its own guard counts it.
        assert_eq!(trace.count_at(&["outer"]), Some(0));
    }

    #[test]
    fn inline_and_worker_rows_export_identically() {
        let _guard = serial();
        let inline = rows_under_outer(false);
        let workers = rows_under_outer(true);
        assert_eq!(inline.to_folded(true), workers.to_folded(true));
        assert_eq!(inline.to_chrome_trace(true), workers.to_chrome_trace(true));
        assert_eq!(workers.to_folded(true), "outer;row 2\nouter;row;leaf 2\n");
    }

    #[test]
    fn leaving_a_context_flushes_the_worker_tree() {
        let _guard = serial();
        reset_tracing();
        set_tracing(true);
        let barrier = std::sync::Barrier::new(2);
        let seen = {
            let _outer = span("outer");
            let context = SpanContext::capture();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    {
                        let _entered = context.enter();
                        let _row = span("row");
                    }
                    // Still alive: only the guard's flush can publish.
                    barrier.wait();
                    barrier.wait();
                });
                barrier.wait();
                let seen = take_trace().count_at(&["outer", "row"]);
                barrier.wait();
                seen
            })
        };
        set_tracing(false);
        assert_eq!(seen, Some(1));
        reset_tracing();
    }

    #[test]
    fn context_captured_with_tracing_off_is_inert() {
        let _guard = serial();
        reset_tracing();
        set_tracing(false);
        let context = SpanContext::capture();
        set_tracing(true);
        {
            let _entered = context.enter();
            let _row = span("row");
        }
        set_tracing(false);
        assert_eq!(take_trace().to_folded(true), "row 1\n");
        reset_tracing();
    }

    #[test]
    fn record_path_aggregates() {
        let mut tree = SpanTree::new();
        tree.record_path(&["a"], 5);
        tree.record_path(&["a"], 7);
        tree.record_path(&["a", "b"], 2);
        tree.record_path(&[], 99); // ignored
        assert_eq!(tree.count_at(&["a"]), Some(2));
        assert_eq!(tree.count_at(&["a", "b"]), Some(1));
        let mut seen = Vec::new();
        tree.visit(|path, count, nanos| seen.push((path.join("/"), count, nanos)));
        assert_eq!(
            seen,
            vec![("a".to_string(), 2, 12), ("a/b".to_string(), 1, 2)]
        );
    }

    #[test]
    fn empty_tree_exports_are_empty() {
        let tree = SpanTree::new();
        assert!(tree.is_empty());
        assert_eq!(tree.to_folded(true), "");
        assert_eq!(tree.to_folded(false), "");
        for stable in [false, true] {
            let doc = tree.to_chrome_trace(stable);
            assert!(doc.contains("\"traceEvents\":[]"), "doc: {doc}");
            assert!(crate::json::JsonValue::parse(&doc).is_ok());
        }
    }

    #[test]
    fn chrome_trace_escapes_names_and_is_valid_json() {
        let mut tree = SpanTree::new();
        tree.record_path(&["quote\"back\\slash\nnewline"], 1_500);
        let doc = tree.to_chrome_trace(false);
        let parsed = crate::json::JsonValue::parse(&doc).expect("chrome trace must be valid JSON");
        let doc2 = tree.to_chrome_trace(false);
        assert_eq!(doc, doc2, "export must be deterministic");
        assert!(doc.contains("quote\\\"back\\\\slash\\nnewline"));
        assert!(doc.ends_with('\n'));
        drop(parsed);
    }

    #[test]
    fn chrome_trace_packs_children_inside_parents() {
        let mut tree = SpanTree::new();
        // Parent recorded 1x; children counts 2 and 3 overflow the
        // parent's own weight, so the parent widens to fit them.
        tree.record_path(&["p"], 10);
        tree.record_path(&["p", "a"], 1);
        tree.record_path(&["p", "a"], 1);
        for _ in 0..3 {
            tree.record_path(&["p", "b"], 1);
        }
        let doc = tree.to_chrome_trace(true);
        // Stable mode: parent width = max(1, 2 + 3) = 5; "a" sits at
        // ts 0 width 2, "b" at ts 2 width 3. Counts, never nanos.
        assert!(doc.contains("\"name\":\"p\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":5"));
        assert!(doc.contains("\"name\":\"a\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":0,\"dur\":2"));
        assert!(doc.contains("\"name\":\"b\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":2,\"dur\":3"));
        assert!(!doc.contains("total_ns"));
    }

    #[test]
    fn folded_output_sanitizes_separators_and_reports_self_time() {
        let mut tree = SpanTree::new();
        tree.record_path(&["has space;and;semis"], 5_000);
        tree.record_path(&["has space;and;semis", "child"], 2_000);
        let wall = tree.to_folded(false);
        // Wall mode: parent weight is self time (5000 - 2000).
        assert_eq!(
            wall,
            "has_space_and_semis 3000\nhas_space_and_semis;child 2000\n"
        );
        let stable = tree.to_folded(true);
        assert_eq!(
            stable,
            "has_space_and_semis 1\nhas_space_and_semis;child 1\n"
        );
    }

    #[test]
    fn folded_skips_zero_weight_intermediates() {
        let mut tree = SpanTree::new();
        // "outer" is never recorded directly — only its child is — so in
        // stable mode it has count 0 and must not produce a line.
        tree.record_path(&["outer", "inner"], 1_000);
        assert_eq!(tree.to_folded(true), "outer;inner 1\n");
        assert_eq!(tree.to_folded(false), "outer;inner 1000\n");
    }

    #[test]
    fn merge_is_commutative() {
        let mut left = SpanTree::new();
        left.record_path(&["a"], 1);
        left.record_path(&["a", "b"], 2);
        let mut right = SpanTree::new();
        right.record_path(&["a"], 10);
        right.record_path(&["c"], 3);
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, rl);
        assert_eq!(lr.count_at(&["a"]), Some(2));
    }
}

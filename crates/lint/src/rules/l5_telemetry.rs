//! L5 — telemetry naming: counter/timer names are unique and follow the
//! registry scheme; instrumentation sites reference registered statics.
//!
//! Counter deltas are keyed by name in the JSON-Lines reports: two
//! counters sharing a name would silently merge in every report, and a
//! misspelled name at an instrumentation site would compile but count
//! into the void. Checks:
//!
//! * every `Counter::new("…")` / `Timer::new("…")` literal in non-test
//!   code is `dot.separated` lowercase `snake_case`;
//! * counter names are unique; timer names are unique; and no counter
//!   collides with a timer's derived snapshot keys (`<timer>.nanos`,
//!   `<timer>.spans`);
//! * every `counters::NAME` / `timers::NAME` instrumentation site refers
//!   to a static that exists in the registry;
//! * every `span("…")` tracing site uses a well-formed name under the
//!   same scheme — span names become Chrome trace-event and folded-stack
//!   frame labels, where a malformed name corrupts the flamegraph
//!   grammar. Unlike counters, duplicates are expected: re-instrumenting
//!   the same logical phase at several sites is how the aggregated tree
//!   merges them.

use std::collections::BTreeMap;

use crate::diagnostics::{Diagnostic, Rule};
use crate::lexer::TokenKind;
use crate::workspace::Workspace;

/// Runs L5 over the whole workspace.
pub fn check(ws: &Workspace, out: &mut Vec<Diagnostic>) {
    // (name kind, name) -> first definition site, for duplicate checks.
    let mut names: BTreeMap<(&'static str, String), (String, u32)> = BTreeMap::new();
    // Registered static idents: `static WATERFILL_CALLS: Counter = …`.
    let mut statics: Vec<String> = Vec::new();
    // Usage sites: (`counters`|`timers`, ident, path, line).
    let mut usages: Vec<(String, String, u32)> = Vec::new();

    for member in &ws.members {
        for file in &member.sources {
            let toks = &file.tokens;
            for (i, t) in toks.iter().enumerate() {
                if file.in_test_region(t.line) {
                    continue;
                }
                // Definition: (Counter|Timer) :: new ( "name"
                if (t.is_ident("Counter") || t.is_ident("Timer"))
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                    && toks.get(i + 2).is_some_and(|n| n.is_ident("new"))
                    && toks.get(i + 3).is_some_and(|n| n.is_punct("("))
                    && toks.get(i + 4).is_some_and(|n| n.kind == TokenKind::Str)
                {
                    let kind = if t.is_ident("Counter") {
                        "counter"
                    } else {
                        "timer"
                    };
                    let name = toks[i + 4].text.trim_matches('"').to_string();
                    let line = toks[i + 4].line;
                    if !well_formed(&name) {
                        out.push(Diagnostic::new(
                            Rule::L5Telemetry,
                            &file.rel_path,
                            line,
                            format!(
                                "{kind} name {name:?} violates the registry scheme \
                                 (lowercase dot.separated snake_case)"
                            ),
                        ));
                    }
                    let key = (kind_tag(kind), name.clone());
                    if let Some((first_path, first_line)) = names.get(&key) {
                        out.push(Diagnostic::new(
                            Rule::L5Telemetry,
                            &file.rel_path,
                            line,
                            format!(
                                "duplicate {kind} name {name:?} (first defined at \
                                 {first_path}:{first_line})"
                            ),
                        ));
                    } else {
                        names.insert(key, (file.rel_path.clone(), line));
                    }
                }
                // Registered static: static NAME : (Counter|Timer)
                if t.is_ident("static")
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(":"))
                    && toks
                        .get(i + 3)
                        .is_some_and(|n| n.is_ident("Counter") || n.is_ident("Timer"))
                {
                    if let Some(name_tok) = toks.get(i + 1) {
                        statics.push(name_tok.text.clone());
                    }
                }
                // Span site: span ( "name" — same naming scheme as
                // counters/timers, but duplicates are fine.
                if t.is_ident("span")
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("("))
                    && toks.get(i + 2).is_some_and(|n| n.kind == TokenKind::Str)
                {
                    let name = toks[i + 2].text.trim_matches('"').to_string();
                    if !well_formed(&name) {
                        out.push(Diagnostic::new(
                            Rule::L5Telemetry,
                            &file.rel_path,
                            toks[i + 2].line,
                            format!(
                                "span name {name:?} violates the registry scheme \
                                 (lowercase dot.separated snake_case)"
                            ),
                        ));
                    }
                }
                // Usage: (counters|timers) :: SCREAMING_IDENT
                if (t.is_ident("counters") || t.is_ident("timers"))
                    && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                {
                    if let Some(target) = toks.get(i + 2) {
                        let screaming = target.kind == TokenKind::Ident
                            && target.text.chars().any(|c| c.is_ascii_uppercase());
                        if screaming {
                            usages.push((target.text.clone(), file.rel_path.clone(), t.line));
                        }
                    }
                }
            }
        }
    }

    // Counter names must not collide with derived timer snapshot keys.
    for ((kind, name), (path, line)) in &names {
        if *kind != "timer" {
            continue;
        }
        for suffix in [".nanos", ".spans"] {
            let derived = format!("{name}{suffix}");
            if let Some((cpath, cline)) = names.get(&("counter", derived.clone())) {
                out.push(Diagnostic::new(
                    Rule::L5Telemetry,
                    cpath,
                    *cline,
                    format!(
                        "counter {derived:?} collides with timer {name:?} \
                         ({path}:{line}) in snapshot keys"
                    ),
                ));
            }
        }
    }

    statics.sort_unstable();
    statics.dedup();
    for (ident, path, line) in usages {
        if statics.binary_search(&ident).is_err() {
            out.push(Diagnostic::new(
                Rule::L5Telemetry,
                &path,
                line,
                format!("instrumentation site references unregistered static `{ident}`"),
            ));
        }
    }
}

fn kind_tag(kind: &str) -> &'static str {
    if kind == "counter" {
        "counter"
    } else {
        "timer"
    }
}

/// Lowercase `snake_case` segments separated by single dots.
fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.split('.').all(|seg| {
            !seg.is_empty()
                && seg
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_scheme() {
        assert!(well_formed("waterfill.rounds"));
        assert!(well_formed("search"));
        assert!(well_formed("simplex.degenerate_pivots"));
        assert!(!well_formed(""));
        assert!(!well_formed("Waterfill.rounds"));
        assert!(!well_formed("a..b"));
        assert!(!well_formed("a."));
        assert!(!well_formed("with space"));
    }
}

//! Pass 2 of the workspace analyzer: cross-file rules over the merged
//! item models, plus global waiver accounting.
//!
//! [`lint_files`] is the entry the binary drives. Per file it runs the
//! token-stream rules ([`crate::rules`]) and builds the item model
//! ([`crate::model`]); over the merged models it runs:
//!
//! * `lock-order` — the static acquisition graph. Nodes are lock
//!   classes (`TrackedMutex::new("<class>")`); edges come from guard
//!   nesting within fn bodies and from call-graph expansion (a call made
//!   with a guard held contributes edges to every class the callee's
//!   transitive summary acquires; callees are resolved by unique fn name,
//!   so ambiguous or std-prelude names never wire unrelated code
//!   together). Any cycle is an error — the same inversion the runtime
//!   lockdep (`sim_rt::lockorder`) would catch in a debug run, caught
//!   before one. A guard held across a `Pool::scope`/`submit` boundary
//!   is flagged too.
//! * `metric-name-drift` — every metric-name literal registered by
//!   library code must appear in the pin test's `PINNED_METRICS` table
//!   and vice versa (`DYNAMIC_METRICS` exempts runtime-assembled names).
//! * `stale-waiver` — a directive that suppressed nothing is dead and
//!   must go.

use std::collections::{BTreeMap, BTreeSet};

use crate::diag::Diagnostic;
use crate::lexer::{lex, Directive};
use crate::model::{self, FileModel, Site};
use crate::rules::{rule, suggest, Config, LintResult};

/// Lints a set of Rust sources as one workspace: per-file rules, the
/// cross-file rules, then global waiver application. `files` pairs each
/// workspace-relative path with its source text.
pub fn lint_files(files: &[(&str, &str)], cfg: &Config) -> LintResult {
    let mut models: Vec<FileModel> = Vec::new();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut per_file: Vec<(Vec<Directive>, Vec<String>)> = Vec::new();

    for (rel, src) in files {
        let lx = lex(src);
        let model = model::build(rel, &lx);
        let lines: Vec<&str> = src.lines().collect();
        raw.extend(crate::rules::scan_source(rel, &lx, &model, cfg, &lines));
        per_file.push((
            lx.directives,
            lines.iter().map(|l| l.trim().to_string()).collect(),
        ));
        models.push(model);
    }

    let snippet = |path: &str, line: u32| -> String {
        files
            .iter()
            .position(|(rel, _)| *rel == path)
            .and_then(|i| per_file[i].1.get(line as usize - 1))
            .cloned()
            .unwrap_or_default()
    };

    for d in lock_order(&models) {
        raw.push(finish(d, &snippet));
    }
    for d in metric_drift(&models) {
        raw.push(finish(d, &snippet));
    }

    apply_waivers_globally(raw, files, &per_file, &snippet)
}

/// A diagnostic before its snippet is attached.
struct Pending {
    path: String,
    site: Site,
    rule: &'static str,
    message: String,
}

fn finish(p: Pending, snippet: &dyn Fn(&str, u32) -> String) -> Diagnostic {
    let info = rule(p.rule).expect("cross-file rules are registered");
    Diagnostic {
        snippet: snippet(&p.path, p.site.line),
        path: p.path,
        line: p.site.line,
        col: p.site.col,
        rule: info.id,
        severity: info.severity,
        message: p.message,
    }
}

/// Witness for one directed lock-order edge: where it was first seen and,
/// for call-expanded edges, through which callee.
struct Edge {
    path: String,
    site: Site,
    via: Option<String>,
}

/// Builds the static acquisition graph and reports cycles and
/// guard-across-pool boundaries.
fn lock_order(models: &[FileModel]) -> Vec<Pending> {
    // Fn summaries: name -> set of classes the fn (transitively)
    // acquires. Names defined more than once are ambiguous and excluded
    // from call expansion.
    let mut def_count: BTreeMap<&str, usize> = BTreeMap::new();
    for m in models {
        for f in &m.fns {
            *def_count.entry(f.name.as_str()).or_insert(0) += 1;
        }
    }
    let unique = |name: &str| def_count.get(name).copied() == Some(1);

    let mut summary: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    for m in models {
        for f in &m.fns {
            if !unique(&f.name) {
                continue;
            }
            summary.insert(
                f.name.as_str(),
                f.acquires.iter().map(|a| a.class.clone()).collect(),
            );
        }
    }
    // Propagate through call edges to a fixpoint (bounded by fn count).
    loop {
        let mut changed = false;
        for m in models {
            for f in &m.fns {
                if !unique(&f.name) {
                    continue;
                }
                let mut add: BTreeSet<String> = BTreeSet::new();
                for c in &f.calls {
                    if unique(&c.callee) && c.callee != f.name {
                        if let Some(s) = summary.get(c.callee.as_str()) {
                            add.extend(s.iter().cloned());
                        }
                    }
                }
                if let Some(s) = summary.get_mut(f.name.as_str()) {
                    let before = s.len();
                    s.extend(add);
                    changed |= s.len() != before;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let mut out = Vec::new();
    let mut edges: BTreeMap<(String, String), Edge> = BTreeMap::new();
    let mut add_edge = |from: &str, to: &str, path: &str, site: Site, via: Option<String>| {
        edges
            .entry((from.to_string(), to.to_string()))
            .or_insert_with(|| Edge {
                path: path.to_string(),
                site,
                via,
            });
    };

    for m in models {
        for f in &m.fns {
            for a in &f.acquires {
                for h in &a.held {
                    add_edge(h, &a.class, &m.rel_path, a.site, None);
                }
            }
            for c in &f.calls {
                if c.held.is_empty() || !unique(&c.callee) {
                    continue;
                }
                if let Some(s) = summary.get(c.callee.as_str()) {
                    for cls in s {
                        for h in &c.held {
                            add_edge(h, cls, &m.rel_path, c.site, Some(c.callee.clone()));
                        }
                    }
                }
            }
            for x in &f.pool_crossings {
                out.push(Pending {
                    path: m.rel_path.clone(),
                    site: x.site,
                    rule: "lock-order",
                    message: format!(
                        "`{}` entered while holding lock class{} {}; blocking on the pool with a guard held can deadlock the farm",
                        x.method,
                        if x.held.len() == 1 { "" } else { "es" },
                        x.held
                            .iter()
                            .map(|c| format!("`{c}`"))
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
    }

    // Insert edges in deterministic order; an edge whose target already
    // reaches its source closes a cycle (exactly the runtime lockdep
    // check, run over the whole workspace at lint time).
    let mut graph: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for ((from, to), e) in &edges {
        if from == to || reaches(&graph, to, from) {
            let mut path_names = cycle_path(&graph, to, from);
            path_names.push(to.clone());
            let via = e
                .via
                .as_ref()
                .map(|v| format!(" (via `{v}()`)"))
                .unwrap_or_default();
            out.push(Pending {
                path: e.path.clone(),
                site: e.site,
                rule: "lock-order",
                message: format!(
                    "acquiring `{to}` while holding `{from}`{via} closes a lock-order cycle: {}",
                    path_names.join(" \u{2192} ")
                ),
            });
            continue;
        }
        graph.entry(from.clone()).or_default().insert(to.clone());
    }
    out
}

/// Is `to` reachable from `from` in the edge map?
fn reaches(graph: &BTreeMap<String, BTreeSet<String>>, from: &str, to: &str) -> bool {
    let mut seen = BTreeSet::new();
    let mut stack = vec![from.to_string()];
    while let Some(n) = stack.pop() {
        if n == to {
            return true;
        }
        if !seen.insert(n.clone()) {
            continue;
        }
        if let Some(next) = graph.get(&n) {
            stack.extend(next.iter().cloned());
        }
    }
    false
}

/// The class chain `from → … → to` through the existing edges (BFS, so
/// the shortest witness), for the cycle message.
fn cycle_path(graph: &BTreeMap<String, BTreeSet<String>>, from: &str, to: &str) -> Vec<String> {
    let mut parent: BTreeMap<String, String> = BTreeMap::new();
    let mut queue = std::collections::VecDeque::from([from.to_string()]);
    let mut seen: BTreeSet<String> = BTreeSet::from([from.to_string()]);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![n];
            while let Some(p) = parent.get(path.last().map(String::as_str).unwrap_or_default()) {
                path.push(p.clone());
            }
            path.reverse();
            return path;
        }
        if let Some(next) = graph.get(&n) {
            for m in next {
                if seen.insert(m.clone()) {
                    parent.insert(m.clone(), n.clone());
                    queue.push_back(m.clone());
                }
            }
        }
    }
    vec![from.to_string(), to.to_string()]
}

/// Reconciles registered metric-name literals against the pin test.
fn metric_drift(models: &[FileModel]) -> Vec<Pending> {
    let Some(pin) = models.iter().find(|m| model::is_pin_file(&m.rel_path)) else {
        // No pin file in the lint set (explicit-path run on a source
        // tree); nothing to reconcile against.
        return Vec::new();
    };
    let pinned: BTreeSet<&str> = pin.pinned.iter().map(|l| l.name.as_str()).collect();
    let dynamic: BTreeSet<&str> = pin.dynamic.iter().map(String::as_str).collect();

    let mut out = Vec::new();
    // Code → pins: first registration site of each unpinned name.
    let mut reported: BTreeSet<&str> = BTreeSet::new();
    let mut registered: BTreeSet<&str> = BTreeSet::new();
    for m in models {
        for lit in &m.metrics {
            registered.insert(lit.name.as_str());
            if !pinned.contains(lit.name.as_str())
                && !dynamic.contains(lit.name.as_str())
                && reported.insert(lit.name.as_str())
            {
                out.push(Pending {
                    path: m.rel_path.clone(),
                    site: lit.site,
                    rule: "metric-name-drift",
                    message: format!(
                        "metric `{}` is registered here but missing from PINNED_METRICS in {}",
                        lit.name, pin.rel_path
                    ),
                });
            }
        }
    }
    // Pins → code: a pinned name no library literal registers anymore.
    for p in &pin.pinned {
        if !registered.contains(p.name.as_str()) {
            out.push(Pending {
                path: pin.rel_path.clone(),
                site: p.site,
                rule: "metric-name-drift",
                message: format!(
                    "pinned metric `{}` is registered nowhere in the workspace; drop the pin or restore the metric",
                    p.name
                ),
            });
        }
    }
    out
}

/// Applies waivers across the whole diagnostic set, emitting `bad-waiver`
/// for unknown rule names (with a nearest-rule suggestion) and
/// `stale-waiver` for directives that suppressed nothing.
fn apply_waivers_globally(
    raw: Vec<Diagnostic>,
    files: &[(&str, &str)],
    per_file: &[(Vec<Directive>, Vec<String>)],
    snippet: &dyn Fn(&str, u32) -> String,
) -> LintResult {
    let mut result = LintResult::default();
    // (file index, directive index, rule) -> suppressed count.
    let mut used: BTreeMap<(usize, usize, String), usize> = BTreeMap::new();

    'diags: for diag in raw {
        let file_idx = files.iter().position(|(rel, _)| *rel == diag.path);
        if let Some(fi) = file_idx {
            for (di, d) in per_file[fi].0.iter().enumerate() {
                if (d.line == diag.line || d.line + 1 == diag.line)
                    && d.rules.iter().any(|r| r == diag.rule)
                {
                    *used.entry((fi, di, diag.rule.to_string())).or_insert(0) += 1;
                    result.waived += 1;
                    continue 'diags;
                }
            }
        }
        result.diags.push(diag);
    }

    for (fi, (directives, _)) in per_file.iter().enumerate() {
        let rel = files[fi].0;
        for (di, d) in directives.iter().enumerate() {
            for r in &d.rules {
                if rule(r).is_none() {
                    let info = rule("bad-waiver").expect("bad-waiver is registered");
                    let message = match suggest(r) {
                        Some(near) => {
                            format!("waiver names unknown rule `{r}`; did you mean `{near}`?")
                        }
                        None => format!("waiver names unknown rule `{r}`"),
                    };
                    result.diags.push(Diagnostic {
                        path: rel.to_string(),
                        line: d.line,
                        col: d.col,
                        rule: info.id,
                        severity: info.severity,
                        message,
                        snippet: snippet(rel, d.line),
                    });
                } else if used.get(&(fi, di, r.clone())).copied().unwrap_or(0) == 0 {
                    let info = rule("stale-waiver").expect("stale-waiver is registered");
                    result.diags.push(Diagnostic {
                        path: rel.to_string(),
                        line: d.line,
                        col: d.col,
                        rule: info.id,
                        severity: info.severity,
                        message: format!("waiver for `{r}` suppresses no diagnostics; remove it"),
                        snippet: snippet(rel, d.line),
                    });
                }
            }
        }
    }

    result.diags.sort_by_key(Diagnostic::sort_key);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> LintResult {
        lint_files(files, &Config::workspace_default())
    }

    #[test]
    fn single_file_cycle_is_caught() {
        let src = "struct S { a: TrackedMutex<u32>, b: TrackedMutex<u32> }\n\
             impl S {\n\
             fn mk(&mut self) { self.a = TrackedMutex::new(\"w.a\", 0); self.b = TrackedMutex::new(\"w.b\", 0); }\n\
             fn ab(&self) { let _g = self.a.lock(); let _h = self.b.lock(); }\n\
             fn ba(&self) { let _g = self.b.lock(); let _h = self.a.lock(); }\n\
             }\n";
        let r = ws(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "lock-order");
        assert!(r.diags[0].message.contains("w.a \u{2192} w.b \u{2192} w.a"));
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "struct S { a: TrackedMutex<u32>, b: TrackedMutex<u32> }\n\
             impl S {\n\
             fn mk(&mut self) { self.a = TrackedMutex::new(\"c.a\", 0); self.b = TrackedMutex::new(\"c.b\", 0); }\n\
             fn ab(&self) { let _g = self.a.lock(); let _h = self.b.lock(); }\n\
             fn ab2(&self) { let _g = self.a.lock(); let _h = self.b.lock(); }\n\
             }\n";
        let r = ws(&[("crates/demo/src/lib.rs", src)]);
        assert!(r.diags.is_empty(), "{:?}", r.diags);
    }

    #[test]
    fn call_expansion_finds_indirect_cycle() {
        let a = "struct S { a: TrackedMutex<u32>, b: TrackedMutex<u32> }\n\
             impl S {\n\
             fn mk(&mut self) { self.a = TrackedMutex::new(\"i.a\", 0); self.b = TrackedMutex::new(\"i.b\", 0); }\n\
             fn holds_a_calls_helper(&self) { let _g = self.a.lock(); helper_grabs_b(self); }\n\
             }\n\
             fn helper_grabs_b(s: &S) { s.b.lock(); }\n";
        let b = "struct T { b: TrackedMutex<u32>, a: TrackedMutex<u32> }\n\
             impl T {\n\
             fn mk(&mut self) { self.b = TrackedMutex::new(\"i.b\", 0); self.a = TrackedMutex::new(\"i.a\", 0); }\n\
             fn ba(&self) { let _g = self.b.lock(); let _h = self.a.lock(); }\n\
             }\n";
        let r = ws(&[("crates/demo/src/a.rs", a), ("crates/demo/src/b.rs", b)]);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "lock-order");
    }

    #[test]
    fn stale_waiver_fires_and_live_waiver_does_not() {
        let src = "// sim-lint: allow(raw-print)\n\
             pub fn quiet() {}\n\
             // sim-lint: allow(raw-print)\n\
             pub fn loud() { println!(\"x\"); }\n";
        let r = ws(&[("crates/demo/src/lib.rs", src)]);
        assert_eq!(r.waived, 1);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "stale-waiver");
        assert_eq!(r.diags[0].line, 1);
    }

    #[test]
    fn metric_drift_needs_a_pin_file() {
        let code = "pub fn f() { obs::counter!(\"d.unpinned\").inc(); }\n";
        let r = ws(&[("crates/demo/src/lib.rs", code)]);
        assert!(r.diags.is_empty(), "{:?}", r.diags);

        let pins = "const PINNED_METRICS: &[&str] = &[\"d.ghost\"];\n\
             const DYNAMIC_METRICS: &[&str] = &[];\n";
        let r = ws(&[
            ("crates/demo/src/lib.rs", code),
            ("crates/demo/tests/metrics_names.rs", pins),
        ]);
        let rules: Vec<&str> = r.diags.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec!["metric-name-drift", "metric-name-drift"]);
    }

    #[test]
    fn bad_waiver_suggests_nearest_rule() {
        let r = ws(&[(
            "crates/demo/src/lib.rs",
            "// sim-lint: allow(wall-clok)\nfn f() {}\n",
        )]);
        assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
        assert_eq!(r.diags[0].rule, "bad-waiver");
        assert!(
            r.diags[0].message.contains("did you mean `wall-clock`?"),
            "{}",
            r.diags[0].message
        );
    }
}

//! The invariant rules (see DESIGN.md § "Enforced invariants").
//!
//! | rule | contract guarded |
//! |------|------------------|
//! | `A0` | every `lint:allow` / `lint:boundary` carries known ids and a nonempty reason |
//! | `D1` | no wall-clock or OS-entropy source in the search path |
//! | `D2` | no hash-ordered collections in search-hot-path modules |
//! | `D3` | parallel fan-outs never share an RNG across items |
//! | `E1` | no `NONDET` reachable from a search entry point (interprocedural D1) |
//! | `E2` | no panic reachable through calls in a load/measurement path (interprocedural P1) |
//! | `IO1` | file writes go through the durable-IO layer, never bare `fs::write` |
//! | `IO2` | no raw write reachable from a pub fn outside the durable layer (interprocedural IO1) |
//! | `L1` | crate imports respect the workspace DAG |
//! | `P1` | load/measurement paths propagate errors, never panic |
//! | `S1` | `std::process::exit` only in `cli::main` — termination routes through the shutdown path |
//! | `S2` | no process exit reachable from a pub fn outside `cli::main` (interprocedural S1) |
//! | `U1` | `unsafe` only inside `mlkit::parallel` and `supervise::signal` |
//!
//! The lexical rules run over masked text ([`crate::lexer`]), so tokens
//! inside comments and string literals are invisible to them; they query
//! the shared per-file [`crate::source::TokenIndex`] instead of rescanning
//! the text once per needle. The transitive rules (`E1`/`E2`/`IO2`/`S2`)
//! run over the effect fixpoint ([`crate::effects`]) on the workspace call
//! graph and attach a witness path — the exact `file:line` call chain from
//! the reported fn down to the offending sink. Every violation can be
//! suppressed for one statement (lexical) or at the fn definition
//! (transitive) with `// lint:allow(<rule>) reason`.

use crate::callgraph::CallGraph;
use crate::effects::{self, Analysis, Origin, EXITS, NONDET, PANICS, RAW_IO};
use crate::parser::FileFacts;
use crate::source::SourceFile;
use serde::Serialize;

/// Descriptor of one rule, used by `glimpse-lint rules` and the JSON output.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct RuleInfo {
    /// Short id (`D1`, `L1`, …).
    pub id: &'static str,
    /// One-line contract statement.
    pub summary: &'static str,
}

/// All rules, in report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "A0",
        summary: "lint:allow directives must name known rules and give a reason",
    },
    RuleInfo {
        id: "D1",
        summary: "no wall-clock/entropy source (Instant::now, SystemTime::now, thread_rng, from_entropy) outside crates/bench and the clock module",
    },
    RuleInfo {
        id: "D2",
        summary: "no HashMap/HashSet in search-hot-path modules (mlkit, tuners, core::acquisition, core::sampler); use BTreeMap or sorted Vec",
    },
    RuleInfo {
        id: "D3",
        summary: "parallel fan-out closures must derive per-item RNG via child_rng, never capture a shared rng",
    },
    RuleInfo {
        id: "E1",
        summary: "no entropy/wall-clock source reachable (through any call chain) from a pub fn in mlkit, tuners, core::acquisition, or core::sampler, except behind a sanctioned boundary",
    },
    RuleInfo {
        id: "E2",
        summary: "no panic reachable through callees of a load/measurement-path fn (P1, made interprocedural)",
    },
    RuleInfo {
        id: "IO1",
        summary: "no direct write API (fs::write, File::create, File::options, OpenOptions) outside crates/durable; route writes through atomic_write or the WAL",
    },
    RuleInfo {
        id: "IO2",
        summary: "no raw write API reachable (through any call chain) from a pub fn outside crates/durable; writes must route through atomic_write or the WAL appender",
    },
    RuleInfo {
        id: "L1",
        summary: "crate imports must follow the DAG gpu-spec/tensor-prog/space -> sim/mlkit -> tuners -> core -> bench/cli",
    },
    RuleInfo {
        id: "P1",
        summary: "no unwrap()/expect() in non-test load/measurement paths; thread typed errors instead",
    },
    RuleInfo {
        id: "S1",
        summary: "std::process::exit is forbidden outside crates/cli/src/main.rs; all termination routes through the graceful-shutdown path",
    },
    RuleInfo {
        id: "S2",
        summary: "no process exit reachable (through any call chain) from a pub fn outside crates/cli/src/main.rs",
    },
    RuleInfo {
        id: "U1",
        summary: "unsafe code is forbidden outside mlkit::parallel, supervise::signal, and vendor/",
    },
];

/// Whether `id` names a rule (used to validate `lint:allow` directives).
#[must_use]
pub fn is_known_rule(id: &str) -> bool {
    RULES.iter().any(|r| r.id == id)
}

/// Files (relative-path prefixes) exempt from D1: the bench harnesses time
/// real work by design, the lint crate's clock module is the single
/// allowlisted wall-clock access point, and the supervision watchdog must
/// consult real time to detect a stalled simulated clock.
const D1_EXEMPT_PREFIXES: &[&str] = &["crates/bench/", "crates/lint/src/clock.rs", "crates/supervise/src/watchdog.rs"];

/// Entropy / wall-clock tokens D1 hunts for.
const D1_NEEDLES: &[&str] = &["Instant::now", "SystemTime::now", "thread_rng", "from_entropy"];

/// Files whose whole crate is a search-hot-path module for D2.
const D2_HOT_CRATES: &[&str] = &["mlkit", "tuners"];

/// Individual hot-path files outside those crates.
const D2_HOT_FILES: &[&str] = &["crates/core/src/acquisition.rs", "crates/core/src/sampler.rs"];

/// Load / deserialization / measurement-outcome modules covered by P1.
const P1_SCOPE: &[&str] = &[
    "crates/core/src/artifacts.rs",
    "crates/core/src/blueprint.rs",
    "crates/core/src/corpus.rs",
    "crates/core/src/prior.rs",
    "crates/core/src/tuner.rs",
    "crates/durable/src/lib.rs",
    "crates/durable/src/wal.rs",
    "crates/gpu-spec/src/database.rs",
    "crates/gpu-spec/src/datasheet.rs",
    "crates/sim/src/fault.rs",
    "crates/sim/src/measure.rs",
    "crates/sim/src/pool.rs",
    "crates/sim/src/retry.rs",
    "crates/tensor-prog/src/models.rs",
    "crates/tuners/src/context.rs",
    "crates/tuners/src/history.rs",
    "crates/tuners/src/journal.rs",
];

/// The only modules allowed to contain `unsafe`: the parallel fan-out
/// (today it contains none) and the raw signal bindings.
const U1_EXEMPT: &[&str] = &["crates/mlkit/src/parallel.rs", "crates/supervise/src/signal.rs"];

/// The one file allowed to call `std::process::exit` (S1): the CLI entry
/// point. Everything else requests shutdown through a `CancelToken` so
/// WAL + snapshot flushing always runs.
const S1_SANCTIONED_FILE: &str = "crates/cli/src/main.rs";

/// The durable-IO layer — the only place allowed to open write handles.
const IO1_SANCTIONED_PREFIX: &str = "crates/durable/src/";

/// Direct write APIs IO1 hunts for.
const IO1_NEEDLES: &[&str] = &["fs::write", "File::create", "File::options", "OpenOptions"];

/// Allowed `glimpse_*` dependencies per crate — the workspace DAG. A crate
/// absent from this table must not import any `glimpse_*` crate.
const LAYERING: &[(&str, &[&str])] = &[
    ("supervise", &[]),
    ("durable", &[]),
    // gpu-spec may use the durable envelope for spec-DB snapshots; durable
    // is the DAG bottom, so the edge cannot create a cycle.
    ("gpu-spec", &["durable"]),
    ("tensor-prog", &[]),
    ("space", &["durable", "tensor-prog"]),
    ("mlkit", &["supervise"]),
    ("sim", &["durable", "gpu-spec", "tensor-prog", "space"]),
    (
        "tuners",
        &["supervise", "durable", "gpu-spec", "tensor-prog", "space", "sim", "mlkit"],
    ),
    (
        "core",
        &["supervise", "durable", "gpu-spec", "tensor-prog", "space", "sim", "mlkit", "tuners"],
    ),
    (
        "bench",
        &[
            "supervise",
            "durable",
            "gpu-spec",
            "tensor-prog",
            "space",
            "sim",
            "mlkit",
            "tuners",
            "core",
        ],
    ),
    (
        "cli",
        &[
            "supervise",
            "durable",
            "gpu-spec",
            "tensor-prog",
            "space",
            "sim",
            "mlkit",
            "tuners",
            "core",
        ],
    ),
    ("lint", &["durable"]),
];

/// Allowed `glimpse_*` dependencies of `crate_name` per the layering table
/// (empty for crates outside it). The call-graph builder uses this as its
/// reachability filter: an edge that would violate `L1` cannot exist.
#[must_use]
pub fn allowed_deps(crate_name: &str) -> &'static [&'static str] {
    LAYERING.iter().find(|(name, _)| *name == crate_name).map_or(&[], |(_, deps)| deps)
}

/// Crates whose pub fns are `E1` entry points (the whole search stack).
const E1_ENTRY_CRATES: &[&str] = &["mlkit", "tuners"];

/// Individual entry-point files outside those crates (the search-hot core
/// modules, same set as D2's).
const E1_ENTRY_FILES: &[&str] = &["crates/core/src/acquisition.rs", "crates/core/src/sampler.rs"];

/// One rule violation at a `file:line` span.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// Rule id.
    pub rule: &'static str,
    /// What went wrong and what to do instead.
    pub message: String,
    /// Pointer into the rule documentation.
    pub see: String,
    /// For transitive rules: the `file:line` call chain from the reported
    /// fn down to the offending sink (empty for lexical rules).
    #[serde(skip_serializing_if = "Vec::is_empty", default)]
    pub witness: Vec<String>,
}

fn violation(file: &SourceFile, offset: usize, rule: &'static str, message: String) -> Violation {
    let (line, col) = file.line_col(offset);
    Violation {
        file: file.rel_path.clone(),
        line,
        col,
        rule,
        message,
        see: format!("DESIGN.md#enforced-invariants (rule {rule})"),
        witness: Vec::new(),
    }
}

/// Runs every rule over one file and applies its `lint:allow` suppressions.
#[must_use]
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    rule_a0(file, &mut out);
    rule_d1(file, &mut out);
    rule_d2(file, &mut out);
    rule_d3(file, &mut out);
    rule_io1(file, &mut out);
    rule_l1(file, &mut out);
    rule_p1(file, &mut out);
    rule_s1(file, &mut out);
    rule_u1(file, &mut out);
    out.retain(|v| v.rule == "A0" || !file.allows.iter().any(|a| a.covers(v.rule, v.line)));
    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

/// Runs the transitive rules (`E1`/`E2`/`IO2`/`S2`) over the effect
/// fixpoint. Violations anchor at the reported fn's definition and carry
/// the full witness chain; a `lint:allow(<rule>)` directly above the fn
/// suppresses them like any lexical rule.
#[must_use]
pub fn check_transitive(facts: &[FileFacts], graph: &CallGraph, analysis: &Analysis) -> Vec<Violation> {
    let mut out = Vec::new();
    for id in 0..graph.fns.len() {
        let file = graph.file_of(facts, id);
        let f = graph.fn_of(facts, id);
        if f.is_test {
            continue;
        }
        let mask = analysis.exported[id];
        let mut push = |rule: &'static str, message: String, effect| {
            if file.allows.iter().any(|a| a.covers(rule, f.line)) {
                return;
            }
            out.push(Violation {
                file: file.rel_path.clone(),
                line: f.line,
                col: f.col,
                rule,
                message,
                see: format!("DESIGN.md#enforced-invariants (rule {rule})"),
                witness: effects::witness(graph, analysis, facts, id, effect),
            });
        };

        let e1_entry = f.is_pub
            && (file.crate_name.as_deref().is_some_and(|c| E1_ENTRY_CRATES.contains(&c))
                || E1_ENTRY_FILES.contains(&file.rel_path.as_str()));
        if e1_entry && mask & NONDET != 0 {
            push(
                "E1",
                format!(
                    "search entry point `{}` transitively reaches an entropy/wall-clock source ({}); derive time from the simulated clock and randomness from child_rng, or absorb it behind a reviewed lint:boundary(NONDET)",
                    f.name,
                    sink_token(analysis, id, NONDET),
                ),
                NONDET,
            );
        }

        // E2 fires only when the panic enters through a call — the intrinsic
        // sink case is exactly P1's span, and reporting it twice helps no one.
        let e2_scope = P1_SCOPE.contains(&file.rel_path.as_str());
        if e2_scope && mask & PANICS != 0 && matches!(analysis.origins[id][effects::bit_index(PANICS)], Some(Origin::Call { .. })) {
            push(
                "E2",
                format!(
                    "`{}` sits on a load/measurement path but can panic through its callees ({}); propagate a typed error through the whole chain",
                    f.name,
                    sink_token(analysis, id, PANICS),
                ),
                PANICS,
            );
        }

        if f.is_pub && mask & RAW_IO != 0 && !file.rel_path.starts_with(IO1_SANCTIONED_PREFIX) {
            push(
                "IO2",
                format!(
                    "pub fn `{}` transitively performs raw file writes ({}); route the write through glimpse_durable::atomic_write or the WAL appender so a crash can never leave a torn file",
                    f.name,
                    sink_token(analysis, id, RAW_IO),
                ),
                RAW_IO,
            );
        }

        if f.is_pub && mask & EXITS != 0 && file.rel_path != S1_SANCTIONED_FILE {
            push(
                "S2",
                format!(
                    "pub fn `{}` can terminate the process ({}); only cli::main may exit — trip a CancelToken and drain at a trial boundary",
                    f.name,
                    sink_token(analysis, id, EXITS),
                ),
                EXITS,
            );
        }
    }
    out
}

/// The sink token at the end of `(fn, effect)`'s origin chain, for
/// messages ("Instant::now", ".unwrap()", …).
fn sink_token(analysis: &Analysis, fn_id: usize, effect: crate::effects::EffectMask) -> String {
    let bit = effects::bit_index(effect);
    let mut cur = fn_id;
    for _ in 0..64 {
        match &analysis.origins[cur][bit] {
            Some(Origin::Call { callee, .. }) => cur = *callee,
            Some(Origin::Sink { token, .. }) => return token.clone(),
            None => break,
        }
    }
    effects::name_of(effect).to_owned()
}

/// A0: malformed `lint:allow` / `lint:boundary` directives are themselves
/// violations — a suppression or effect-absorption point without a reason
/// (or naming an unknown rule/effect) is a silent contract hole.
fn rule_a0(file: &SourceFile, out: &mut Vec<Violation>) {
    let a0 = |line: usize, message: &str| Violation {
        file: file.rel_path.clone(),
        line,
        col: 1,
        rule: "A0",
        message: message.to_owned(),
        see: "DESIGN.md#enforced-invariants (rule A0)".to_owned(),
        witness: Vec::new(),
    };
    for allow in &file.allows {
        if !allow.well_formed {
            out.push(a0(
                allow.line,
                "malformed lint:allow — use `// lint:allow(<RULE>[,<RULE>]) <reason>` with known rule ids and a nonempty reason",
            ));
        }
    }
    for boundary in &file.boundaries {
        if !boundary.well_formed {
            out.push(a0(
                boundary.line,
                "malformed lint:boundary — use `// lint:boundary(<EFFECT>[,<EFFECT>]) <reason>` with effects from NONDET/PANICS/RAW_IO/EXITS and a nonempty reason",
            ));
        }
    }
}

/// D1: wall-clock and OS entropy make search trajectories unreplayable.
fn rule_d1(file: &SourceFile, out: &mut Vec<Violation>) {
    if D1_EXEMPT_PREFIXES.iter().any(|p| file.rel_path.starts_with(p)) {
        return;
    }
    for needle in D1_NEEDLES {
        for offset in file.tokens.find(&file.masked, needle) {
            out.push(violation(
                file,
                offset,
                "D1",
                format!("entropy/wall-clock source `{needle}` breaks replayable search; derive time from the simulated clock and randomness from seed-split child_rng"),
            ));
        }
    }
}

/// D2: hash iteration order is a hidden function of the seed-free hasher
/// state; when it feeds float accumulation the result depends on it.
fn rule_d2(file: &SourceFile, out: &mut Vec<Violation>) {
    let hot_crate = file.crate_name.as_deref().is_some_and(|c| D2_HOT_CRATES.contains(&c));
    let hot_file = D2_HOT_FILES.contains(&file.rel_path.as_str());
    if !hot_crate && !hot_file {
        return;
    }
    for needle in ["HashMap", "HashSet"] {
        for offset in file.tokens.find(&file.masked, needle) {
            out.push(violation(
                file,
                offset,
                "D2",
                format!("`{needle}` in a search-hot-path module: iteration order is unspecified and can feed float accumulation; use BTreeMap/BTreeSet or a sorted Vec"),
            ));
        }
    }
}

/// D3: a `parallel_map`/`parallel_map_range` call site whose argument list
/// mentions an `rng` identifier without deriving it via `child_rng` is
/// sharing RNG state across items, which makes results depend on the worker
/// count. (Heuristic: per-item RNG must be created inside the closure with
/// `child_rng`.)
fn rule_d3(file: &SourceFile, out: &mut Vec<Violation>) {
    for fan_out in ["parallel_map_range", "parallel_map_cancellable", "parallel_map"] {
        for &offset in file.tokens.offsets(fan_out) {
            let open = offset + fan_out.len();
            if file.masked.as_bytes().get(open) != Some(&b'(') {
                continue; // an import or mention, not a call
            }
            let span = balanced_paren_span(&file.masked, open);
            let text = &file.masked[open..span];
            let has_shared_rng = find_token(text, "rng").iter().any(|&o| {
                // `child_rng` is a distinct identifier, so a bare `rng` hit is
                // a shared handle (a local, a field access, or `&mut rng`).
                !text[..o].ends_with("child_")
            });
            if has_shared_rng && !text.contains("child_rng") {
                out.push(violation(
                    file,
                    offset,
                    "D3",
                    format!("`{fan_out}` call site captures a shared `rng`: per-item randomness must come from child_rng(seed, index) inside the closure, or the output depends on the worker count"),
                ));
            }
        }
    }
}

/// IO1: every file write goes through `glimpse_durable` (atomic_write or
/// the WAL). A bare `fs::write` can leave a torn file on crash, which
/// breaks the crash-consistency contract the resume machinery relies on.
fn rule_io1(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel_path.starts_with(IO1_SANCTIONED_PREFIX) {
        return;
    }
    for needle in IO1_NEEDLES {
        for offset in file.tokens.find(&file.masked, needle) {
            let (line, _) = file.line_col(offset);
            if file.in_test(line) {
                continue;
            }
            out.push(violation(
                file,
                offset,
                "IO1",
                format!("direct write API `{needle}` outside the durable-IO layer: route writes through glimpse_durable::atomic_write (or the WAL) so a crash can never leave a torn file"),
            ));
        }
    }
}

/// L1: module layering — `use glimpse_*` must follow the crate DAG.
fn rule_l1(file: &SourceFile, out: &mut Vec<Violation>) {
    let Some(crate_name) = file.crate_name.as_deref() else {
        return;
    };
    let allowed: &[&str] = LAYERING.iter().find(|(name, _)| *name == crate_name).map_or(&[], |(_, deps)| deps);
    let glimpse_offsets: Vec<usize> = file
        .tokens
        .with_prefix("glimpse_")
        .flat_map(|(_, offs)| offs.iter().copied())
        .collect();
    for offset in glimpse_offsets {
        let ident = read_ident(&file.masked, offset);
        // Only path references count: `use glimpse_x::…` or `glimpse_x::…`
        // inline. A local identifier that happens to start with `glimpse_`
        // (a variable, a test name) is not an import.
        let after = file.masked[offset + ident.len()..].trim_start();
        if !after.starts_with("::") {
            continue;
        }
        let target = ident["glimpse_".len()..].replace('_', "-");
        if target == crate_name {
            continue; // self-reference (only reachable in doc text / fixtures)
        }
        if !LAYERING.iter().any(|(name, _)| *name == target) {
            out.push(violation(
                file,
                offset,
                "L1",
                format!("`{ident}` does not name a workspace crate in the layering table; add it to the DAG before importing it"),
            ));
        } else if !allowed.contains(&target.as_str()) {
            out.push(violation(
                file,
                offset,
                "L1",
                format!("layering violation: crate `{crate_name}` must not import `{ident}` — the DAG flows gpu-spec/tensor-prog/space -> sim/mlkit -> tuners -> core -> bench/cli"),
            ));
        }
    }
}

/// P1: load/measurement paths must thread typed errors; a panic in a
/// deserialization or outcome-handling path turns a recoverable fault into
/// a crash and breaks the fault-isolation contract.
fn rule_p1(file: &SourceFile, out: &mut Vec<Violation>) {
    if !P1_SCOPE.contains(&file.rel_path.as_str()) {
        return;
    }
    for (name, suffix, needle) in [("unwrap", "()", ".unwrap()"), ("expect", "(", ".expect(")] {
        for offset in file.tokens.find_method(&file.masked, name, suffix) {
            let (line, _) = file.line_col(offset);
            if file.in_test(line) {
                continue;
            }
            out.push(violation(
                file,
                offset,
                "P1",
                format!("`{}` in a load/measurement path: propagate a typed error (this module handles deserialization or measurement outcomes)", &needle[1..]),
            ));
        }
    }
}

/// S1: `std::process::exit` skips destructors, WAL flushes, and snapshot
/// writes. The only sanctioned call site is the CLI entry point; every
/// other component requests termination by tripping a `CancelToken` so the
/// run drains at a trial boundary. (The raw `_exit` in `supervise::signal`
/// is the second-signal hard-exit and is a different identifier.)
fn rule_s1(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.rel_path == S1_SANCTIONED_FILE {
        return;
    }
    for offset in file.tokens.find(&file.masked, "process::exit") {
        let (line, _) = file.line_col(offset);
        if file.in_test(line) {
            continue;
        }
        out.push(violation(
            file,
            offset,
            "S1",
            "`process::exit` outside crates/cli/src/main.rs: trip a CancelToken and drain at a trial boundary so WAL + snapshot flushing always runs".to_owned(),
        ));
    }
}

/// U1: `unsafe` is confined to `mlkit::parallel` and `supervise::signal`
/// (and the vendored deps, which are outside the scanned tree).
fn rule_u1(file: &SourceFile, out: &mut Vec<Violation>) {
    if U1_EXEMPT.contains(&file.rel_path.as_str()) {
        return;
    }
    for &offset in file.tokens.offsets("unsafe") {
        out.push(violation(
            file,
            offset,
            "U1",
            "`unsafe` is forbidden outside mlkit::parallel and supervise::signal; crate roots carry #![forbid(unsafe_code)]".to_owned(),
        ));
    }
}

/// One legacy-style pass over `text`: every lexical-rule needle rescans
/// the full masked text, exactly as the rules did before the shared
/// [`crate::source::TokenIndex`]. Kept only as the baseline side of the
/// scan benchmark; returns total hits so the comparison can assert parity.
pub(crate) fn legacy_needle_scan(text: &str) -> usize {
    let mut hits = 0usize;
    for needle in D1_NEEDLES {
        hits += find_token(text, needle).len();
    }
    for needle in ["HashMap", "HashSet"] {
        hits += find_token(text, needle).len();
    }
    for needle in IO1_NEEDLES {
        hits += find_token(text, needle).len();
    }
    for fan_out in ["parallel_map_range", "parallel_map_cancellable", "parallel_map"] {
        hits += find_token(text, fan_out).len();
    }
    for needle in [".unwrap()", ".expect("] {
        hits += find_substr(text, needle).len();
    }
    hits += find_token(text, "process::exit").len();
    hits += find_token(text, "unsafe").len();
    hits += find_token_prefix(text, "glimpse_").len();
    hits
}

/// The same queries as [`legacy_needle_scan`], answered from a
/// [`crate::source::TokenIndex`] — the benchmark's indexed side.
pub(crate) fn indexed_needle_scan(text: &str, index: &crate::source::TokenIndex) -> usize {
    let mut hits = 0usize;
    for needle in D1_NEEDLES {
        hits += index.find(text, needle).len();
    }
    for needle in ["HashMap", "HashSet"] {
        hits += index.find(text, needle).len();
    }
    for needle in IO1_NEEDLES {
        hits += index.find(text, needle).len();
    }
    for fan_out in ["parallel_map_range", "parallel_map_cancellable", "parallel_map"] {
        hits += index.offsets(fan_out).len();
    }
    hits += index.find_method(text, "unwrap", "()").len();
    hits += index.find_method(text, "expect", "(").len();
    hits += index.find(text, "process::exit").len();
    hits += index.offsets("unsafe").len();
    hits += index.with_prefix("glimpse_").map(|(_, offs)| offs.len()).sum::<usize>();
    hits
}

/// Byte offsets of `needle` in `text` where both ends sit on identifier
/// boundaries (`Instant::now` matches, `my_thread_rng_helper` does not).
fn find_token(text: &str, needle: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    find_substr(text, needle)
        .into_iter()
        .filter(|&at| {
            let before_ok = at == 0 || !crate::lexer::is_ident_byte(bytes[at - 1]);
            let end = at + needle.len();
            let after_ok = end >= bytes.len() || !crate::lexer::is_ident_byte(bytes[end]);
            before_ok && after_ok
        })
        .collect()
}

/// Like [`find_token`] but only the *start* must be a boundary (for
/// identifier prefixes such as `glimpse_`).
fn find_token_prefix(text: &str, prefix: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    find_substr(text, prefix)
        .into_iter()
        .filter(|&at| at == 0 || !crate::lexer::is_ident_byte(bytes[at - 1]))
        .collect()
}

fn find_substr(text: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(needle) {
        out.push(from + pos);
        from += pos + needle.len();
    }
    out
}

/// Reads the identifier starting at `offset`.
fn read_ident(text: &str, offset: usize) -> String {
    text[offset..]
        .bytes()
        .take_while(|&c| crate::lexer::is_ident_byte(c))
        .map(char::from)
        .collect()
}

/// End (exclusive) of the parenthesized span opening at `text[open] == '('`.
fn balanced_paren_span(text: &str, open: usize) -> usize {
    let bytes = text.as_bytes();
    let mut depth = 0usize;
    for (i, &c) in bytes.iter().enumerate().skip(open) {
        match c {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Violation> {
        check_file(&SourceFile::new(path, src.to_owned()))
    }

    #[test]
    fn d1_flags_entropy_sources_outside_bench() {
        let v = check("crates/mlkit/src/sa.rs", "let r = rand::thread_rng();\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D1");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn d1_ignores_bench_and_comments_and_strings() {
        assert!(check("crates/bench/src/bin/x.rs", "let t = Instant::now();\n").is_empty());
        assert!(check("crates/mlkit/src/sa.rs", "// thread_rng is banned\nlet s = \"Instant::now\";\n").is_empty());
    }

    #[test]
    fn d1_suppressed_by_allow_with_reason() {
        let src = "// lint:allow(D1) calibration smoke only\nlet t = Instant::now();\n";
        assert!(check("crates/mlkit/src/sa.rs", src).is_empty());
    }

    #[test]
    fn d2_only_fires_in_hot_modules() {
        let hot = check("crates/tuners/src/context.rs", "use std::collections::HashSet;\n");
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].rule, "D2");
        assert!(check("crates/sim/src/fault.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn d3_flags_shared_rng_and_accepts_child_rng() {
        let shared = "let v = parallel_map(threads, &xs, |i, x| step(x, &mut rng));\n";
        let v = check("crates/mlkit/src/sa.rs", shared);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "D3");
        let derived = "let v = parallel_map(threads, &xs, |i, x| { let mut rng = child_rng(seed, i as u64); step(x, &mut rng) });\n";
        assert!(check("crates/mlkit/src/sa.rs", derived).is_empty());
    }

    #[test]
    fn l1_enforces_the_dag() {
        let up = check("crates/mlkit/src/gbt.rs", "use glimpse_tuners::context::TuneContext;\n");
        assert_eq!(up.len(), 1);
        assert_eq!(up[0].rule, "L1");
        assert!(check("crates/tuners/src/gbt.rs", "use glimpse_mlkit::gbt::Gbt;\n").is_empty());
        let unknown = check("crates/core/src/lib.rs", "use glimpse_quantum::qpu;\n");
        assert_eq!(unknown.len(), 1);
    }

    #[test]
    fn p1_skips_tests_and_unwrap_or() {
        let src = "fn load() { x.unwrap(); y.unwrap_or(0); z.expect_err(\"no\"); }\n#[cfg(test)]\nmod tests {\n    fn t() { a.unwrap(); b.expect(\"fine in tests\"); }\n}\n";
        let v = check("crates/core/src/prior.rs", src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 1);
        assert_eq!(v[0].rule, "P1");
    }

    #[test]
    fn p1_only_in_scoped_modules() {
        assert!(check("crates/mlkit/src/mlp.rs", "fn f() { x.unwrap(); }\n").is_empty());
    }

    #[test]
    fn u1_flags_unsafe_outside_parallel() {
        let v = check("crates/space/src/knob.rs", "let p = unsafe { *ptr };\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "U1");
        assert!(check("crates/mlkit/src/parallel.rs", "unsafe { fan_out() }\n").is_empty());
        assert!(check("crates/supervise/src/signal.rs", "unsafe { signal(2, h as usize); }\n").is_empty());
    }

    #[test]
    fn s1_flags_process_exit_outside_cli_main() {
        let v = check("crates/tuners/src/journal.rs", "std::process::exit(1);\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "S1");
        assert!(check("crates/cli/src/main.rs", "std::process::exit(2);\n").is_empty());
    }

    #[test]
    fn s1_spares_tests_strings_and_other_exits() {
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { std::process::exit(0); }\n}\n";
        assert!(check("crates/core/src/lib.rs", in_test).is_empty());
        assert!(check("crates/core/src/lib.rs", "// process::exit is banned\nlet s = \"process::exit\";\n").is_empty());
        // The raw `_exit` libc binding is a different identifier.
        assert!(check("crates/core/src/lib.rs", "unsafe { _exit(130) };\n")
            .iter()
            .all(|v| v.rule != "S1"));
    }

    #[test]
    fn io1_flags_direct_writes_outside_durable() {
        let v = check("crates/bench/src/report.rs", "std::fs::write(&path, text)?;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "IO1");
        let v = check("crates/core/src/artifacts.rs", "let f = std::fs::File::create(&path)?;\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "IO1");
    }

    #[test]
    fn io1_spares_durable_tests_and_reads() {
        assert!(check(
            "crates/durable/src/wal.rs",
            "let f = std::fs::File::options().write(true).open(p)?;\n"
        )
        .is_empty());
        let in_test = "#[cfg(test)]\nmod tests {\n    fn t() { std::fs::write(&p, b\"x\").unwrap(); }\n}\n";
        assert!(check("crates/space/src/logfmt.rs", in_test).is_empty());
        assert!(check("crates/core/src/artifacts.rs", "let text = std::fs::read_to_string(path)?;\n").is_empty());
        // `create_new` and `create_dir_all` are different identifiers.
        assert!(check("crates/core/src/artifacts.rs", "std::fs::create_dir_all(&dir)?;\n").is_empty());
    }

    #[test]
    fn a0_flags_reasonless_allow() {
        let v = check("crates/core/src/lib.rs", "// lint:allow(D1)\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "A0");
    }

    #[test]
    fn violations_sort_by_position() {
        let src = "fn f() { b.unwrap(); }\nuse std::time::Instant;\nlet t = Instant::now();\n";
        let v = check("crates/core/src/prior.rs", src);
        assert!(v.windows(2).all(|w| w[0].line <= w[1].line));
    }
}

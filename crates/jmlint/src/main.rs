//! jmlint: determinism/safety lint pass over the workspace sources.
//!
//! The simulator's core guarantee is deterministic replay: the same seed
//! and fault plan must produce the same trace, byte for byte. That
//! guarantee is easy to break silently — a `HashMap` iterated in protocol
//! code, a stray wall-clock read, an `unwrap()` on a path the fault plane
//! can reach. `jmlint` walks `crates/*/src/**/*.rs` with a hand-rolled
//! lexer (no `syn`: the tool must build offline with zero registry deps)
//! and flags four rule classes:
//!
//! - `hash_iter` — iteration over a `HashMap`/`HashSet` in sim/protocol
//!   code. Iteration order is randomized per process; anything it feeds
//!   (trace events, send order, error listings) diverges between runs.
//!   Fix: `BTreeMap`/`BTreeSet`, or collect-and-sort.
//! - `wall_clock` — `SystemTime::now`/`Instant::now`/entropy-seeded RNG
//!   outside the simulator's virtual clock. Simulated time comes from
//!   `simkit` (`ctx.now()`); host time leaking into model code breaks
//!   replay.
//! - `hot_unwrap` — `unwrap()`/`expect()` in the migration protocol hot
//!   paths (`runtime.rs`, `bufpool.rs`), where the fault plane injects
//!   failures that must degrade, not panic. Spec-invariant traps the
//!   model checker proves unreachable carry an allow marker.
//! - `span_exit` — trace spans emitted without a matching exit: a span
//!   opened in statement position (or bound to `_`) is dropped on the
//!   same line and records zero duration; a named binding must reach an
//!   `.end()`/`.end_with(...)` call.
//!
//! v2 adds a small intraprocedural pass ([`parse`]: function spans,
//! block paths, call sites with full argument text) and three dataflow
//! rules encoding the coordinator's crash-recovery contracts
//! ([`dataflow`], scoped to `core/src/runtime.rs`):
//!
//! - `wal_before_effect` — an externally visible coordinator side
//!   effect (`FTB_MIGRATE`/`FTB_RESTART` publish, terminal lease
//!   settlement) with no WAL `append(WalRecord::…)` — or call to a
//!   journaling site (the phase step, the restart broadcast) — earlier
//!   in the same function: a crash there would leave the standby blind
//!   to the effect. The journaling sites' own bodies must append before
//!   their effect, including the effect closure they are handed.
//! - `epoch_fence` — a fenced command published without an `epoch`
//!   stamp, or a command receive path that decodes
//!   `MigrateMsg`/`RestartMsg` without consulting `fencing_epoch`.
//! - `lease_settle_once` — two settlements of the same family (pool
//!   lease, standby outcome) in the same straight-line block: every
//!   path through it settles twice.
//!
//! A finding is suppressed by `// jmlint: allow(<rule>)` on the flagged
//! line or the line directly above it. Suppression is centralized
//! ([`suppress`]): a marker that absorbs no finding — or names an
//! unknown rule — is itself reported as `stale_allow`, and `stale_allow`
//! cannot be allowed.
//!
//! Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
//! or I/O errors.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod dataflow;
mod lexer;
mod parse;
mod rules;
mod suppress;

use lexer::SourceFile;

/// Crate directories under `crates/` that are never scanned.
///
/// `vendor` is third-party code (it wraps the host entropy sources the
/// lint exists to keep out of *our* code); `jmlint` is this tool, a host
/// binary that legitimately walks the real filesystem.
const SKIP_CRATES: &[&str] = &["vendor", "jmlint"];

/// One lint finding.
#[derive(Debug)]
pub struct Finding {
    pub path: PathBuf,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: jmlint [--root <workspace-dir>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(d) => root = PathBuf::from(d),
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("jmlint: determinism/safety lints for the jobmig workspace");
                println!("usage: jmlint [--root <workspace-dir>]");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        eprintln!(
            "jmlint: no `crates/` under {} (wrong --root?)",
            root.display()
        );
        return ExitCode::from(2);
    }

    let mut files = Vec::new();
    if let Err(e) = collect_sources(&crates_dir, &mut files) {
        eprintln!("jmlint: {e}");
        return ExitCode::from(2);
    }
    files.sort(); // deterministic report order, naturally

    let mut findings = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("jmlint: read {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let rel = path.strip_prefix(&root).unwrap_or(path);
        let src = SourceFile::parse(rel, &text);
        scanned += 1;
        let mut raw = Vec::new();
        rules::hash_iter(&src, &mut raw);
        rules::wall_clock(&src, &mut raw);
        rules::hot_unwrap(&src, &mut raw);
        rules::hot_alloc(&src, &mut raw);
        rules::span_exit(&src, &mut raw);
        dataflow::wal_before_effect(&src, &mut raw);
        dataflow::epoch_fence(&src, &mut raw);
        dataflow::lease_settle_once(&src, &mut raw);
        findings.extend(suppress::apply(&src, raw));
    }

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("jmlint: {scanned} files clean");
        ExitCode::SUCCESS
    } else {
        println!("jmlint: {} finding(s) in {scanned} files", findings.len());
        ExitCode::FAILURE
    }
}

/// Gather every `.rs` file under `crates/<name>/src/`, skipping
/// [`SKIP_CRATES`].
fn collect_sources(crates_dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(crates_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if SKIP_CRATES.contains(&name.as_ref()) {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            walk_rs(&src, out)?;
        }
    }
    Ok(())
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

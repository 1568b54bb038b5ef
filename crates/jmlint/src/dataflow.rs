//! v2 dataflow rules: the WAL-before-effect, epoch-fencing, and
//! settle-once contracts of the migration coordinator.
//!
//! These rules encode the crash-recovery discipline `coordinator_crash`
//! tests dynamically, as a static check over `core/src/runtime.rs` (the
//! only file where the coordinator's side effects live — `spare.rs`
//! defines the lease API and its tests exercise double-settles on
//! purpose). They run on [`crate::parse`]'s intraprocedural facts:
//! function spans, textual call order, block paths, and full argument
//! text.
//!
//! The analysis is an approximation — textual order within one function
//! stands in for dominance — but it is calibrated to be exact for the
//! shapes the runtime actually uses, and any future drift fails CI
//! loudly rather than silently weakening the contract.

use crate::lexer::SourceFile;
use crate::parse::{self, CallSite, FnItem};
use crate::Finding;

/// The coordinator hot file these contracts are scoped to.
const SCOPED_FILES: &[&str] = &["core/src/runtime.rs"];

fn in_scope(src: &SourceFile) -> bool {
    let p = src.path.to_string_lossy().replace('\\', "/");
    SCOPED_FILES.iter().any(|f| p.ends_with(f))
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Whole-word containment (so `FTB_MIGRATE` does not match
/// `FTB_MIGRATE_PIIC`).
fn contains_word(hay: &str, tok: &str) -> bool {
    let mut start = 0;
    while let Some(rel) = hay[start..].find(tok) {
        let pos = start + rel;
        let before_ok = pos == 0 || !hay[..pos].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !hay[pos + tok.len()..]
            .chars()
            .next()
            .is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = pos + tok.len();
    }
    false
}

/// Is this call one of the side effects that must be journaled first?
///
/// - `publish` of the fenced commands (`FTB_MIGRATE` / `FTB_RESTART`):
///   once the broadcast is out, ranks suspend or restart — a crash
///   before the matching WAL record leaves the standby blind to it.
///   The NLA-side acks (`FTB_MIGRATE_PIIC`, `FTB_RESTART_DONE`,
///   `FTB_SUSPEND_ACK`) are not coordinator effects and do not match.
/// - `consume_at` / `discard_at`: terminal lease settlements — the
///   spare leaves the pool for good, so the binding must be on record.
///   (`lease_at` / `release_front_at` are deliberately excluded: the
///   lease is acquired *before* `CycleStart` by design — the pool
///   itself survives a coordinator crash and is reconciled against the
///   journal on takeover.)
fn journaled_effect(call: &CallSite) -> bool {
    match call.callee.as_str() {
        "publish" => {
            contains_word(&call.args, "FTB_MIGRATE") || contains_word(&call.args, "FTB_RESTART")
        }
        "consume_at" | "discard_at" => true,
        _ => false,
    }
}

/// Does this call append a WAL record (`append(WalRecord::…)`)?
fn wal_append(call: &CallSite) -> bool {
    call.callee == "append" && call.args.trim_start().starts_with("WalRecord::")
}

/// Functions that journal on their caller's behalf: each puts its WAL
/// record on the journal before it runs its effect, so a call to one
/// counts as a preceding append for the caller's effects — including
/// the effects inside a closure handed to it.
///
/// - `enter_phase`: the `PhaseEnter` record every protocol phase (and
///   the pre-copy rounds) starts with;
/// - `phase`: the coordinator's phase step, which enters the phase and
///   then runs the effect closure it is given;
/// - `restart_broadcast`: the `NlaRewire` record, then the
///   `FTB_RESTART` publish.
///
/// Their own bodies are held to the contract: a journaling call must
/// precede their first effect, where calling one of their closure
/// parameters (`name: impl Fn…`) counts as an effect too.
const JOURNALING_SITES: &[&str] = &["enter_phase", "phase", "restart_broadcast"];

/// Does this call put a record on the journal, itself or through a
/// journaling site? Journaling sites always take arguments, so a bare
/// accessor of the same name (`stepper.phase()`) does not count.
fn journals(call: &CallSite) -> bool {
    wal_append(call)
        || (JOURNALING_SITES.contains(&call.callee.as_str()) && !call.args.trim().is_empty())
}

/// Names of a function's closure parameters (`name: impl Fn…` in its
/// declaration; `where`-clause bounds are not recognized).
fn closure_params(f: &FnItem) -> Vec<String> {
    let decl = f.body.split('{').next().unwrap_or("");
    decl.match_indices(": impl Fn")
        .filter_map(|(at, _)| {
            let head = &decl[..at];
            let start = head
                .char_indices()
                .rev()
                .take_while(|&(_, c)| is_ident_char(c))
                .last()?
                .0;
            Some(head[start..].to_string())
        })
        .collect()
}

/// `wal_before_effect`: every externally visible coordinator side
/// effect must be preceded, within the same function, by a WAL append
/// or a call to a journaling site — write-ahead means the standby can
/// always reconstruct intent. A journaling site's own effect closure must
/// likewise run after its append, and a journaling site that never
/// journals is flagged (its callers' effects would go unrecorded).
pub fn wal_before_effect(src: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(src) {
        return;
    }
    for f in parse::functions(src) {
        let site = JOURNALING_SITES.contains(&f.name.as_str());
        let params = if site { closure_params(&f) } else { Vec::new() };
        let mut flag = |line: usize, message: String| {
            out.push(Finding {
                path: src.path.clone(),
                line,
                rule: "wal_before_effect",
                message,
            })
        };
        for (i, call) in f.calls.iter().enumerate() {
            let closure = params.contains(&call.callee);
            if !(journaled_effect(call) || closure) || f.calls[..i].iter().any(journals) {
                continue;
            }
            let what = match call.callee.as_str() {
                _ if closure => format!("effect closure `{}`", call.callee),
                "publish" => "fenced command publish".to_string(),
                c => format!("terminal lease settlement `{c}`"),
            };
            flag(
                call.line,
                format!(
                    "{what} in `{}` with no preceding `append(WalRecord::…)` — a \
                     coordinator crash here leaves an effect the standby cannot \
                     see in the journal; record intent first",
                    f.name
                ),
            );
        }
        if site && !f.calls.iter().any(journals) {
            flag(
                f.line,
                format!(
                    "journaling site `{}` never appends a WAL record — its \
                     callers' effects would go unrecorded",
                    f.name
                ),
            );
        }
    }
}

/// `epoch_fence`: both halves of the fencing contract.
///
/// Send side: every `FTB_MIGRATE`/`FTB_RESTART` publish must carry the
/// coordinator's epoch in its payload — an un-stamped command from a
/// deposed coordinator would be indistinguishable from a live one.
///
/// Receive side: any function that both handles those commands (names
/// them) and decodes their payloads (`MigrateMsg`/`RestartMsg`) must
/// consult `fencing_epoch` to reject stale-epoch traffic. Functions
/// that decode `RestartMsg` only as the `FTB_RESTART_DONE` ack are the
/// coordinator's own wait loops and are exempt (acks flow *to* the
/// fencer, not from it).
pub fn epoch_fence(src: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(src) {
        return;
    }
    for f in parse::functions(src) {
        for call in &f.calls {
            let fenced_publish = call.callee == "publish"
                && (contains_word(&call.args, "FTB_MIGRATE")
                    || contains_word(&call.args, "FTB_RESTART"));
            if fenced_publish && !contains_word(&call.args, "epoch") {
                out.push(Finding {
                    path: src.path.clone(),
                    line: call.line,
                    rule: "epoch_fence",
                    message: format!(
                        "fenced command published in `{}` without an `epoch` \
                         stamp — a deposed coordinator's replay would be obeyed",
                        f.name
                    ),
                });
            }
        }
        let decodes_cmd = f.body.contains("payload_as::<MigrateMsg>")
            || f.body.contains("payload_as::<RestartMsg>");
        let handles_cmd =
            contains_word(&f.body, "FTB_MIGRATE") || contains_word(&f.body, "FTB_RESTART");
        if decodes_cmd && handles_cmd && !contains_word(&f.body, "fencing_epoch") {
            out.push(Finding {
                path: src.path.clone(),
                line: f.line,
                rule: "epoch_fence",
                message: format!(
                    "`{}` decodes a fenced command (MigrateMsg/RestartMsg) but \
                     never consults `fencing_epoch` — stale commands from a \
                     deposed coordinator would be obeyed",
                    f.name
                ),
            });
        }
    }
}

/// The two settlement families tracked by [`lease_settle_once`]: a
/// spare lease and a standby outcome must each settle exactly once per
/// execution path.
const SETTLE_FAMILIES: &[(&str, &[&str])] = &[
    (
        "lease settlement",
        &["consume_at", "discard_at", "release_front_at"],
    ),
    ("standby outcome settlement", &["settle_standby_outcome"]),
];

/// `lease_settle_once`: two settlements of the same family in the same
/// straight-line block double-settle on every path through it. Sibling
/// branches (`if`/`else`, match arms) have distinct block paths and are
/// fine — that is how the runtime legitimately picks *which* settlement
/// applies.
pub fn lease_settle_once(src: &SourceFile, out: &mut Vec<Finding>) {
    if !in_scope(src) {
        return;
    }
    for f in parse::functions(src) {
        for (family, members) in SETTLE_FAMILIES {
            let mut seen: Vec<&CallSite> = Vec::new();
            for call in &f.calls {
                if !members.contains(&call.callee.as_str()) {
                    continue;
                }
                if let Some(prev) = seen.iter().find(|p| p.block == call.block) {
                    out.push(Finding {
                        path: src.path.clone(),
                        line: call.line,
                        rule: "lease_settle_once",
                        message: format!(
                            "second {family} (`{}`) in the same block as `{}` \
                             (line {}) in `{}` — every path through this block \
                             settles twice",
                            call.callee, prev.callee, prev.line, f.name
                        ),
                    });
                } else {
                    seen.push(call);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    const RT: &str = "crates/core/src/runtime.rs";

    fn run(rule: fn(&SourceFile, &mut Vec<Finding>), path: &str, text: &str) -> Vec<Finding> {
        let src = SourceFile::parse(Path::new(path), text);
        let mut out = Vec::new();
        rule(&src, &mut out);
        out
    }

    #[test]
    fn wal_before_effect_requires_a_preceding_append() {
        let bad = "fn go() {\n\
                   \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE, m));\n\
                   \x20   journal.append(WalRecord::PhaseEnter { cycle });\n\
                   }\n";
        let f = run(wal_before_effect, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);

        let good = "fn go() {\n\
                    \x20   journal.append(WalRecord::PhaseEnter { cycle });\n\
                    \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE, m));\n\
                    \x20   pool.consume_at(n, job, epoch);\n\
                    }\n";
        assert!(run(wal_before_effect, RT, good).is_empty());
    }

    #[test]
    fn wal_before_effect_skips_acks_and_acquisitions() {
        let text = "fn go() {\n\
                    \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE_PIIC, m));\n\
                    \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_RESTART_DONE, m));\n\
                    \x20   let lease = pool.lease_at(job, epoch);\n\
                    \x20   pool.release_front_at(n, job, epoch);\n\
                    }\n";
        assert!(run(wal_before_effect, RT, text).is_empty());
        // and the whole rule is scoped to the coordinator file
        let elsewhere = "fn go() { pool.consume_at(n, job, epoch); }\n";
        assert!(run(wal_before_effect, "crates/core/src/spare.rs", elsewhere).is_empty());
    }

    #[test]
    fn journaling_sites_stand_in_for_appends_and_are_checked() {
        // A call to the phase step journals for the effect in its closure.
        let caller = "fn go() {\n\
                      \x20   self.phase(P, |a, d| {\n\
                      \x20       a.ftb.publish(ctx, FtbEvent::with_payload(S, FTB_MIGRATE, m));\n\
                      \x20       true\n\
                      \x20   });\n\
                      \x20   restart_broadcast(ctx, c, true, || {});\n\
                      \x20   pool.consume_at(n, job, epoch);\n\
                      }\n";
        assert!(run(wal_before_effect, RT, caller).is_empty());

        // The phase step itself must journal before it runs the effect.
        let bad = "fn phase(&mut self, p: P, run: impl FnOnce(&mut Self) -> bool) -> bool {\n\
                   \x20   let ok = run(self);\n\
                   \x20   self.enter_phase(p);\n\
                   \x20   ok\n\
                   }\n";
        let f = run(wal_before_effect, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("effect closure `run`"));
        let good = bad
            .replace("let ok = run(self);", "let ok = true;")
            .replace(
                "self.enter_phase(p);",
                "self.enter_phase(p); let ok = ok && run(self);",
            );
        assert!(run(wal_before_effect, RT, &good).is_empty());

        // The restart broadcast must record the rewire before both its
        // hook and its publish.
        let bad = "fn restart_broadcast(journal: bool, before_publish: impl FnOnce()) {\n\
                   \x20   before_publish();\n\
                   \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_RESTART, m));\n\
                   \x20   if journal { j.append(WalRecord::NlaRewire { cycle }); }\n\
                   }\n";
        let lines: Vec<usize> = run(wal_before_effect, RT, bad)
            .iter()
            .map(|f| f.line)
            .collect();
        assert_eq!(lines, [2, 3]);

        // A journaling site that never journals is flagged on its own.
        let hollow = "fn enter_phase(&mut self) {\n\
                      \x20   self.ctx.check_killed();\n\
                      }\n";
        let f = run(wal_before_effect, RT, hollow);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn epoch_fence_send_side_requires_the_stamp() {
        let bad = "fn go() {\n\
                   \x20   ftb.publish(ctx, FtbEvent::with_payload(S, FTB_RESTART,\n\
                   \x20       RestartMsg { cycle, target, ranks }));\n\
                   }\n";
        let f = run(epoch_fence, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        let good = bad.replace("ranks }", "ranks, epoch }");
        assert!(run(epoch_fence, RT, &good).is_empty());
    }

    #[test]
    fn epoch_fence_receive_side_requires_the_check() {
        let bad = "fn on_event(ev: &FtbEvent) {\n\
                   \x20   if ev.name == FTB_MIGRATE {\n\
                   \x20       let m = ev.payload_as::<MigrateMsg>();\n\
                   \x20       act(m);\n\
                   \x20   }\n\
                   }\n";
        let f = run(epoch_fence, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        let good = bad.replace(
            "act(m);",
            "if m.epoch < rt.fencing_epoch() { return; } act(m);",
        );
        assert!(run(epoch_fence, RT, &good).is_empty());
        // The coordinator's own ack wait loop decodes RestartMsg under
        // FTB_RESTART_DONE — not a fenced command path.
        let ack = "fn wait_ack(ev: &FtbEvent) {\n\
                   \x20   if ev.name == FTB_RESTART_DONE {\n\
                   \x20       let m = ev.payload_as::<RestartMsg>();\n\
                   \x20       note(m);\n\
                   \x20   }\n\
                   }\n";
        assert!(run(epoch_fence, RT, ack).is_empty());
    }

    #[test]
    fn calibrated_against_the_live_runtime() {
        // If the parser regressed and stopped seeing the coordinator's
        // call sites, every dataflow rule would pass vacuously. Pin the
        // exact census of journaled effects, WAL appends (by record) and
        // journaling-site calls, so losing — or duplicating — any one
        // site fails: each fenced command is published at one site, each
        // phase entry is appended at one site. The live runtime must
        // also satisfy all three contracts.
        let text = include_str!("../../core/src/runtime.rs");
        let src = SourceFile::parse(Path::new("crates/core/src/runtime.rs"), text);
        let fns = parse::functions(&src);
        let mut census = std::collections::BTreeMap::<String, usize>::new();
        for c in fns.iter().flat_map(|f| &f.calls) {
            let key = if wal_append(c) {
                let record = c.args.trim_start()["WalRecord::".len()..]
                    .split(|ch: char| !is_ident_char(ch))
                    .next()
                    .unwrap_or_default();
                format!("append {record}")
            } else if c.callee == "publish" && journaled_effect(c) {
                let cmd = ["FTB_MIGRATE", "FTB_RESTART"]
                    .into_iter()
                    .find(|cmd| contains_word(&c.args, cmd))
                    .unwrap_or_default();
                format!("publish {cmd}")
            } else if journals(c) || journaled_effect(c) {
                c.callee.clone()
            } else {
                continue;
            };
            *census.entry(key).or_default() += 1;
        }
        let census: Vec<(&str, usize)> = census.iter().map(|(k, n)| (k.as_str(), *n)).collect();
        assert_eq!(
            census,
            [
                ("append CommitPoint", 2),
                ("append CycleEnd", 3),
                ("append CycleStart", 1),
                ("append LeaseAcquire", 1),
                ("append LeaseCommit", 2),
                ("append NlaRewire", 1),
                ("append PhaseEnter", 1),
                ("append PrecopyRound", 1),
                ("append RankImageReady", 1),
                ("append RankRestarted", 1),
                ("append Rollback", 3),
                ("consume_at", 2),
                ("discard_at", 1),
                ("enter_phase", 2),
                ("phase", 4),
                ("publish FTB_MIGRATE", 1),
                ("publish FTB_RESTART", 1),
                ("restart_broadcast", 2),
            ],
            "coordinator journaling census changed"
        );
        for rule in [wal_before_effect, epoch_fence, lease_settle_once] {
            let mut out = Vec::new();
            rule(&src, &mut out);
            assert!(out.is_empty(), "live runtime violates a contract: {out:?}");
        }
    }

    #[test]
    fn lease_settle_once_flags_same_block_only() {
        let bad = "fn go() {\n\
                   \x20   pool.release_front_at(n, job, epoch);\n\
                   \x20   pool.discard_at(n, job, epoch);\n\
                   }\n";
        let f = run(lease_settle_once, RT, bad);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);

        let branches = "fn go(alive: bool) {\n\
                        \x20   if alive {\n\
                        \x20       pool.release_front_at(n, job, epoch);\n\
                        \x20   } else {\n\
                        \x20       pool.discard_at(n, job, epoch);\n\
                        \x20   }\n\
                        }\n";
        assert!(run(lease_settle_once, RT, branches).is_empty());

        let twice = "fn go() {\n\
                     \x20   settle_standby_outcome(ctx, rt, fl, t, 0, 0, O::Lost);\n\
                     \x20   settle_standby_outcome(ctx, rt, fl, t, 0, 0, O::Lost);\n\
                     }\n";
        assert_eq!(run(lease_settle_once, RT, twice).len(), 1);
    }
}

//! The determinism & concurrency rules.
//!
//! Every rule is a pure function over a [`FileCtx`]'s code-token stream.
//! They are deliberately lexical: no type information, no name resolution.
//! That makes each check a heuristic — the `// lint:allow(<rule>) — <reason>`
//! escape hatch exists exactly for the sites where the heuristic is wrong
//! and a human has written down why.

use std::collections::BTreeSet;

use crate::context::{FileCtx, FileRole};
use crate::lexer::{Token, TokenKind};
use crate::Finding;

/// Static description of one rule, for `--list` output and docs.
pub struct RuleInfo {
    pub id: &'static str,
    pub summary: &'static str,
}

/// All rule ids, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "default-hasher",
        summary: "HashMap/HashSet built with the randomly-seeded default hasher \
                  (use fasthash::FastHashMap, a BTreeMap, or name a deterministic hasher)",
    },
    RuleInfo {
        id: "hash-iter",
        summary: "iteration over a hash-ordered map/set: order varies run-to-run \
                  (or with insertion history), so it must not reach any output",
    },
    RuleInfo {
        id: "fs-iter",
        summary: "directory enumeration (read_dir) in library code: entry order is \
                  platform/filesystem-dependent, so cache and merge paths must \
                  collect and sort before iterating",
    },
    RuleInfo {
        id: "wall-clock",
        summary: "wall-clock or thread-identity read (Instant::now, SystemTime::now, \
                  thread::current) reachable from simulation or emit paths",
    },
    RuleInfo {
        id: "float-accum",
        summary: "order-sensitive float accumulation (sum::<f64>, float fold) — \
                  float addition does not commute, so reduction order must be pinned",
    },
    RuleInfo {
        id: "panic",
        summary: "unwrap/expect/panic! in library code — panics must stay inside \
                  the campaign's per-cell catch_unwind isolation, and library paths \
                  should return errors",
    },
    RuleInfo {
        id: "unsafe-code",
        summary: "unsafe block/fn or static mut (denied everywhere; crate roots \
                  carry #![forbid(unsafe_code)] as the compiler-level backstop)",
    },
];

/// Run every applicable rule over `ctx`, honoring test masks and allows.
pub fn run_rules(ctx: &FileCtx) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(ctx.allow_findings.iter().cloned());
    default_hasher(ctx, &mut findings);
    hash_iter(ctx, &mut findings);
    fs_iter(ctx, &mut findings);
    wall_clock(ctx, &mut findings);
    float_accum(ctx, &mut findings);
    panic_rule(ctx, &mut findings);
    unsafe_rule(ctx, &mut findings);
    findings
}

/// Push a finding unless the line carries a matching allow annotation.
fn push(ctx: &FileCtx, findings: &mut Vec<Finding>, rule: &'static str, t: &Token, msg: String) {
    if ctx.is_allowed(rule, t.line) {
        return;
    }
    findings.push(Finding {
        rule,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message: msg,
    });
}

/// Is the code token at `i` the start of a `::` path separator?
fn is_path_sep(code: &[Token], i: usize) -> bool {
    i + 1 < code.len() && code[i].is_punct(':') && code[i + 1].is_punct(':')
}

/// Count top-level generic parameters of the angle-bracketed list opening at
/// `lt` (which must hold `<`). Returns `(param_count, index_of_closing_gt)`,
/// or `None` when this is not a well-formed generic list (e.g. a comparison).
fn generic_params(code: &[Token], lt: usize) -> Option<(usize, usize)> {
    let mut depth = 0i64;
    let mut paren = 0i64;
    let mut commas = 0usize;
    let mut saw_param_token = false;
    for (j, t) in code.iter().enumerate().skip(lt) {
        if j > lt + 256 {
            return None;
        }
        if t.is_punct('<') {
            depth += 1;
        } else if t.is_punct('>') {
            // `->` return arrows inside Fn(...) -> T types do not close the
            // list.
            if j > 0 && code[j - 1].is_punct('-') {
                continue;
            }
            depth -= 1;
            if depth == 0 {
                let params = if saw_param_token { commas + 1 } else { 0 };
                return Some((params, j));
            }
        } else if t.is_punct('(') || t.is_punct('[') {
            paren += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            paren -= 1;
            if paren < 0 {
                return None;
            }
        } else if t.is_punct(',') && depth == 1 && paren == 0 {
            // Ignore a trailing comma right before `>`.
            if code.get(j + 1).is_some_and(|n| n.is_punct('>')) {
                continue;
            }
            commas += 1;
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        } else if depth >= 1 {
            saw_param_token = true;
        }
    }
    None
}

/// How many generic parameters a std hash collection has when the hasher is
/// left to default: `HashMap<K, V>` (2 of 3), `HashSet<T>` (1 of 2).
fn default_hasher_arity(name: &str) -> usize {
    if name == "HashMap" {
        2
    } else {
        1
    }
}

/// Rule `default-hasher`: flag construction or type mention of a std hash
/// collection that leaves the hasher parameter defaulted (RandomState — a
/// per-process random seed, so iteration order and bucket layout vary
/// between runs).
fn default_hasher(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.role == FileRole::TestLike {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        if !(t.is_ident("HashMap") || t.is_ident("HashSet")) {
            continue;
        }
        let arity = default_hasher_arity(&t.text);
        // `HashMap::new(...)` / `HashMap::with_capacity(...)`: always the
        // default hasher (custom hashers go through `default`/`with_hasher`).
        if is_path_sep(code, i + 1) {
            match code.get(i + 3) {
                Some(m) if m.is_ident("new") || m.is_ident("with_capacity") => {
                    push(
                        ctx,
                        findings,
                        "default-hasher",
                        t,
                        format!(
                            "{}::{} builds a randomly-seeded RandomState table; use \
                             fasthash::FastHash{}, a BTree{}, or an explicit deterministic hasher",
                            t.text,
                            m.text,
                            &t.text[4..],
                            &t.text[4..],
                        ),
                    );
                }
                // Turbofish `HashMap::<K, V>::…`: the hasher is pinned to
                // RandomState when only key/value params are given.
                Some(m) if m.is_punct('<') => {
                    if let Some((params, _)) = generic_params(code, i + 3) {
                        if params > 0 && params <= arity {
                            push(
                                ctx,
                                findings,
                                "default-hasher",
                                t,
                                format!(
                                    "{}::<…> with {} parameter(s) defaults the hasher to \
                                     RandomState",
                                    t.text, params
                                ),
                            );
                        }
                    }
                }
                _ => {}
            }
            continue;
        }
        // Type mention `HashMap<K, V>` without a hasher parameter.
        if code.get(i + 1).is_some_and(|n| n.is_punct('<')) {
            if let Some((params, _)) = generic_params(code, i + 1) {
                if params > 0 && params <= arity {
                    push(
                        ctx,
                        findings,
                        "default-hasher",
                        t,
                        format!(
                            "{}<…> with {} parameter(s) defaults the hasher to RandomState",
                            t.text, params
                        ),
                    );
                }
            }
        }
    }
}

/// Methods whose call on a hash-ordered container exposes its ordering.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "into_iter",
    "drain",
    "retain",
    "extract_if",
];

/// Type names that mark a binding as hash-ordered. Includes the workspace's
/// own deterministic-hash aliases: a FastHashMap hashes deterministically,
/// but its iteration order still depends on insertion history and capacity,
/// which is exactly what must not reach an output. The common third-party
/// aliases (`FxHashMap`, and `IndexMap`'s insertion-history order) are listed
/// too so a future vendored shim does not reopen the hole.
const HASH_TYPES: &[&str] = &[
    "HashMap",
    "HashSet",
    "FastHashMap",
    "FastHashSet",
    "FxHashMap",
    "FxHashSet",
    "IndexMap",
    "IndexSet",
];

fn is_hash_type_name(t: &Token) -> bool {
    t.kind == TokenKind::Ident && HASH_TYPES.iter().any(|h| t.text == *h)
}

/// Collect names bound to hash-ordered containers in this file: `let` /
/// field / parameter declarations whose type names a hash collection, and
/// `let name = HashMap::new()`-style initializers.
fn hash_bindings(ctx: &FileCtx) -> BTreeSet<String> {
    let code = &ctx.code;
    let mut names = BTreeSet::new();
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        // `name : … Hash… <` within the next few tokens — covers struct
        // fields, fn parameters and let ascriptions. A single `:` only (a
        // `::` would be a path segment).
        let colon = i + 1;
        if !is_keyword(&t.text)
            && code.get(colon).is_some_and(|c| c.is_punct(':'))
            && !is_path_sep(code, colon)
            && !code.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct(':'))
        {
            let mut j = colon + 1;
            let mut budget = 24usize;
            while let Some(ty) = code.get(j) {
                if budget == 0
                    || ty.is_punct(';')
                    || ty.is_punct('=')
                    || ty.is_punct('{')
                    || ty.is_punct('}')
                    || ty.is_punct(')')
                    || ty.is_punct(',')
                {
                    break;
                }
                if is_hash_type_name(ty) && code.get(j + 1).is_some_and(|n| n.is_punct('<')) {
                    names.insert(t.text.clone());
                    break;
                }
                j += 1;
                budget -= 1;
            }
        }
        // `let [mut] name = [path::]Hash…::…` initializer form.
        if t.is_ident("let") {
            let mut j = i + 1;
            if code.get(j).is_some_and(|m| m.is_ident("mut")) {
                j += 1;
            }
            let Some(name) = code.get(j) else { continue };
            if name.kind != TokenKind::Ident {
                continue;
            }
            // Skip an optional `: Type` ascription (handled above) to find
            // `=`.
            let mut k = j + 1;
            let mut budget = 32usize;
            while let Some(tk) = code.get(k) {
                if budget == 0 || tk.is_punct(';') || tk.is_punct('=') {
                    break;
                }
                k += 1;
                budget -= 1;
            }
            if !code.get(k).is_some_and(|e| e.is_punct('=')) {
                continue;
            }
            // Initializer head: `path::path::HashMap::…`.
            let mut h = k + 1;
            while let Some(head) = code.get(h) {
                if head.kind != TokenKind::Ident {
                    break;
                }
                if is_hash_type_name(head) {
                    names.insert(name.text.clone());
                    break;
                }
                if is_path_sep(code, h + 1) {
                    h += 3;
                } else {
                    break;
                }
            }
        }
    }
    names
}

fn is_keyword(s: &str) -> bool {
    matches!(
        s,
        "let" | "mut" | "fn" | "pub" | "ref" | "if" | "else" | "match" | "for" | "while" | "in"
    )
}

/// Rule `hash-iter`: flag iteration over any binding this file declares with
/// a hash-ordered type — `map.iter()`, `for k in &map`, `map.retain(…)`, ….
fn hash_iter(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.role == FileRole::TestLike {
        return;
    }
    let names = hash_bindings(ctx);
    if names.is_empty() {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        // `name.iter()` / `self.name.keys()` …
        if t.kind == TokenKind::Ident && names.contains(&t.text) {
            if let (Some(dot), Some(m), Some(paren)) =
                (code.get(i + 1), code.get(i + 2), code.get(i + 3))
            {
                if dot.is_punct('.')
                    && m.kind == TokenKind::Ident
                    && ITER_METHODS.iter().any(|im| m.text == *im)
                    && paren.is_punct('(')
                {
                    push(
                        ctx,
                        findings,
                        "hash-iter",
                        t,
                        format!(
                            "`{}.{}()` iterates a hash-ordered container; iteration order \
                             depends on hasher seed/insertion history — sort first or use a \
                             BTree collection",
                            t.text, m.text
                        ),
                    );
                }
            }
        }
        // `for pat in [&][mut] name {`
        if t.is_ident("for") {
            // Find the `in` at this statement, shallowly.
            let mut j = i + 1;
            let mut budget = 48usize;
            while let Some(tk) = code.get(j) {
                if budget == 0 || tk.is_punct('{') || tk.is_punct(';') {
                    break;
                }
                if tk.is_ident("in") {
                    let mut h = j + 1;
                    while code
                        .get(h)
                        .is_some_and(|a| a.is_punct('&') || a.is_ident("mut"))
                    {
                        h += 1;
                    }
                    if let (Some(src), Some(open)) = (code.get(h), code.get(h + 1)) {
                        if src.kind == TokenKind::Ident
                            && names.contains(&src.text)
                            && open.is_punct('{')
                        {
                            push(
                                ctx,
                                findings,
                                "hash-iter",
                                src,
                                format!(
                                    "`for … in {}` iterates a hash-ordered container; order \
                                     depends on hasher seed/insertion history",
                                    src.text
                                ),
                            );
                        }
                    }
                    break;
                }
                j += 1;
                budget -= 1;
            }
        }
    }
}

/// Rule `fs-iter`: library code must not iterate raw directory listings.
/// `read_dir` yields entries in whatever order the filesystem reports them —
/// which differs across platforms, filesystems and even reruns — so any
/// cache-store scan or merge path built on it must collect and sort first
/// (and annotate the call site saying so).
fn fs_iter(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.role != FileRole::Lib {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        // `fs::read_dir(dir)` / `path.read_dir()` — but not a local
        // `fn read_dir(…)` definition.
        if t.is_ident("read_dir")
            && code.get(i + 1).is_some_and(|p| p.is_punct('('))
            && !code
                .get(i.wrapping_sub(1))
                .is_some_and(|p| p.is_ident("fn"))
        {
            push(
                ctx,
                findings,
                "fs-iter",
                t,
                "`read_dir` enumerates entries in a platform/filesystem-dependent order; \
                 collect the paths and sort before iterating, then annotate this site"
                    .to_string(),
            );
        }
    }
}

/// Rule `wall-clock`: engine library code must not read wall time or thread
/// identity — both vary run-to-run and would leak into simulated state or
/// emitted bytes.
fn wall_clock(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.role != FileRole::Lib {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        let wanted = if t.is_ident("Instant") || t.is_ident("SystemTime") {
            "now"
        } else if t.is_ident("thread") {
            "current"
        } else {
            continue;
        };
        if is_path_sep(code, i + 1) && code.get(i + 3).is_some_and(|m| m.is_ident(wanted)) {
            push(
                ctx,
                findings,
                "wall-clock",
                t,
                format!(
                    "`{}::{}` reads host state that differs between runs; simulation and emit \
                     paths must derive everything from simulated time",
                    t.text, wanted
                ),
            );
        }
    }
}

/// Rule `float-accum`: float reductions whose result depends on evaluation
/// order. `x.sum::<f64>()` and float-seeded `fold`s are flagged; integer
/// sums commute and are ignored.
fn float_accum(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.role != FileRole::Lib {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test[i] || !code[i].is_punct('.') {
            continue;
        }
        let Some(m) = code.get(i + 1) else { continue };
        // `.sum::<f64>()` / `.product::<f32>()`
        if (m.is_ident("sum") || m.is_ident("product"))
            && is_path_sep(code, i + 2)
            && code.get(i + 4).is_some_and(|lt| lt.is_punct('<'))
            && code
                .get(i + 5)
                .is_some_and(|f| f.is_ident("f64") || f.is_ident("f32"))
        {
            push(
                ctx,
                findings,
                "float-accum",
                m,
                format!(
                    "float `{}` reduction: addition order changes the result in the last ulp; \
                     pin the iteration order (sorted/indexed) and annotate, or accumulate \
                     integers",
                    m.text
                ),
            );
        }
        // `.fold(0.0, …)` — float seed.
        if m.is_ident("fold") && code.get(i + 2).is_some_and(|p| p.is_punct('(')) {
            let mut j = i + 3;
            if code.get(j).is_some_and(|s| s.is_punct('-')) {
                j += 1;
            }
            if let Some(seed) = code.get(j) {
                let floaty = seed.kind == TokenKind::Number
                    && (seed.text.contains('.')
                        || seed.text.ends_with("f64")
                        || seed.text.ends_with("f32"));
                if floaty {
                    push(
                        ctx,
                        findings,
                        "float-accum",
                        m,
                        "float-seeded `fold`: addition order changes the result; pin the \
                         iteration order (sorted/indexed) and annotate, or accumulate integers"
                            .to_string(),
                    );
                }
            }
        }
    }
}

/// Rule `panic`: `unwrap`/`expect`/`panic!` family in engine library code.
fn panic_rule(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    if ctx.role != FileRole::Lib {
        return;
    }
    let code = &ctx.code;
    for i in 0..code.len() {
        if ctx.in_test[i] {
            continue;
        }
        let t = &code[i];
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_macro = matches!(
            t.text.as_str(),
            "panic" | "unreachable" | "todo" | "unimplemented"
        ) && code.get(i + 1).is_some_and(|b| b.is_punct('!'));
        if is_macro {
            push(
                ctx,
                findings,
                "panic",
                t,
                format!(
                    "`{}!` in library code; return an error, or annotate why this invariant \
                     cannot fire (panics are only tolerated inside the campaign's per-cell \
                     catch_unwind)",
                    t.text
                ),
            );
            continue;
        }
        let is_method = matches!(
            t.text.as_str(),
            "unwrap" | "expect" | "unwrap_err" | "expect_err"
        ) && code.get(i.wrapping_sub(1)).is_some_and(|d| d.is_punct('.'))
            && code.get(i + 1).is_some_and(|p| p.is_punct('('));
        if is_method && i > 0 {
            push(
                ctx,
                findings,
                "panic",
                t,
                format!(
                    "`.{}()` in library code; return an error, or annotate why this invariant \
                     cannot fire (panics are only tolerated inside the campaign's per-cell \
                     catch_unwind)",
                    t.text
                ),
            );
        }
    }
}

/// Rule `unsafe-code`: `unsafe` or `static mut` anywhere — tests included.
/// The crate roots' `#![forbid(unsafe_code)]` is the compiler-level backstop;
/// this rule keeps the gate even for files outside any crate root's reach.
fn unsafe_rule(ctx: &FileCtx, findings: &mut Vec<Finding>) {
    let code = &ctx.code;
    for i in 0..code.len() {
        let t = &code[i];
        if t.is_ident("unsafe") {
            // `#![forbid(unsafe_code)]` mentions the *ident* unsafe_code, not
            // the keyword, so no special case is needed.
            push(
                ctx,
                findings,
                "unsafe-code",
                t,
                "`unsafe` is denied across the workspace (#![forbid(unsafe_code)] backs this \
                 at the compiler level)"
                    .to_string(),
            );
        }
        if t.is_ident("static") && code.get(i + 1).is_some_and(|m| m.is_ident("mut")) {
            push(
                ctx,
                findings,
                "unsafe-code",
                t,
                "`static mut` is denied across the workspace — shared mutable state breaks \
                 thread-count determinism"
                    .to_string(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint_lib(src: &str) -> Vec<Finding> {
        run_rules(&FileCtx::new("crates/x/src/lib.rs", src))
    }

    fn rule_ids(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn default_hasher_construction_flagged() {
        let f = lint_lib("fn f() { let m = HashMap::new(); }");
        assert_eq!(rule_ids(&f), ["default-hasher"]);
        let f = lint_lib("fn f() { let s = HashSet::with_capacity(8); }");
        assert_eq!(rule_ids(&f), ["default-hasher"]);
    }

    #[test]
    fn default_hasher_type_mention_flagged() {
        let f = lint_lib("struct S { m: HashMap<u64, u32> }");
        assert_eq!(rule_ids(&f), ["default-hasher"]);
    }

    #[test]
    fn hasher_parameter_silences_rule_one() {
        // Three-parameter map: hasher explicitly named. (Iterating it is
        // still rule 2's business.)
        let f = lint_lib("struct S { m: HashMap<u64, u32, FastBuildHasher> }");
        assert!(rule_ids(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn nested_generics_counted_at_top_level_only() {
        let f = lint_lib("struct S { m: HashMap<u64, Vec<(u32, u8)>> }");
        assert_eq!(rule_ids(&f), ["default-hasher"]);
        let f = lint_lib("struct S { m: HashMap<u64, Box<dyn Fn() -> u64>, H> }");
        assert!(rule_ids(&f).is_empty(), "{f:?}");
    }

    #[test]
    fn import_alone_is_not_flagged() {
        let f = lint_lib("use std::collections::HashMap;");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn turbofish_default_hasher_flagged() {
        let f = lint_lib("fn f() { let m = HashMap::<u64, u32>::default(); }");
        assert_eq!(rule_ids(&f), ["default-hasher"]);
    }

    #[test]
    fn comparison_with_less_than_is_not_a_generic_list() {
        let f = lint_lib("fn f(a: usize) { if HashMap < a {} }");
        // Nonsense code, but the arity parser must bail instead of flagging.
        assert!(f.iter().all(|x| x.rule != "default-hasher"), "{f:?}");
    }

    #[test]
    fn hash_iteration_on_declared_binding_flagged() {
        let src = "struct S { m: HashMap<u64, u32, H> }\n\
                   impl S { fn f(&self) { for v in self.m.values() { use_(v); } } }";
        let f = lint_lib(src);
        assert_eq!(rule_ids(&f), ["hash-iter"]);
    }

    #[test]
    fn for_loop_over_hash_param_flagged() {
        let f = lint_lib("fn f(region: &HashSet<u32, H>) { for b in region { g(b); } }");
        assert_eq!(rule_ids(&f), ["hash-iter"]);
    }

    #[test]
    fn fasthash_alias_iteration_flagged() {
        let f = lint_lib(
            "fn f() { let m = FastHashMap::default(); m.insert(1, 2); for k in m.keys() { g(k); } }",
        );
        assert_eq!(rule_ids(&f), ["hash-iter"]);
    }

    #[test]
    fn btree_iteration_is_clean() {
        let f = lint_lib("fn f(m: &BTreeMap<u64, u32>) { for v in m.values() { g(v); } }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn lookup_on_hash_binding_is_clean() {
        let f = lint_lib(
            "struct S { m: HashMap<u64, u32, H> }\n\
                          impl S { fn g(&self) -> Option<&u32> { self.m.get(&1) } }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn fx_and_index_aliases_iteration_flagged() {
        let f = lint_lib(
            "fn f() { let m = FxHashMap::default(); m.insert(1, 2); for k in m.keys() { g(k); } }",
        );
        assert_eq!(rule_ids(&f), ["hash-iter"]);
        let f = lint_lib("fn f(s: &IndexSet<u32>) { for b in s { g(b); } }");
        assert_eq!(rule_ids(&f), ["hash-iter"]);
        let f = lint_lib(
            "struct S { m: IndexMap<u64, u32> }\n\
                          impl S { fn f(&self) { for v in self.m.values() { g(v); } } }",
        );
        assert_eq!(rule_ids(&f), ["hash-iter"]);
    }

    #[test]
    fn read_dir_in_lib_flagged_but_bin_exempt() {
        let src = "fn f(d: &Path) { for e in fs::read_dir(d).unwrap() { g(e); } }";
        let ids = rule_ids(&lint_lib(src));
        assert!(ids.contains(&"fs-iter"), "{ids:?}");
        let f = run_rules(&FileCtx::new("crates/x/src/bin/tool.rs", src));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn read_dir_method_form_flagged() {
        let f = lint_lib("fn f(d: &Path) -> io::Result<ReadDir> { d.read_dir() }");
        assert_eq!(rule_ids(&f), ["fs-iter"]);
    }

    #[test]
    fn read_dir_fn_definition_is_clean() {
        let f = lint_lib("fn read_dir(d: &Path) -> Vec<PathBuf> { Vec::new() }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allowed_read_dir_is_clean() {
        let f = lint_lib(
            "fn f(d: &Path) {\n    let e = fs::read_dir(d); // lint:allow(fs-iter) — sorted below\n}",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wall_clock_in_lib_flagged_but_bin_exempt() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(rule_ids(&lint_lib(src)), ["wall-clock"]);
        let f = run_rules(&FileCtx::new("crates/x/src/bin/tool.rs", src));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn system_time_and_thread_current_flagged() {
        let f = lint_lib("fn f() { let t = SystemTime::now(); let id = thread::current().id(); }");
        assert_eq!(rule_ids(&f), ["wall-clock", "wall-clock"]);
    }

    #[test]
    fn thread_spawn_is_not_wall_clock() {
        let f = lint_lib("fn f() { thread::spawn(|| {}); }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_sum_flagged_integer_sum_clean() {
        assert_eq!(
            rule_ids(&lint_lib(
                "fn f(v: &[f64]) -> f64 { v.iter().sum::<f64>() }"
            )),
            ["float-accum"]
        );
        let f = lint_lib("fn f(v: &[u64]) -> u64 { v.iter().sum::<u64>() }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn float_fold_flagged() {
        let f = lint_lib("fn f(v: &[f64]) -> f64 { v.iter().fold(0.0, |a, b| a + b) }");
        assert_eq!(rule_ids(&f), ["float-accum"]);
        let f = lint_lib("fn f(v: &[u64]) -> u64 { v.iter().fold(0, |a, b| a + b) }");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panics_in_lib_flagged() {
        let f = lint_lib("fn f(x: Option<u32>) -> u32 { x.unwrap() }");
        assert_eq!(rule_ids(&f), ["panic"]);
        let f = lint_lib("fn f() { panic!(\"boom\"); }");
        assert_eq!(rule_ids(&f), ["panic"]);
        let f = lint_lib("fn f(x: Option<u32>) -> u32 { x.expect(\"set\") }");
        assert_eq!(rule_ids(&f), ["panic"]);
    }

    #[test]
    fn unwrap_or_variants_are_clean() {
        let f = lint_lib(
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) + x.unwrap_or_else(|| 1) + \
             x.unwrap_or_default() }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn panics_in_tests_and_bins_are_clean() {
        let f = lint_lib("#[cfg(test)]\nmod tests { fn t() { x.unwrap(); panic!(); } }");
        assert!(f.is_empty(), "{f:?}");
        let f = run_rules(&FileCtx::new(
            "crates/x/src/bin/tool.rs",
            "fn main() { x.unwrap(); }",
        ));
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn unsafe_flagged_even_in_tests() {
        let f = run_rules(&FileCtx::new(
            "tests/e2e.rs",
            "fn t() { unsafe { core::hint::unreachable_unchecked() } }",
        ));
        assert_eq!(rule_ids(&f), ["unsafe-code"]);
    }

    #[test]
    fn static_mut_flagged_static_const_clean() {
        let f = lint_lib("static mut COUNTER: u64 = 0;");
        assert_eq!(rule_ids(&f), ["unsafe-code"]);
        let f = lint_lib("static NAME: &str = \"x\";");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn forbid_attribute_is_not_flagged() {
        let f = lint_lib("#![forbid(unsafe_code)]\nfn f() {}");
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let f = lint_lib(
            "fn f() { let t = Instant::now(); // lint:allow(wall-clock) — opt-in budget\n }",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_for_other_rule_does_not_suppress() {
        let f = lint_lib("fn f() { let t = Instant::now(); // lint:allow(panic) — wrong rule\n }");
        assert_eq!(rule_ids(&f), ["wall-clock"]);
    }
}

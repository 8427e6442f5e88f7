//! Lint rules that rustc and clippy cannot check themselves (DESIGN.md
//! §6g): every member opts into `[workspace.lints]` (`unsafe` forbidden,
//! outer `#[allow]` denied); no member has an inner `#![allow]`, which
//! clippy's `allow_attributes` does not see; and an escape from
//! clippy.toml's determinism bans (an `expect`, or inner `allow`, of a
//! disallowed-types or -methods lint or of a group holding one) appears
//! only in the two files whose job needs it. Sources are matched with `//`
//! comments and whitespace removed, however rustfmt wrapped an attribute.

use std::fs;
use std::path::{Path, PathBuf};

/// The files allowed to escape the bans: the harness progress module
/// (stderr timing, the one worker pool) and the criterion shim (timing).
const ESCAPE_SITES: &[&str] = &[
    "crates/harness/src/progress.rs",
    "shims/criterion/src/lib.rs",
];

/// Lint names whose `expect` or `allow` silences clippy.toml's bans: the
/// two lints, the clippy groups holding them, and rustc's `warnings`.
const BAN_SILENCERS: &[&str] = &[
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
    "clippy::style",
    "clippy::all",
    "warnings",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the tests crate sits one level below the root")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn relative(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).expect("path under the root");
    rel.to_string_lossy().replace('\\', "/")
}

/// The member directories named by the root manifest's `members` list,
/// with a trailing `/*` expanded to every subdirectory holding a
/// `Cargo.toml`, as cargo expands it.
fn member_dirs(root: &Path) -> Vec<PathBuf> {
    let manifest = read(&root.join("Cargo.toml"));
    let members = &manifest[manifest.find("members").expect("a members list")..];
    let list = &members[members.find('[').expect("[") + 1..members.find(']').expect("]")];
    let mut dirs = Vec::new();
    for pattern in list.split(',').map(|p| p.trim().trim_matches('"')) {
        match pattern.strip_suffix("/*") {
            Some(parent) => {
                let subdirs = fs::read_dir(root.join(parent)).expect("member glob parent");
                let subdirs = subdirs.map(|entry| entry.expect("directory entry").path());
                dirs.extend(subdirs.filter(|dir| dir.join("Cargo.toml").is_file()));
            }
            None if !pattern.is_empty() => dirs.push(root.join(pattern)),
            None => {}
        }
    }
    dirs.sort();
    dirs
}

/// `text` without its `//` comments and whitespace.
fn squeeze(text: &str) -> String {
    let code = text.lines().map(|l| l.split("//").next().unwrap_or(""));
    let chars = code.flat_map(str::chars);
    chars.filter(|c| !c.is_whitespace()).collect()
}

/// Every `.rs` file under `dir`, root-relative, with its squeezed text.
fn squeezed_sources(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    for entry in fs::read_dir(dir).expect("readable member directory") {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            squeezed_sources(root, &path, out);
        } else if path.extension() == Some("rs".as_ref()) {
            out.push((relative(root, &path), squeeze(&read(&path))));
        }
    }
}

/// True if one of [`BAN_SILENCERS`] is an item of a lint list: after `(`
/// or `,` and before `,` or `)`.
fn silences_a_ban(squeezed: &str) -> bool {
    BAN_SILENCERS.iter().any(|name| {
        squeezed.match_indices(name).any(|(at, _)| {
            squeezed[..at].ends_with(['(', ','])
                && squeezed[at + name.len()..].starts_with([',', ')'])
        })
    })
}

/// True if an inner attribute allows a lint, directly or via `cfg_attr`.
fn has_inner_allow(squeezed: &str) -> bool {
    let mut inner = squeezed.split("#![").skip(1);
    inner.any(|attr| attr.split(']').next().unwrap_or("").contains("allow("))
}

#[test]
fn workspace_lints_reach_every_member_and_escapes_stay_in_two_files() {
    let root = workspace_root();
    let members = member_dirs(&root);
    assert!(
        members.contains(&root.join("tests")),
        "the members list was misread: {members:?}"
    );

    let missing: Vec<String> = members
        .iter()
        .filter(|dir| !read(&dir.join("Cargo.toml")).contains("\n[lints]\nworkspace = true"))
        .map(|dir| relative(&root, dir))
        .collect();
    assert!(
        missing.is_empty(),
        "members without `[lints] workspace = true` skip the unsafe and #[allow] bans: {missing:?}"
    );

    let mut sources = Vec::new();
    for dir in &members {
        squeezed_sources(&root, dir, &mut sources);
    }
    let matching = |test: fn(&str) -> bool| -> Vec<&str> {
        let hits = sources.iter().filter(|(_, text)| test(text));
        hits.map(|(file, _)| file.as_str()).collect()
    };
    let inner = matching(has_inner_allow);
    assert!(inner.is_empty(), "inner allow attributes: {inner:?}");
    let mut escaping = matching(silences_a_ban);
    escaping.sort_unstable();
    assert_eq!(
        escaping, ESCAPE_SITES,
        "determinism-ban escapes must be exactly the escape sites"
    );
}

#[test]
fn escapes_and_inner_allows_are_found_however_they_are_laid_out() {
    // Assembled at run time, so that this file holds neither.
    let with = |template: &str, lint: &str| squeeze(&template.replace('L', lint));
    let wrapped = "#[expect(\n    // why\n    L,\n    reason = \"r\"\n)]";
    for (text, escapes) in [
        (with(wrapped, "clippy::disallowed_methods"), true),
        (with("#[cfg_attr(t, expect(x, L))]", "clippy :: all"), true),
        (with("#![expect(L)]", "warnings"), true),
        (with(wrapped, "clippy::allow_attributes"), false),
        (with("f(L, warnings_seen)", "-D warnings"), false),
    ] {
        assert_eq!(silences_a_ban(&text), escapes, "{text}");
    }
    let inner = "[\n    cfg_attr(\n        test,\n        allow(x, reason = \"r\")\n    )\n]";
    assert!(has_inner_allow(&with("#!L", inner)));
    assert!(!has_inner_allow(&with("#!L", "[warn(x)] fn allow() {}")));
}

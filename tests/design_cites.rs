//! DESIGN.md cites tests by name as the evidence for its rules, so a
//! citation must name a test that exists. Two forms are citations:
//!
//! * `path.rs::name` — `path` is a file under `crates/` or `tests/`,
//!   given by any suffix of its path that names one file alone
//!   (`store/tests/fuzz.rs`, or `keepalive.rs` while only one such file
//!   exists); `name` is a function in it.
//! * `module::tests::name` — a unit test: exactly one file named
//!   `module.rs` under `crates/` holds a function `name`.
//!
//! Every citation that does not resolve is listed in the failure.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, as a path relative to the repo root
/// with `/` separators, beside its text.
fn sources(root: &Path, dir: &str, out: &mut Vec<(String, String)>) {
    let entries = std::fs::read_dir(root.join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
    let mut entries: Vec<_> = entries.map(|e| e.expect("a readable entry").path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).expect("a UTF-8 file name");
        let rel = format!("{dir}/{name}");
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                sources(root, &rel, out);
            }
        } else if name.ends_with(".rs") {
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{rel}: {e}"));
            out.push((rel, text));
        }
    }
}

/// Whether `text` defines a function called `name`.
fn defines(text: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    text.match_indices(&needle).any(|(at, _)| {
        let after = text[at + needle.len()..].chars().next();
        let before = text[..at].chars().next_back();
        matches!(after, Some('(' | '<')) && !before.is_some_and(|c| c.is_alphanumeric() || c == '_')
    })
}

/// The citations in `doc`, each as `(the citation, the file or module
/// it names, the function)`.
fn citations(doc: &str) -> Vec<(&str, &str, &str)> {
    let is_word = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '.' | ':' | '-');
    let mut out = Vec::new();
    for token in doc.split(|c: char| !is_word(c)) {
        let token = token.trim_end_matches(['.', ':']);
        if let Some((path, rest)) = token.split_once(".rs::") {
            let file = &token[..path.len() + 3];
            out.push((token, file, rest.rsplit("::").next().unwrap_or("")));
        } else if let Some((module, name)) = token.split_once("::tests::") {
            let module = module.rsplit("::").next().unwrap_or(module);
            out.push((token, module, name.rsplit("::").next().unwrap_or("")));
        }
    }
    out
}

/// `Ok` if `file` (a path suffix ending in `.rs`, or a module name)
/// resolves to one file defining `name`.
fn resolve(files: &[(String, String)], file: &str, name: &str) -> Result<(), String> {
    if file.ends_with(".rs") {
        let suffix = format!("/{file}");
        let named: Vec<&(String, String)> =
            files.iter().filter(|(rel, _)| rel == file || rel.ends_with(&suffix)).collect();
        match named.as_slice() {
            [(_, text)] if defines(text, name) => Ok(()),
            [(rel, _)] => Err(format!("{rel} defines no fn {name}")),
            [] => Err(format!("no file {file}")),
            many => {
                let paths: Vec<&str> = many.iter().map(|(rel, _)| rel.as_str()).collect();
                Err(format!("{file} names {} files: {}", paths.len(), paths.join(", ")))
            }
        }
    } else {
        let suffix = format!("/{file}.rs");
        let holders: Vec<&str> = files
            .iter()
            .filter(|(rel, text)| rel.starts_with("crates/") && rel.ends_with(&suffix) && defines(text, name))
            .map(|(rel, _)| rel.as_str())
            .collect();
        match holders.as_slice() {
            [_] => Ok(()),
            [] => Err(format!("no {file}.rs defines fn {name}")),
            many => Err(format!("{} files define it: {}", many.len(), many.join(", "))),
        }
    }
}

#[test]
fn every_test_design_md_cites_exists() {
    let root = repo_root();
    let doc = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md is checked in");
    let mut files = Vec::new();
    sources(&root, "crates", &mut files);
    sources(&root, "tests", &mut files);

    let cites = citations(&doc);
    assert!(cites.len() >= 20, "only {} citations found: the scan is broken", cites.len());
    let broken: Vec<String> = cites
        .into_iter()
        .filter_map(|(cite, file, name)| resolve(&files, file, name).err().map(|why| format!("{cite}: {why}")))
        .collect();
    assert!(broken.is_empty(), "DESIGN.md cites tests that do not resolve:\n{}", broken.join("\n"));
}

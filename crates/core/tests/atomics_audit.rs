//! Every atomic, lock and thread primitive in `priosched-core` must route
//! through the `crate::sync` facade.
//!
//! The facade is what lets `--cfg loom` swap the whole crate onto the
//! in-tree loom shim for model checking (see the crate's "Model-checked
//! properties" docs) — a single direct `std::sync::atomic` / `std::thread`
//! / `parking_lot` import silently exempts that code from every
//! interleaving the models explore. The audit reads each file under
//! `src/`, skips comment lines, stops at the first `#[cfg(test)]` line
//! (test modules run only in non-loom builds and may use std directly),
//! and fails if any forbidden import comes before it. Since nothing below
//! that line is read, it also fails on any top-level item there that is
//! not itself gated by `#[cfg(test)]`: production code below the tests
//! must move above them.

use std::path::PathBuf;

/// Substrings that must not appear outside the facade and test modules.
const FORBIDDEN: &[&str] = &["std::sync::atomic", "std::thread", "parking_lot"];

/// The facade itself is the one legitimate home for direct imports.
const EXEMPT_FILES: &[&str] = &["sync.rs"];

/// What file `name` (with contents `text`) does wrong, one line each.
fn violations(name: &str, text: &str) -> Vec<String> {
    let mut found = Vec::new();
    let mut lines = text.lines().zip(1..);
    for (line, n) in lines.by_ref() {
        let trimmed = line.trim_start();
        if trimmed == "#[cfg(test)]" {
            break;
        }
        if trimmed.starts_with("//") || EXEMPT_FILES.contains(&name) {
            continue;
        }
        for pat in FORBIDDEN {
            if line.contains(pat) {
                found.push(format!(
                    "{name}:{n}: `{pat}` bypasses crate::sync: {trimmed}"
                ));
            }
        }
    }
    // Below the first `#[cfg(test)]` a line in column 0 that is no
    // attribute, comment or closing bracket opens a top-level item, and
    // each one needs a `#[cfg(test)]` of its own since the last.
    let mut gated = true;
    for (line, n) in lines {
        match line.chars().next() {
            None | Some(' ' | '\t' | '}' | ')' | ']') => {}
            _ if line == "#[cfg(test)]" => gated = true,
            Some('#') => {}
            _ if line.starts_with("//") => {}
            _ if gated => gated = false,
            _ => found.push(format!(
                "{name}:{n}: production item below the tests, never audited: {line}"
            )),
        }
    }
    found
}

#[test]
fn core_sources_route_every_sync_primitive_through_the_facade() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|path| path.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no .rs files under {}", dir.display());
    let found: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let text = std::fs::read_to_string(path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            violations(&path.file_name().unwrap().to_string_lossy(), &text)
        })
        .collect();
    assert!(
        found.is_empty(),
        "route these through crate::sync, above every test module, so the \
         loom models cover them:\n{}",
        found.join("\n")
    );
}

/// The audit's own check: each kind of violation it exists for is found.
#[test]
fn planted_violations_are_found() {
    let import = "use std::sync::atomic::AtomicU64;\n";
    assert_eq!(violations("pool.rs", import).len(), 1);
    assert!(violations("sync.rs", import).is_empty());
    assert!(violations("pool.rs", &format!("// {import}")).is_empty());
    let tests = "#[cfg(test)]\nmod tests {\n    use std::thread;\n}\n";
    assert!(violations("pool.rs", tests).is_empty());
    let gated = format!("{tests}\n/// Docs.\n#[cfg(test)]\n#[allow(unused)]\nmod more {{}}\n");
    assert!(violations("pool.rs", &gated).is_empty());
    let trailing = format!("{tests}\nimpl Display for RunStats {{\n}}\n");
    assert_eq!(violations("pool.rs", &trailing).len(), 1);
}

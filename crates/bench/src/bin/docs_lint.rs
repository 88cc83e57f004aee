//! Intra-repo markdown checker (the CI `docs` job's lint step).
//!
//! Walks every `*.md` file in the repository (skipping `target/` and
//! hidden directories), extracts inline links and images
//! (`[text](dest)`), and fails if a **relative** destination does not
//! resolve to an existing file or directory. External schemes
//! (`http://`, `https://`, `mailto:`) and pure in-page anchors (`#...`)
//! are out of scope — the point is catching docs that rot when files are
//! renamed, like `docs/ARCHITECTURE.md`'s tour of the workspace.
//!
//! It also fails unless the lock-order block of DESIGN.md §8 (the first
//! fenced block in that section) names the sites of
//! `mach_hw::lock::LockSite::ALL`, one per line, in rank order.
//!
//! ```text
//! cargo run --release -p mach-bench --bin docs_lint
//! ```
//!
//! Exit status: 0 when every relative link resolves and the lock order
//! matches, 1 otherwise (each broken link is printed as
//! `file:line: broken link "dest"`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mach_hw::lock::LockSite;

/// Repository root: this crate lives at `<root>/crates/bench`.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// All markdown files under `root`, skipping hidden and build
/// directories.
fn markdown_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with('.') || name == "target" || name == "vendor" {
                continue;
            }
            if path.is_dir() {
                stack.push(path);
            } else if name.ends_with(".md") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Inline link destinations on one line: every `](dest)` occurrence.
/// Good enough for this repository's plain markdown — no reference-style
/// links, no nested parentheses in paths.
fn link_targets(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = line.as_bytes();
    let mut i = 0;
    while i + 1 < bytes.len() {
        if bytes[i] == b']' && bytes[i + 1] == b'(' {
            if let Some(close) = line[i + 2..].find(')') {
                out.push(line[i + 2..i + 2 + close].to_string());
                i += 2 + close;
                continue;
            }
        }
        i += 1;
    }
    out
}

/// Whether `dest` is a relative intra-repo target this lint must check.
fn is_checkable(dest: &str) -> bool {
    !(dest.is_empty()
        || dest.starts_with('#')
        || dest.starts_with("http://")
        || dest.starts_with("https://")
        || dest.starts_with("mailto:")
        || dest.starts_with('/'))
}

/// The first word of each line of the first fenced block in DESIGN.md
/// §8: the lock order as the design document states it.
fn documented_lock_order(design: &str) -> Vec<String> {
    design
        .lines()
        .skip_while(|l| !l.starts_with("## 8."))
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .filter_map(|l| l.split_whitespace().next())
        .map(str::to_string)
        .collect()
}

fn main() -> ExitCode {
    let root = repo_root();
    let files = markdown_files(&root);
    let mut broken = Vec::new();
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();
    let documented = documented_lock_order(&design);
    let code: Vec<&str> = LockSite::ALL.iter().map(|s| s.name()).collect();
    if documented != code {
        broken.push(format!(
            "DESIGN.md §8: lock order block lists {documented:?}, LockSite::ALL is {code:?}"
        ));
    }
    for file in &files {
        let Ok(text) = std::fs::read_to_string(file) else {
            continue;
        };
        let dir = file.parent().unwrap_or(&root);
        let mut in_code_block = false;
        for (n, line) in text.lines().enumerate() {
            if line.trim_start().starts_with("```") {
                in_code_block = !in_code_block;
                continue;
            }
            if in_code_block {
                continue;
            }
            for dest in link_targets(line) {
                if !is_checkable(&dest) {
                    continue;
                }
                // Strip an in-page anchor from a file link.
                let path_part = dest.split('#').next().unwrap_or(&dest);
                if path_part.is_empty() {
                    continue;
                }
                if !dir.join(path_part).exists() {
                    broken.push(format!(
                        "{}:{}: broken link \"{}\"",
                        file.strip_prefix(&root).unwrap_or(file).display(),
                        n + 1,
                        dest
                    ));
                }
            }
        }
    }
    eprintln!(
        "docs_lint: {} markdown files, {} problems",
        files.len(),
        broken.len()
    );
    if broken.is_empty() {
        ExitCode::SUCCESS
    } else {
        for b in &broken {
            eprintln!("  {b}");
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lock_order_block_is_read_from_section_8() {
        let doc = "## 7. x\n```\nnot_this\n```\n## 8. Locks\ntext\n```text\nvm_map  maps\n\npv_shard  shards\n```\n```\nlater\n```\n";
        assert_eq!(documented_lock_order(doc), ["vm_map", "pv_shard"]);
    }

    #[test]
    fn design_md_lists_the_lock_sites_in_rank_order() {
        let design = std::fs::read_to_string(repo_root().join("DESIGN.md")).unwrap();
        let code: Vec<&str> = LockSite::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(documented_lock_order(&design), code);
    }
}

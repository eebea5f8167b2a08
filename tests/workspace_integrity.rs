//! Guards the build system itself by walking the tree rather than naming
//! its pieces: every directory under `crates/` is a workspace member that
//! opts into the workspace lints and (bench aside) has a
//! `[workspace.dependencies]` entry, every repo-level test and example is
//! registered on the facade, each of the five criterion benches under
//! `crates/bench/benches` is wired with `harness = false`, and the README
//! names every crate and example. A crate, test or bench left out of the
//! manifests would otherwise never be compiled by CI.

use std::fs;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // This test is registered on the `lens` facade at crates/lens, so the
    // workspace root is two levels up from its manifest dir.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lens has a grandparent")
        .to_path_buf()
}

fn read(path: &Path) -> String {
    fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

/// The stems of the `.rs` files directly under `dir`.
fn rust_stems(dir: &Path) -> Vec<String> {
    let mut stems: Vec<String> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    stems.sort();
    stems
}

/// Every directory under `crates/`, as its name and the package name its
/// manifest must declare: `lens` for the facade, `lens-<dir>` otherwise.
fn crate_dirs(root: &Path) -> Vec<(String, String)> {
    let mut dirs: Vec<(String, String)> = fs::read_dir(root.join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .map(|p| {
            let dir = p.file_name().unwrap().to_string_lossy().into_owned();
            let package = if dir == "lens" {
                dir.clone()
            } else {
                format!("lens-{dir}")
            };
            (dir, package)
        })
        .collect();
    dirs.sort();
    dirs
}

/// The bodies of every `header` table in a manifest (`[lints]`,
/// `[[bench]]`, …), one trimmed line per entry; blank lines and comments
/// are dropped.
fn tables<'a>(manifest: &'a str, header: &str) -> Vec<Vec<&'a str>> {
    let mut found = Vec::new();
    let mut current: Option<Vec<&str>> = None;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            found.extend(current.take());
            if line == header {
                current = Some(Vec::new());
            }
        } else if let Some(body) = current.as_mut() {
            if !line.is_empty() && !line.starts_with('#') {
                body.push(line);
            }
        }
    }
    found.extend(current);
    found
}

/// Whether some `header` table of `manifest` holds every line of `entries`.
fn has_table(manifest: &str, header: &str, entries: &[&str]) -> bool {
    tables(manifest, header)
        .iter()
        .any(|body| entries.iter().all(|entry| body.contains(entry)))
}

#[test]
fn every_crate_dir_is_a_workspace_member() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    let globs_members = tables(&root_manifest, "[workspace]").iter().any(|body| {
        body.iter().any(|line| {
            line.starts_with("members")
                && line.contains("\"crates/*\"")
                && line.contains("\"shims/*\"")
        })
    });
    assert!(
        globs_members,
        "the root manifest's [workspace] members must glob crates/* and shims/*"
    );

    // The glob only picks up directories that hold a manifest, so a crate
    // directory without one would be skipped silently.
    for (dir, package) in crate_dirs(&root) {
        let path = root.join("crates").join(&dir).join("Cargo.toml");
        assert!(
            path.is_file(),
            "crates/{dir} has no Cargo.toml, so the workspace skips it"
        );
        let manifest = read(&path);
        let name = format!("name = \"{package}\"");
        assert!(
            has_table(&manifest, "[package]", &[name.as_str()]),
            "crates/{dir}/Cargo.toml must declare package {package}"
        );
        assert!(
            has_table(&manifest, "[lints]", &["workspace = true"]),
            "crates/{dir}/Cargo.toml must opt into the workspace lints"
        );
    }
}

#[test]
fn workspace_dependency_table_covers_all_crates() {
    let root = repo_root();
    let root_manifest = read(&root.join("Cargo.toml"));
    let deps = tables(&root_manifest, "[workspace.dependencies]").concat();
    for (dir, package) in crate_dirs(&root) {
        // The bench crate is a leaf: nothing depends on it.
        if dir == "bench" {
            continue;
        }
        let entry = format!("{package} = {{ path = \"crates/{dir}\"");
        assert!(
            deps.iter().any(|line| line.starts_with(&entry)),
            "[workspace.dependencies] is missing {package}"
        );
    }
}

#[test]
fn repo_level_tests_and_examples_are_registered() {
    let root = repo_root();
    let facade = read(&root.join("crates/lens/Cargo.toml"));
    // Match on the registered path, not the target name: a [[test]] and an
    // [[example]] sharing a stem must not mask each other.
    for (dir, header) in [("tests", "[[test]]"), ("examples", "[[example]]")] {
        for stem in rust_stems(&root.join(dir)) {
            let path = format!("path = \"../../{dir}/{stem}.rs\"");
            assert!(
                has_table(&facade, header, &[path.as_str()]),
                "{dir}/{stem}.rs is not registered as a {header} on the lens facade"
            );
        }
    }
}

#[test]
fn criterion_benches_are_registered_without_default_harness() {
    let root = repo_root();
    let manifest = read(&root.join("crates/bench/Cargo.toml"));
    for stem in rust_stems(&root.join("crates/bench/benches")) {
        let name = format!("name = \"{stem}\"");
        assert!(
            has_table(&manifest, "[[bench]]", &[name.as_str(), "harness = false"]),
            "bench {stem} must be a [[bench]] with harness = false"
        );
    }
}

/// A new crate or example that skips the README fails here instead of
/// leaving the README's inventory out of date.
#[test]
fn readme_names_every_crate_and_example() {
    let root = repo_root();
    let readme = read(&root.join("README.md"));
    for (_, package) in crate_dirs(&root) {
        let name = if package == "lens" {
            "`lens`".to_string()
        } else {
            package
        };
        assert!(readme.contains(&name), "README must name crate {name}");
    }
    for stem in rust_stems(&root.join("examples")) {
        assert!(readme.contains(&stem), "README must name example {stem}");
    }
}

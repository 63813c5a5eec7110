//! Cross-process determinism: a cache key fixes its bytes.
//!
//! Two real `linx serve-batch` processes train the same goals over the same
//! dataset, each into a fresh `--cache-dir`. The second runs with more workers and
//! shards and asks the goals in reverse order. Every persisted entry — results and
//! view statistics alike — must come out byte-identical: same file names, same
//! bytes. Histogram reductions and the histogram codec follow one canonical entry
//! order, so neither the per-process hash seed nor the scheduling can move a bit.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The `linx` binary built alongside this workspace's test profile:
/// `target/<profile>/deps/determinism-<hash>` → `target/<profile>/linx`.
fn linx_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(Path::parent)
        .expect("test binary lives in target/<profile>/deps");
    let bin = profile_dir.join("linx");
    if !bin.exists() {
        // `cargo test -p linx-engine` builds only this package's targets; pull
        // the CLI binary in explicitly so the test stays self-contained.
        let status = Command::new(env!("CARGO"))
            .args(["build", "-p", "linx-cli", "--bin", "linx"])
            .args(if profile_dir.ends_with("release") {
                &["--release"][..]
            } else {
                &[][..]
            })
            .status()
            .expect("spawn cargo build for the linx binary");
        assert!(status.success(), "building the linx binary failed");
    }
    assert!(bin.exists(), "no linx binary at {}", bin.display());
    bin
}

const GOALS: [&str; 3] = [
    "Examine characteristics of titles from India",
    "Survey the duration of the titles",
    "Find a country with different viewing habits than the rest of the world",
];

/// Run one `serve-batch` over `goals` into a fresh `cache_dir`.
fn serve_batch(bin: &Path, cache_dir: &Path, goals: &[&str], workers: &str, shards: &str) {
    let _ = std::fs::remove_dir_all(cache_dir);
    let out = Command::new(bin)
        .args(["serve-batch", "--dataset", "netflix", "--rows", "300"])
        .args(["--episodes", "20", "--workers", workers, "--shards", shards])
        .arg("--goals")
        .arg(goals.join(";"))
        .arg("--cache-dir")
        .arg(cache_dir)
        .output()
        .expect("spawn linx serve-batch");
    assert!(
        out.status.success(),
        "serve-batch failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Every regular file under `dir`, keyed by its path relative to `dir`.
fn files(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    fn walk(root: &Path, dir: &Path, out: &mut BTreeMap<PathBuf, Vec<u8>>) {
        for entry in std::fs::read_dir(dir).expect("read cache dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(root, &path, out);
            } else {
                let rel = path.strip_prefix(root).expect("under root").to_path_buf();
                out.insert(rel, std::fs::read(&path).expect("read entry"));
            }
        }
    }
    let mut out = BTreeMap::new();
    walk(dir, dir, &mut out);
    out
}

#[test]
fn two_processes_write_byte_identical_cache_entries() {
    let bin = linx_bin();
    let root = std::env::temp_dir().join(format!("linx-determinism-{}", std::process::id()));
    let (dir_a, dir_b) = (root.join("a"), root.join("b"));

    serve_batch(&bin, &dir_a, &GOALS, "1", "1");
    let mut reversed = GOALS;
    reversed.reverse();
    serve_batch(&bin, &dir_b, &reversed, "2", "2");

    let (a, b) = (files(&dir_a), files(&dir_b));
    for prefix in ["res-", "sth-", "sts-"] {
        let n = a
            .keys()
            .filter(|p| p.to_string_lossy().starts_with(prefix))
            .count();
        assert!(n > 0, "run A persisted no {prefix}* entries");
    }
    assert_eq!(
        a.keys().collect::<Vec<_>>(),
        b.keys().collect::<Vec<_>>(),
        "the two runs persisted different entry names"
    );
    let differing: Vec<_> = a
        .iter()
        .filter(|(name, bytes)| b[*name] != **bytes)
        .map(|(name, _)| name.display().to_string())
        .collect();
    assert!(
        differing.is_empty(),
        "{} of {} entries differ between the runs, e.g. {:?}",
        differing.len(),
        a.len(),
        &differing[..differing.len().min(5)]
    );
    std::fs::remove_dir_all(&root).ok();
}

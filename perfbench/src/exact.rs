//! Exact-count repeat check.
//!
//! Counters such as cells probed per op, bytes per edge or WAL bytes per op
//! do not depend on timing, so two runs of one build with one workload and
//! one seed must report them identically; only then can a later change be
//! judged on them without noise. The first run of a build on a
//! `(workload, seed, seconds)` triple records its counts under the run
//! directory; every later run of the same build compares against that
//! record and fails on any difference. A different build (a commit that
//! changes a count on purpose, or its parent run after it in the same tree)
//! keeps a record of its own.

use std::hash::Hasher;
use std::path::{Path, PathBuf};

/// Identity of the running build: a hash of the executable's bytes, so a
/// rebuilt program with any change to its code gets a record of its own.
pub fn build_id() -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the executable: {e}"))?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("read {}: {e}", exe.display()))?;
    Ok(format!("{:016x}", fnv1a(&bytes)))
}

/// 64-bit FNV-1a: fixed across toolchains, unlike `DefaultHasher`.
fn fnv1a(bytes: &[u8]) -> u64 {
    struct Fnv(u64);
    impl Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.write(bytes);
    h.finish()
}

pub fn record_path(root: &Path, build: &str, workload: &str, seed: u64, seconds: u64) -> PathBuf {
    root.join("exact").join(format!("{workload}-seed{seed}-sec{seconds}-build{build}.txt"))
}

/// Compares `lines` with the record at `path`, or writes the record when
/// there is none yet.
pub fn check(path: &Path, lines: &[String]) -> Result<(), String> {
    let now = lines.join("\n") + "\n";
    match std::fs::read_to_string(path) {
        Ok(before) if before == now => Ok(()),
        Ok(before) => {
            let diff: Vec<String> = before
                .lines()
                .zip(now.lines())
                .filter(|(a, b)| a != b)
                .map(|(a, b)| format!("was `{a}`, now `{b}`"))
                .collect();
            Err(format!(
                "exact counts differ from an earlier run of this build with the same seed ({}): {}",
                path.display(),
                if diff.is_empty() { "different metric set".to_string() } else { diff.join("; ") }
            ))
        }
        Err(_) => {
            let dir = path.parent().expect("record path has a parent");
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            std::fs::write(&tmp, now)
                .and_then(|()| std::fs::rename(&tmp, path))
                .map_err(|e| format!("write {}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_root(tag: &str) -> PathBuf {
        Path::new(crate::harness::RUN_ROOT).join(format!("test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn first_run_records_and_later_runs_compare() {
        let root = scratch_root("repeat");
        let path = record_path(&root, "b1", "ingest", 1, 10);
        let _ = std::fs::remove_file(&path);
        let a = vec!["tinker.cells_per_op 1.25".to_string(), "pool.claim_ratio 0.5".to_string()];
        assert!(check(&path, &a).is_ok());
        assert!(check(&path, &a).is_ok());
        let b = vec!["tinker.cells_per_op 1.5".to_string(), "pool.claim_ratio 0.5".to_string()];
        let err = check(&path, &b).unwrap_err();
        assert!(err.contains("was `tinker.cells_per_op 1.25`, now `tinker.cells_per_op 1.5`"));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn another_build_keeps_its_own_record() {
        let root = scratch_root("builds");
        let parent = vec!["tinker.cells_per_op 1.25".to_string()];
        let child = vec!["tinker.cells_per_op 1.10".to_string()];
        // Parent, then a change that moves the count, then the parent again.
        assert!(check(&record_path(&root, "parent", "ingest", 1, 5), &parent).is_ok());
        assert!(check(&record_path(&root, "child", "ingest", 1, 5), &child).is_ok());
        assert!(check(&record_path(&root, "parent", "ingest", 1, 5), &parent).is_ok());
        assert!(check(&record_path(&root, "child", "ingest", 1, 5), &parent).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn build_id_is_stable_within_a_build() {
        let id = build_id().unwrap();
        assert_eq!(id.len(), 16);
        assert_eq!(id, build_id().unwrap());
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}

//! Crash-safe file writes.
//!
//! Every durable artifact the workspace produces — run checkpoints,
//! `--out` reports, learned-policy exports, benchmark records — goes
//! through [`write_atomic`], so a crash or kill mid-write
//! can never leave a torn file behind: readers see either the complete
//! old contents or the complete new contents, never a prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

/// Write `bytes` to `path` atomically: the data goes to a temporary file
/// in the *same directory* (so the final rename cannot cross filesystems),
/// is fsync'd to stable storage, and is then renamed over `path`. On Unix
/// the parent directory is fsync'd afterwards as well, making the rename
/// itself durable.
///
/// On any error the temporary file is removed (best effort) and `path` is
/// left untouched.
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp_name = format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    );
    let tmp_path = match dir {
        Some(d) => d.join(&tmp_name),
        None => Path::new(&tmp_name).to_path_buf(),
    };

    let result = (|| {
        let mut tmp = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        tmp.write_all(bytes.as_ref())?;
        tmp.sync_all()?;
        drop(tmp);
        std::fs::rename(&tmp_path, path)?;
        #[cfg(unix)]
        if let Some(d) = dir {
            // Durability of the rename itself: fsync the directory entry.
            // Failure here is not a torn file, so surface it like any
            // other I/O error but with the directory already consistent.
            File::open(d)?.sync_all()?;
        }
        #[cfg(not(unix))]
        let _ = &dir;
        Ok(())
    })();

    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dynsched-durable-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = scratch_dir("basic");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second, longer contents").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second, longer contents");
        // No temp droppings left behind.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failure_leaves_target_untouched() {
        let dir = scratch_dir("fail");
        let path = dir.join("artifact.json");
        write_atomic(&path, b"original").unwrap();
        // A directory in the way of the rename target's temp file is the
        // easiest portable failure: make the *target* a directory so the
        // rename fails after the temp write.
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(blocked.join("x")).unwrap();
        assert!(write_atomic(&blocked, b"new").is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"original");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

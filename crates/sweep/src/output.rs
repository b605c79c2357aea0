//! Output files of the binaries that run sweeps, opened before any cell
//! runs and written once the run is done.

use std::fs::{File, OpenOptions};
use std::io::{Seek, Write};

/// An output path opened for writing before anything runs, so that a
/// path that cannot be written fails at once instead of after a sweep
/// that may take minutes. Opening creates the file but does not
/// truncate it: an existing file keeps its bytes until
/// [`OutputFile::write`] replaces them.
///
/// # Examples
///
/// ```
/// use radio_sweep::OutputFile;
///
/// let err = OutputFile::open("/nonexistent/dir/x.json").unwrap_err();
/// assert!(err.starts_with("cannot write /nonexistent/dir/x.json: "));
/// ```
#[derive(Debug)]
pub struct OutputFile {
    path: String,
    file: File,
}

impl OutputFile {
    /// Opens `path` for writing, creating it if it does not exist.
    ///
    /// # Errors
    ///
    /// `cannot write {path}: {reason}` when the path cannot be opened
    /// for writing.
    pub fn open(path: &str) -> Result<Self, String> {
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        Ok(OutputFile {
            path: path.to_owned(),
            file,
        })
    }

    /// The path the file was opened at.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Replaces the file's contents with `bytes`.
    ///
    /// # Errors
    ///
    /// `cannot write {path}: {reason}` on an I/O error.
    pub fn write(&self, bytes: &[u8]) -> Result<(), String> {
        let mut file = &self.file;
        file.set_len(0)
            .and_then(|()| file.rewind())
            .and_then(|()| file.write_all(bytes))
            .and_then(|()| file.flush())
            .map_err(|e| format!("cannot write {}: {e}", self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opening_keeps_the_old_bytes_until_the_write() {
        let path = std::env::temp_dir().join(format!("radio-output-{}", std::process::id()));
        let path = path.to_str().expect("UTF-8 temp path").to_owned();
        std::fs::write(&path, b"the previous artifact").unwrap();
        let out = OutputFile::open(&path).unwrap();
        assert_eq!(out.path(), path);
        assert_eq!(std::fs::read(&path).unwrap(), b"the previous artifact");
        out.write(b"new").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        out.write(b"newer").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"newer");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn a_path_that_cannot_be_written_is_an_error() {
        let err = OutputFile::open("/nonexistent/dir/x.json").unwrap_err();
        assert!(
            err.starts_with("cannot write /nonexistent/dir/x.json: "),
            "{err}"
        );
        let dir = std::env::temp_dir();
        let err = OutputFile::open(dir.to_str().unwrap()).unwrap_err();
        assert!(err.starts_with("cannot write "), "{err}");
    }
}

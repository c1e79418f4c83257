//! Crash-safe file commits: temp-file + atomic-rename discipline.
//!
//! Every durable artifact this workspace writes (recorded traces,
//! checkpoint journals) follows the same rule: bytes are staged in a
//! `*.tmp` sibling and only renamed onto the final name after a
//! successful flush + fsync. A reader therefore never observes a
//! half-written file under the final name — an interrupted writer leaves
//! either the previous complete file or a stray `*.tmp` that is ignored
//! (and cleaned up on the next attempt). Torn writes *within* a committed
//! file are the journal/trailer contracts' job (`docs/TRACE_FORMAT.md`,
//! `docs/CHECKPOINT_FORMAT.md`); this module guarantees the name itself
//! only ever points at complete content.

use crate::registry::{ScenarioError, ScenarioKnobs, ScenarioSpec};
use crate::stream::RequestStream;
use crate::trace::{record_stream, TraceError, TraceFormat};
use msp_analysis::sweep::parallel_map_indexed;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

/// A file that becomes visible under its final name only on
/// [`AtomicFile::commit`]: writes go to a `<name>.tmp` sibling, commit
/// flushes, fsyncs, and renames. Dropping without commit removes the
/// temp file, so an interrupted recording can never leave a partial file
/// under the final name.
#[derive(Debug)]
pub struct AtomicFile {
    tmp: PathBuf,
    target: PathBuf,
    file: Option<File>,
}

impl AtomicFile {
    /// Stages a new file destined for `target`. The temp sibling lives in
    /// the same directory (same filesystem), so the commit rename is
    /// atomic on POSIX.
    pub fn create(target: impl AsRef<Path>) -> io::Result<Self> {
        let target = target.as_ref().to_path_buf();
        let mut tmp_name = target.as_os_str().to_os_string();
        tmp_name.push(".tmp");
        let tmp = PathBuf::from(tmp_name);
        let file = File::create(&tmp)?;
        Ok(AtomicFile {
            tmp,
            target,
            file: Some(file),
        })
    }

    /// Flushes, fsyncs, and atomically renames the staged file onto the
    /// target name. Returns the final path.
    pub fn commit(self) -> io::Result<PathBuf> {
        let target = self.target.clone();
        self.commit_open(File::sync_all)?;
        Ok(target)
    }

    /// [`AtomicFile::commit`] that keeps the file open: `sync` makes the
    /// staged bytes durable, the rename publishes them under the target
    /// name, and the returned handle is the same open file, positioned
    /// after them, so a writer that goes on appending needs no reopen.
    pub(crate) fn commit_open(
        mut self,
        sync: impl FnOnce(&File) -> io::Result<()>,
    ) -> io::Result<File> {
        let file = self.file.take().expect("staged file present until commit");
        sync(&file)?;
        fs::rename(&self.tmp, &self.target)?;
        Ok(file)
    }
}

impl Write for AtomicFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.file
            .as_mut()
            .expect("staged file present until commit")
            .write(buf)
    }
    fn flush(&mut self) -> io::Result<()> {
        self.file
            .as_mut()
            .expect("staged file present until commit")
            .flush()
    }
}

impl Drop for AtomicFile {
    fn drop(&mut self) {
        // Still holding the handle means commit never ran: discard the
        // stage so aborted writers leave no debris behind.
        if self.file.take().is_some() {
            let _ = fs::remove_file(&self.tmp);
        }
    }
}

/// Records a stream (rewound to its start) into `path` atomically: the
/// trace appears under `path` only after the trailer is written and the
/// bytes are fsynced. Returns the step count.
pub fn record_stream_to_path<const N: usize>(
    stream: &mut dyn RequestStream<N>,
    format: TraceFormat,
    path: impl AsRef<Path>,
) -> Result<usize, TraceError> {
    let staged = AtomicFile::create(path)?;
    let (steps, sink) = record_stream(stream, format, BufWriter::new(staged))?;
    let staged = sink
        .into_inner()
        .map_err(|e| TraceError::Io(io::Error::other(e.to_string())))?;
    staged.commit()?;
    Ok(steps)
}

/// Records a multi-seed fan of scenario traces into `dir` (created if
/// missing) as `<scenario>-seed<k>.msp3` files in
/// [`TraceFormat::DURABLE`], each committed atomically. The per-seed
/// recordings fan out in parallel like [`crate::engine::record_seeds`];
/// returns the final path per seed.
pub fn record_seeds_to_dir<const N: usize>(
    spec: &ScenarioSpec,
    seeds: &[u64],
    knobs: &ScenarioKnobs,
    dir: impl AsRef<Path>,
) -> Result<Vec<PathBuf>, ScenarioError> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir).map_err(TraceError::Io)?;
    let results = parallel_map_indexed(seeds, 0, |_, &seed| -> Result<PathBuf, ScenarioError> {
        let path = dir.join(format!("{}-seed{}.msp3", spec.name, seed));
        let mut stream = spec.stream_with::<N>(seed, knobs)?;
        record_stream_to_path(stream.as_mut(), TraceFormat::DURABLE, &path)?;
        Ok(path)
    });
    results.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::lookup;
    use crate::stream::InstanceStream;
    use crate::trace::read_trace;
    use msp_core::model::{Instance, Step};
    use msp_geometry::P2;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("msp-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn committed_file_round_trips() {
        let dir = tmp_dir("commit");
        let path = dir.join("trace.msp3");
        let inst = Instance::new(2.0, 1.0, P2::origin(), vec![Step::single(P2::xy(1.0, 2.0))]);
        let steps = record_stream_to_path(
            &mut InstanceStream::new(inst.clone()),
            TraceFormat::BlockV3 { block: 8 },
            &path,
        )
        .unwrap();
        assert_eq!(steps, 1);
        let back: Instance<2> = read_trace(&fs::read(&path).unwrap()).unwrap();
        assert_eq!(back.horizon(), inst.horizon());
        // No stray staging file remains.
        assert!(!dir.join("trace.msp3.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_writer_leaves_no_file_under_the_final_name() {
        let dir = tmp_dir("abort");
        let path = dir.join("partial.msp3");
        {
            let mut staged = AtomicFile::create(&path).unwrap();
            staged.write_all(b"half a header").unwrap();
            // Dropped without commit: simulated crash mid-write.
        }
        assert!(!path.exists(), "final name must stay absent");
        assert!(!dir.join("partial.msp3.tmp").exists(), "stage cleaned up");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_replaces_previous_complete_file() {
        let dir = tmp_dir("replace");
        let path = dir.join("data.txt");
        for content in ["first generation", "second generation"] {
            let mut staged = AtomicFile::create(&path).unwrap();
            staged.write_all(content.as_bytes()).unwrap();
            staged.commit().unwrap();
            assert_eq!(fs::read_to_string(&path).unwrap(), content);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seed_fan_writes_replayable_files() {
        let dir = tmp_dir("fan");
        let spec = lookup("edge-drift").unwrap();
        let knobs = ScenarioKnobs::horizon(40);
        let seeds = [0u64, 1, 2];
        let paths = record_seeds_to_dir::<2>(&spec, &seeds, &knobs, &dir).unwrap();
        assert_eq!(paths.len(), 3);
        for (path, &seed) in paths.iter().zip(&seeds) {
            let inst: Instance<2> = read_trace(&fs::read(path).unwrap()).unwrap();
            let direct: Instance<2> = crate::engine::materialize(&spec, seed, &knobs).unwrap();
            assert_eq!(inst.horizon(), direct.horizon());
        }
        let _ = fs::remove_dir_all(&dir);
    }
}

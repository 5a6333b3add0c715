//! The trace model: jobs, tasks, and whole traces.
//!
//! A trace is exactly what the paper's simulator consumes (§4.1): a list of
//! tuples `(jobID, job submission time, number of tasks, duration of each
//! task)`. Durations vary within a job; the *estimated task runtime* used by
//! Hawk is the per-job mean (§3.3).

use std::fmt;

use hawk_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Identifies a job within a trace (dense, `0..trace.len()`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u32);

impl JobId {
    /// The job's dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job#{}", self.0)
    }
}

/// Short/long job classification (paper §3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobClass {
    /// Latency-sensitive job, scheduled in a distributed fashion.
    Short,
    /// Resource-heavy job, scheduled by the centralized component.
    Long,
}

impl JobClass {
    /// Returns true for [`JobClass::Long`].
    pub fn is_long(self) -> bool {
        matches!(self, JobClass::Long)
    }

    /// Returns true for [`JobClass::Short`].
    pub fn is_short(self) -> bool {
        matches!(self, JobClass::Short)
    }
}

impl fmt::Display for JobClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobClass::Short => write!(f, "short"),
            JobClass::Long => write!(f, "long"),
        }
    }
}

/// One job: a submission time plus the durations of its parallel tasks.
///
/// A job completes only after all of its tasks finish (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    /// Dense trace-local identifier.
    pub id: JobId,
    /// Submission (arrival) time.
    pub submission: SimTime,
    /// Duration of each task. Length is the degree of parallelism.
    pub tasks: Vec<SimDuration>,
    /// Ground-truth class assigned by a synthetic generator, when the
    /// generator draws jobs from an explicitly short or long population
    /// (k-means-derived traces, §4.1). `None` for traces where class is
    /// defined only by the runtime-estimate cutoff.
    pub generated_class: Option<JobClass>,
}

impl Job {
    /// Number of tasks (`t` in the paper's probing discussion).
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// The paper's *estimated task runtime*: the mean task duration (§3.3).
    ///
    /// # Panics
    ///
    /// Panics if the job has no tasks; [`Trace::new`] rejects such jobs.
    pub fn mean_task_duration(&self) -> SimDuration {
        assert!(!self.tasks.is_empty(), "job with zero tasks");
        let sum: u64 = self.tasks.iter().map(|d| d.as_micros()).sum();
        SimDuration::from_micros(sum / self.tasks.len() as u64)
    }

    /// Total work: the sum of task durations ("task-seconds", §2.1).
    pub fn task_seconds(&self) -> SimDuration {
        SimDuration::from_micros(self.tasks.iter().map(|d| d.as_micros()).sum())
    }

    /// An ideal lower bound on runtime: the longest single task.
    pub fn critical_task(&self) -> SimDuration {
        self.tasks
            .iter()
            .copied()
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// Errors from [`Trace::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Jobs must be ordered by non-decreasing submission time.
    UnsortedSubmissions {
        /// Index of the first out-of-order job.
        at: usize,
    },
    /// Every job must have at least one task.
    EmptyJob {
        /// Index of the offending job.
        at: usize,
    },
    /// Job ids must be dense: `jobs[i].id == i`.
    NonDenseIds {
        /// Index of the offending job.
        at: usize,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::UnsortedSubmissions { at } => {
                write!(f, "job at index {at} submitted before its predecessor")
            }
            TraceError::EmptyJob { at } => write!(f, "job at index {at} has zero tasks"),
            TraceError::NonDenseIds { at } => {
                write!(f, "job at index {at} has a non-dense id")
            }
        }
    }
}

impl std::error::Error for TraceError {}

/// An ordered collection of jobs — the unit every experiment runs on.
///
/// Invariants (enforced by [`Trace::new`]):
/// * jobs are sorted by non-decreasing submission time,
/// * every job has at least one task,
/// * job ids are dense (`jobs[i].id.index() == i`).
///
/// # Examples
///
/// ```
/// use hawk_simcore::{SimDuration, SimTime};
/// use hawk_workload::{Job, JobId, Trace};
///
/// let jobs = vec![Job {
///     id: JobId(0),
///     submission: SimTime::ZERO,
///     tasks: vec![SimDuration::from_secs(10), SimDuration::from_secs(20)],
///     generated_class: None,
/// }];
/// let trace = Trace::new(jobs).unwrap();
/// assert_eq!(trace.len(), 1);
/// assert_eq!(trace.total_tasks(), 2);
/// assert_eq!(trace.job(JobId(0)).mean_task_duration(), SimDuration::from_secs(15));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    jobs: Vec<Job>,
}

impl Trace {
    /// Validates the invariants and builds a trace.
    pub fn new(jobs: Vec<Job>) -> Result<Self, TraceError> {
        for (i, job) in jobs.iter().enumerate() {
            if job.tasks.is_empty() {
                return Err(TraceError::EmptyJob { at: i });
            }
            if job.id.index() != i {
                return Err(TraceError::NonDenseIds { at: i });
            }
            if i > 0 && job.submission < jobs[i - 1].submission {
                return Err(TraceError::UnsortedSubmissions { at: i });
            }
        }
        Ok(Trace { jobs })
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if the trace has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Looks up a job by id.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id.index()]
    }

    /// Total number of tasks across all jobs.
    pub fn total_tasks(&self) -> u64 {
        self.jobs.iter().map(|j| j.num_tasks() as u64).sum()
    }

    /// Total task-seconds across all jobs.
    pub fn total_task_seconds(&self) -> SimDuration {
        SimDuration::from_micros(self.jobs.iter().map(|j| j.task_seconds().as_micros()).sum())
    }

    /// The largest task count of any job (used by the prototype scale-down,
    /// §4.1 "Real cluster run").
    pub fn max_tasks_per_job(&self) -> usize {
        self.jobs.iter().map(Job::num_tasks).max().unwrap_or(0)
    }

    /// The mean task runtime over all tasks in the trace.
    pub fn mean_task_runtime(&self) -> SimDuration {
        let total = self.total_tasks();
        if total == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_micros(self.total_task_seconds().as_micros() / total)
    }

    /// Submission time of the last job.
    pub fn span(&self) -> SimDuration {
        match (self.jobs.first(), self.jobs.last()) {
            (Some(first), Some(last)) => last.submission - first.submission,
            _ => SimDuration::ZERO,
        }
    }

    /// Serializes to JSON Lines, one job per line.
    ///
    /// The format is the natural serde_json encoding of [`Job`]
    /// (`{"id":0,"submission":µs,"tasks":[µs,…],"generated_class":null}`),
    /// but is produced by a hand-rolled encoder so the trace format works
    /// without external crates.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for job in &self.jobs {
            json::write_job(&mut out, job);
            out.push('\n');
        }
        out
    }

    /// Parses a trace from JSON Lines produced by [`Trace::to_json_lines`].
    pub fn from_json_lines(text: &str) -> Result<Self, Box<dyn std::error::Error>> {
        let mut jobs = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            jobs.push(
                json::parse_job(line).map_err(|e| format!("trace line {}: {e}", lineno + 1))?,
            );
        }
        Ok(Trace::new(jobs)?)
    }

    /// Returns the trace restricted to its first `n` jobs.
    pub fn take(&self, n: usize) -> Trace {
        Trace {
            jobs: self.jobs.iter().take(n).cloned().collect(),
        }
    }

    /// Writes the trace to `path` as JSON Lines.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json_lines())
    }

    /// Loads a trace previously written by [`Trace::save`].
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<Self, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(path)?;
        Self::from_json_lines(&text)
    }
}

mod json {
    //! Minimal JSON encoding of [`Job`] for the JSON Lines trace format.
    //!
    //! The schema is fixed and flat, so a purpose-built scanner is simpler
    //! and faster than a generic JSON parser — and it keeps the on-disk
    //! trace format independent of external crates.

    use super::{Job, JobClass, JobId};
    use hawk_simcore::{SimDuration, SimTime};

    pub(super) fn write_job(out: &mut String, job: &Job) {
        use std::fmt::Write;
        write!(
            out,
            "{{\"id\":{},\"submission\":{},\"tasks\":[",
            job.id.0,
            job.submission.as_micros()
        )
        .expect("writing to String cannot fail");
        for (i, t) in job.tasks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "{}", t.as_micros()).expect("writing to String cannot fail");
        }
        let class = match job.generated_class {
            None => "null".to_string(),
            Some(JobClass::Short) => "\"Short\"".to_string(),
            Some(JobClass::Long) => "\"Long\"".to_string(),
        };
        write!(out, "],\"generated_class\":{class}}}").expect("writing to String cannot fail");
    }

    pub(super) fn parse_job(line: &str) -> Result<Job, String> {
        let mut p = Parser { rest: line };
        p.expect('{')?;
        let mut id = None;
        let mut submission = None;
        let mut tasks = None;
        let mut generated_class = None;
        loop {
            let key = p.string()?;
            p.expect(':')?;
            match key.as_str() {
                "id" => {
                    let n = p.number()?;
                    id = Some(u32::try_from(n).map_err(|_| format!("job id {n} over u32::MAX"))?);
                }
                "submission" => submission = Some(SimTime::from_micros(p.number()?)),
                "tasks" => {
                    let mut v = Vec::new();
                    p.expect('[')?;
                    if !p.eat(']') {
                        loop {
                            v.push(SimDuration::from_micros(p.number()?));
                            if p.eat(']') {
                                break;
                            }
                            p.expect(',')?;
                        }
                    }
                    tasks = Some(v);
                }
                "generated_class" => {
                    generated_class = if p.eat_word("null") {
                        Some(None)
                    } else {
                        match p.string()?.as_str() {
                            "Short" => Some(Some(JobClass::Short)),
                            "Long" => Some(Some(JobClass::Long)),
                            other => return Err(format!("unknown job class {other:?}")),
                        }
                    };
                }
                // Unknown fields are skipped, as serde_json's derived
                // deserializer did before this codec replaced it.
                _ => p.skip_value()?,
            }
            if p.eat('}') {
                break;
            }
            p.expect(',')?;
        }
        p.end()?;
        Ok(Job {
            id: JobId(id.ok_or("missing field `id`")?),
            submission: submission.ok_or("missing field `submission`")?,
            tasks: tasks.ok_or("missing field `tasks`")?,
            generated_class: generated_class.ok_or("missing field `generated_class`")?,
        })
    }

    struct Parser<'a> {
        rest: &'a str,
    }

    impl Parser<'_> {
        fn skip_ws(&mut self) {
            self.rest = self.rest.trim_start();
        }

        fn eat(&mut self, c: char) -> bool {
            self.skip_ws();
            if let Some(r) = self.rest.strip_prefix(c) {
                self.rest = r;
                true
            } else {
                false
            }
        }

        fn eat_word(&mut self, word: &str) -> bool {
            self.skip_ws();
            if let Some(r) = self.rest.strip_prefix(word) {
                self.rest = r;
                true
            } else {
                false
            }
        }

        fn expect(&mut self, c: char) -> Result<(), String> {
            if self.eat(c) {
                Ok(())
            } else {
                Err(format!("expected {c:?} at {:?}", self.head()))
            }
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect('"')?;
            match self.rest.find('"') {
                Some(end) => {
                    let s = &self.rest[..end];
                    if s.contains('\\') {
                        return Err("escape sequences are not supported".into());
                    }
                    self.rest = &self.rest[end + 1..];
                    Ok(s.to_string())
                }
                None => Err("unterminated string".into()),
            }
        }

        /// Skips one string, allowing escape sequences (unlike
        /// [`Parser::string`], which only reads the codec's own
        /// escape-free keys and values).
        fn skip_string(&mut self) -> Result<(), String> {
            self.expect('"')?;
            let mut escaped = false;
            for (i, c) in self.rest.char_indices() {
                match c {
                    _ if escaped => escaped = false,
                    '\\' => escaped = true,
                    '"' => {
                        self.rest = &self.rest[i + 1..];
                        return Ok(());
                    }
                    _ => {}
                }
            }
            Err("unterminated string".into())
        }

        /// Skips one JSON value of any shape (the payload of an unknown
        /// field).
        fn skip_value(&mut self) -> Result<(), String> {
            self.skip_ws();
            if self.rest.starts_with('"') {
                self.skip_string()
            } else if self.eat('[') {
                if self.eat(']') {
                    return Ok(());
                }
                loop {
                    self.skip_value()?;
                    if self.eat(']') {
                        return Ok(());
                    }
                    self.expect(',')?;
                }
            } else if self.eat('{') {
                if self.eat('}') {
                    return Ok(());
                }
                loop {
                    self.skip_ws();
                    self.skip_string()?;
                    self.expect(':')?;
                    self.skip_value()?;
                    if self.eat('}') {
                        return Ok(());
                    }
                    self.expect(',')?;
                }
            } else if self.eat_word("null") || self.eat_word("true") || self.eat_word("false") {
                Ok(())
            } else {
                // Number (possibly signed/fractional/exponent).
                let len = self.rest.len()
                    - self
                        .rest
                        .trim_start_matches(|c: char| {
                            c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                        })
                        .len();
                if len == 0 {
                    return Err(format!("expected a JSON value at {:?}", self.head()));
                }
                self.rest = &self.rest[len..];
                Ok(())
            }
        }

        fn number(&mut self) -> Result<u64, String> {
            self.skip_ws();
            let digits = self.rest.len()
                - self
                    .rest
                    .trim_start_matches(|c: char| c.is_ascii_digit())
                    .len();
            if digits == 0 {
                return Err(format!("expected a number at {:?}", self.head()));
            }
            let (num, rest) = self.rest.split_at(digits);
            self.rest = rest;
            num.parse().map_err(|e| format!("bad number {num:?}: {e}"))
        }

        fn end(&mut self) -> Result<(), String> {
            self.skip_ws();
            if self.rest.is_empty() {
                Ok(())
            } else {
                Err(format!("trailing input: {:?}", self.head()))
            }
        }

        fn head(&self) -> &str {
            &self.rest[..self.rest.len().min(20)]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, at: u64, tasks: &[u64]) -> Job {
        Job {
            id: JobId(id),
            submission: SimTime::from_secs(at),
            tasks: tasks.iter().map(|&s| SimDuration::from_secs(s)).collect(),
            generated_class: None,
        }
    }

    use hawk_simcore::SimTime;

    #[test]
    fn trace_new_validates_order() {
        let err = Trace::new(vec![job(0, 10, &[1]), job(1, 5, &[1])]).unwrap_err();
        assert_eq!(err, TraceError::UnsortedSubmissions { at: 1 });
    }

    #[test]
    fn trace_new_rejects_empty_jobs() {
        let err = Trace::new(vec![job(0, 0, &[])]).unwrap_err();
        assert_eq!(err, TraceError::EmptyJob { at: 0 });
    }

    #[test]
    fn trace_new_rejects_non_dense_ids() {
        let err = Trace::new(vec![job(5, 0, &[1])]).unwrap_err();
        assert_eq!(err, TraceError::NonDenseIds { at: 0 });
    }

    #[test]
    fn job_statistics() {
        let j = job(0, 0, &[10, 20, 30]);
        assert_eq!(j.num_tasks(), 3);
        assert_eq!(j.mean_task_duration(), SimDuration::from_secs(20));
        assert_eq!(j.task_seconds(), SimDuration::from_secs(60));
        assert_eq!(j.critical_task(), SimDuration::from_secs(30));
    }

    #[test]
    fn trace_statistics() {
        let t = Trace::new(vec![job(0, 0, &[10, 20]), job(1, 100, &[5, 5, 5])]).unwrap();
        assert_eq!(t.total_tasks(), 5);
        assert_eq!(t.total_task_seconds(), SimDuration::from_secs(45));
        assert_eq!(t.max_tasks_per_job(), 3);
        assert_eq!(t.mean_task_runtime(), SimDuration::from_secs(9));
        assert_eq!(t.span(), SimDuration::from_secs(100));
    }

    #[test]
    fn json_lines_round_trip() {
        let t = Trace::new(vec![job(0, 0, &[10, 20]), job(1, 50, &[7])]).unwrap();
        let text = t.to_json_lines();
        let back = Trace::from_json_lines(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_lines_ignores_unknown_fields() {
        // serde_json's derived deserializer ignored unknown fields; the
        // hand-rolled codec must keep accepting annotated traces,
        // including annotations containing escape sequences.
        let line =
            "{\"id\":0,\"submission\":5,\"note\":\"say \\\"hi\\\"\",\"meta\":{\"a\":[1,-2.5e3,true]},\
                    \"tasks\":[1000000],\"generated_class\":null}";
        let t = Trace::from_json_lines(line).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.job(JobId(0)).tasks, vec![SimDuration::from_secs(1)]);
    }

    #[test]
    fn json_lines_rejects_malformed_input() {
        assert!(Trace::from_json_lines("{\"id\":0").is_err());
        assert!(Trace::from_json_lines("not json").is_err());
        assert!(Trace::from_json_lines("{\"id\":0,\"submission\":0,\"tasks\":[x]}").is_err());
        // One past `u32::MAX` is refused, not truncated to `JobId(0)`.
        let oversized =
            "{\"id\":4294967296,\"submission\":0,\"tasks\":[1],\"generated_class\":null}";
        let err = Trace::from_json_lines(oversized).unwrap_err().to_string();
        assert!(err.starts_with("trace line 1: job id 4294967296"), "{err}");
    }

    #[test]
    fn json_lines_round_trips_generated_class() {
        let mut j = job(0, 0, &[10]);
        j.generated_class = Some(JobClass::Long);
        let t = Trace::new(vec![j]).unwrap();
        let back = Trace::from_json_lines(&t.to_json_lines()).unwrap();
        assert_eq!(back.job(JobId(0)).generated_class, Some(JobClass::Long));
    }

    #[test]
    fn json_lines_skips_blank_lines() {
        let t = Trace::new(vec![job(0, 0, &[1])]).unwrap();
        let text = format!("\n{}\n\n", t.to_json_lines());
        assert_eq!(Trace::from_json_lines(&text).unwrap(), t);
    }

    #[test]
    fn save_load_round_trip() {
        let t = Trace::new(vec![job(0, 0, &[10, 20]), job(1, 50, &[7])]).unwrap();
        let dir = std::env::temp_dir().join("hawk-trace-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        t.save(&path).unwrap();
        let back = Trace::load(&path).unwrap();
        assert_eq!(t, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(Trace::load("/nonexistent/hawk/trace.jsonl").is_err());
    }

    #[test]
    fn take_prefix() {
        let t = Trace::new(vec![job(0, 0, &[1]), job(1, 1, &[2]), job(2, 2, &[3])]).unwrap();
        let head = t.take(2);
        assert_eq!(head.len(), 2);
        assert_eq!(head.job(JobId(1)).submission, SimTime::from_secs(1));
    }

    #[test]
    fn class_helpers() {
        assert!(JobClass::Long.is_long());
        assert!(!JobClass::Long.is_short());
        assert!(JobClass::Short.is_short());
        assert_eq!(JobClass::Short.to_string(), "short");
        assert_eq!(JobClass::Long.to_string(), "long");
    }

    #[test]
    fn empty_trace_statistics() {
        let t = Trace::new(vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.total_tasks(), 0);
        assert_eq!(t.mean_task_runtime(), SimDuration::ZERO);
        assert_eq!(t.span(), SimDuration::ZERO);
        assert_eq!(t.max_tasks_per_job(), 0);
    }
}

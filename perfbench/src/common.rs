//! Shared plumbing: timing statistics, deterministic digests, thread
//! placement, `/proc` readers, the metric list and the span recorder.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Items per `insert_batch` call or `Ingest` frame, on every workload.
pub const BATCH: usize = 1024;
/// Point queries per timed block (in-process latencies are block means).
pub const QUERY_BLOCK: usize = 64;
/// `insert_batch` calls per timed block of one thread. A single call of a
/// two-writer window takes either the contended or the uncontended time,
/// depending on whether the host runs both vCPUs at that instant, so its
/// median flips with the host's load; a block mean does not.
pub const INGEST_BLOCK: usize = 16;
/// `k` of every certified top-K request.
pub const TOPK_K: usize = 32;

/// SplitMix64 step: the benchmark's only source of randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: digests of request sequences and answers.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Seconds between two instants, as `f64`.
pub fn secs(a: Instant, b: Instant) -> f64 {
    b.duration_since(a).as_secs_f64()
}

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
pub fn percentile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `v` (sorted in place); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile mean of `v` (sorted in place): the mean of its middle
/// half, or the median below four values. Unlike a median it does not
/// jump between the modes of a two-mode distribution, and unlike a mean
/// one disturbed round cannot move it far.
pub fn iqm(v: &mut [f64]) -> f64 {
    if v.len() < 4 {
        return median(v);
    }
    v.sort_by(f64::total_cmp);
    let q = v.len() / 4;
    let mid = &v[q..v.len() - q];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// CPUs this process may run on, ascending: its affinity mask at the
/// first call (before any thread pins itself), or
/// `0..available_parallelism` where the mask cannot be read.
pub fn allowed_cpus() -> Vec<usize> {
    static ALLOWED: std::sync::OnceLock<Vec<usize>> = std::sync::OnceLock::new();
    ALLOWED.get_or_init(read_affinity).clone()
}

fn read_affinity() -> Vec<usize> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        // SAFETY: `mask` is a live, writable 128-byte `cpu_set_t` for the
        // whole call and pid 0 names the calling thread.
        let ok = unsafe {
            ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0
        };
        let cpus: Vec<usize> = (0..1024)
            .filter(|c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if ok && !cpus.is_empty() {
            return cpus;
        }
    }
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    (0..n).collect()
}

/// Fixed thread placement, drawn from [`allowed_cpus`]: single-threaded
/// generators sit on the last allowed CPU, away from the first one's
/// interrupt load; the two shared-window writers take the first two.
#[derive(Debug, Clone)]
pub struct Placement {
    pub allowed: Vec<usize>,
    pub main: usize,
    pub writers: [usize; 2],
}

impl Placement {
    pub fn fixed() -> Self {
        let allowed = allowed_cpus();
        let main = *allowed.last().expect("at least one CPU");
        let writers = [allowed[0], allowed[1 % allowed.len()]];
        Self {
            allowed,
            main,
            writers,
        }
    }

    /// The placement as a JSON object, with how many pinning calls this
    /// process made and how many of them failed.
    pub fn report(&self) -> String {
        let list = |v: &[usize]| v.iter().map(usize::to_string).collect::<Vec<_>>().join(",");
        format!(
            "{{\"allowed_cpus\":[{}],\"main_cpu\":{},\"writer_cpus\":[{}],\"pins\":{},\"pin_failures\":{}}}",
            list(&self.allowed),
            self.main,
            list(&self.writers),
            PINS.load(Ordering::Relaxed),
            PIN_FAILURES.load(Ordering::Relaxed)
        )
    }
}

static PINS: AtomicU64 = AtomicU64::new(0);
static PIN_FAILURES: AtomicU64 = AtomicU64::new(0);

#[cfg(target_os = "linux")]
mod ffi {
    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    #[cfg(target_env = "gnu")]
    extern "C" {
        pub fn malloc_trim(pad: usize) -> i32;
    }
}

/// Pin the calling thread to `cpu`. Threads and processes it creates
/// afterwards inherit the mask. Every call and every failure is counted
/// for [`Placement::report`].
pub fn pin_current_thread(cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    let ok = cpu < 1024 && {
        let mut mask = [0u64; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live 128-byte `cpu_set_t` for the whole call
        // and pid 0 names the calling thread; the call reads the mask only.
        unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
    };
    #[cfg(not(target_os = "linux"))]
    let ok = false;
    PINS.fetch_add(1, Ordering::Relaxed);
    if !ok {
        PIN_FAILURES.fetch_add(1, Ordering::Relaxed);
    }
    ok
}

/// A `kB` field of `/proc/<pid>/status` (`"self"` for this process).
pub fn proc_status_kb(pid: &str, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// User + system CPU seconds of a process, from `/proc/<pid>/stat`
/// (clock ticks at the Linux ABI's fixed USER_HZ of 100).
pub fn proc_cpu_seconds(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = f.get(11)?.parse().ok()?;
    let stime: f64 = f.get(12)?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// Resident set size of this process in kB, after handing freed heap
/// pages back to the kernel, so that it counts live memory rather than
/// what the allocator happens to retain.
pub fn rss_kb() -> u64 {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: glibc's malloc_trim only releases free heap pages; it takes
    // no pointers and is safe to call at any time.
    unsafe {
        ffi::malloc_trim(0);
    }
    proc_status_kb("self", "VmRSS:").unwrap_or(0)
}

/// Ordered metric list: `(name, value, unit)`.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(String, f64, String)>);

impl Metrics {
    /// Set `name` (replacing an earlier value of the same name).
    pub fn set(&mut self, name: &str, value: f64, unit: &str) {
        if let Some(slot) = self.0.iter_mut().find(|(n, _, _)| n == name) {
            slot.1 = value;
            slot.2 = unit.to_string();
        } else {
            self.0.push((name.to_string(), value, unit.to_string()));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn extend(&mut self, other: &Metrics) {
        for (n, v, u) in &other.0 {
            self.set(n, *v, u);
        }
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Every checked answer obeyed its contract (see README.md).
    pub correct: bool,
    /// Operations attempted (updates + requests), all rounds.
    pub attempted: u64,
    pub metrics: Metrics,
    /// Deterministic per-round counts: the request-sequence digest and the
    /// counts a fixed seed must reproduce exactly.
    pub counts: Vec<(String, u64)>,
    /// Human-readable notes (reasons a check failed, round count).
    pub notes: Vec<String>,
    /// The thread placement used, as a JSON object ([`Placement::report`]).
    pub placement: String,
}

impl Outcome {
    pub fn count(&self, name: &str) -> Option<u64> {
        self.counts.iter().find(|(n, _)| n == name).map(|c| c.1)
    }

    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(why);
    }
}

/// Oracle audit of one round's certified answers.
///
/// Every miss counts toward `fail_ratio`. Insertion failures drop
/// updates (`EmergencyPolicy::Disabled`), which can make an answer
/// undercount its interval but never overcount it, and the point answers'
/// undercounts together can be at most the dropped value. A subpopulation
/// interval already charges the dropped value to its upper end, so it
/// must always hold. Where a deterministic replay attributes every
/// insertion failure to its key, each point answer's undercount must also
/// be at most its own key's dropped value. [`Audit::verdict`] marks the
/// run incorrect when any of these rules breaks, whatever the number of
/// insertion failures.
#[derive(Debug, Default)]
pub struct Audit {
    /// Answers whose interval missed the truth, plus recall misses.
    pub misses: u64,
    /// Answers whose truth lies below their interval.
    overcounts: u64,
    /// Summed `truth − upper end` over point answers below the truth.
    shortfall: u64,
    /// Subpopulation answers that missed.
    subpop_misses: u64,
    /// Point answers undercounting by more than their key's own dropped
    /// value.
    unexplained: u64,
}

impl Audit {
    /// A point answer with interval `[lo, hi]`; one per distinct key.
    pub fn point(&mut self, lo: u64, hi: u64, truth: u64) {
        self.entry(lo, hi, truth);
        self.shortfall += truth.saturating_sub(hi);
    }

    /// A point answer whose key's own dropped value is known.
    pub fn attributed_point(&mut self, lo: u64, hi: u64, truth: u64, own_dropped: u64) {
        self.point(lo, hi, truth);
        self.unexplained += u64::from(truth.saturating_sub(hi) > own_dropped);
    }

    /// A top-K entry with interval `[lo, hi]`. Its key may also have been
    /// answered as a point, so its undercount is not summed again.
    pub fn entry(&mut self, lo: u64, hi: u64, truth: u64) {
        self.misses += u64::from(truth < lo || truth > hi);
        self.overcounts += u64::from(truth < lo);
    }

    /// A subpopulation answer with interval `[lo, hi]`.
    pub fn subpop(&mut self, lo: u64, hi: u64, truth: u64) {
        let miss = u64::from(truth < lo || truth > hi);
        self.misses += miss;
        self.subpop_misses += miss;
    }

    /// Keys above a top-K answer's recall floor that it left out.
    pub fn recall_misses(&mut self, n: u64) {
        self.misses += n;
    }

    /// Check the rules against `dropped`, the value the structure's
    /// insertion failures dropped; a broken rule fails `out`.
    pub fn verdict(&self, dropped: u64, what: &str, out: &mut Outcome) {
        if self.overcounts > 0 {
            out.fail(format!(
                "{what}: {} answers overcount past their certified interval",
                self.overcounts
            ));
        }
        if self.shortfall > dropped {
            out.fail(format!(
                "{what}: point answers undercount by {} in total, more than the {dropped} insertion failures dropped",
                self.shortfall
            ));
        }
        if self.unexplained > 0 {
            out.fail(format!(
                "{what}: {} point answers undercount by more than their key's own dropped value",
                self.unexplained
            ));
        }
        if self.subpop_misses > 0 {
            out.fail(format!(
                "{what}: {} subpopulation intervals miss the truth",
                self.subpop_misses
            ));
        }
    }
}

/// One recorded span: a call (or block of calls) the benchmark made into
/// a public entry point, or a phase enclosing such calls.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls or items the span covers.
    pub n: u32,
    pub thread: u8,
}

/// In-memory span recorder. Off, every method is a no-op; on, a span
/// costs one `Vec` push (timestamps come from the timings the benchmark
/// takes anyway). Ids are `thread << 24 | sequence`; 0 means "no parent".
#[derive(Debug)]
pub struct Tracer {
    pub on: bool,
    origin: Instant,
    thread: u8,
    next: u32,
    pub spans: Vec<Span>,
    pub dropped: u64,
}

/// Spans kept per run; later spans are counted in `dropped`.
const SPAN_CAP: usize = 2_000_000;

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            thread: 0,
            next: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// A recorder for another thread, sharing this one's time origin.
    pub fn for_thread(&self, thread: u8) -> Self {
        Self {
            on: self.on,
            origin: self.origin,
            thread,
            next: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    /// Reserve an id for a span whose children are recorded before it.
    pub fn open(&mut self) -> u32 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        (u32::from(self.thread) << 24) | self.next
    }

    /// Record span `id` (from [`Self::open`]).
    pub fn close(
        &mut self,
        id: u32,
        name: &'static str,
        parent: u32,
        a: Instant,
        b: Instant,
        n: usize,
    ) {
        if !self.on {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: a.duration_since(self.origin).as_nanos() as u64,
            end_ns: b.duration_since(self.origin).as_nanos() as u64,
            n: n as u32,
            thread: self.thread,
        });
    }

    /// Record a leaf span.
    pub fn span(&mut self, name: &'static str, parent: u32, a: Instant, b: Instant, n: usize) {
        if self.on {
            let id = self.open();
            self.close(id, name, parent, a, b, n);
        }
    }

    pub fn absorb(&mut self, other: Tracer) {
        self.dropped += other.dropped;
        self.spans.extend(other.spans);
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is the
    /// span's duration minus the part of it its children cover.
    fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> = Default::default();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut acc: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for s in &self.spans {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let (mut cur_a, mut cur_b) = (0u64, 0u64);
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    if a > cur_b {
                        covered += cur_b - cur_a;
                        cur_a = a;
                        cur_b = b;
                    } else {
                        cur_b = cur_b.max(b);
                    }
                }
                covered += cur_b - cur_a;
            }
            let slot = match acc.iter_mut().position(|e| e.0 == s.name) {
                Some(i) => &mut acc[i],
                None => {
                    acc.push((s.name, 0, 0.0, 0.0));
                    acc.last_mut().unwrap()
                }
            };
            slot.1 += 1;
            slot.2 += dur as f64 / 1e6;
            slot.3 += dur.saturating_sub(covered) as f64 / 1e6;
        }
        acc
    }

    /// Write every span as one JSON line, then a self-time summary line.
    pub fn write(&self, path: &Path, counters: &[(String, f64)]) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{},\"thread\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.n, s.thread
            );
        }
        let mut summary = String::from("{\"summary\":{");
        for (i, (name, count, total, own)) in self.self_times().iter().enumerate() {
            if i > 0 {
                summary.push(',');
            }
            let _ = write!(
                summary,
                "\"{name}\":{{\"count\":{count},\"total_ms\":{total},\"self_ms\":{own}}}"
            );
        }
        summary.push_str("},\"counters\":{");
        for (i, (name, v)) in counters.iter().enumerate() {
            if i > 0 {
                summary.push(',');
            }
            let _ = write!(summary, "\"{name}\":{}", json_num(*v));
        }
        let _ = write!(summary, "}},\"dropped_spans\":{}}}", self.dropped);
        out.push_str(&summary);
        out.push('\n');
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Two threads pinned to the writer CPUs apply alternate batches of
/// `items` through `f`, recording per-batch µs into `lat` and spans into
/// `tr`. Returns the phase's wall time (first start → last finish) and the
/// writer wait (first finish → last finish), in seconds.
pub fn two_writers(
    items: &[(u64, u64)],
    pl: &Placement,
    tr: &mut Tracer,
    lat: &mut Vec<f64>,
    f: impl Fn(&[(u64, u64)]) + Sync,
) -> (f64, f64) {
    let barrier = std::sync::Barrier::new(2);
    let ph = tr.open();
    let results: Vec<(Instant, Instant, Vec<f64>, Tracer)> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let mut ttr = tr.for_thread(t as u8 + 1);
                let (f, barrier, cpu) = (&f, &barrier, pl.writers[t]);
                sc.spawn(move || {
                    pin_current_thread(cpu);
                    let mut lat = Vec::new();
                    barrier.wait();
                    let start = Instant::now();
                    let mut t0 = start;
                    let mut block = BlockTimer::new(start);
                    for batch in items.chunks(BATCH).skip(t).step_by(2) {
                        f(batch);
                        let t1 = Instant::now();
                        block.tick(t1, &mut lat);
                        ttr.span("window.insert_batch", ph, t0, t1, batch.len());
                        t0 = t1;
                    }
                    block.flush(&mut lat);
                    (start, t0, lat, ttr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("writer thread"))
            .collect()
    });
    let start = results.iter().map(|r| r.0).min().expect("two writers");
    let first_done = results.iter().map(|r| r.1).min().expect("two writers");
    let last_done = results.iter().map(|r| r.1).max().expect("two writers");
    for (_, _, l, ttr) in results {
        lat.extend(l);
        tr.absorb(ttr);
    }
    tr.close(ph, "phase.ingest", 0, start, last_done, items.len());
    (secs(start, last_done), secs(first_done, last_done))
}

/// Turns per-call timestamps into block means: µs per call over each run
/// of [`INGEST_BLOCK`] consecutive calls.
pub struct BlockTimer {
    start: Instant,
    last: Instant,
    calls: usize,
}

impl BlockTimer {
    pub fn new(start: Instant) -> Self {
        Self {
            start,
            last: start,
            calls: 0,
        }
    }

    /// A call ended at `now`; push a block mean into `out` when a block
    /// is complete.
    pub fn tick(&mut self, now: Instant, out: &mut Vec<f64>) {
        self.last = now;
        self.calls += 1;
        if self.calls == INGEST_BLOCK {
            self.flush(out);
        }
    }

    /// Push the mean of a partial block, if any.
    pub fn flush(&mut self, out: &mut Vec<f64>) {
        if self.calls > 0 {
            out.push(secs(self.start, self.last) * 1e6 / self.calls as f64);
            self.start = self.last;
            self.calls = 0;
        }
    }
}

/// A finite JSON number (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Sum of `truth` over the keys of `keys` that `set` selects.
pub fn set_truth(set: &rsk_api::KeySet, keys: &[u64], truth: &[u64]) -> u64 {
    keys.iter()
        .zip(truth)
        .filter(|(k, _)| set.contains(**k))
        .map(|(_, t)| *t)
        .sum()
}

/// The fixed subpopulation shape rotation, drawn from the stream's keys:
/// a 256-key explicit list, a 4096-wide range around a live key, a
/// 1024-key explicit list (all three on the dense path) and a /12 prefix
/// (the tracked-key decode path) — twice, with different draws.
pub fn subpop_rotation(keys: &[u64], seed: u64) -> Vec<rsk_api::KeySet> {
    use rsk_api::KeySet;
    let mut rng = seed ^ 0x5ab9_0b5e_7000;
    let pick = |rng: &mut u64| keys[(splitmix(rng) % keys.len() as u64) as usize];
    let mut sets = Vec::new();
    for _ in 0..2 {
        sets.push(KeySet::explicit((0..256).map(|_| pick(&mut rng)).collect()));
        let end = pick(&mut rng).saturating_add(2048).max(4095);
        sets.push(KeySet::range(end - 4095, end));
        sets.push(KeySet::explicit(
            (0..1024).map(|_| pick(&mut rng)).collect(),
        ));
        sets.push(KeySet::prefix(pick(&mut rng), 12));
    }
    sets
}

/// Feed a key set's definition into a digest.
pub fn digest_set(d: &mut Digest, set: &rsk_api::KeySet) {
    use rsk_api::KeySet;
    match set {
        KeySet::Explicit(keys) => {
            d.word(0);
            d.word(keys.len() as u64);
            keys.iter().for_each(|k| d.word(*k));
        }
        KeySet::Range { start, end } => {
            d.word(1);
            d.word(*start);
            d.word(*end);
        }
        KeySet::Mask { pattern, mask } => {
            d.word(2);
            d.word(*pattern);
            d.word(*mask);
        }
    }
}

/// Exact per-key truth of an item stream, keys in first-occurrence order.
pub fn oracle(items: &[(u64, u64)]) -> (Vec<u64>, Vec<u64>) {
    let mut index: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::with_capacity(items.len() / 8);
    let mut keys = Vec::new();
    let mut truth = Vec::new();
    for &(k, v) in items {
        let i = *index.entry(k).or_insert_with(|| {
            keys.push(k);
            truth.push(0);
            keys.len() - 1
        });
        truth[i] += v;
    }
    (keys, truth)
}

/// An IpTrace-shaped stream of `n` unit updates (the paper's default
/// dataset model), as `(key, value)` pairs.
pub fn ip_trace(n: usize, seed: u64) -> Vec<(u64, u64)> {
    rsk_stream::Dataset::IpTrace
        .iter(n, seed)
        .map(|it| (it.key, it.value))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(a: &Audit, dropped: u64) -> Outcome {
        let mut out = Outcome {
            correct: true,
            ..Default::default()
        };
        a.verdict(dropped, "test", &mut out);
        out
    }

    #[test]
    fn undercounts_within_the_dropped_value_are_counted_not_failed() {
        let mut a = Audit::default();
        a.point(10, 20, 15);
        a.point(10, 20, 23);
        a.point(0, 5, 9);
        assert_eq!(a.misses, 2);
        assert!(verdict(&a, 7).correct);
    }

    #[test]
    fn undercounts_beyond_the_dropped_value_fail() {
        let mut a = Audit::default();
        a.point(10, 20, 23);
        a.point(0, 5, 9);
        assert!(!verdict(&a, 6).correct);
    }

    #[test]
    fn an_undercount_beyond_its_own_keys_dropped_value_fails() {
        let mut a = Audit::default();
        a.attributed_point(10, 20, 23, 3);
        assert!(verdict(&a, 1000).correct);
        a.attributed_point(10, 20, 21, 0);
        assert!(!verdict(&a, 1000).correct);
    }

    #[test]
    fn an_overcount_fails_even_with_dropped_updates() {
        let mut a = Audit::default();
        a.entry(10, 20, 9);
        assert!(!verdict(&a, u64::MAX).correct);
        let mut a = Audit::default();
        a.point(10, 20, 9);
        assert!(!verdict(&a, u64::MAX).correct);
    }

    #[test]
    fn a_subpopulation_miss_fails_even_with_dropped_updates() {
        let mut a = Audit::default();
        a.subpop(100, 200, 201);
        assert_eq!(a.misses, 1);
        assert!(!verdict(&a, u64::MAX).correct);
    }

    #[test]
    fn recall_misses_only_count() {
        let mut a = Audit::default();
        a.recall_misses(3);
        assert_eq!(a.misses, 3);
        assert!(verdict(&a, 0).correct);
    }

    #[test]
    fn placement_is_drawn_from_the_allowed_cpus() {
        let pl = Placement::fixed();
        assert!(pl.allowed.contains(&pl.main));
        assert!(pl.writers.iter().all(|c| pl.allowed.contains(c)));
        assert!(pl.report().contains("\"pin_failures\":"));
    }
}

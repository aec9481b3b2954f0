//! Layer micro-timings: public functions of `varan-ring`, `varan-kernel`
//! and `varan-obs` timed from outside, with the payload size and ring
//! geometry of the workload being traced.  They are the denominators the
//! end-to-end numbers are reconciled against (README, "Metric map").

use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::adapter::{
    self, crc32c, Event, EventKind, JournalRecord, Kernel, ProgramExit, RingBuffer,
    SyscallInterface, VersionProgram, WaitLock,
};
use crate::placement;
use crate::stats;
use crate::trial::{TrialOutcome, TrialSpec, Workload};

/// Typical out-of-line payload of each workload's events, bytes.
fn payload_bytes(workload: Workload) -> usize {
    match workload {
        Workload::SyscallDense => 64,
        Workload::PayloadJournaled | Workload::HttpdOpenSharded => 4_096,
        Workload::KvClosed => 264, // mean of the 16–512-byte values
        Workload::KvFailover => 24,
    }
}

fn ns_per(iterations: u64, elapsed: Duration) -> f64 {
    elapsed.as_nanos() as f64 / iterations as f64
}

fn sample_event(i: u64) -> Event {
    Event::syscall(0 /* read */, &[3, i, 64], 64)
}

fn ring_timings(out: &mut TrialOutcome) {
    let (capacity, strategy) = adapter::default_ring();
    const EVENTS: u64 = 1 << 20;

    let ring = Arc::new(RingBuffer::<Event>::new(capacity, 1, strategy).expect("ring"));
    let (producer, mut consumer) = (ring.producer(), ring.consumer(0).expect("consumer"));
    let started = Instant::now();
    for i in 0..EVENTS {
        producer.publish(sample_event(i));
        black_box(consumer.try_next());
    }
    out.extra("ring.publish_consume_ns", ns_per(EVENTS, started.elapsed()));

    let batch: Vec<Event> = (0..64).map(sample_event).collect();
    let mut drained = Vec::with_capacity(64);
    let started = Instant::now();
    for _ in 0..EVENTS / 64 {
        producer.publish_batch(black_box(&batch));
        drained.clear();
        black_box(consumer.try_next_batch(&mut drained, usize::MAX));
    }
    out.extra(
        "ring.batch_publish_consume_ns",
        ns_per(EVENTS, started.elapsed()),
    );
    consumer.unsubscribe();

    // One producer thread, one consumer thread, the product's wait strategy.
    let ring = Arc::new(RingBuffer::<Event>::new(capacity, 1, strategy).expect("ring"));
    let (producer, mut consumer) = (ring.producer(), ring.consumer(0).expect("consumer"));
    let started = Instant::now();
    let publisher = std::thread::spawn(move || {
        // The other CPU, like a leader and its follower.
        placement::pin_follower();
        for i in 0..EVENTS {
            producer.publish(sample_event(i));
        }
    });
    for _ in 0..EVENTS {
        black_box(consumer.next_blocking());
    }
    publisher.join().expect("publisher thread");
    let elapsed = started.elapsed();
    let ring_stats = ring.stats();
    out.extra(
        "ring.xthread_events_per_sec",
        EVENTS as f64 / elapsed.as_secs_f64(),
    );
    out.extra(
        "ring.consumer_waits_per_kop",
        ring_stats.consumer_waits as f64 * 1e3 / EVENTS as f64,
    );

    // WaitLock notify → wake: the waiter parks, the notifier stamps and
    // notifies, the waiter stamps when it runs again.
    let lock = Arc::new(WaitLock::new());
    let mut wake_us = Vec::new();
    for _ in 0..200 {
        let waiter = {
            let lock = Arc::clone(&lock);
            std::thread::spawn(move || {
                // Cross-CPU, the case a follower woken by its leader pays.
                placement::pin_follower();
                lock.wait();
                Instant::now()
            })
        };
        while lock.waiters() == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(Duration::from_micros(50)); // let it actually park
        let notified = Instant::now();
        lock.notify_all();
        let woke = waiter.join().expect("waiter thread");
        wake_us.push(woke.saturating_duration_since(notified).as_secs_f64() * 1e6);
    }
    out.extra("ring.wake_latency_us", stats::median(&wake_us));
}

fn shmem_timings(out: &mut TrialOutcome, payload: usize) {
    let pool = adapter::default_pool();
    const ROUNDS: u64 = 200_000;
    for (name, len) in [("64b", 64usize), ("4k", 4_096)] {
        let data = vec![0xabu8; len];
        let started = Instant::now();
        for _ in 0..ROUNDS {
            let region = pool.alloc_and_write(black_box(&data)).expect("pool alloc");
            pool.free(region).expect("pool free");
        }
        out.extra(
            &format!("ring.shmem.alloc_write_free_ns_{name}"),
            ns_per(ROUNDS, started.elapsed()),
        );
    }
    let region = pool.alloc_and_write(&vec![1u8; 4_096]).expect("pool alloc");
    let started = Instant::now();
    for _ in 0..ROUNDS {
        black_box(pool.read_with(region.ptr(), |bytes| bytes[0] ^ bytes[bytes.len() - 1]));
    }
    out.extra(
        "ring.shmem.read_with_ns_4k",
        ns_per(ROUNDS, started.elapsed()),
    );
    pool.free(region).expect("pool free");
    // The leader keeps one ring lap of payload regions live; hold that many
    // of this workload's size and read the arena the pool grew to.
    let (capacity, _) = adapter::default_ring();
    let window: Vec<_> = (0..capacity)
        .map(|_| {
            pool.alloc_and_write(&vec![2u8; payload])
                .expect("pool alloc")
        })
        .collect();
    out.extra(
        "ring.shmem.arena_mib",
        pool.stats().arena_bytes as f64 / (1024.0 * 1024.0),
    );
    for region in window {
        pool.free(region).expect("pool free");
    }
}

fn record(i: u64, payload: usize) -> JournalRecord {
    JournalRecord {
        kind: EventKind::Syscall,
        sysno: 0,
        tid: 0,
        clock: i,
        result: payload as i64,
        args: [3, i, payload as u64, 0, 0, 0],
        payload: (payload > 0).then(|| vec![(i % 251) as u8; payload]),
    }
}

fn journal_timings(out: &mut TrialOutcome, dir: &Path) {
    const SEGMENT: usize = 4_096;
    const APPENDS: u64 = 40_000;
    for (name, len) in [("64b", 64usize), ("4k", 4_096)] {
        let _ = std::fs::remove_dir_all(dir);
        let journal = adapter::open_journal(dir, SEGMENT).expect("open journal");
        let records: Vec<JournalRecord> = (0..APPENDS).map(|i| record(i, len)).collect();
        let started = Instant::now();
        for record in records {
            journal.append(record).expect("append");
        }
        out.extra(
            &format!("ring.journal.append_ns_{name}"),
            ns_per(APPENDS, started.elapsed()),
        );
        if len == 4_096 {
            let started = Instant::now();
            journal.flush().expect("flush");
            out.extra(
                "ring.journal.flush_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );

            let started = Instant::now();
            let (_, read) = journal.read_from(0, usize::MAX).expect("read_from");
            out.extra(
                "ring.journal.read_from_events_per_sec",
                read.len() as f64 / started.elapsed().as_secs_f64(),
            );
            // An anchor in the middle of the first sealed segment makes it
            // straddle, which is the case compaction rewrites.
            journal.set_anchor(SEGMENT as u64 / 2);
            let started = Instant::now();
            let dropped = journal.compact_to_anchor().expect("compact");
            out.extra(
                "ring.journal.compact_ms",
                started.elapsed().as_secs_f64() * 1e3,
            );
            out.check(
                "micro.compaction_dropped_half_a_segment",
                dropped == SEGMENT as u64 / 2,
                || dropped.to_string(),
            );
        }
    }
    let _ = std::fs::remove_dir_all(dir);

    const ENCODES: u64 = 100_000;
    let sample = record(7, 4_096);
    let mut frame = Vec::with_capacity(8 * 1024);
    let started = Instant::now();
    for _ in 0..ENCODES {
        frame.clear();
        black_box(black_box(&sample).encode_into(&mut frame));
    }
    out.extra(
        "ring.journal.encode_crc_ns_4k",
        ns_per(ENCODES, started.elapsed()),
    );
    let started = Instant::now();
    for _ in 0..ENCODES {
        frame.clear();
        black_box(&sample).encode_into_unchecked(&mut frame);
        black_box(&frame);
    }
    out.extra(
        "ring.journal.encode_nocrc_ns_4k",
        ns_per(ENCODES, started.elapsed()),
    );

    let buffer = vec![0x3cu8; 1 << 20];
    let started = Instant::now();
    for _ in 0..256 {
        black_box(crc32c(black_box(&buffer)));
    }
    let gib = 256.0 * buffer.len() as f64 / (1u64 << 30) as f64;
    out.extra(
        "ring.journal.crc32c_gib_per_sec",
        gib / started.elapsed().as_secs_f64(),
    );
}

/// Echoes every read back until the peer closes.
struct Echo;

const ECHO_PORT: u16 = 17_007;

impl VersionProgram for Echo {
    fn name(&self) -> String {
        "echo".into()
    }

    fn run(&mut self, sys: &mut dyn SyscallInterface) -> ProgramExit {
        let listener = sys.socket() as i32;
        sys.bind(listener, ECHO_PORT);
        sys.listen(listener, 8);
        let conn = sys.accept(listener) as i32;
        loop {
            let data = sys.read(conn, 512);
            if data.is_empty() {
                break;
            }
            sys.write(conn, &data);
        }
        sys.close(conn);
        sys.close(listener);
        ProgramExit::Exited(0)
    }
}

fn kernel_timings(out: &mut TrialOutcome, payload: usize) {
    let kernel = Kernel::new();
    let server = adapter::spawn_native(&kernel, Box::new(Echo));
    let endpoint = adapter::connect(&kernel, ECHO_PORT).expect("echo connect");
    let message = vec![b'e'; payload.clamp(1, 512)];
    let mut rtt_us = Vec::with_capacity(5_000);
    for _ in 0..5_000 {
        let started = Instant::now();
        endpoint.write(&message).expect("echo write");
        let mut got = 0;
        while got < message.len() {
            got += endpoint.read(512, true).expect("echo read").len();
        }
        rtt_us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    endpoint.close();
    let exit = server.join().expect("echo thread");
    out.check("micro.echo_clean", exit.is_clean(), || format!("{exit:?}"));
    out.extra("kernel.loopback_rtt_us", stats::median(&rtt_us));

    // A kernel holding what the workloads populate: the web root file.
    kernel
        .populate_file("/var/www/index.html", vec![b'v'; 4_096])
        .expect("populate");
    // Timed in bulk: one checkpoint of this small kernel is about a
    // microsecond.  (Each adds a process, so the table grows a little.)
    const CHECKPOINTS: u32 = 1_000;
    let started = Instant::now();
    let all_ok = (0..CHECKPOINTS).all(|_| black_box(adapter::checkpoint(&kernel)));
    let elapsed = started.elapsed();
    out.check("micro.checkpoints_succeed", all_ok, || {
        "Kernel::checkpoint failed".into()
    });
    out.extra(
        "kernel.checkpoint_ms",
        elapsed.as_secs_f64() * 1e3 / f64::from(CHECKPOINTS),
    );
}

pub fn run(spec: &TrialSpec) -> TrialOutcome {
    let mut out = TrialOutcome {
        attempted: 1,
        ..TrialOutcome::default()
    };
    let payload = payload_bytes(spec.workload);
    ring_timings(&mut out);
    shmem_timings(&mut out, payload);
    journal_timings(
        &mut out,
        &spec
            .out_dir
            .join(format!("micro-journal-{}", std::process::id())),
    );
    kernel_timings(&mut out, payload);
    // Timed in bulk: one snapshot (~170 ns) is a few ticks of the clock.
    const SNAPSHOTS: u32 = 100_000;
    out.extra(
        "obs.snapshot_us",
        adapter::time_obs_snapshots(SNAPSHOTS).as_secs_f64() * 1e6 / f64::from(SNAPSHOTS),
    );
    out
}

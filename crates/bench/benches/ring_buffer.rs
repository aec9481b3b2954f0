//! Wall-clock benchmarks of the shared ring buffer (§3.3.1), including the
//! comparison against the discarded event-pump design and the shared-memory
//! pool read paths.
//!
//! Rings, queues and consumer threads are constructed **outside** `b.iter`
//! so the timed region measures publish/consume throughput, not `Arc`
//! construction and thread spawning.
//!
//! Two topologies are measured:
//!
//! * `disruptor_publish_consume` / `disruptor_publish_batch` interleave the
//!   producer and every consumer handle on one thread. That makes the cost
//!   of the data plane itself (slot store/load, gating check, cursor
//!   publication, notify) directly visible and scheduler-independent — on a
//!   single-core CI box a cross-thread spin benchmark measures the yield
//!   quantum, not the synchronisation.
//! * `disruptor_threaded` / `pump_publish_consume` run real consumer
//!   threads, which is the realistic topology on multicore hosts.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use varan_baselines::pump::{EventPump, PumpQueue};
use varan_ring::{Event, PoolAllocator, RingBuffer, WaitStrategy};

const BATCH: u64 = 4_096;
const RING_CAPACITY: usize = 1024;
/// Events published per claim in the batched benchmarks (must fit the ring).
const PUBLISH_CHUNK: u64 = 256;

/// Interleaved single-thread measurement: publish a chunk, then have every
/// consumer handle consume it, per-event or batched.
fn bench_disruptor_interleaved(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_buffer");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(BATCH));

    for consumers in [1usize, 3] {
        let ring = Arc::new(
            RingBuffer::<Event>::new(RING_CAPACITY, consumers, WaitStrategy::Spin).unwrap(),
        );
        let producer = ring.producer();
        let mut handles: Vec<_> = (0..consumers)
            .map(|slot| ring.consumer(slot).unwrap())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("disruptor_publish_consume", consumers),
            &consumers,
            |b, _| {
                b.iter(|| {
                    for chunk in 0..(BATCH / PUBLISH_CHUNK) {
                        for i in 0..PUBLISH_CHUNK {
                            producer.publish(Event::checkpoint(chunk * PUBLISH_CHUNK + i));
                        }
                        for consumer in handles.iter_mut() {
                            for _ in 0..PUBLISH_CHUNK {
                                criterion::black_box(consumer.try_next().unwrap());
                            }
                        }
                    }
                });
            },
        );

        let chunk_events: Vec<Event> = (0..PUBLISH_CHUNK).map(Event::checkpoint).collect();
        let mut buffer: Vec<Event> = Vec::with_capacity(RING_CAPACITY);
        group.bench_with_input(
            BenchmarkId::new("disruptor_publish_batch", consumers),
            &consumers,
            |b, _| {
                b.iter(|| {
                    for _ in 0..(BATCH / PUBLISH_CHUNK) {
                        producer.publish_batch(&chunk_events);
                        for consumer in handles.iter_mut() {
                            buffer.clear();
                            let n = consumer.try_next_batch(&mut buffer, usize::MAX);
                            criterion::black_box(n);
                        }
                    }
                });
            },
        );
    }
    group.finish();
}

/// A fleet of consumer threads plus the counters used to observe progress.
struct Consumers {
    counters: Vec<Arc<AtomicU64>>,
    stop: Arc<AtomicBool>,
    handles: Vec<JoinHandle<()>>,
}

impl Consumers {
    fn baseline(&self) -> Vec<u64> {
        self.counters
            .iter()
            .map(|counter| counter.load(Ordering::Acquire))
            .collect()
    }

    /// Waits until every consumer has advanced `amount` past `baseline`.
    fn await_progress(&self, baseline: &[u64], amount: u64) {
        for (counter, base) in self.counters.iter().zip(baseline) {
            while counter.load(Ordering::Acquire) < base + amount {
                std::thread::yield_now();
            }
        }
    }

    fn finish(self) {
        self.stop.store(true, Ordering::Release);
        for handle in self.handles {
            handle.join().unwrap();
        }
    }
}

/// Spawns one long-lived, batch-draining consumer thread per ring slot.
fn spawn_ring_consumers(ring: &Arc<RingBuffer<Event>>, consumers: usize) -> Consumers {
    let stop = Arc::new(AtomicBool::new(false));
    let counters: Vec<Arc<AtomicU64>> = (0..consumers)
        .map(|_| Arc::new(AtomicU64::new(0)))
        .collect();
    let handles = (0..consumers)
        .map(|slot| {
            let mut consumer = ring.consumer(slot).unwrap();
            let counter = Arc::clone(&counters[slot]);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buffer = Vec::with_capacity(RING_CAPACITY);
                loop {
                    buffer.clear();
                    let consumed = consumer.try_next_batch(&mut buffer, usize::MAX) as u64;
                    if consumed > 0 {
                        counter.fetch_add(consumed, Ordering::Release);
                    } else if stop.load(Ordering::Acquire) {
                        return;
                    } else {
                        std::thread::yield_now();
                    }
                }
            })
        })
        .collect();
    Consumers {
        counters,
        stop,
        handles,
    }
}

fn bench_disruptor_threaded(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_buffer_threaded");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(BATCH));

    for consumers in [1usize, 3] {
        let ring = Arc::new(
            RingBuffer::<Event>::new(RING_CAPACITY, consumers, WaitStrategy::Yield).unwrap(),
        );
        let producer = ring.producer();
        let fleet = spawn_ring_consumers(&ring, consumers);
        group.bench_with_input(
            BenchmarkId::new("disruptor_threaded", consumers),
            &consumers,
            |b, _| {
                b.iter(|| {
                    let baseline = fleet.baseline();
                    for i in 0..BATCH {
                        producer.publish(Event::checkpoint(i));
                    }
                    fleet.await_progress(&baseline, BATCH);
                });
            },
        );
        fleet.finish();
    }
    group.finish();
}

fn bench_event_pump(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_pump_baseline");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Elements(BATCH));

    // Interleaved single-thread pump: same topology as the interleaved
    // disruptor benches, so the two are directly comparable.
    for followers in [1usize, 3] {
        let leader = PumpQueue::new(RING_CAPACITY);
        let follower_queues: Vec<PumpQueue<Event>> = (0..followers)
            .map(|_| PumpQueue::new(RING_CAPACITY))
            .collect();
        let mut pump = EventPump::new(leader.clone(), follower_queues.clone());
        let mut buffer: Vec<Event> = Vec::with_capacity(RING_CAPACITY);
        group.bench_with_input(
            BenchmarkId::new("pump_publish_consume", followers),
            &followers,
            |b, _| {
                b.iter(|| {
                    for chunk in 0..(BATCH / PUBLISH_CHUNK) {
                        for i in 0..PUBLISH_CHUNK {
                            leader.push(Event::checkpoint(chunk * PUBLISH_CHUNK + i));
                        }
                        pump.pump_until_empty();
                        for queue in &follower_queues {
                            buffer.clear();
                            criterion::black_box(queue.pop_batch(&mut buffer, usize::MAX));
                        }
                    }
                });
            },
        );
    }
    group.finish();
}

fn bench_pool(c: &mut Criterion) {
    const READS: u64 = 4_096;
    const PAYLOAD: usize = 4_096;

    let mut group = c.benchmark_group("shared_pool");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
        .throughput(Throughput::Bytes(READS * PAYLOAD as u64));

    let pool = PoolAllocator::default();
    let region = pool.alloc_and_write(&vec![0xabu8; PAYLOAD]).unwrap();
    let ptr = region.ptr();

    group.bench_function("read_alloc_per_call", |b| {
        b.iter(|| {
            for _ in 0..READS {
                criterion::black_box(pool.read(ptr));
            }
        });
    });

    group.bench_function("read_into_reused_buffer", |b| {
        let mut buffer = Vec::with_capacity(PAYLOAD);
        b.iter(|| {
            for _ in 0..READS {
                criterion::black_box(pool.read_into(ptr, &mut buffer));
            }
        });
    });

    group.bench_function("alloc_free_cycle", |b| {
        b.iter(|| {
            for _ in 0..READS {
                let region = pool.alloc(PAYLOAD).unwrap();
                pool.free(criterion::black_box(region)).unwrap();
            }
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_disruptor_interleaved,
    bench_disruptor_threaded,
    bench_event_pump,
    bench_pool
);
criterion_main!(benches);

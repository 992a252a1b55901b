//! Fixture: the engine's route is `lint:hot-path`; constructing fresh
//! buckets per batch is exactly what the mark forbids.
// lint:hot-path
fn bucket_records(spans: &[(usize, usize)], shards: usize) -> Vec<Vec<usize>> {
    let mut buckets = Vec::new();
    for _ in 0..shards.max(1) {
        buckets.push(Vec::new());
    }
    for (i, _span) in spans.iter().enumerate() {
        if let Some(bucket) = buckets.get_mut(i % shards.max(1)) {
            bucket.push(i);
        }
    }
    buckets
}

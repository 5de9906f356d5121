# Sourced by the CI steps that byte-compare BENCH JSON bodies.
# strip_wall FILE prints FILE without its wall-clock / sync-overhead lines;
# the key list is `flextoe_bench::scale::WALL_KEYS_RE` (a unit test there
# fails if the two drift apart).
strip_wall() {
  grep -vE '"(wall_secs|wall_events_per_sec|jobs|physical_cores|shards|threads_total|shard_windows|shard_envelopes|shard_blocked_ns|fattree_wall)"' "$1"
}

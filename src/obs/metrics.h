#ifndef NEBULA_OBS_METRICS_H_
#define NEBULA_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/sync.h"

/// Compile-time master switch for the observability layer. The build
/// defines NEBULA_OBS_ENABLED=0 under -DNEBULA_OBS=OFF; instrumentation
/// sites are written as `if constexpr (obs::kEnabled)` so the disabled
/// build still type-checks them but emits no code.
#ifndef NEBULA_OBS_ENABLED
#define NEBULA_OBS_ENABLED 1
#endif

namespace nebula {
namespace obs {

inline constexpr bool kEnabled = NEBULA_OBS_ENABLED != 0;

/// Small dense per-process thread ordinal (1, 2, 3, ...) — readable in log
/// lines and wide events, unlike std::thread::id.
uint32_t CurrentThreadId();

/// A monotonically increasing event count. All operations use relaxed
/// atomics: counters are statistics, not synchronization.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A value that can go up and down (queue depths, graph sizes).
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  void Sub(int64_t d) { value_.fetch_sub(d, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Fixed exponential-bucket latency histogram (microseconds).
///
/// Bucket i holds observations <= 2^i us (bucket 0: <= 1 us, bucket 25:
/// <= ~33.5 s); the last bucket is the +Inf overflow. Observe() is
/// wait-free: the buckets are sharded (striped) per thread so concurrent
/// pool workers never contend on the same cache line, and each shard's
/// cells are relaxed atomics. Snapshots fold the shards.
class Histogram {
 public:
  static constexpr size_t kNumFinite = 26;
  static constexpr size_t kNumBuckets = kNumFinite + 1;  // + overflow
  static constexpr size_t kNumShards = 8;

  /// Upper bound of bucket i in microseconds (2^i); the overflow bucket
  /// has no finite bound.
  static uint64_t BucketUpperBound(size_t i) { return uint64_t{1} << i; }
  /// Index of the bucket an observation lands in.
  static size_t BucketIndex(uint64_t value_us);

  void Observe(uint64_t value_us);

  struct Snapshot {
    uint64_t buckets[kNumBuckets] = {};  ///< per-bucket (non-cumulative)
    uint64_t count = 0;
    uint64_t sum = 0;

    /// Per-bucket difference `*this - baseline`, for interval
    /// percentiles over a live histogram: snapshot at the start and end
    /// of a window and diff. Subtraction saturates at zero per cell, so
    /// a stale baseline (or torn relaxed reads under concurrent
    /// recording) can never produce wrapped-around garbage; `count` is
    /// recomputed from the differenced buckets.
    Snapshot Delta(const Snapshot& baseline) const;

    /// Quantile estimate in microseconds (q in [0, 1], clamped), using
    /// linear interpolation inside the exponential bucket the rank lands
    /// in. Empty snapshots report 0; mass in the +Inf overflow bucket
    /// saturates to the largest finite bound (~33.5 s), mirroring
    /// Prometheus' histogram_quantile. Monotone in q by construction.
    uint64_t Quantile(double q) const;
  };
  Snapshot GetSnapshot() const;

  /// The percentile ladder every exporter and report uses.
  struct QuantileSpec {
    const char* name;
    double q;
  };
  static constexpr QuantileSpec kStandardQuantiles[] = {
      {"p50", 0.5}, {"p90", 0.9}, {"p95", 0.95},
      {"p99", 0.99}, {"p999", 0.999}};

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> buckets[kNumBuckets] = {};
    std::atomic<uint64_t> sum{0};
  };
  Shard shards_[kNumShards];
};

enum class MetricType { kCounter, kGauge, kHistogram };

const char* MetricTypeName(MetricType type);

/// Sorted (name, value) label pairs identifying one time series within a
/// metric family.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// A registry of named metric families, each fanning out into labeled
/// instruments. `Global()` is the process-wide instance every
/// instrumentation site uses; independent instances can be constructed
/// for tests and golden exports.
///
/// The Get* calls take a mutex but are meant to run once per
/// instrumentation site (callers cache the returned pointer, which stays
/// valid for the registry's lifetime — the global registry is
/// intentionally leaked so shutdown paths may still record). The hot
/// path — Increment / Set / Observe on the returned instrument — never
/// touches the registry again.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& Global();

  /// Find-or-create. The first call for a name fixes the family's type
  /// and help text; a later call with the same name but a different type
  /// is a programming error and returns a detached dummy instrument (so
  /// the caller never crashes, but the sample is not exported).
  Counter* GetCounter(const std::string& name, Labels labels = {},
                      const std::string& help = "");
  Gauge* GetGauge(const std::string& name, Labels labels = {},
                  const std::string& help = "");
  Histogram* GetHistogram(const std::string& name, Labels labels = {},
                          const std::string& help = "");

  /// Point-in-time copy of every family for the exporters. Families are
  /// ordered by name, samples by label key, so exports are deterministic.
  struct Sample {
    Labels labels;
    uint64_t counter_value = 0;
    int64_t gauge_value = 0;
    Histogram::Snapshot histogram;
  };
  struct Family {
    std::string name;
    std::string help;
    MetricType type = MetricType::kCounter;
    std::vector<Sample> samples;
  };
  std::vector<Family> Snapshot() const;

  size_t num_families() const;

 private:
  struct Instrument {
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct FamilyImpl {
    std::string help;
    MetricType type = MetricType::kCounter;
    // Keyed by the serialized label set; std::map keeps exports sorted.
    std::map<std::string, Instrument> instruments;
  };

  Instrument* GetInstrument(const std::string& name, MetricType type,
                            Labels labels, const std::string& help)
      EXCLUDES(mutex_);

  mutable Mutex mutex_{kLockRankObsMetrics};
  std::map<std::string, FamilyImpl> families_ GUARDED_BY(mutex_);
};

}  // namespace obs
}  // namespace nebula

#endif  // NEBULA_OBS_METRICS_H_

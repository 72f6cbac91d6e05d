#ifndef CURBENCH_HARNESS_H_
#define CURBENCH_HARNESS_H_

// Helpers of the curation benchmark that carry a rule worth testing on its
// own: the percentile rule, the output digest and the no-repeat check.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace curbench {

/// Nearest-rank percentile of `samples` (q in (0, 1]); 0 when empty.
double Percentile(std::vector<double> samples, double q);

/// How many samples lie strictly above the nearest-rank q-percentile of n
/// samples: n - ceil(q * n).
size_t SamplesBeyond(size_t n, double q);

/// A timing reported as a median plus p99. The p99 is taken over each run
/// of kP99Chunk consecutive samples (10 beyond the rank in each; a
/// remainder is left out) and reported as the median over those chunks, so
/// a stall of a second or two on a shared host moves at most one chunk.
/// `p99_supported` holds when there is at least one chunk.
struct Timing {
  double p50 = 0;
  double p99 = 0;
  size_t n = 0;
  size_t chunks = 0;
  bool p99_supported = false;
};
inline constexpr size_t kMinTail = 10;
inline constexpr size_t kP99Chunk = 1000;
// A chunk leaves kMinTail samples beyond its nearest-rank p99,
// n - ceil(0.99 n).
static_assert(kP99Chunk - (99 * kP99Chunk + 99) / 100 >= kMinTail);
Timing Summarize(const std::vector<double>& samples);

/// 64-bit FNV-1a over the stream's outputs. Doubles are folded by their
/// bit pattern, so a result that differs in the last ulp changes the
/// digest.
class Digest {
 public:
  void Add(uint64_t v);
  void AddDouble(double d);
  uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b);
  uint64_t h_ = 14695981039346656037ull;
};

/// Index of the first text that equals an earlier one, or -1 when every
/// text is distinct.
long FirstRepeat(const std::vector<std::string>& texts);

}  // namespace curbench

#endif  // CURBENCH_HARNESS_H_

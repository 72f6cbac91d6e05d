#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

namespace curbench {

namespace {

// ceil(q * n) without letting a representation error such as
// 0.99 * 1000 = 990.0000000000001 push the rank up by one.
size_t Rank(size_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const double rounded = std::round(exact);
  if (std::fabs(exact - rounded) < 1e-9) return static_cast<size_t>(rounded);
  return static_cast<size_t>(std::ceil(exact));
}

}  // namespace

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  const size_t rank = std::max<size_t>(1, Rank(samples.size(), q));
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double q) { return n - Rank(n, q); }

Timing Summarize(const std::vector<double>& samples) {
  Timing t;
  t.n = samples.size();
  t.p50 = Percentile(samples, 0.5);
  std::vector<double> chunk_p99;
  for (size_t i = 0; i + kP99Chunk <= samples.size(); i += kP99Chunk) {
    chunk_p99.push_back(Percentile(
        std::vector<double>(samples.begin() + i,
                            samples.begin() + i + kP99Chunk),
        0.99));
  }
  t.chunks = chunk_p99.size();
  t.p99_supported = t.chunks > 0;
  t.p99 = t.chunks > 0 ? Percentile(chunk_p99, 0.5) : Percentile(samples, 0.99);
  return t;
}

void Digest::Byte(unsigned char b) {
  h_ ^= b;
  h_ *= 1099511628211ull;
}

void Digest::Add(uint64_t v) {
  for (int i = 0; i < 8; ++i) Byte(static_cast<unsigned char>(v >> (8 * i)));
}

void Digest::AddDouble(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  Add(bits);
}

long FirstRepeat(const std::vector<std::string>& texts) {
  std::unordered_set<std::string> seen;
  seen.reserve(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    if (!seen.insert(texts[i]).second) return static_cast<long>(i);
  }
  return -1;
}

}  // namespace curbench

// Self-tests of the benchmark's helpers. Exits non-zero on the first
// failed check; run.py runs it before every benchmark run.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "curbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

void TestPercentileRule() {
  // 1000 samples leave exactly 10 beyond the p99 rank; 999 leave 9.
  Check(curbench::SamplesBeyond(1000, 0.99) == 10, "10 beyond p99 of 1000");
  Check(curbench::SamplesBeyond(999, 0.99) == 9, "9 beyond p99 of 999");
  const curbench::Timing full = curbench::Summarize(Ramp(1000));
  Check(full.p99_supported, "p99 supported at n=1000");
  Check(full.p99 == 990 && full.p50 == 500, "nearest-rank p50/p99 of 1..1000");
  Check(full.n == 1000, "sample count reported");
  Check(!curbench::Summarize(Ramp(999)).p99_supported,
        "p99 unsupported at n=999");
  // Three chunks: the p99 is the middle chunk's, whatever one stall does.
  std::vector<double> three = Ramp(1000);
  for (double v : Ramp(1000)) three.push_back(v + 1000);
  for (double v : Ramp(1000)) three.push_back(v * 1e6);
  const curbench::Timing chunked = curbench::Summarize(three);
  Check(chunked.chunks == 3 && chunked.p99 == 1990,
        "p99 is the median of per-chunk p99s");
  Check(curbench::Summarize(Ramp(2500)).chunks == 2,
        "a partial chunk is left out");
  const curbench::Timing none = curbench::Summarize({});
  Check(!none.p99_supported && none.p50 == 0, "empty series");
  Check(curbench::Percentile({7}, 0.99) == 7, "single sample");
}

void TestDigest() {
  curbench::Digest empty;
  Check(empty.value() == 14695981039346656037ull, "FNV-1a offset basis");
  curbench::Digest a, b;
  a.Add(uint64_t{1});
  a.Add(uint64_t{2});
  b.Add(uint64_t{2});
  b.Add(uint64_t{1});
  Check(a.value() != b.value(), "digest is order sensitive");
  curbench::Digest pz, nz;
  pz.AddDouble(0.0);
  nz.AddDouble(-0.0);
  Check(pz.value() != nz.value(), "doubles fold by bit pattern");
  curbench::Digest x, y;
  x.AddDouble(0.1 + 0.2);
  y.AddDouble(0.3);
  Check(x.value() != y.value(), "one-ulp difference changes the digest");
}

void TestNoRepeat() {
  Check(curbench::FirstRepeat({}) == -1, "empty stream has no repeat");
  Check(curbench::FirstRepeat({"a", "b", "c"}) == -1, "distinct texts");
  Check(curbench::FirstRepeat({"a", "b", "a", "b"}) == 2,
        "first repeat index");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestDigest();
  TestNoRepeat();
  if (failures != 0) return EXIT_FAILURE;
  std::printf("curbench_selftest: ok\n");
  return EXIT_SUCCESS;
}

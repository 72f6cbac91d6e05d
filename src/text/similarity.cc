#include "text/similarity.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace nebula {

std::vector<uint32_t> TrigramIdSet(std::string_view s) {
  std::string padded = "^^";
  padded.append(s);
  padded += "$$";
  std::vector<uint32_t> out;
  out.reserve(padded.size());
  for (size_t i = 0; i + 3 <= padded.size(); ++i) {
    out.push_back(static_cast<uint32_t>(
        (static_cast<unsigned char>(padded[i]) << 16) |
        (static_cast<unsigned char>(padded[i + 1]) << 8) |
        static_cast<unsigned char>(padded[i + 2])));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

double TrigramJaccardIds(const std::vector<uint32_t>& a,
                         const std::vector<uint32_t>& b) {
  if (a.empty() && b.empty()) return 1.0;
  size_t inter = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  const size_t uni = a.size() + b.size() - inter;
  return uni == 0 ? 0.0 : static_cast<double>(inter) / static_cast<double>(uni);
}

std::string StemLite(std::string_view lower_word) {
  std::string w(lower_word);
  auto ends = [&](std::string_view suffix) {
    return w.size() > suffix.size() + 2 &&
           w.compare(w.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends("ies")) {
    w.replace(w.size() - 3, 3, "y");
  } else if (ends("sses")) {
    w.erase(w.size() - 2);
  } else if (ends("ing")) {
    w.erase(w.size() - 3);
  } else if (ends("ed")) {
    w.erase(w.size() - 2);
  } else if (ends("ly")) {
    w.erase(w.size() - 2);
  } else if (w.size() > 3 && w.back() == 's' && w[w.size() - 2] != 's') {
    w.pop_back();
  }
  return w;
}

}  // namespace nebula

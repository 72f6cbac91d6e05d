/// nebula_datagen — generates the synthetic UniProt-like annotated
/// database and writes it to disk in the library's persistence format.
///
/// Usage:
///   nebula_datagen <output-dir> [--size tiny|small|mid|large]
///                  [--seed N] [--workload <file>]
///
/// The main database (tables + foreign keys + corpus annotations +
/// attachments) goes to <output-dir>; with --workload, the held-out
/// workload annotations and their ground truth are written as a TSV the
/// shell / downstream experiments can replay.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include "annotation/serialize.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "workload/generator.h"
#include "workload/spec.h"

using namespace nebula;

namespace {

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <output-dir> [--size tiny|small|mid|large] "
               "[--seed N] [--workload <file>]\n",
               argv0);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage(argv[0]);
    return 2;
  }
  const std::string output_dir = argv[1];
  DatasetSpec spec = DatasetSpec::Small();
  std::string workload_path;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--size") == 0 && i + 1 < argc) {
      const std::string size = argv[++i];
      if (size == "tiny") {
        spec = DatasetSpec::Tiny();
      } else if (size == "small") {
        spec = DatasetSpec::Small();
      } else if (size == "mid") {
        spec = DatasetSpec::Mid();
      } else if (size == "large") {
        spec = DatasetSpec::Large();
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      const std::optional<uint64_t> seed = ParseUint64(argv[++i]);
      if (!seed) {
        Usage(argv[0]);
        return 2;
      }
      spec.seed = *seed;
    } else if (std::strcmp(argv[i], "--workload") == 0 && i + 1 < argc) {
      workload_path = argv[++i];
    } else {
      Usage(argv[0]);
      return 2;
    }
  }

  Stopwatch sw;
  auto dataset = GenerateBioDataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generation failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("generated %zu genes, %zu proteins, %zu publications "
              "(%zu annotations, %zu attachments) in %.1fs\n",
              spec.num_genes, spec.num_proteins, spec.num_publications,
              (*dataset)->store.num_annotations(),
              (*dataset)->store.num_attachments(), sw.ElapsedSeconds());

  sw.Restart();
  if (Status st = DatabaseSerializer::Save(output_dir, (*dataset)->catalog,
                                           &(*dataset)->store);
      !st.ok()) {
    std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote database to %s in %.1fs\n", output_dir.c_str(),
              sw.ElapsedSeconds());

  if (!workload_path.empty()) {
    std::ofstream out(workload_path, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", workload_path.c_str());
      return 1;
    }
    out << "# size_class\tlink_lo\tlink_hi\tideal_tuples\ttext\n";
    for (const auto& wa : (*dataset)->workload.annotations) {
      out << wa.size_class << '\t' << wa.link_class_lo << '\t'
          << wa.link_class_hi << '\t';
      for (size_t i = 0; i < wa.ideal_tuples.size(); ++i) {
        if (i > 0) out << ',';
        out << wa.ideal_tuples[i].ToString();
      }
      out << '\t' << EscapeField(wa.text) << '\n';
    }
    std::printf("wrote %zu workload annotations to %s\n",
                (*dataset)->workload.annotations.size(),
                workload_path.c_str());
  }
  return 0;
}

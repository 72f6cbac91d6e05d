#ifndef NEBULA_WORKLOAD_GENERATOR_H_
#define NEBULA_WORKLOAD_GENERATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "annotation/annotation_store.h"
#include "annotation/quality.h"
#include "common/random.h"
#include "common/status.h"
#include "core/bounds_setting.h"
#include "meta/nebula_meta.h"
#include "storage/catalog.h"
#include "storage/schema.h"
#include "workload/spec.h"

namespace nebula {

/// A fully generated synthetic curated biological database — the repo's
/// stand-in for the paper's UniProt subset (see DESIGN.md substitutions).
///
/// Contains: the relational catalog (Gene / Protein / Publication plus the
/// publication link tables, FKs and text columns declared), the
/// annotation store holding every corpus publication attached to the
/// tuples it cites (treated as the complete, ideal annotated database),
/// the populated NebulaMeta, the held-out workload annotations with exact
/// ground truth, and the calibrated noise pools.
class BioDataset {
 public:
  Catalog catalog;
  AnnotationStore store;
  NebulaMeta meta;
  Workload workload;
  DatasetSpec spec;

  uint32_t gene_table = 0;
  uint32_t protein_table = 0;
  uint32_t publication_table = 0;

  /// Calibrated pools (exposed for tests / benchmarks).
  std::vector<std::string> weak_noise_pool;   ///< scores in [0.4, 0.6)
  std::vector<std::string> decoy_pool;        ///< scores >= 0.8, absent ids
  /// Distinct protein names bucketed by calibrated match strength.
  std::vector<std::string> strong_pnames;     ///< score >= 0.8
  std::vector<std::string> medium_pnames;     ///< score in [0.6, 0.8)

  /// Snapshot of the corpus edges (the D_ideal of the experiments; the
  /// workload annotations' ground truth lives in `workload`).
  EdgeSet CorpusIdealEdges() const {
    return EdgeSet::FromStore(store, /*true_only=*/true);
  }

  /// Samples `n` corpus annotations with their complete attachment sets —
  /// the D_Training input of the BoundsSetting algorithm.
  std::vector<TrainingAnnotation> SampleTrainingSet(size_t n, Rng* rng) const;

  TupleId GeneTuple(uint64_t row) const { return {gene_table, row}; }
  TupleId ProteinTuple(uint64_t row) const { return {protein_table, row}; }
};

/// Generates the dataset deterministically from `spec.seed`.
[[nodiscard]] Result<std::unique_ptr<BioDataset>> GenerateBioDataset(const DatasetSpec& spec);

}  // namespace nebula

#endif  // NEBULA_WORKLOAD_GENERATOR_H_
